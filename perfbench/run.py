"""histcmi benchmark: three workloads driven in process through the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--toy]

Load shape: one process, one client, closed loop (each call starts when the
previous one returns), BLAS and OpenMP pools pinned to one thread.  Inputs
come from ``datagen.generate`` with replicate seeds derived from ``--seed``;
the timed code receives only arrays or ``Dataset``s.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
re-run of the same inputs.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMBA_NUM_THREADS": "1"}

SETUP_REPEATS = 3
# p90 needs at least 10 samples beyond it; a run may stretch to reach them
MIN_LATENCY_SAMPLES = 100
MAX_STRETCH = 1.5
# seeds of warm-up inputs sit far past any measured input index
WARMUP_INDEX = 2 ** 32
ESTIMATE_TOL = 1e-9
MIN_PRECISION, MIN_RECALL = 0.95, 0.85  # acceptance criterion 10


@dataclass(frozen=True)
class Spec:
    kind: str                      # "estimate" or "network"
    n: int
    toy_n: int
    rotation: tuple                # (scenario id, extra) cycled over input indices
    chunk: int                     # inputs generated per batch, the first in set-up
    digest_units: int              # leading units hashed into the output digest


WORKLOADS = {
    "estimate_n1000": Spec(
        "estimate", 1000, 200,
        (("exp1", {}), ("exp2", {}), ("exp3", {}), ("exp4", {}), ("exp5", {}),
         ("exp6", {"k": 2})),
        chunk=60, digest_units=60),
    "estimate_highdim_n10000": Spec(
        "estimate", 10000, 1000, (("exp6", {"k": 4}),), chunk=8, digest_units=20),
    "discover_network_n10000": Spec(
        "network", 10000, 1000, (("network", {}),), chunk=1, digest_units=1),
}

SELF_LAYERS = (
    "data_model.detect_discrete_points", "data_model.assign_labels",
    "data_model.build_grid", "complexity.total_score", "hist1d.kernel",
    "hist1d.solve_segmentation", "histmd.greedy_fit", "histmd.init_discretization",
    "histmd.refine_dimension", "estimators.cmi_estimate", "estimators.plugin_entropy",
    "estimators.continuous_entropy_terms", "citest.citest_chi2",
    "causal.pc_stable_skeleton", "cli.make_ci_test",
)
COUNTED_METRICS = (
    ("data_model.build_grid.calls", "count"), ("data_model.build_grid.rows", "count"),
    ("data_model.build_grid.cells", "count"), ("complexity.total_score.calls", "count"),
    ("complexity.log_regret.calls", "count"), ("hist1d.kernel.calls", "count"),
    ("hist1d.kernel.ops", "count"), ("hist1d.kernel.bytes_computed", "bytes"),
    ("hist1d.solve_segmentation.calls", "count"), ("hist1d.dp.cells", "count"),
    ("histmd.greedy_fit.calls", "count"), ("histmd.refine_dimension.calls", "count"),
    ("histmd.fit.iterations", "count"), ("citest.citest_chi2.calls", "count"),
)


def import_histcmi() -> dict:
    """Import histcmi from this checkout's src/ and return its modules by name."""
    if not (SRC / "histcmi" / "__init__.py").is_file():
        raise ImportError(f"no histcmi package under {SRC}")
    sys.path.insert(0, str(SRC))
    import histcmi

    if Path(histcmi.__file__).resolve().parent != (SRC / "histcmi").resolve():
        raise ImportError(f"histcmi resolved to {histcmi.__file__}, outside {SRC}")
    names = ("causal", "citest", "cli", "complexity", "data_model", "datagen",
             "estimators", "hist1d", "histmd")
    mods = {name: importlib.import_module(f"histcmi.{name}") for name in names}
    mods["numpy"] = importlib.import_module("numpy")
    return mods


@dataclass
class Tally:
    """Everything one measured phase produced."""

    latencies: list = field(default_factory=list)   # s, per estimate or CI test
    unit_s: list = field(default_factory=list)      # s, per estimate or skeleton
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)     # per unit, for the digest
    sq_errors: list = field(default_factory=list)   # estimates vs closed-form truth
    precision: list = field(default_factory=list)
    recall: list = field(default_factory=list)
    ci_tests: list = field(default_factory=list)    # per skeleton: [(level, column set)]
    check_failures: list = field(default_factory=list)


class EstimateWorkload:
    """``cmi_estimate`` on fresh data each call; no column set ever repeats."""

    def __init__(self, mods, spec: Spec, n: int, seed: int):
        self.m, self.spec, self.n, self.seed = mods, spec, n, seed
        self.batch_start, self.batch = None, []

    def scenario(self, index: int):
        scenario, extra = self.spec.rotation[index % len(self.spec.rotation)]
        dg = self.m["datagen"]
        return dg.ScenarioSpec(scenario, self.n, dg.replicate_seed(self.seed, index), extra)

    def make_input(self, index: int):
        scenario = self.scenario(index)
        ds = self.m["datagen"].generate(scenario)
        names = ds.x + ds.y + ds.z
        data = self.m["numpy"].column_stack([ds.column(c) for c in names])
        group = self.m["estimators"].VariableGroup
        nx, nxy = len(ds.x), len(ds.x) + len(ds.y)
        return (data, group("X", tuple(range(nx))), group("Y", tuple(range(nx, nxy))),
                group("Z", tuple(range(nxy, len(names)))),
                self.m["datagen"].ground_truth(scenario))

    def warm_up(self, repeat: int) -> None:
        data, x, y, z, _ = self.make_input(WARMUP_INDEX + repeat)
        self.m["estimators"].cmi_estimate(data, x, y, z)

    def run_unit(self, index: int, tally: Tally) -> None:
        data, x, y, z, truth = self.input(index)
        t0 = time.perf_counter()
        try:
            value = self.m["estimators"].cmi_estimate(data, x, y, z).value
        except Exception:  # noqa: BLE001 - a failed call is counted, the loop goes on
            traceback.print_exc()
            value = math.nan
        seconds = time.perf_counter() - t0
        tally.attempted += 1
        tally.latencies.append(seconds)
        tally.unit_s.append(seconds)
        tally.outputs.append(value.hex())
        if math.isfinite(value) and value >= -ESTIMATE_TOL:
            tally.sq_errors.append((value - truth) ** 2)
        else:
            tally.failed += 1
            tally.check_failures.append(f"input {index}: estimate {value!r} not finite and >= 0")

    def input(self, index: int):
        """Input ``index``, generated with its batch; only one batch is held, so
        memory does not grow with the number of calls a run completes."""
        start = index - index % self.spec.chunk
        if start != self.batch_start:
            self.batch = [self.make_input(i) for i in range(start, start + self.spec.chunk)]
            self.batch_start = start
        return self.batch[index - start]

    def final_checks(self, tally: Tally, toy: bool) -> None:
        pass


class NetworkWorkload(EstimateWorkload):
    """One PC-stable skeleton per replicate seed, CI tests as ``histcmi discover`` runs them."""

    def make_input(self, index: int):
        return self.m["datagen"].generate(self.scenario(index))

    def warm_up(self, repeat: int) -> None:
        self.ci = self.m["cli"].make_ci_test(self.m["histmd"].FitConfig(), "chi2", 0.01)
        self.ci(self.make_input(WARMUP_INDEX + repeat), "A", "B", ())

    def run_unit(self, index: int, tally: Tally) -> None:
        dataset = self.input(index)
        tests = []

        def timed_ci(ds, a, b, cond):
            verdict = None
            t0 = time.perf_counter()
            try:
                verdict = self.ci(ds, a, b, cond)
                return verdict
            finally:
                tests.append((a, b, tuple(cond), verdict, time.perf_counter() - t0))

        t0 = time.perf_counter()
        try:
            skeleton = self.m["causal"].pc_stable_skeleton(dataset, timed_ci)
        except Exception:  # noqa: BLE001 - a failed call is counted, the loop goes on
            traceback.print_exc()
            skeleton = None
        tally.unit_s.append(time.perf_counter() - t0)
        tally.attempted += len(tests)
        tally.latencies.extend(t[4] for t in tests)
        tally.ci_tests.append([(len(c), tuple(sorted((a, b) + c))) for a, b, c, _, _ in tests])
        if skeleton is None:
            tally.failed += 1
            tally.check_failures.append(f"skeleton {index} raised")
            tally.outputs.append(None)
            return
        precision, recall = self.m["causal"].precision_recall(
            skeleton.edges, self.m["datagen"].true_network_edges())
        tally.precision.append(precision)
        tally.recall.append(recall)
        tally.outputs.append(([t[:4] for t in tests], sorted(skeleton.edges),
                              sorted(skeleton.separating_sets.items())))

    def final_checks(self, tally: Tally, toy: bool) -> None:
        # the thresholds hold at n=10000 only; toy runs check the call path
        if toy or not tally.precision:
            return
        p, r = statistics.fmean(tally.precision), statistics.fmean(tally.recall)
        if p < MIN_PRECISION or r < MIN_RECALL:
            tally.check_failures.append(
                f"mean precision {p:.3f} (>= {MIN_PRECISION}) / recall {r:.3f} (>= {MIN_RECALL})")
            tally.failed = tally.attempted


def measure(workload, tally: Tally, seconds: float, min_samples: int) -> None:
    """Closed loop over inputs 0, 1, ... for about ``seconds``.

    A unit starts only if the median unit time says it ends within the budget,
    unless fewer than ``min_samples`` latencies are in, in which case the run
    may stretch to ``MAX_STRETCH`` times the budget.
    """
    start = time.perf_counter()
    index = 0
    while True:
        if tally.unit_s:
            ends = time.perf_counter() - start + statistics.median(tally.unit_s)
            short = len(tally.latencies) < min_samples
            if ends > seconds * (MAX_STRETCH if short else 1.0):
                break
        workload.run_unit(index, tally)
        index += 1


def replay(workload, tally: Tally, units: int) -> None:
    for index in range(units):
        workload.run_unit(index, tally)


def setup(workload) -> float:
    """Median over repeats of: generate the first input batch, then one warm-up call."""
    times = []
    for repeat in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.batch_start = None
        workload.input(0)
        workload.warm_up(repeat)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def digest(outputs: list, units: int) -> dict:
    head = outputs[:units]
    return {"units": len(head), "sha256": hashlib.sha256(repr(head).encode()).hexdigest()}


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def stamp(mods) -> dict:
    import scipy

    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numpy": mods["numpy"].__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "thread_pins": THREAD_PINS,
        "load": "closed loop, 1 client, in process",
    }


def repeat_share(ci_tests: list) -> float:
    """Share of CI tests whose sorted column set was already fitted in the same skeleton."""
    total = sum(len(tests) for tests in ci_tests)
    distinct = sum(len({cols for _, cols in tests}) for tests in ci_tests)
    return (total - distinct) / total if total else 0.0


def end_to_end(np, tally: Tally, setup_s: float) -> tuple[dict, dict]:
    """(metrics bounded in BENCHMARK.json, further figures printed above the result)."""
    p50, p90 = np.percentile(tally.latencies, [50, 90])
    rate = len(tally.latencies) / sum(tally.unit_s)
    metrics = {
        "setup_s": (setup_s, "s"),
        "estimates_per_s": (rate, "1/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "latency_samples": (len(tally.latencies), "count"),
        "failed_ratio": (tally.failed / tally.attempted, "ratio"),
        "causal.repeat_share": (repeat_share(tally.ci_tests), "ratio"),
    }
    if tally.ci_tests:
        extra.update({
            "skeleton_s": (statistics.median(tally.unit_s), "s"),
            "skeletons": (len(tally.unit_s), "count"),
            "citests_per_s": (rate, "1/s"),
            "precision": (statistics.fmean(tally.precision or [0.0]), "ratio"),
            "recall": (statistics.fmean(tally.recall or [0.0]), "ratio"),
        })
    else:
        extra["mse"] = (statistics.fmean(tally.sq_errors or [math.nan]), "nats^2")
    return metrics, extra


def per_layer(tracer, tally: Tally, own: dict, overhead: float) -> dict:
    """Per-layer figures per unit of work: per estimate, or per skeleton on the network."""
    units = len(tally.unit_s)
    counts = tracer.counts
    metrics = {f"{layer}.self_s": (own.get(layer, 0.0) / units, "s") for layer in SELF_LAYERS}
    metrics.update({key: (counts[key] / units, unit) for key, unit in COUNTED_METRICS})
    refines = counts["histmd.refine_dimension.calls"]
    metrics["histmd.refine.accept_ratio"] = (
        counts["histmd.fit.iterations"] / refines if refines else 0.0, "ratio")
    for level in range(4):
        n_level = sum(1 for tests in tally.ci_tests for lvl, _ in tests if lvl == level)
        metrics[f"causal.ci_tests.l{level}"] = (n_level / units, "count")
    distinct = sum(len({cols for _, cols in tests}) for tests in tally.ci_tests)
    metrics["causal.distinct_fits"] = (distinct / units, "count")
    metrics["causal.repeat_share"] = (repeat_share(tally.ci_tests), "ratio")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def write_spans(tracer, path: Path, meta: dict) -> None:
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    spans = [[name, start - t0, end - t0, parent, trace_id]
             for name, start, end, parent, trace_id in tracer.spans]
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump({**meta, "fields": ["name", "start_s", "end_s", "parent", "trace_id"],
                   "spans": spans}, fh)


def emit(metrics: dict, report: dict, tally: Tally) -> None:
    for name, (value, unit) in {**metrics, **report.pop("figures", {})}.items():
        print(f"{name:48s} {value:16.6g} {unit}")
    print("report " + json.dumps(report, default=str))
    print(json.dumps({
        "correct": not tally.check_failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="small inputs and no accuracy thresholds, for the smoke test")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(THREAD_PINS)  # before numpy loads its BLAS
    t0 = time.perf_counter()
    try:
        mods = import_histcmi()
    except ImportError as e:
        print(f"perfbench: cannot import histcmi: {e}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    spec = WORKLOADS[args.workload]
    kind = NetworkWorkload if spec.kind == "network" else EstimateWorkload
    workload = kind(mods, spec, spec.toy_n if args.toy else spec.n, args.seed)
    setup_s = import_s + setup(workload)
    report = {"workload": args.workload, "seed": args.seed, "n": workload.n,
              "toy": args.toy, "stamp": stamp(mods)}

    if not args.trace:
        tally = Tally()
        measure(workload, tally, args.seconds, MIN_LATENCY_SAMPLES)
        workload.final_checks(tally, args.toy)
        metrics, figures = end_to_end(mods["numpy"], tally, setup_s)
        report.update(figures=figures, digest=digest(tally.outputs, spec.digest_units),
                      checks=tally.check_failures)
        emit(metrics, report, tally)
        return 0

    from tracing import NETWORK_LAYERS, ESTIMATE_LAYERS, CI_CLOSURE, TraceError, Tracer

    # A sizes the run and fills lazy caches, B is traced, C replays B's inputs
    # untraced: B against C is the tracing overhead on warm caches
    sizing, traced, plain = Tally(), Tally(), Tally()
    measure(workload, sizing, args.seconds / 3, 0)
    try:
        with Tracer(mods) as tracer:
            if spec.kind == "network":
                plain_ci, workload.ci = workload.ci, tracer.span(CI_CLOSURE, workload.ci)
            replay(workload, traced, len(sizing.unit_s))
        if spec.kind == "network":
            workload.ci = plain_ci
        expected = NETWORK_LAYERS if spec.kind == "network" else ESTIMATE_LAYERS
        own = tracer.check(expected, sum(traced.unit_s))
    except TraceError as e:
        print(f"perfbench: traced run failed: {e}", file=sys.stderr)
        return 1
    replay(workload, plain, len(sizing.unit_s))
    for tally in (sizing, traced, plain):
        workload.final_checks(tally, args.toy)
    if not sizing.outputs == traced.outputs == plain.outputs:
        traced.check_failures.append("traced outputs differ from untraced outputs")
    overhead = sum(traced.unit_s) / sum(plain.unit_s) - 1.0
    metrics = per_layer(tracer, traced, own, overhead)
    spans_file = OUT_DIR / f"spans_{args.workload}_seed{args.seed}.json"
    write_spans(tracer, spans_file, report)
    phases = (sizing, traced, plain)
    combined = Tally(attempted=sum(t.attempted for t in phases),
                     failed=sum(t.failed for t in phases),
                     check_failures=[f for t in phases for f in t.check_failures])
    report.update(
        units=len(traced.unit_s), spans=len(tracer.spans), spans_file=str(spans_file.relative_to(ROOT)),
        untraced_busy_s=sum(plain.unit_s), traced_busy_s=sum(traced.unit_s),
        ci_tests_per_skeleton=[len(t) for t in traced.ci_tests],
        distinct_fits_per_skeleton=[len({c for _, c in t}) for t in traced.ci_tests],
        digest=digest(plain.outputs, spec.digest_units),
        checks=combined.check_failures)
    emit(metrics, report, combined)
    return 0


if __name__ == "__main__":
    sys.exit(main())
