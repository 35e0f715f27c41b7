"""Command-line interface: estimation, CI testing, discovery, data generation, benchmarks.

Exit codes: 0 ok, 1 usage error, 2 data error, 3 internal error.
Reports are JSON (schema_version 1) or CSV; datasets are CSV with a leading
``#``-comment header naming the RNG stream and scenario, then a column-name
header row.  Floats are written with ``repr`` so files round-trip exactly.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time

import numpy as np

from .causal import pc_stable_skeleton, precision_recall
from .citest import citest_chi2, citest_sc
from .datagen import (
    RNG_NAME,
    SCENARIOS,
    Dataset,
    ScenarioSpec,
    generate,
    ground_truth,
    replicate_seed,
    true_network_edges,
)
from .errors import InputError
from .estimators import VariableGroup, cmi_estimate, fit_columns, prepare_column
from .histmd import ColumnStart, FitConfig, FitResult

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_INTERNAL = 0, 1, 2, 3
SCHEMA_VERSION = 1
_SCENARIO_N = 1000  # rows drawn from a scenario id when --n is not given


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for data errors
        raise UsageError(message)


@dataclasses.dataclass
class RunReport:
    command: str
    config: dict
    seed: int | None
    results: dict
    wall_clock_sec: float
    schema_version: int = SCHEMA_VERSION


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--t", type=int, default=5, help="discreteness detection threshold")
    p.add_argument("--imax", type=int, default=5, help="max greedy iterations")
    p.add_argument("--kinit-factor", type=float, default=20.0)
    p.add_argument("--kmax-factor", type=float, default=5.0)


def _config_from(args) -> FitConfig:
    return FitConfig(i_max=args.imax, t=args.t, k_init_factor=args.kinit_factor,
                     k_max_factor=args.kmax_factor)


def _config_echo(config: FitConfig, **extra) -> dict:
    d = dataclasses.asdict(config)
    d.update(extra)
    return d


def read_csv_dataset(path: str) -> Dataset:
    """Read a numeric UTF-8 CSV (optional byte-order mark and leading # comments,
    then a header row)."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise InputError(f"cannot decode {path} as UTF-8: {e}") from e
    if len(rows) < 2:
        raise InputError(f"{path}: need a header row and at least one data row")
    names = tuple(rows[0])
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise InputError(f"{path}: duplicate column names {repeated}")
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(names):
            raise InputError(f"{path}: ragged rows: data row {i} has {len(row)} cells "
                             f"but the header has {len(names)}")
    try:
        data = np.array([[float(v) for v in row] for row in rows[1:]], dtype=np.float64)
    except ValueError as e:
        raise InputError(f"{path}: non-numeric cell: {e}") from e
    if not np.all(np.isfinite(data)):
        raise InputError(f"{path}: non-finite values")
    return Dataset(names=names, data=data, x=(), y=(), z=(), scenario=path, seed=0)


def write_csv_dataset(dataset: Dataset, fh):
    fh.write(f"# rng={RNG_NAME} scenario={dataset.scenario} seed={dataset.seed} "
             f"n={dataset.n}\n")
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(dataset.names)
    for row in dataset.data:
        w.writerow([repr(float(v)) for v in row])


def _split_names(arg: str | None) -> tuple[str, ...]:
    return tuple(s for s in (arg or "").split(",") if s)


def _stack_columns(dataset: Dataset, names) -> np.ndarray:
    for name in names:
        if name not in dataset.names:
            raise InputError(f"unknown column {name!r}; have {list(dataset.names)}")
    return np.column_stack([dataset.column(c) for c in names])


def _select_groups(dataset: Dataset, xs, ys, zs):
    """Project the dataset onto the selected columns and build X/Y/Z groups.

    A column may be selected more than once (e.g. --x A --y A for
    self-information); every selection becomes its own fitted dimension.
    """
    picked = list(xs) + list(ys) + list(zs)
    sub = _stack_columns(dataset, picked)
    x = VariableGroup("X", tuple(range(len(xs))))
    y = VariableGroup("Y", tuple(range(len(xs), len(xs) + len(ys))))
    z = VariableGroup("Z", tuple(range(len(xs) + len(ys), len(picked))))
    return sub, x, y, z, tuple(picked)


def _roles_from_args(dataset: Dataset, args):
    xs = _split_names(args.x) or dataset.x
    ys = _split_names(args.y) or dataset.y
    zs = _split_names(args.z) if args.z is not None else dataset.z
    if not xs or not ys:
        raise InputError("--x and --y are required (no declared roles to fall back on)")
    return xs, ys, zs


def _load_dataset(target: str, args) -> Dataset:
    if target in SCENARIOS:
        extra = {"k": args.k} if args.k is not None else {}
        n = _SCENARIO_N if args.n is None else args.n
        return generate(ScenarioSpec(id=target, n=n, seed=args.seed, extra=extra))
    for flag, value in (("--k", args.k), ("--n", args.n)):
        if value is not None:
            raise InputError(f"{flag} is a scenario parameter and does not apply to a CSV file")
    return read_csv_dataset(target)


def cmd_estimate(args) -> RunReport:
    t0 = time.perf_counter()
    dataset = _load_dataset(args.data, args)
    config = _config_from(args)
    xs, ys, zs = _roles_from_args(dataset, args)
    sub, x, y, z, picked = _select_groups(dataset, xs, ys, zs)
    est = cmi_estimate(sub, x, y, z, config)
    results = {
        "estimate_nats": est.value,
        "entropies_nats": {"h_xz": est.h_xz, "h_yz": est.h_yz,
                           "h_xyz": est.h_xyz, "h_z": est.h_z},
        "domain_sizes": {"X": est.dom_x, "Y": est.dom_y, "Z": est.dom_z},
        "bins_per_column": dict(zip(picked, est.bins_per_dim)),
        "n": est.n,
        "columns": {"x": list(xs), "y": list(ys), "z": list(zs)},
    }
    return RunReport("estimate", _config_echo(config), args.seed, results,
                     time.perf_counter() - t0)


_CI_TESTS = ("chi2", "sc")


def _check_ci_test(method: str, alpha: float):
    """Reject an unknown CI-test method, or an alpha outside (0, 1) even where
    the method (sc) does not read it."""
    if method not in _CI_TESTS:
        raise InputError(f"unknown CI test {method!r}; known: {list(_CI_TESTS)}")
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie in (0, 1), got {alpha}")


def cmd_citest(args) -> RunReport:
    t0 = time.perf_counter()
    _check_ci_test(args.test, args.alpha)
    dataset = _load_dataset(args.data, args)
    config = _config_from(args)
    xs, ys, zs = _roles_from_args(dataset, args)
    sub, x, y, z, picked = _select_groups(dataset, xs, ys, zs)
    if args.test == "chi2":
        res = citest_chi2(sub, x, y, z, alpha=args.alpha, config=config)
    else:
        res = citest_sc(sub, x, y, z, config=config)
    results = {
        "independent": res.independent,
        "raw_nats": res.raw,
        "correction_nats": res.correction,
        "corrected_nats": res.corrected,
        "method": res.method,
        "detail": res.detail,
        "columns": {"x": list(xs), "y": list(ys), "z": list(zs)},
        "n": res.estimate.n,
    }
    return RunReport("citest", _config_echo(config, test=args.test, alpha=args.alpha),
                     args.seed, results, time.perf_counter() - t0)


def make_ci_test(config: FitConfig, method: str, alpha: float):
    """CI-test closure for the skeleton search: ci(dataset, a, b, cond) -> bool.

    The joint fit depends only on the set of tested columns, so the closure
    fits each sorted column set once and reuses that fit for every
    (a, b | cond) split of it, and prepares each column of those sets once,
    by name, for every fit it enters.  Both caches belong to one dataset,
    held by reference and matched by identity, and to one set size:
    PC-stable tests the sets of one size at one level only, so a new dataset
    or a new size clears them.  An unknown method or an alpha outside (0, 1)
    is rejected here, before any fit.
    """
    _check_ci_test(method, alpha)
    fits: dict[tuple[str, ...], FitResult] = {}
    columns: dict[str, ColumnStart] = {}
    fits_of, fits_size = None, 0

    def ci(dataset: Dataset, a: str, b: str, cond) -> bool:
        nonlocal fits_of, fits_size
        cond = tuple(cond)
        names = (a, b, *cond)
        if len(set(names)) != len(names):
            raise InputError(f"CI test columns must be distinct, got {names}")
        key = tuple(sorted(names))
        sub = _stack_columns(dataset, key)
        if dataset is not fits_of or len(key) != fits_size:
            fits.clear()
            columns.clear()
            fits_of, fits_size = dataset, len(key)
        fit = fits.get(key)
        if fit is None:
            for j, name in enumerate(key):
                if name not in columns:
                    columns[name] = prepare_column(sub[:, j], config)
            fit = fits[key] = fit_columns([columns[name] for name in key], config)
        x = VariableGroup("X", (key.index(a),))
        y = VariableGroup("Y", (key.index(b),))
        z = VariableGroup("Z", tuple(key.index(c) for c in cond))
        if method == "chi2":
            return citest_chi2(sub, x, y, z, alpha=alpha, config=config, fit=fit).independent
        return citest_sc(sub, x, y, z, config=config, fit=fit).independent
    return ci


def cmd_discover(args) -> RunReport:
    t0 = time.perf_counter()
    dataset = _load_dataset(args.data, args)
    config = _config_from(args)
    ci = make_ci_test(config, args.test, args.alpha)
    skeleton = pc_stable_skeleton(dataset, ci, max_level=args.max_level)
    edges = sorted(skeleton.edges)
    results = {
        "nodes": list(skeleton.nodes),
        "edges": [list(e) for e in edges],
        "separating_sets": {f"{a}|{b}": list(s)
                            for (a, b), s in sorted(skeleton.separating_sets.items())},
    }
    if args.data == "network":
        truth = true_network_edges()
        prec, rec = precision_recall(skeleton.edges, truth)
        results["precision"] = prec
        results["recall"] = rec
        results["true_edges"] = [list(e) for e in sorted(truth)]
    return RunReport("discover", _config_echo(config, test=args.test, alpha=args.alpha,
                                              max_level=args.max_level),
                     args.seed, results, time.perf_counter() - t0)


def cmd_datagen(args) -> Dataset:
    extra = {"k": args.k} if args.k is not None else {}
    return generate(ScenarioSpec(id=args.scenario, n=args.n, seed=args.seed, extra=extra))


def _parse_n_list(text: str) -> list[int]:
    """'1000' | '200,400' | '100..1000' (step 100) | '100..1000..300'."""
    try:
        if ".." in text:
            parts = text.split("..")
            if len(parts) == 2:
                lo, hi, step = int(parts[0]), int(parts[1]), 100
            elif len(parts) == 3:
                lo, hi, step = int(parts[0]), int(parts[1]), int(parts[2])
            else:
                raise ValueError(text)
            if step < 1 or hi < lo:
                raise ValueError(text)
            return list(range(lo, hi + 1, step))
        return [int(v) for v in text.split(",")]
    except ValueError as e:
        raise InputError(f"bad --n value {text!r}") from e


def run_estimation_benchmark(scenario: str, ns: list[int], reps: int, seed: int,
                             config: FitConfig, k: int | None = None) -> list[dict]:
    """Mean estimate and MSE against ground truth per sample size.

    Replicates are independently seeded via replicate_seed(seed, task_index)
    with task_index enumerating the (n, rep) grid row-major, so they are
    order-independent and safe to run in parallel.
    """
    if reps < 1:
        raise InputError(f"reps must be >= 1, got {reps}")
    extra = {"k": k} if k is not None else {}
    truth = ground_truth(ScenarioSpec(id=scenario, n=max(ns), seed=0, extra=extra))
    if truth is None:
        raise InputError(f"scenario {scenario!r} has no ground-truth value to benchmark")
    rows = []
    task = 0
    for n in ns:
        values = []
        for _ in range(reps):
            ds = generate(ScenarioSpec(id=scenario, n=n,
                                       seed=replicate_seed(seed, task), extra=extra))
            sub, x, y, z, _ = _select_groups(ds, ds.x, ds.y, ds.z)
            values.append(cmi_estimate(sub, x, y, z, config).value)
            task += 1
        values = np.asarray(values)
        rows.append({
            "scenario": scenario,
            "n": n,
            "replicate_count": reps,
            "mean_estimate": float(values.mean()),
            "mse": float(np.mean((values - truth) ** 2)),
            "truth": truth,
        })
    return rows


def cmd_benchmark(args) -> RunReport:
    t0 = time.perf_counter()
    config = _config_from(args)
    ns = _parse_n_list(args.n)
    rows = run_estimation_benchmark(args.scenario, ns, args.reps, args.seed, config,
                                    k=args.k)
    return RunReport("benchmark", _config_echo(config, reps=args.reps, ns=ns),
                     args.seed, {"rows": rows}, time.perf_counter() - t0)


def _report_to_csv(report: RunReport, fh):
    w = csv.writer(fh, lineterminator="\n")
    if report.command == "benchmark":
        cols = ["scenario", "n", "replicate_count", "mean_estimate", "mse", "truth"]
        w.writerow(cols)
        for row in report.results["rows"]:
            w.writerow([row[c] for c in cols])
    elif report.command == "discover":
        for key in ("precision", "recall"):
            if key in report.results:
                fh.write(f"# {key}={report.results[key]}\n")
        w.writerow(["node_a", "node_b"])
        for a, b in report.results["edges"]:
            w.writerow([a, b])
    else:
        flat = _flatten(report.results)
        w.writerow(list(flat))
        w.writerow([flat[k] for k in flat])


def _flatten(d, prefix=""):
    out = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        else:
            out[key] = v
    return out


def build_parser() -> _Parser:
    parser = _Parser(prog="histcmi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common_io = {"--out": dict(default=None, help="output path (default stdout)"),
                 "--format": dict(choices=["json", "csv"], default="json")}

    def add(name, func):
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--k", type=int, default=None, help="scenario parameter (exp6)")
        return p

    estimate, citest, discover = (add("estimate", cmd_estimate), add("citest", cmd_citest),
                                  add("discover", cmd_discover))
    for p in (estimate, citest, discover):
        p.add_argument("data", help="CSV path or scenario id (e.g. exp1, network)")
    for p in (estimate, citest):
        p.add_argument("--x", help="comma-separated X columns")
        p.add_argument("--y", help="comma-separated Y columns")
        p.add_argument("--z", help="comma-separated Z columns (may be empty)")
    for p in (citest, discover):
        p.add_argument("--alpha", type=float, default=0.01)
        p.add_argument("--test", choices=_CI_TESTS, default="chi2")
    discover.add_argument("--max-level", type=int, default=None)

    datagen = add("datagen", cmd_datagen)
    datagen.add_argument("scenario", help=f"one of {sorted(SCENARIOS)}")
    datagen.add_argument("--out", default=None)
    for p in (estimate, citest, discover):
        p.add_argument("--n", type=int, default=None,
                       help=f"rows drawn from a scenario id (default {_SCENARIO_N})")
    datagen.add_argument("--n", type=int, default=_SCENARIO_N,
                         help="rows drawn from a scenario id")

    benchmark = add("benchmark", cmd_benchmark)
    benchmark.add_argument("scenario")
    benchmark.add_argument("--n", default="1000",
                           help="'1000', '200,400' or '100..1000[..step]'")
    benchmark.add_argument("--reps", type=int, default=100)
    for p in (estimate, citest, discover, benchmark):
        _add_config_flags(p)
        for flag, kw in common_io.items():
            p.add_argument(flag, **kw)

    return parser


def _emit(args, payload):
    out = sys.stdout
    if getattr(args, "out", None):
        try:
            out = open(args.out, "w")
        except OSError as e:
            raise InputError(f"cannot write {args.out}: {e}") from e
    try:
        if isinstance(payload, Dataset):
            write_csv_dataset(payload, out)
        elif getattr(args, "format", "json") == "csv":
            _report_to_csv(payload, out)
        else:
            json.dump(dataclasses.asdict(payload), out, indent=2,
                      default=lambda o: o.item() if hasattr(o, "item") else str(o))
            out.write("\n")
    finally:
        if out is not sys.stdout:
            out.close()


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        payload = args.func(args)
        _emit(args, payload)
        return EXIT_OK
    except InputError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
