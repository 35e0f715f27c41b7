"""Command-line interface: estimation, CI testing, discovery, data generation, benchmarks.

Exit codes: 0 ok, 1 usage error, 2 data error, 3 internal error, 141 when
the reader of the output closes it early (128 + SIGPIPE, as a shell reports a
process the signal ended).  Reports are JSON (schema_version 1) or CSV, whose
list and boolean cells hold JSON text and whose null cells are empty; datasets
are CSV with a leading ``#``-comment header naming the RNG stream and
scenario, then a column-name header row.  Floats are written with ``repr`` so
files round-trip exactly.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import os
import re
import sys
import time

import numpy as np

from .causal import pc_stable_skeleton, precision_recall
from .citest import CI_TESTS, check_ci_test, citest_chi2, citest_sc
from .datagen import RNG_NAME, SCENARIOS, Dataset, ScenarioSpec, generate, true_network_edges
from .errors import InputError
from .estimators import (VariableGroup, cmi_estimate, fit_columns, prepare_column,
                         run_estimation_benchmark, select_groups, stack_columns)
from .histmd import ColumnStart, FitConfig, FitResult

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_INTERNAL, EXIT_PIPE = 0, 1, 2, 3, 141
SCHEMA_VERSION = 1
_SCENARIO_N = 1000  # rows drawn from a scenario id when --n is not given
# A CSV number: ASCII decimal or exponent syntax with optional surrounding
# spaces.  float() also reads "1_0" as 10.0 and non-ASCII digits such as "３";
# nan and inf pass here and are refused as non-finite values.
_CSV_NUMBER = re.compile(r"\s*[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|nan|inf(?:inity)?)\s*",
                         re.ASCII | re.IGNORECASE)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for data errors
        raise UsageError(message)


def _add_config_flags(p: argparse.ArgumentParser):
    default = FitConfig()
    p.add_argument("--t", type=int, default=default.t, help="discreteness detection threshold")
    p.add_argument("--imax", type=int, default=default.i_max, help="max greedy iterations")
    p.add_argument("--kinit-factor", type=float, default=default.k_init_factor)
    p.add_argument("--kmax-factor", type=float, default=default.k_max_factor)


def _config_from(args) -> FitConfig:
    return FitConfig(i_max=args.imax, t=args.t, k_init_factor=args.kinit_factor,
                     k_max_factor=args.kmax_factor)


def read_csv_dataset(path: str) -> Dataset:
    """Read a numeric UTF-8 CSV (optional byte-order mark and leading # comments,
    then a header row); blank lines are skipped, and a # row after the header
    is a data row."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(itertools.dropwhile(lambda r: r[0].startswith("#"),
                                            (r for r in csv.reader(fh) if r)))
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise InputError(f"cannot decode {path} as UTF-8: {e}") from e
    if len(rows) < 2:
        raise InputError(f"{path}: need a header row and at least one data row")
    names = tuple(rows[0])
    for i, name in enumerate(names, start=1):
        # --x/--y/--z split on ',', and separating-set keys join on '|'
        if not name or "," in name or "|" in name:
            raise InputError(f"{path}: column {i} is named {name!r}; a column name must be "
                             f"nonempty and hold no ',' or '|', or the command line cannot "
                             f"select it and reports cannot name it")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise InputError(f"{path}: duplicate column names {repeated}")
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(names):
            raise InputError(f"{path}: ragged rows: data row {i} has {len(row)} cells "
                             f"but the header has {len(names)}")
        for j, (name, v) in enumerate(zip(names, row), start=1):
            if not _CSV_NUMBER.fullmatch(v):
                raise InputError(f"{path}: non-numeric cell {v!r} in data row {i}, "
                                 f"column {j} ({name!r})")
    data = np.array([[float(v) for v in row] for row in rows[1:]], dtype=np.float64)
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


def _names(flag: str, arg: str | None, declared: tuple[str, ...]) -> tuple[str, ...]:
    """The columns a --x, --y or --z list names, or the scenario's ``declared``
    role where the flag is not given.  An empty --z is the empty Z; any other
    empty list, or an empty name in a list, is an error."""
    if arg is None:
        return declared
    if not arg:
        if flag == "--z":
            return ()
        raise InputError(f"{flag} is given but names no column")
    names = tuple(arg.split(","))
    if "" in names:
        raise InputError(f"{flag} {arg!r} holds an empty column name")
    return names


def _generate(scenario: str, args) -> Dataset:
    extra = {"k": args.k} if args.k is not None else {}
    n = _SCENARIO_N if args.n is None else args.n
    return generate(ScenarioSpec(id=scenario, n=n, seed=args.seed, extra=extra))


def _load_dataset(target: str, args) -> Dataset:
    if target in SCENARIOS:
        if os.path.isfile(target):
            raise InputError(f"{target!r} names both a scenario id and a file here; "
                             f"give ./{target} to read the file")
        return _generate(target, args)
    for flag, value in (("--k", args.k), ("--n", args.n)):
        if value is not None:
            raise InputError(f"{flag} is a scenario parameter and does not apply to a CSV file")
    if args.seed < 0:  # a scenario id has ScenarioSpec check its seed
        raise InputError(f"seed must be >= 0, got {args.seed}")
    return read_csv_dataset(target)


def _select(args):
    """Load the data, build the fit config, then pick the X, Y, Z columns:
    (config, the columns echoed as lists, select_groups' result)."""
    dataset = _load_dataset(args.data, args)
    config = _config_from(args)
    xs = _names("--x", args.x, dataset.x)
    ys = _names("--y", args.y, dataset.y)
    zs = _names("--z", args.z, dataset.z)
    if not xs or not ys:
        raise InputError("--x and --y are required (no declared roles to fall back on)")
    columns = {"x": list(xs), "y": list(ys), "z": list(zs)}
    return config, columns, select_groups(dataset, xs, ys, zs)


def cmd_estimate(args):
    config, columns, (sub, x, y, z) = _select(args)
    est = cmi_estimate(sub, x, y, z, config)
    results = {
        "estimate_nats": est.value,
        "entropies_nats": {"h_xz": est.h_xz, "h_yz": est.h_yz,
                           "h_xyz": est.h_xyz, "h_z": est.h_z},
        "domain_sizes": {"X": est.dom_x, "Y": est.dom_y, "Z": est.dom_z},
        "bins_per_column": {role: [est.bins_per_dim[d] for d in g.dims]
                            for role, g in zip(columns, (x, y, z))},
        "n": est.n,
        "columns": columns,
    }
    return dataclasses.asdict(config), results


def cmd_citest(args):
    check_ci_test(args.test, args.alpha)
    config, columns, (sub, x, y, z) = _select(args)
    res = (citest_chi2(sub, x, y, z, alpha=args.alpha, config=config) if args.test == "chi2"
           else citest_sc(sub, x, y, z, config=config))
    results = {
        "independent": res.independent,
        "raw_nats": res.raw,
        "correction_nats": res.correction,
        "corrected_nats": res.corrected,
        "method": res.method,
        "detail": res.detail,
        "columns": columns,
        "n": res.estimate.n,
    }
    return {**dataclasses.asdict(config), "test": args.test, "alpha": args.alpha}, results


@dataclasses.dataclass
class CiTestCounters:
    """What one CI-test closure did over its life, counted as plain integers."""

    starts: int = 0  # column starts built
    fits: int = 0  # joint fits made
    fit_hits: int = 0  # tests answered by a fit made for an earlier test
    recut_hits: int = 0  # re-cuts taken from a start's memo instead of solved


def make_ci_test(config: FitConfig, method: str, alpha: float):
    """CI-test closure for the skeleton search: ci(dataset, a, b, cond) -> bool.

    The joint fit depends only on the set of tested columns, so the closure
    fits each sorted column set once and reuses that fit for every
    (a, b | cond) split of it.  It prepares each column once per search, by
    name, for every fit it enters, and the column's start keeps the re-cuts
    its fits solved (``ColumnStart.recuts``), so a later fit that meets the
    same other cells reuses them instead of solving again.  Both caches
    belong to one dataset, held by reference and matched by identity.  Fits
    belong to one set size too: PC-stable tests the sets of one size at one
    level only, so a new dataset or a new size clears them.  Column starts
    last the whole search: levels only grow within a search, so a new
    dataset or a smaller set size, a new search, clears them.  An unknown
    method or an alpha that is not a real number in (0, 1) is rejected here,
    before any fit.  The closure's ``counters`` attribute is its :class:`CiTestCounters`.
    """
    check_ci_test(method, alpha)
    fits: dict[tuple[str, ...], FitResult] = {}
    columns: dict[str, ColumnStart] = {}
    fits_of, fits_size = None, 0
    counters = CiTestCounters()

    def ci(dataset: Dataset, a: str, b: str, cond) -> bool:
        nonlocal fits_of, fits_size
        cond = tuple(cond)
        names = (a, b, *cond)
        if len(set(names)) != len(names):
            raise InputError(f"CI test columns must be distinct, got {names}")
        key = tuple(sorted(names))
        sub = stack_columns(dataset, key)
        if dataset is not fits_of or len(key) < fits_size:
            columns.clear()
        if dataset is not fits_of or len(key) != fits_size:
            fits.clear()
            fits_of, fits_size = dataset, len(key)
        fit = fits.get(key)
        if fit is None:
            for j, name in enumerate(key):
                if name not in columns:
                    columns[name] = prepare_column(sub[:, j], config)
                    counters.starts += 1
            fit = fits[key] = fit_columns([columns[name] for name in key], config)
            counters.fits += 1
            counters.recut_hits += fit.trace.recut_hits
        else:
            counters.fit_hits += 1
        x = VariableGroup("X", (key.index(a),))
        y = VariableGroup("Y", (key.index(b),))
        z = VariableGroup("Z", tuple(key.index(c) for c in cond))
        if method == "chi2":
            return citest_chi2(sub, x, y, z, alpha=alpha, config=config, fit=fit).independent
        return citest_sc(sub, x, y, z, config=config, fit=fit).independent
    ci.counters = counters
    return ci


def cmd_discover(args):
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
    return {**dataclasses.asdict(config), "test": args.test, "alpha": args.alpha,
            "max_level": args.max_level}, results


def cmd_datagen(args) -> Dataset:
    return _generate(args.scenario, args)


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


def cmd_benchmark(args):
    config = _config_from(args)
    ns = _parse_n_list(args.n)
    rows = run_estimation_benchmark(args.scenario, ns, args.reps, args.seed, config,
                                    k=args.k)
    return {**dataclasses.asdict(config), "reps": args.reps, "ns": ns}, {"rows": rows}


def _report_to_csv(report: dict, fh):
    w = csv.writer(fh, lineterminator="\n")
    results = report["results"]
    if report["command"] == "benchmark":
        cols = ["scenario", "n", "replicate_count", "mean_estimate", "mse", "truth"]
        w.writerow(cols)
        for row in results["rows"]:
            w.writerow([row[c] for c in cols])
    elif report["command"] == "discover":
        for key in ("precision", "recall"):
            if key in results:
                fh.write(f"# {key}={results[key]}\n")
        w.writerow(["node_a", "node_b"])
        for a, b in results["edges"]:
            w.writerow([a, b])
    else:
        flat = _flatten(results)
        w.writerow(list(flat))
        # a list or boolean cell as the JSON report writes it, not as a Python repr
        w.writerow([json.dumps(v) if isinstance(v, (list, bool)) else v for v in flat.values()])


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

    def add(name, func):
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--k", type=int, default=None, help="scenario parameter (exp6)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
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
        p.add_argument("--test", choices=CI_TESTS, default="chi2")
    discover.add_argument("--max-level", type=int, default=None)

    datagen = add("datagen", cmd_datagen)
    datagen.add_argument("scenario", help=f"one of {sorted(SCENARIOS)}")
    for p in (estimate, citest, discover, datagen):
        p.add_argument("--n", type=int, default=None,
                       help=f"rows drawn from a scenario id (default {_SCENARIO_N})")

    benchmark = add("benchmark", cmd_benchmark)
    benchmark.add_argument("scenario")
    benchmark.add_argument("--n", default="1000",
                           help="'1000', '200,400' or '100..1000[..step]'")
    benchmark.add_argument("--reps", type=int, default=100)
    for p in (estimate, citest, discover, benchmark):
        _add_config_flags(p)
        p.add_argument("--format", choices=["json", "csv"], default="json")

    return parser


def _emit(args, payload):
    out = sys.stdout
    if args.out:
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
            json.dump(payload, out, indent=2)
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
        t0 = time.perf_counter()
        payload = args.func(args)
        if not isinstance(payload, Dataset):
            config, results = payload
            payload = {"command": args.command, "config": config, "seed": args.seed,
                       "results": results, "wall_clock_sec": time.perf_counter() - t0,
                       "schema_version": SCHEMA_VERSION}
        try:
            _emit(args, payload)
        except BrokenPipeError:
            if not args.out:
                # the flush at exit would raise again on the closed pipe
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_PIPE
        return EXIT_OK
    except InputError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
