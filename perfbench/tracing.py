"""Outside-in span tracing of histcmi's modules for the traced benchmark run.

Every entry of ``SPANNED`` names a module attribute that histcmi code looks up
at call time, in the namespace that looks it up rather than where it is
defined.  The tracer swaps each one for a wrapper that records a span
``[name, start, end, parent, trace_id]`` and restores every original when it
exits.  The package itself is never edited.  A name that no longer exists
fails loudly, so a rename shows up as an error rather than as zero time.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict

# (module that looks the name up, attribute, layer span name)
SPANNED = (
    ("estimators", "detect_discrete_points", "data_model.detect_discrete_points"),
    ("histmd", "assign_labels", "data_model.assign_labels"),
    ("histmd", "build_grid", "data_model.build_grid"),
    ("histmd", "total_score", "complexity.total_score"),
    ("hist1d", "_xlogx_segment_sums", "hist1d.kernel"),
    ("histmd", "solve_segmentation", "hist1d.solve_segmentation"),
    ("estimators", "greedy_fit", "histmd.greedy_fit"),
    ("histmd", "init_discretization", "histmd.init_discretization"),
    ("histmd", "refine_dimension", "histmd.refine_dimension"),
    # the estimate workloads look cmi_estimate up in estimators, CI tests in citest
    ("estimators", "cmi_estimate", "estimators.cmi_estimate"),
    ("citest", "cmi_estimate", "estimators.cmi_estimate"),
    ("estimators", "plugin_entropy", "estimators.plugin_entropy"),
    ("estimators", "continuous_entropy_terms", "estimators.continuous_entropy_terms"),
    ("cli", "citest_chi2", "citest.citest_chi2"),
    ("causal", "pc_stable_skeleton", "causal.pc_stable_skeleton"),
)

# Counted without a span: one cached table lookup per interval count of every
# DP, so a span each would cost more than the call.
COUNTED = (
    ("hist1d", "log_regret", "complexity.log_regret"),
    ("complexity", "log_regret", "complexity.log_regret"),
)

# The CI-test closure from cli.make_ci_test is wrapped where the benchmark
# creates it, under this span name.
CI_CLOSURE = "cli.make_ci_test"

ESTIMATE_LAYERS = frozenset(name for _, _, name in SPANNED + COUNTED) - {
    "citest.citest_chi2", "causal.pc_stable_skeleton"}
NETWORK_LAYERS = frozenset(name for _, _, name in SPANNED + COUNTED) | {CI_CLOSURE}


class TraceError(RuntimeError):
    """The traced run cannot be trusted: a call site is gone or times do not add up."""


def _on_build_grid(counts, args, kwargs, grid):
    counts["data_model.build_grid.rows"] += grid.n
    counts["data_model.build_grid.cells"] += len(grid.counts)


def _on_kernel(counts, args, kwargs, G):
    P = args[0]  # (active cells, B+1) prefix counts in, (B+1)^2 float64 sums out
    counts["hist1d.kernel.bytes_computed"] += P.nbytes + G.nbytes


def _on_greedy_fit(counts, args, kwargs, fit):
    counts["histmd.fit.iterations"] += len(fit.trace.records)


def _segmentation_hook(solve):
    signature = inspect.signature(solve)

    def on_solve(counts, args, kwargs, res):
        call = signature.bind(*args, **kwargs).arguments
        B = len(call["boundaries"]) - 1
        counts["hist1d.dp.cells"] += min(call["K_max"], B) * (B + 1) ** 2
        counts["hist1d.kernel.ops"] += res.ops
    return on_solve


class Tracer:
    """Context manager that installs the layer wrappers and collects spans."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def __enter__(self) -> "Tracer":
        try:
            for mod, attr, name in SPANNED:
                self._patch(mod, attr, name, spanned=True)
            for mod, attr, name in COUNTED:
                self._patch(mod, attr, name, spanned=False)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _patch(self, mod: str, attr: str, name: str, spanned: bool) -> None:
        module = self.modules[mod]
        if not hasattr(module, attr):
            raise TraceError(f"call site histcmi.{mod}.{attr} is gone; "
                             f"update perfbench/tracing.py for layer {name}")
        original = getattr(module, attr)
        if spanned:
            hook = {"data_model.build_grid": _on_build_grid,
                    "hist1d.kernel": _on_kernel,
                    "histmd.greedy_fit": _on_greedy_fit}.get(name)
            if name == "hist1d.solve_segmentation":
                hook = _segmentation_hook(original)
            wrapper = self.span(name, original, hook)
        else:
            wrapper = self._count(name, original)
        self._originals.append((module, attr, original))
        setattr(module, attr, wrapper)

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)
        return counted

    def span(self, name, fn, hook=None):
        """Wrap ``fn`` so each call records a span and bumps ``<name>.calls``."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            record = [name, 0.0, 0.0, parent, spans[parent][4] if parent >= 0 else index]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            counts[name + ".calls"] += 1
            if hook is not None:
                hook(counts, args, kwargs, out)
            return out
        return traced

    def self_times(self) -> dict[str, float]:
        """Per layer: summed span durations minus the time their child spans cover."""
        own: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return dict(own)

    def check(self, expected: frozenset, wall_s: float) -> dict[str, float]:
        """Self times, after checking every expected layer ran and times fit the wall."""
        missed = sorted(name for name in expected if not self.counts[name + ".calls"])
        if missed:
            raise TraceError(f"traced run never reached {', '.join(missed)}")
        own = self.self_times()
        if sum(own.values()) > wall_s:
            raise TraceError(f"layer self times sum to {sum(own.values()):.6f} s, "
                             f"more than the traced wall time {wall_s:.6f} s")
        return own
