"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s`.  The whole module is
sequential and takes a few minutes on one core; the two long-running
criteria (1 and 10) also check their stated wall-clock targets.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from histcmi import (
    FitConfig,
    ScenarioSpec,
    VariableGroup,
    citest_chi2,
    cmi_estimate,
    generate,
    ground_truth,
    pc_stable_skeleton,
    precision_recall,
    replicate_seed,
    true_network_edges,
)
from histcmi.complexity import log_regret, total_score
from histcmi.data_model import assign_labels, build_grid, detect_discrete_points
from histcmi.estimators import (
    continuous_entropy_terms,
    fit_columns,
    plugin_entropy,
    prepare_column,
    run_estimation_benchmark,
)
from histcmi.hist1d import candidate_cuts
from histcmi.histmd import start_column
from histcmi.cli import make_ci_test

from dsep import enumerate_dags, make_dsep_oracle
from oracles import exhaustive_best_total, first_recut, grid_start, multinomial_regret

X = VariableGroup("X", (0,))
Y = VariableGroup("Y", (1,))
Z = VariableGroup("Z", (2,))


def _verdict(num, ok, detail):
    print(f"\n[acceptance] criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_exp1_mse():
    t0 = time.perf_counter()
    rows = run_estimation_benchmark("exp1", [1000], reps=100, seed=0, config=FitConfig())
    elapsed = time.perf_counter() - t0
    mse = rows[0]["mse"]
    ok = mse <= 0.005 and elapsed <= 120
    _verdict(1, ok, f"exp1 n=1000 x100: MSE {mse:.5f} (<= 0.005), {elapsed:.0f}s (<= 120s)")


def test_criterion_02_exp4_unbiased():
    rows = run_estimation_benchmark("exp4", [1000], reps=100, seed=0, config=FitConfig())
    mean, mse = rows[0]["mean_estimate"], rows[0]["mse"]
    ok = abs(mean) <= 0.02 and mse <= 0.01
    _verdict(2, ok, f"exp4 n=1000 x100: |mean| {abs(mean):.4f} (<= 0.02), MSE {mse:.5f} (<= 0.01)")


def test_criterion_03_exp5_mixture():
    rows = run_estimation_benchmark("exp5", [200, 1000], reps=100, seed=0, config=FitConfig())
    truth = ground_truth(ScenarioSpec("exp5", 10, 0))
    mean_1000 = rows[1]["mean_estimate"]
    ok = abs(mean_1000 - 0.352) <= 0.05 and rows[1]["mse"] < rows[0]["mse"]
    _verdict(3, ok, (f"exp5: mean@1000 {mean_1000:.4f} (0.352 +/- 0.05, truth {truth:.4f}), "
                     f"MSE {rows[0]['mse']:.4f} -> {rows[1]['mse']:.4f} decreasing"))


def test_criterion_04_exp6_dimensionality():
    details = []
    ok = True
    for k, n, reps, bound in ((1, 2000, 20, 0.01), (2, 2000, 20, 0.01), (4, 10000, 10, 0.005)):
        rows = run_estimation_benchmark("exp6", [n], reps=reps, seed=0,
                                        config=FitConfig(), k=k)
        mse = rows[0]["mse"]
        details.append(f"k={k},n={n}: MSE {mse:.5f} (<= {bound})")
        ok = ok and mse <= bound
    _verdict(4, ok, "exp6 " + "; ".join(details))


def test_criterion_05_volume_cancellation():
    rng = np.random.default_rng(5)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(60, 501))
        k = int(rng.integers(2, 4))
        cols = []
        for _ in range(k):
            kind = rng.integers(0, 4)
            if kind == 0:
                v = rng.normal(size=n)
            elif kind == 1:
                v = rng.poisson(2.0, size=n).astype(float)
            elif kind == 2:  # mixture: atoms plus continuum
                v = np.where(rng.random(n) < 0.5,
                             rng.choice([-1.0, 0.5, 2.0], size=n), rng.normal(size=n))
            else:
                v = rng.exponential(size=n)
            cols.append(v)
        data = np.column_stack(cols)
        dims = list(rng.permutation(k))
        split = sorted(rng.choice(range(1, k), size=min(2, k - 1), replace=False))
        xg = VariableGroup("X", tuple(dims[:split[0]]))
        yg = VariableGroup("Y", tuple(dims[split[0]:split[-1] if k > 2 else k]))
        zg = VariableGroup("Z", tuple(dims[split[-1]:]) if k > 2 else ())
        fit = fit_columns([prepare_column(data[:, j], FitConfig()) for j in range(k)],
                          FitConfig())
        labels = fit.labels
        groups = {"xz": xg.dims + zg.dims, "yz": yg.dims + zg.dims,
                  "xyz": xg.dims + yg.dims + zg.dims, "z": zg.dims}
        plug = {s: plugin_entropy(labels[:, d]) for s, d in groups.items()}
        i_plug = plug["xz"] + plug["yz"] - plug["xyz"] - plug["z"]
        terms = continuous_entropy_terms(fit.grid, groups)
        i_cont = terms["xz"] + terms["yz"] - terms["xyz"] - terms["z"]
        worst = max(worst, abs(i_cont - i_plug))
    _verdict(5, worst < 1e-9, f"50 mixed datasets: max |I_cont - I_plugin| = {worst:.2e} (< 1e-9)")


def test_criterion_06_dp_matches_exhaustive():
    rng = np.random.default_rng(6)
    worst = 0.0
    for trial in range(30):
        n = int(rng.integers(40, 140))
        vals = np.concatenate([
            rng.normal(size=n) if trial % 2 else rng.uniform(-2, 2, size=n),
            np.full(int(rng.integers(0, 14)), float(rng.integers(-1, 2))),
        ])
        col = detect_discrete_points(vals, 5)
        if len(np.unique(col.unmasked)) < 2:
            continue
        E = int(rng.integers(4, 13))  # interior candidates, <= 12
        K_max = int(rng.integers(2, 6)) if trial < 15 else E + 1  # capped and free
        cand = candidate_cuts(col, E + 1)
        bs = first_recut(grid_start(col, cand, K_max))
        labs = assign_labels(col, bs)
        dp = total_score(build_grid(labs[:, None], [bs]))
        best = exhaustive_best_total(col, cand, K_max)
        worst = max(worst, abs(dp - best))
        assert dp <= best + 1e-9
    _verdict(6, worst < 1e-9, f"30 instances: max |DP - exhaustive| = {worst:.2e} bits (< 1e-9)")


def test_criterion_07_regret_oracle():
    worst = 0.0
    for n in range(1, 13):
        for K in range(1, 7):
            direct = math.log2(multinomial_regret(n, K))
            worst = max(worst, abs(log_regret(n, K) - direct))
    _verdict(7, worst < 1e-9, f"n<=12, K<=6: max |recurrence - direct sum| = {worst:.2e} (< 1e-9)")


def test_criterion_08_bin_growth_below_sqrt_n():
    cfg = FitConfig()
    medians = []
    sizes = (500, 1000, 5000, 20000)
    for n in sizes:
        counts = []
        for rep in range(20):
            rng = np.random.default_rng(replicate_seed(800 + n, rep))
            col = detect_discrete_points(rng.normal(size=n), 5)
            bs = first_recut(start_column(col, cfg))
            counts.append(bs.n_bins)
        medians.append(float(np.median(counts)))
    increasing = all(b > a for a, b in zip(medians, medians[1:]))
    below = all(m < math.sqrt(n) for m, n in zip(medians, sizes))
    _verdict(8, increasing and below,
             f"median bins {medians} over n={list(sizes)}: strictly increasing, all < sqrt(n)")


def test_criterion_09_ci_test_batteries():
    cases = [("noncollider1", 1000, "independent"), ("noncollider2", 1000, "independent"),
             ("collider5", 400, "dependent"), ("collider6", 400, "dependent")]
    details = []
    ok = True
    for sid, n, want in cases:
        hits = 0
        for rep in range(100):
            ds = generate(ScenarioSpec(sid, n, replicate_seed(900, rep)))
            res = citest_chi2(ds.data, X, Y, Z, alpha=0.01)
            hits += res.independent if want == "independent" else (not res.independent)
        details.append(f"{sid}@{n}: {hits}%")
        ok = ok and hits >= 90
    _verdict(9, ok, "chi2 accuracy " + "; ".join(details) + " (each >= 90%)")


def test_criterion_10_network_discovery():
    t0 = time.perf_counter()
    ci = make_ci_test(FitConfig(), "chi2", 0.01)
    truth = true_network_edges()
    precisions, recalls = [], []
    for rep in range(10):
        ds = generate(ScenarioSpec("network", 10000, replicate_seed(1000, rep)))
        skel = pc_stable_skeleton(ds, ci)
        p, r = precision_recall(skel.edges, truth)
        precisions.append(p)
        recalls.append(r)
    elapsed = time.perf_counter() - t0
    mp, mr = float(np.mean(precisions)), float(np.mean(recalls))
    ok = mp >= 0.95 and mr >= 0.85 and elapsed <= 600
    _verdict(10, ok, (f"network n=10000 x10: precision {mp:.3f} (>= 0.95), "
                      f"recall {mr:.3f} (>= 0.85), {elapsed:.0f}s (<= 600s)"))


def test_criterion_11_pc_oracle_exact_on_small_dags():
    checked = 0
    for n_nodes in (2, 3, 4, 5):
        nodes = [chr(65 + i) for i in range(n_nodes)]
        max_edges = min(6, n_nodes * (n_nodes - 1) // 2)
        for edges in enumerate_dags(nodes, max_edges):
            skel = pc_stable_skeleton(nodes, make_dsep_oracle(edges, nodes))
            assert skel.edges == {tuple(sorted(e)) for e in edges}, edges
            checked += 1
    _verdict(11, checked > 18000, f"exact skeleton on all {checked} DAGs (<= 5 nodes, <= 6 edges)")
