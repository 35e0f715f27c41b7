"""Fixed-seed outputs of the estimator, pinned so a refactor can show they hold.

Cases: exp1-exp6 at n=500 with ``replicate_seed(8, i)`` for i in 0-3 (exp6
with k=2), estimated with the declared X/Y/Z roles; joint fits of the
7-column ``network`` at n=2000 and at n=10000, where columns A and E have
long empty exponential tails; and the fit of one gapped bimodal column, two
unit normals 12 apart.  The last two leave many candidate cells empty.
Cuts, bin counts and each trace record's dimension must match exactly;
the estimate and each record's ``score_after`` within a relative 1e-12, so
the file holds across numpy's CPU-specific SIMD paths.

A second, exact check hashes 100 seeded fits of 2-5 mixed columns at n
between 20 and 1500: every cut, trace dimension and ``converged`` flag, and
every ``score_after`` and estimate as ``float.hex``.  Its sha256 in
golden_mixed_sha256.txt pins them bit for bit on the machine that wrote it.

    python tests/test_golden.py    # recompute both files from this code
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden_fits.json"
MIXED_SHA256 = GOLDEN.parent / "golden_mixed_sha256.txt"
REL = 1e-12
N_ESTIMATE, N_NETWORK, BASE_SEED, REPLICATES = 500, 2000, 8, 4
N_NETWORK_LARGE, N_GAPPED = 10000, 2000
N_MIXED, MIXED_SEED = 100, 20211


def _summary(fit, estimate=None) -> dict:
    return {
        "estimate": estimate,
        "cuts": [b.cuts.tolist() for b in fit.grid.dims],
        "n_bins": [b.n_bins for b in fit.grid.dims],
        "trace": [[r.dim, r.score_after] for r in fit.trace.records],
    }


def compute_cases() -> dict:
    """Case name -> summary of its fit, in a fixed order."""
    # imported here so that running this file can put src/ on the path first
    from histcmi import FitConfig, VariableGroup, cmi_estimate
    from histcmi.datagen import ScenarioSpec, generate, replicate_seed
    from histcmi.estimators import fit_columns, prepare_column

    def fit_all(data):
        config = FitConfig()
        return fit_columns([prepare_column(data[:, j], config) for j in range(data.shape[1])],
                           config)

    cases = {}
    for scenario in ("exp1", "exp2", "exp3", "exp4", "exp5", "exp6"):
        extra = {"k": 2} if scenario == "exp6" else {}
        for i in range(REPLICATES):
            ds = generate(ScenarioSpec(scenario, N_ESTIMATE, replicate_seed(BASE_SEED, i), extra))
            x, y, z = (VariableGroup(role, tuple(ds.names.index(c) for c in cols))
                       for role, cols in (("X", ds.x), ("Y", ds.y), ("Z", ds.z)))
            est = cmi_estimate(ds.data, x, y, z)
            cases[f"{scenario}/{i}"] = _summary(est.fit, est.value)
    ds = generate(ScenarioSpec("network", N_NETWORK, replicate_seed(BASE_SEED, 0)))
    cases["network/fit"] = _summary(fit_all(ds.data))
    ds = generate(ScenarioSpec("network", N_NETWORK_LARGE, replicate_seed(BASE_SEED, 0)))
    cases["network_n10000/fit"] = _summary(fit_all(ds.data))
    rng = np.random.default_rng(replicate_seed(BASE_SEED, 0))
    gapped = np.concatenate([rng.normal(0.0, 1.0, N_GAPPED // 2),
                             rng.normal(12.0, 1.0, N_GAPPED // 2)])
    cases["gapped_bimodal/fit"] = _summary(fit_all(gapped[:, None]))
    return cases


def _mixed_column(rng, base):
    """One column of a kind drawn at random: dependent on ``base``, long-tailed,
    discrete, continuous with atoms, or clustered with gaps."""
    n = len(base)
    kind = int(rng.integers(0, 5))
    if kind == 0:
        return rng.uniform(-1.0, 1.0) * base + rng.uniform(0.1, 1.0) * rng.normal(size=n)
    if kind == 1:
        return rng.exponential(size=n) ** 2
    if kind == 2:
        return rng.integers(0, int(rng.integers(2, 6)), size=n).astype(float)
    if kind == 3:
        atoms = rng.choice([0.0, 1.0, 2.5], size=n)
        return np.where(rng.random(n) < rng.uniform(0.05, 0.6), atoms, base + rng.normal(size=n))
    return 6.0 * np.sign(base) + 0.3 * rng.normal(size=n)


def compute_mixed_digest() -> str:
    """sha256 over the seeded mixed fits, each with its estimate of I(X0; X1 | rest)."""
    import hashlib

    from histcmi import FitConfig, VariableGroup, cmi_estimate
    from histcmi.estimators import fit_columns, prepare_column

    rng = np.random.default_rng(MIXED_SEED)
    digest = hashlib.sha256()
    for _ in range(N_MIXED):
        k = int(rng.integers(2, 6))
        n = int(np.exp(rng.uniform(np.log(20), np.log(1500))))
        base = rng.normal(size=n)
        data = np.column_stack([_mixed_column(rng, base) for _ in range(k)])
        config = FitConfig()
        fit = fit_columns([prepare_column(data[:, j], config) for j in range(k)], config)
        est = cmi_estimate(data, VariableGroup("X", (0,)), VariableGroup("Y", (1,)),
                           VariableGroup("Z", tuple(range(2, k))), config, fit=fit)
        record = ([b.cuts.tolist() for b in fit.grid.dims],
                  [(r.dim, r.score_after.hex()) for r in fit.trace.records],
                  fit.trace.converged, est.value.hex())
        digest.update(repr(record).encode())
    return digest.hexdigest()


def _difference(got: dict, want: dict) -> str | None:
    for key in ("cuts", "n_bins"):
        if got[key] != want[key]:
            return f"{key} {got[key]} != {want[key]}"
    if [d for d, _ in got["trace"]] != [d for d, _ in want["trace"]]:
        return f"trace dims {got['trace']} != {want['trace']}"
    for (_, g), (_, w) in zip(got["trace"], want["trace"]):
        if g != pytest.approx(w, rel=REL):
            return f"score_after {g!r} != {w!r}"
    if (got["estimate"] is None) != (want["estimate"] is None) or (
            got["estimate"] is not None and got["estimate"] != pytest.approx(want["estimate"], rel=REL)):
        return f"estimate {got['estimate']!r} != {want['estimate']!r}"
    return None


def test_fixed_seed_fits_match_golden_file():
    want = json.loads(GOLDEN.read_text())
    got = compute_cases()
    assert list(got) == list(want)
    for name in want:
        diff = _difference(got[name], want[name])
        if diff is not None:
            pytest.fail(f"first differing case {name}: {diff}")


def test_seeded_mixed_fits_match_their_digest_bit_for_bit():
    assert compute_mixed_digest() == MIXED_SHA256.read_text().strip()


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parent.parent / "src"))
    lines = [f"{json.dumps(name)}: {json.dumps(case)}" for name, case in compute_cases().items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    MIXED_SHA256.write_text(compute_mixed_digest() + "\n")
