"""Seeded synthetic benchmark generators with known ground truth.

All scenarios draw from ``numpy.random.Generator`` backed by PCG64 (the
"pcg64-v1" stream named in emitted files), with a fixed per-scenario draw
order, so identical (seed, spec) pairs produce identical datasets.
Replicate seeds for Monte Carlo loops come from :func:`replicate_seed`.

Estimation scenarios (exp1..exp6) have closed-form ground-truth values in
nats; collider/non-collider batteries and the 7-node network carry a
ground-truth verdict or edge set instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

RNG_NAME = "pcg64-v1"


def replicate_seed(base_seed: int, index: int) -> int:
    """Deterministic per-replicate seed: first word of SeedSequence((base, index))."""
    if base_seed < 0 or index < 0:
        raise InputError(f"replicate seeds need base and index >= 0, got ({base_seed}, {index})")
    return int(np.random.SeedSequence((base_seed, index)).generate_state(1, np.uint64)[0])


def _require_integer(name: str, value) -> None:
    """Refuse anything but a Python or NumPy integer, bools included: a
    fractional size, seed or count would be truncated or break the draw."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    id: str
    n: int
    seed: int
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        _require_integer("n", self.n)
        _require_integer("seed", self.seed)
        if self.n < 1:
            raise InputError("n must be >= 1")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        if self.id not in SCENARIOS:
            raise InputError(f"unknown scenario {self.id!r}; known: {sorted(SCENARIOS)}")
        unread = sorted(set(self.extra) - _PARAMETERS.get(self.id, set()))
        if unread:
            raise InputError(f"scenario {self.id!r} does not read the parameters {unread}")
        if "k" in self.extra:
            _require_integer("k", self.extra["k"])


@dataclass(frozen=True)
class Dataset:
    names: tuple[str, ...]
    data: np.ndarray  # (n, k) float64
    x: tuple[str, ...]
    y: tuple[str, ...]
    z: tuple[str, ...]
    scenario: str
    seed: int
    truth_verdict: str | None = None  # independent | dependent, for CI batteries

    def __post_init__(self):
        self.data.setflags(write=False)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.names.index(name)]


def _exp1(rng, n, extra):
    x = rng.normal(size=n)
    y = 0.6 * x + 0.8 * rng.normal(size=n)  # corr 0.6, unit variance
    return {"X": x, "Y": y}, ("X",), ("Y",), ()


def _exp2(rng, n, extra):
    x = rng.integers(0, 5, size=n).astype(np.float64)
    y = x + 2.0 * rng.random(n)
    return {"X": x, "Y": y}, ("X",), ("Y",), ()


def _exp3(rng, n, extra):
    x = rng.exponential(scale=1.0, size=n)
    inflate = rng.random(n) < 0.15
    y = np.where(inflate, 0.0, rng.poisson(x).astype(np.float64))
    return {"X": x, "Y": y}, ("X",), ("Y",), ()


def _exp4(rng, n, extra):
    x = rng.exponential(scale=0.5, size=n)
    z = rng.poisson(x).astype(np.float64)
    y = rng.binomial(z.astype(np.int64), 0.5).astype(np.float64)
    return {"X": x, "Y": y, "Z": z}, ("X",), ("Y",), ("Z",)


_EXP5_ATOMS = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
_EXP5_PROBS = np.array([0.4, 0.4, 0.1, 0.1])


def _exp5(rng, n, extra):
    # Z is the mixture-branch indicator (1 iff the row is discrete).  With
    # the branch observable, I(X;Y|Z) is the half-and-half average of the two
    # branch MIs, which is this benchmark's closed-form value; with a Z
    # independent of (X,Y) the true CMI would exceed that value by exactly
    # ln 2, since the branch indicator itself is information shared between
    # X and Y (atoms are distinguishable from continuous draws).
    continuous = rng.random(n) < 0.5
    x = rng.normal(size=n)
    y = 0.8 * x + 0.6 * rng.normal(size=n)  # corr 0.8
    atoms = _EXP5_ATOMS[rng.choice(4, size=n, p=_EXP5_PROBS)]
    x = np.where(continuous, x, atoms[:, 0])
    y = np.where(continuous, y, atoms[:, 1])
    z = (~continuous).astype(np.float64)
    return {"X": x, "Y": y, "Z": z}, ("X",), ("Y",), ("Z",)


def _exp6(rng, n, extra):
    k = int(extra.get("k", 1))
    if k < 1:
        raise InputError("exp6 needs k >= 1")
    x = rng.integers(0, 5, size=n).astype(np.float64)
    y = x + 2.0 * rng.random(n)
    cols = {"X": x, "Y": y}
    z_names = []
    for i in range(1, k + 1):
        name = f"Z{i}"
        cols[name] = rng.binomial(3, 0.5, size=n).astype(np.float64)
        z_names.append(name)
    return cols, ("X",), ("Y",), tuple(z_names)


def _network(rng, n, extra):
    a = rng.exponential(scale=1.0, size=n)
    b = rng.integers(0, 5, size=n).astype(np.float64)
    c = rng.binomial(b.astype(np.int64), 0.5).astype(np.float64)
    d = rng.normal(loc=b - 2.0, scale=1.0, size=n)
    e = rng.exponential(scale=c + 1.0, size=n)  # rate 1/(c+1)
    c_round = np.round(c)
    f = np.sign(d) * np.abs(d) ** (c_round / 2.0) + rng.normal(size=n)
    e_ind = (np.sign(e - 1.0) + 1.0) / 2.0
    g_norm = rng.normal(loc=a, scale=1.0, size=n)
    g_pois = rng.poisson(a).astype(np.float64)
    g = np.where(e_ind == 1.0, g_pois, g_norm)
    cols = {"A": a, "B": b, "C": c, "D": d, "E": e, "F": f, "G": g}
    return cols, (), (), ()


# additive-mechanism pool: polynomials up to degree three or the tangent
_FUNCS = [lambda u: u, lambda u: u ** 2, lambda u: u ** 3, np.tan]
_NOISE_SD = math.sqrt(0.1)  # N(0, 0.1) has variance 0.1


def _pick(rng, options):
    return options[int(rng.integers(0, len(options)))]


def _reassign_fraction(rng, z, frac=0.1):
    """Overwrite a random 10% of z with values drawn from its own empirical domain."""
    n = len(z)
    m = int(round(frac * n))
    idx = rng.choice(n, size=m, replace=False)
    z = z.copy()
    z[idx] = rng.choice(z, size=m, replace=True)
    return z


def _collider1(rng, n, extra):
    draw = _pick(rng, [lambda: rng.normal(size=n), lambda: rng.uniform(-2, 2, size=n)])
    f, g = _pick(rng, _FUNCS), _pick(rng, _FUNCS)
    x, y = draw(), draw()
    z = f(x) + g(y) + rng.normal(scale=_NOISE_SD, size=n)
    return {"X": x, "Y": y, "Z": z}, ("X",), ("Y",), ("Z",)


def _collider2(rng, n, extra):
    x, y = rng.normal(size=n), rng.normal(size=n)
    z = np.sign(x * y) * rng.exponential(scale=math.sqrt(2.0), size=n)  # rate 1/sqrt(2)
    return {"X": x, "Y": y, "Z": z}, ("X",), ("Y",), ("Z",)


def _collider3(rng, n, extra):
    x, y = rng.normal(size=n), rng.normal(size=n)
    z = _reassign_fraction(rng, np.sign(x * y))
    return {"X": x, "Y": y, "Z": z}, ("X",), ("Y",), ("Z",)


def _collider4(rng, n, extra):
    x = rng.normal(size=n)
    lam = float(_pick(rng, [1.0, 2.0, 3.0]))
    y = rng.poisson(lam, size=n).astype(np.float64)
    z = _reassign_fraction(rng, np.mod(x, np.maximum(y, 1.0)))
    return {"X": x, "Y": y, "Z": z}, ("X",), ("Y",), ("Z",)


def _collider_xor(rng, n, scaled: bool):
    x = rng.integers(0, 2, size=n).astype(np.float64)
    y = rng.integers(0, 2, size=n).astype(np.float64)
    z_ind = np.logical_xor(x == 1.0, y == 1.0)
    noise = rng.normal(scale=_NOISE_SD, size=n)
    pois = rng.poisson(5.0, size=n).astype(np.float64)
    z = np.where(z_ind, pois * noise if scaled else pois + noise, noise)
    return {"X": x, "Y": y, "Z": z}, ("X",), ("Y",), ("Z",)


def _collider5(rng, n, extra):
    return _collider_xor(rng, n, scaled=True)


def _collider6(rng, n, extra):
    return _collider_xor(rng, n, scaled=False)


def _noncollider1(rng, n, extra):
    f, g = _pick(rng, _FUNCS), _pick(rng, _FUNCS)
    x = rng.normal(size=n)
    z = f(x) + rng.normal(scale=_NOISE_SD, size=n)
    y = g(z) + rng.normal(scale=_NOISE_SD, size=n)
    return {"X": x, "Y": y, "Z": z}, ("X",), ("Y",), ("Z",)


def _noncollider2(rng, n, extra):
    f, g = _pick(rng, _FUNCS), _pick(rng, _FUNCS)
    z = rng.normal(size=n)
    x = f(z) + rng.normal(scale=_NOISE_SD, size=n)
    y = g(z) + rng.normal(scale=_NOISE_SD, size=n)
    return {"X": x, "Y": y, "Z": z}, ("X",), ("Y",), ("Z",)


def _noncollider3(rng, n, extra):
    return _exp4(rng, n, extra)


def _noncollider4(rng, n, extra):
    hub = rng.integers(0, 5, size=n).astype(np.float64)
    y = hub + 2.0 * rng.random(n)
    mu = rng.uniform(-4.0, 4.0)
    x = rng.normal(loc=mu, scale=np.sqrt(hub), size=n)  # variance = hub value
    return {"X": x, "Y": y, "Z": hub}, ("X",), ("Y",), ("Z",)


SCENARIOS = {
    "exp1": (_exp1, None),
    "exp2": (_exp2, None),
    "exp3": (_exp3, None),
    "exp4": (_exp4, "independent"),
    "exp5": (_exp5, None),
    "exp6": (_exp6, None),
    "network": (_network, None),
    "collider1": (_collider1, "dependent"),
    "collider2": (_collider2, "dependent"),
    "collider3": (_collider3, "dependent"),
    "collider4": (_collider4, "dependent"),
    "collider5": (_collider5, "dependent"),
    "collider6": (_collider6, "dependent"),
    "noncollider1": (_noncollider1, "independent"),
    "noncollider2": (_noncollider2, "independent"),
    "noncollider3": (_noncollider3, "independent"),
    "noncollider4": (_noncollider4, "independent"),
}


# the ``extra`` keys each scenario reads; every other scenario reads none
_PARAMETERS = {"exp6": {"k"}}


def generate(spec: ScenarioSpec) -> Dataset:
    """Sample a scenario. Identical (seed, spec) give identical datasets."""
    builder, verdict = SCENARIOS[spec.id]
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    cols, x, y, z = builder(rng, spec.n, spec.extra)
    names = tuple(cols)
    data = np.column_stack([np.asarray(cols[c], dtype=np.float64) for c in names])
    if not np.all(np.isfinite(data)):
        raise InputError(f"scenario {spec.id} produced non-finite values")
    return Dataset(names=names, data=data, x=x, y=y, z=z,
                   scenario=spec.id, seed=spec.seed, truth_verdict=verdict)


def _exp3_constant() -> float:
    # 2 ln 2 - gamma - sum_{k>=2} ln(k) 2^-k, summed to convergence
    s, k = 0.0, 2
    while True:
        term = math.log(k) * 2.0 ** (-k)
        s += term
        k += 1
        if term < 1e-18:
            break
    return 2.0 * math.log(2.0) - np.euler_gamma - s


_TRUTHS = {
    "exp1": -0.5 * math.log(1.0 - 0.6 ** 2),
    "exp2": math.log(5.0) - 4.0 * math.log(2.0) / 5.0,
    "exp3": 0.85 * _exp3_constant(),
    "exp4": 0.0,
    "exp5": 0.4 * math.log(0.4 / 0.25) + 0.1 * math.log(0.1 / 0.25)
            - 0.25 * math.log(1.0 - 0.8 ** 2),
    "exp6": math.log(5.0) - 4.0 * math.log(2.0) / 5.0,
}


def ground_truth(spec: ScenarioSpec) -> float | None:
    """True (C)MI in nats, or None for structure-only scenarios."""
    return _TRUTHS.get(spec.id)


def true_network_edges() -> set[tuple[str, str]]:
    """The undirected edges of the 7-node synthetic network."""
    return {("A", "G"), ("B", "C"), ("B", "D"), ("C", "E"),
            ("C", "F"), ("D", "F"), ("E", "G")}
