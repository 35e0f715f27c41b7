"""Conditional-independence tests built on the histogram CMI estimator.

The chi-squared test declares independence exactly when 2n I_n does not
exceed the (1 - alpha) quantile of chi2(l), with l degrees of freedom from the
discretized domain sizes; it decides this by the p-value, the upper tail
Q(l/2, n I_n) of the regularized incomplete gamma function, which is
computed here with the standard library alone.  The stochastic-complexity
test computes I_C = max{0, I_n + C_n} with a non-positive correction C_n, a
difference of four NML regret terms, and declares independence exactly when
I_C = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .complexity import log_regret
from .errors import InputError, require_real
from .estimators import EstimateResult, VariableGroup, cmi_estimate
from .histmd import FitConfig, FitResult

_LN2 = math.log(2.0)


CI_TESTS = ("chi2", "sc")


def check_ci_test(method: str, alpha: float):
    """Reject an unknown CI-test method, or an alpha that is not a real number
    in (0, 1) even where the method (sc) does not read it."""
    if method not in CI_TESTS:
        raise InputError(f"unknown CI test {method!r}; known: {list(CI_TESTS)}")
    require_real("alpha", alpha)
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie in (0, 1), got {alpha}")


_EPS = 2.0 ** -52
_LN_2PI = math.log(2.0 * math.pi)

# Stirling's series for ln Γ(a+1) - (a ln a - a + ½ ln 2πa), used from a = 10
# on, where the first term left out, 3617 / (122400 a^15), is below 3e-17
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)

# Temme's uniform expansion (DLMF 8.12.3, 8.12.12): with η²/2 = y/a - 1 - ln(y/a),
# η of the sign of y - a and u = η sqrt(a/2),
#   Q(a, y) = ½ erfc(u) + e^(-u²) (C0(η) + C1(η)/a + ...) / sqrt(2πa).
# These are the Taylor coefficients of C0 and C1 in η, from their exact rationals
# (C0 = -1/3 + η/12 - 2η²/135 + ...).  The expansion serves a >= _TEMME_MIN_A
# and u < 20, so |η| < 0.13 wherever |u| < 20; below u = -20, e^(-u²) < e^-400
# and Q rounds to 1.  The terms left out move Q by less than 1e-14 of itself.
# Below _TEMME_MIN_A the series takes at most about 9 sqrt(a) terms (2,000) and
# the continued fraction fewer; past u = 20 the fraction needs under ten.
_TEMME_C0 = (-0.3333333333333333, 0.08333333333333333, -0.014814814814814815,
             0.0011574074074074073, 0.0003527336860670194, -0.0001787551440329218,
             3.919263178522438e-05, -2.185448510679992e-06, -1.85406221071516e-06,
             8.296711340953087e-07)
_TEMME_C1 = (-0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
             -0.0009902263374485596, 0.00020576131687242798)
_TEMME_MIN_A = 5e4


def _polyval(coeffs, x: float) -> float:
    s = 0.0
    for c in reversed(coeffs):
        s = s * x + c
    return s


def _stirling_error(a: float) -> float:
    """ln Γ(a+1) - (a ln a - a + ½ ln 2πa)."""
    if a < 10.0:
        return math.lgamma(a + 1.0) - (a * math.log(a) - a + 0.5 * (_LN_2PI + math.log(a)))
    return _polyval(_STIRLING, 1.0 / (a * a)) / a


def _half_eta_squared(a: float, y: float) -> float:
    """η²/2 = t - ln(1 + t) >= 0 with t = (y - a)/a, summed without
    cancellation near y = a: with v = t/(2 + t), ln(1 + t) = 2 atanh(v) and
    t - 2v = t v, so η²/2 = t v - 2 (v³/3 + v⁵/5 + ...)."""
    t = (y - a) / a
    if abs(t) > 0.5:
        return t - math.log(y / a)
    v = t / (2.0 + t)
    v2 = v * v
    s, term, k = 0.0, v, 3.0
    while True:
        term *= v2
        s += term / k
        if abs(term) <= _EPS * k * abs(s):
            return t * v - 2.0 * s
        k += 2.0


def _ln_gamma_tail(a: float, y: float) -> float:
    """ln Q(a, y), the regularized upper incomplete gamma function, for
    a >= 1/2 and y > 0.

    The prefactor ln[y^a e^-y / Γ(a+1)] is -a η²/2 less ½ ln 2πa and
    Stirling's error, which keeps its bits at any a, where the textbook
    a ln y - y - ln Γ(a+1) loses about 1e-9 of them at a = 5e5 and all of them
    near 2^62.  Q is 1 - P from P's power series below y = a + 1, where P is
    at most 0.92, and comes from Legendre's continued fraction above (Lentz's
    method).
    """
    half_eta2 = _half_eta_squared(a, y)
    ln_pre = -a * half_eta2 - 0.5 * (_LN_2PI + math.log(a)) - _stirling_error(a)
    u = math.copysign(math.sqrt(a * half_eta2), y - a)
    if a >= _TEMME_MIN_A and u < 20.0:
        eta = u / math.sqrt(0.5 * a)
        r = (math.exp(-u * u) / math.sqrt(2.0 * math.pi * a)
             * (_polyval(_TEMME_C0, eta) + _polyval(_TEMME_C1, eta) / a))
        return math.log(0.5 * math.erfc(u) + r)
    if y < a + 1.0:
        s = term = 1.0
        n = a
        while term > _EPS * s:
            n += 1.0
            term *= y / n
            s += term
        return math.log1p(-math.exp(ln_pre + math.log(s)))
    tiny = 1e-300
    b = y + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h, i, delta = d, 0.0, 0.0
    while abs(delta - 1.0) > _EPS:
        i += 1.0
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        delta = d * c
        h *= delta
    return ln_pre + math.log(a * h)


@dataclass(frozen=True)
class CITestResult:
    """One CI test's verdict.  ``correction`` and ``corrected`` are sc's alone
    and None for chi2, which reports its p-value in ``detail`` instead."""

    raw: float                 # nats
    correction: float | None   # nats, <= 0
    corrected: float | None    # max(0, raw + correction), 0 where a side has one bin
    independent: bool
    method: str
    detail: dict = field(default_factory=dict)
    estimate: EstimateResult | None = None
    sc_correction_clamped: bool = False


def _one_bin(est: EstimateResult) -> bool:
    """Whether a side has one bin, which makes it independent of everything:
    chi2 reads p = 1 there, and sc a correction of 0 with no clamp.  I_n and C_n
    are 0 there in exact arithmetic, since H(XZ) = H(Z), H(XYZ) = H(YZ), K_XZ =
    K_Z and K_XYZ = K_YZ, and only rounding residues of their sums could read as
    dependence or as a positive correction.
    """
    return est.dom_x == 1 or est.dom_y == 1


def citest_chi2(
    dataset,
    x: VariableGroup,
    y: VariableGroup,
    z: VariableGroup | None = None,
    alpha: float = 0.01,
    config: FitConfig | None = None,
    fit: FitResult | None = None,
) -> CITestResult:
    """Chi-squared CI test: independent iff the p-value Q(df/2, n I_n) >= alpha.

    Q(l/2, n I_n) is the upper tail of χ²(l) at 2n I_n, so the test says
    dependent exactly when 2n I_n exceeds the (1 - alpha) quantile of χ²(l),
    with l = (|X| - 1)(|Y| - 1)|Z| from the discretized domain sizes.  An
    I_n <= 0 reads as p = 1.  ``detail`` holds df, p_value and alpha.
    ``fit`` reuses a joint fit of the same data, as in :func:`cmi_estimate`.
    """
    check_ci_test("chi2", alpha)
    est = cmi_estimate(dataset, x, y, z, config, fit=fit)
    df = (est.dom_x - 1) * (est.dom_y - 1) * est.dom_z
    p = (1.0 if _one_bin(est) or est.value <= 0.0
         else math.exp(_ln_gamma_tail(df / 2, est.n * est.value)))
    return CITestResult(raw=est.value, correction=None, corrected=None,
                        independent=p >= alpha, method="chi2",
                        detail={"df": df, "p_value": p, "alpha": alpha}, estimate=est)


def citest_sc(
    dataset,
    x: VariableGroup,
    y: VariableGroup,
    z: VariableGroup | None = None,
    config: FitConfig | None = None,
    fit: FitResult | None = None,
) -> CITestResult:
    """Stochastic-complexity-corrected CI test: independent iff
    max{0, I_n + C_n} = 0 (quotient-NML regret difference).

    The correction C_n = [log R(n,K_XZ) + log R(n,K_YZ) - log R(n,K_XYZ) - log R(n,K_Z)]/n
    should always be negative; if it ever evaluates positive it is clamped to
    zero and flagged rather than silently trusted.  ``fit`` reuses a joint fit
    of the same data, as in :func:`cmi_estimate`.
    """
    est = cmi_estimate(dataset, x, y, z, config, fit=fit)
    K = {"xz": est.dom_x * est.dom_z, "yz": est.dom_y * est.dom_z,
         "xyz": est.dom_x * est.dom_y * est.dom_z, "z": est.dom_z}
    parts = {s: log_regret(est.n, k) for s, k in K.items()}
    if _one_bin(est):
        correction = corrected = 0.0
        clamped = False
    else:
        correction = (parts["xz"] + parts["yz"] - parts["xyz"] - parts["z"]) * _LN2 / est.n
        clamped = correction > 0.0
        if clamped:
            correction = 0.0
        corrected = max(0.0, est.value + correction)
    return CITestResult(raw=est.value, correction=correction, corrected=corrected,
                        independent=corrected == 0.0, method="sc",
                        detail={"regret_bits": parts, "K": K}, estimate=est,
                        sc_correction_clamped=clamped)
