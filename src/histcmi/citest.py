"""Conditional-independence tests built on the histogram CMI estimator.

Both tests compute I_C = max{0, I_n + C_n} with a non-positive correction
C_n and declare independence exactly when I_C = 0.  The chi-squared variant
uses C_n = -chi2(alpha, l) / 2n with degrees of freedom from the discretized
domain sizes; the stochastic-complexity variant replaces each empirical
entropy with its NML code length, which turns into a difference of four
regret terms.

The chi-squared quantile is computed here with the standard library alone,
by inverting the regularized incomplete gamma function as DiDonato & Morris
do (ACM TOMS 12, 1986), so no CI test loads scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from statistics import NormalDist

from .complexity import log_regret
from .errors import InputError, ModelError, require_integer, require_real
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
_STD_NORMAL = NormalDist()

# Stirling's series for ln Γ(a+1) - (a ln a - a + ½ ln 2πa), used from a = 10
# on, where the first term left out, 3617 / (122400 a^15), is below 3e-17
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)

# Temme's uniform expansion (DLMF 8.12.3, 8.12.12): with η²/2 = y/a - 1 - ln(y/a),
# η of the sign of y - a and u = η sqrt(a/2),
#   Q(a, y) = ½ erfc(u) + e^(-u²) (C0(η) + C1(η)/a + ...) / sqrt(2πa),
#   P(a, y) = ½ erfc(-u) - e^(-u²) (C0(η) + C1(η)/a + ...) / sqrt(2πa).
# These are the Taylor coefficients of C0 and C1 in η, from their exact rationals
# (C0 = -1/3 + η/12 - 2η²/135 + ...).  The expansion serves a >= _TEMME_MIN_A
# and u < 20; every root lies at u > -8.3, since 1 - alpha >= 2^-53, so
# |η| < 0.13 there.  The terms left out move Q by less than 1e-14 of itself,
# and the quantile, which moves by about 1/sqrt(a) of that, by less than
# 1e-16.  Below _TEMME_MIN_A the series takes at most about 9 sqrt(a) terms
# (2,000) and the continued fraction fewer; past u = 20 the fraction needs
# under ten.
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


def _ln_gamma_tail(a: float, y: float, upper: bool) -> tuple[float, float]:
    """ln Q(a, y) if ``upper`` else ln P(a, y), and the log density
    ln[y^(a-1) e^-y / Γ(a)], for a >= 1/2 and y > 0.

    The prefactor ln[y^a e^-y / Γ(a+1)] is -a η²/2 less ½ ln 2πa and
    Stirling's error, which keeps its bits at any a, where the textbook
    a ln y - y - ln Γ(a+1) loses about 1e-9 of them at a = 5e5 and all of them
    near 2^62.  P comes from its power series below y = a + 1 and Q from
    Legendre's continued fraction above (Lentz's method); the other tail is
    1 minus it, at least 0.08 there.
    """
    half_eta2 = _half_eta_squared(a, y)
    ln_pre = -a * half_eta2 - 0.5 * (_LN_2PI + math.log(a)) - _stirling_error(a)
    ln_density = ln_pre + math.log(a / y)
    u = math.copysign(math.sqrt(a * half_eta2), y - a)
    if a >= _TEMME_MIN_A and u < 20.0:
        eta = u / math.sqrt(0.5 * a)
        r = (math.exp(-u * u) / math.sqrt(2.0 * math.pi * a)
             * (_polyval(_TEMME_C0, eta) + _polyval(_TEMME_C1, eta) / a))
        tail = 0.5 * math.erfc(u) + r if upper else 0.5 * math.erfc(-u) - r
        return math.log(tail), ln_density
    if y < a + 1.0:
        s = term = 1.0
        n = a
        while term > _EPS * s:
            n += 1.0
            term *= y / n
            s += term
        ln_p = ln_pre + math.log(s)
        ln_tail = math.log1p(-math.exp(ln_p)) if upper else ln_p
    else:
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
        ln_q = ln_pre + math.log(a * h)
        ln_tail = ln_q if upper else math.log1p(-math.exp(ln_q))
    return ln_tail, ln_density


def chi2_critical(alpha: float, df: int) -> float:
    """(1-alpha) quantile of the chi-squared distribution with df degrees of freedom.

    This is 2y for the y where Q(df/2, y) = alpha, found by Halley steps on
    ln Q(a, y) - ln alpha, or on ln P(a, y) - ln(1 - alpha) when alpha > 1/2
    so that alpha near 1 keeps its bits.  The steps start from the
    Wilson-Hilferty guess; when alpha > 1/2 they start no lower than
    ((1 - alpha) Γ(a+1))^(1/a), which P(a, y) < y^a / Γ(a+1) puts at or below
    the root.  The tests hold the result to ``scipy.special.chdtri`` within a
    relative 1e-12 for df up to 10^6 and 1e-10 up to 2^63 - 1, for alpha
    down to 1e-300.  ``df`` must be an integer >= 1.
    """
    check_ci_test("chi2", alpha)
    require_integer("df", df)
    if df < 1:
        raise InputError(f"degrees of freedom must be >= 1, got {df}")
    return _chi2_quantile(float(alpha), int(df))


@functools.lru_cache(maxsize=256)
def _chi2_quantile(alpha: float, df: int) -> float:
    """:func:`chi2_critical` of checked arguments, computed once per process
    for each (alpha, df)."""
    a = df / 2
    upper = alpha <= 0.5
    ln_target = math.log(alpha if upper else 1.0 - alpha)
    z = -_STD_NORMAL.inv_cdf(alpha)  # inv_cdf(1 - alpha) fails for alpha below 1e-16
    c = 2.0 / (9.0 * df)
    base = 1.0 - c + z * math.sqrt(c)
    y = 0.5 * df * base ** 3 if base > 0.0 else 0.0
    floor = 0.0 if upper else math.exp((ln_target + math.lgamma(a + 1.0)) / a)
    y = max(y, floor)
    for _ in range(100):
        ln_tail, ln_density = _ln_gamma_tail(a, y, upper)
        h = ln_tail - ln_target
        slope = math.exp(ln_density - ln_tail) * (-1.0 if upper else 1.0)
        step = h / slope
        # h'' = h' ((a - 1)/y - 1 - h'), as (a - 1)/y - 1 is the log density's slope
        halley = 1.0 - 0.5 * step * ((a - 1.0) / y - 1.0 - slope)
        if halley > 0.5:  # else a Newton step, far from the root
            step /= halley
        y_next = y - step
        if y_next <= floor:
            y_next = floor if floor > 0.0 else 0.5 * y
        # Halley's error cubes from step to step: one of 1e-6 leaves about 1e-18
        if abs(y_next - y) <= 1e-6 * y:
            return 2.0 * y_next
        y = y_next
    raise ModelError(f"chi-squared quantile for alpha={alpha}, df={df} did not converge")


@dataclass(frozen=True)
class CITestResult:
    raw: float          # nats
    correction: float   # nats, <= 0
    corrected: float    # max(0, raw + correction), 0 where a side has one bin
    independent: bool
    method: str
    detail: dict = field(default_factory=dict)
    estimate: EstimateResult | None = None
    sc_correction_clamped: bool = False


def _verdict(est: EstimateResult, method: str, correction: float, detail: dict,
             clamped: bool = False) -> CITestResult:
    """Result of either test: independent iff max{0, I_n + C_n} = 0.

    A side with one bin is independent of everything, with no correction and
    no clamp: I_n and C_n are 0 there in exact arithmetic, since H(XZ) = H(Z),
    H(XYZ) = H(YZ), K_XZ = K_Z and K_XYZ = K_YZ, and only rounding residues of
    their sums could read as dependence or as a positive correction.
    """
    if est.dom_x == 1 or est.dom_y == 1:
        correction = corrected = 0.0
        clamped = False
    else:
        corrected = max(0.0, est.value + correction)
    return CITestResult(raw=est.value, correction=correction, corrected=corrected,
                        independent=corrected == 0.0, method=method, detail=detail,
                        estimate=est, sc_correction_clamped=clamped)


def citest_chi2(
    dataset,
    x: VariableGroup,
    y: VariableGroup,
    z: VariableGroup | None = None,
    alpha: float = 0.01,
    config: FitConfig | None = None,
    fit: FitResult | None = None,
) -> CITestResult:
    """Chi-squared-corrected CI test: independent iff max{0, I_n - chi2/2n} = 0.

    ``fit`` reuses a joint fit of the same data, as in :func:`cmi_estimate`.
    """
    check_ci_test("chi2", alpha)
    est = cmi_estimate(dataset, x, y, z, config, fit=fit)
    df = (est.dom_x - 1) * (est.dom_y - 1) * est.dom_z
    crit = chi2_critical(alpha, df) if df else 0.0
    return _verdict(est, "chi2", -crit / (2.0 * est.n),
                    {"df": df, "critical": crit, "alpha": alpha})


def citest_sc(
    dataset,
    x: VariableGroup,
    y: VariableGroup,
    z: VariableGroup | None = None,
    config: FitConfig | None = None,
    fit: FitResult | None = None,
) -> CITestResult:
    """Stochastic-complexity-corrected CI test (quotient-NML regret difference).

    The correction [log R(n,K_XZ) + log R(n,K_YZ) - log R(n,K_XYZ) - log R(n,K_Z)]/n
    should always be negative; if it ever evaluates positive it is clamped to
    zero and flagged rather than silently trusted.  ``fit`` reuses a joint fit
    of the same data, as in :func:`cmi_estimate`.
    """
    est = cmi_estimate(dataset, x, y, z, config, fit=fit)
    K = {"xz": est.dom_x * est.dom_z, "yz": est.dom_y * est.dom_z,
         "xyz": est.dom_x * est.dom_y * est.dom_z, "z": est.dom_z}
    parts = {s: log_regret(est.n, k) for s, k in K.items()}
    correction = (parts["xz"] + parts["yz"] - parts["xyz"] - parts["z"]) * _LN2 / est.n
    clamped = correction > 0.0
    return _verdict(est, "sc", 0.0 if clamped else correction,
                    {"regret_bits": parts, "K": K}, clamped)
