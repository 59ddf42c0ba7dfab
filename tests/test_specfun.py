"""Special-function layer: gamma family, confluent hypergeometrics, Bessel."""

import cmath
import math
import random

import mpmath as mp
import pytest

from radialspec import coulomb
from radialspec import specfun as sf
from radialspec.core import ExtensionParam, ProblemSpec, Theory
from radialspec.coulomb import coul_eigenfunction
from radialspec.oscillator import osc_eigenfunction
from radialspec.specfun import (
    AccuracyError,
    EULER_GAMMA,
    PoleError,
    bessel,
    degenerate_log_index,
    digamma,
    gamma_fn,
    gamma_ln,
    kummer_log_channel,
    kummer_m,
    pochhammer,
    rgamma,
    tricomi_u,
    trigamma,
)

EULER = 0.5772156649015328606


def _rand_z(rng, radius=10.0):
    return complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))


# --- gamma family -------------------------------------------------------------


def test_gamma_ln_exponentiates_to_gamma():
    assert abs(gamma_fn(5.0) - 24.0) < 1e-12
    assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) < 1e-14


def test_gamma_ln_matches_shifted_product_oracle(rng):
    # independent oracle: ln Gamma(z) = ln Gamma(z + n) - sum ln(z + k),
    # with the large-argument Stirling series for the shifted point
    def stirling_lngamma(w):
        out = (w - 0.5) * cmath.log(w) - w + 0.5 * math.log(2 * math.pi)
        coeffs = [1 / 12, -1 / 360, 1 / 1260, -1 / 1680]
        for j, c in enumerate(coeffs):
            out += c / w ** (2 * j + 1)
        return out

    for _ in range(30):
        z = _rand_z(rng, 4.0)
        if abs(z.imag) < 0.2 and z.real < 0.5:
            continue  # stay off the cut/poles; reflection is tested separately
        shift = 25
        ref = stirling_lngamma(z + shift)
        for k in range(shift):
            ref -= cmath.log(z + k)
        assert abs(gamma_ln(z) - ref) < 1e-10 * max(1.0, abs(ref))


def test_gamma_pole_raises():
    for n in (0, -1, -7):
        with pytest.raises(PoleError):
            gamma_ln(float(n))


def test_rgamma_is_zero_at_poles_and_reciprocal_elsewhere():
    assert rgamma(0.0) == 0.0
    assert rgamma(-3.0) == 0.0
    z = 1.7 - 0.4j
    assert abs(rgamma(z) * gamma_fn(z) - 1.0) < 1e-13


def test_digamma_known_values():
    assert abs(digamma(1.0) - (-EULER)) < 1e-12
    assert abs(digamma(2.0) - (1.0 - EULER)) < 1e-12


def test_digamma_positive_real_axis_against_mpmath():
    # 2 ulp, with an ulp taken as 2^-52 |psi(x)|; SciPy's complex digamma is
    # about 20 ulp off on this axis
    assert digamma(1.0) == -EULER_GAMMA
    assert digamma(1.0).imag == 0.0
    with pytest.raises(PoleError):  # within the pole tolerance of 0
        digamma(1e-13)
    rng = random.Random(2011)
    with mp.workdps(40):
        for _ in range(2000):
            x = rng.uniform(0.01, 40.0)
            ref = mp.digamma(x)
            err = abs(mp.mpf(digamma(x).real) - ref)
            assert err <= 2 * 2.0**-52 * abs(ref), x


def test_digamma_recurrence(rng):
    # psi(z+1) - psi(z) = 1/z on 100 random points away from poles
    count = 0
    while count < 100:
        z = _rand_z(rng)
        if abs(z.imag) < 1e-2 and z.real < 0.5:
            continue
        assert abs(digamma(z + 1) - digamma(z) - 1.0 / z) < 1e-12 * max(
            1.0, abs(1.0 / z)
        )
        count += 1


def test_digamma_complex_against_shifted_asymptotic_oracle():
    # psi(z) = psi_asym(z + 10) - sum_{k<10} 1/(z+k), psi_asym from the
    # Bernoulli-number tail ln w - 1/2w - sum B_{2j}/(2j w^{2j})
    z = 0.5 - 3.0j
    w = z + 10
    ref = cmath.log(w) - 1.0 / (2 * w)
    for j, b2j in enumerate([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66], start=1):
        ref -= b2j / (2 * j * w ** (2 * j))
    for k in range(10):
        ref -= 1.0 / (z + k)
    assert abs(digamma(z) - ref) < 1e-12


# The domain the regime cells reach: real alpha down to -30.5, off the poles,
# and Re z in (-10, 30) x Im z in (-30, 30), which covers the Coulomb
# continuum and complex Green energies; then three points far off the real
# axis, where sin(pi z) overflows, and two where the recurrence's product of
# w / (z + k) turns past -pi
_SWEEP_RNG = random.Random(1613)
_ALPHAS = [_SWEEP_RNG.uniform(-30.5, 30.0) for _ in range(300)]
GAMMA_SWEEP = (
    [complex(a) for a in _ALPHAS if abs(a - round(a)) > 1e-3]
    + [complex(_SWEEP_RNG.uniform(-10.0, 30.0), _SWEEP_RNG.uniform(-30.0, 30.0))
       for _ in range(500)]
    + [-3.3 + 300j, 0.3 - 1e5j, -200.3 + 9j, 0.5 + 2.6j, 0.52 - 2.55j]
)


@pytest.mark.parametrize(
    "f, ref", [(gamma_ln, mp.loggamma), (digamma, mp.digamma)], ids=["gamma_ln", "digamma"]
)
def test_gamma_ln_and_digamma_against_mpmath_over_the_cells_domain(f, ref):
    # SciPy's loggamma, which this kernel replaces, is 2.3e-15 off on these
    # points (at z = 0.86 - 1.1i); its digamma, real and complex, 8.1e-16
    with mp.workdps(40):
        for z in GAMMA_SWEEP:
            want = ref(mp.mpc(z))
            assert abs(mp.mpc(f(z)) - want) <= 2e-15 * max(1, abs(want)), z


def test_trigamma_known_values_and_series_oracle():
    assert abs(trigamma(1.0) - math.pi**2 / 6) < 1e-12
    assert abs(trigamma(2.0) - (math.pi**2 / 6 - 1.0)) < 1e-12
    # direct series with integral tail bound at x = 0.25
    x = 0.25
    ref = sum(1.0 / (x + k) ** 2 for k in range(200000))
    ref += 1.0 / (x + 200000)  # tail: integral estimate
    assert abs(trigamma(x) - ref) < 1e-9
    assert abs(trigamma(x) - 17.19732915450711) < 1e-10


def test_trigamma_positive_and_reflection():
    assert trigamma(3.7) > 0
    x = -2.3
    s = math.sin(math.pi * x)
    assert abs(trigamma(x) + trigamma(1 - x) - math.pi**2 / s**2) < 1e-9
    # x > 0 within 4 ulp of mpmath, with an ulp taken as 2^-52 |psi'(x)|;
    # x < 0 through the reflection, bit for bit
    rng = random.Random(1011)
    xs = [10.0 ** rng.uniform(-8.0, 6.0) for _ in range(300)]
    xs += [-rng.uniform(0.0, 50.0) for _ in range(100)] + [-0.5, -2.3, -1e-6]
    with mp.workdps(40):
        for x in xs:
            if x > 0:
                ref = mp.psi(1, x)
                assert abs(mp.mpf(trigamma(x)) - ref) <= 4 * 2.0**-52 * ref, x
            else:
                s = math.sin(math.pi * x)
                assert trigamma(x) == math.pi**2 / (s * s) - trigamma(1.0 - x), x


@pytest.mark.parametrize("f", [gamma_ln, rgamma, trigamma, digamma])
@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_gamma_family_takes_non_finite_arguments(f, x):
    # a non-finite argument is no pole: the pole test once rounded it and
    # raised a bare OverflowError (+-inf) or ValueError (nan), and the
    # trigamma reflection one at -inf
    try:
        f(x)
    except (PoleError, AccuracyError):
        pass


def test_gamma_family_limits_at_infinity():
    assert trigamma(math.inf) == 0.0
    assert digamma(math.inf) == math.inf
    assert gamma_ln(math.inf) == math.inf
    assert rgamma(math.inf) == 0.0


def test_pochhammer_product():
    assert pochhammer(1.3, 0) == 1.0
    assert abs(pochhammer(0.3 + 1j, 3) - (0.3 + 1j) * (1.3 + 1j) * (2.3 + 1j)) < 1e-14
    # (1+x)_m telescoping example
    assert abs(pochhammer(0.7, 2) - 0.7 * 1.7) < 1e-14


# --- Kummer Phi ---------------------------------------------------------------


def test_kummer_m_trivial_values():
    assert kummer_m(0.3 - 0.2j, 1.5, 0.0) == 1.0
    assert abs(kummer_m(1.0, 1.0, 1.0) - math.e) < 1e-12
    # Phi(1,1;z) = e^z generally
    z = 0.7 + 1.9j
    assert abs(kummer_m(1.0, 1.0, z) - cmath.exp(z)) < 1e-12 * abs(cmath.exp(z))


def test_kummer_m_frozen_high_precision_value():
    # reference from a 50-digit direct summation
    assert abs(kummer_m(0.5, 2.0, 1.0) - 1.3281918274866849) < 1e-14


def test_kummer_second_parameter_pole():
    with pytest.raises(PoleError):
        kummer_m(0.5, 0.0, 1.0)
    with pytest.raises(PoleError):
        kummer_m(0.5, -2.0, 1.0)


def test_kummer_transformation(rng):
    # Phi(a,b;z) = e^z Phi(b-a, b; -z)
    for _ in range(60):
        a = _rand_z(rng, 3.0)
        b = complex(rng.uniform(0.5, 4.0), rng.uniform(-1.0, 1.0))
        z = _rand_z(rng, 8.0)
        lhs = kummer_m(a, b, z)
        rhs = cmath.exp(z) * kummer_m(b - a, b, -z)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_kummer_terminating_polynomial():
    # a = -2: 1 - 2z/b + z^2 (a)(a+1)/(b(b+1) 2!)
    b, z = 1.5, 0.9 + 0.4j
    direct = 1 + (-2) * z / b + (-2) * (-1) * z * z / (b * (b + 1) * 2)
    assert abs(kummer_m(-2.0, b, z) - direct) < 1e-14


def test_kummer_series_asymptotic_overlap(rng, monkeypatch):
    # Both evaluation strategies agree in the overlap annulus up to two
    # unavoidable error sources: the optimal-truncation remainder of the
    # divergent asymptotic tail, ~e^{-|z|} poly(|z|), and the roundoff of the
    # convergent power series, whose terms peak at ~e^{|z|} while the result
    # is only ~e^{|Re z|} (cancellation sheds |z| - |Re z| digits near the
    # 45-degree phase boundary). The envelope below bounds both with a
    # comfortable constant; it was validated against 25000 samples.
    eps = 2.2e-16
    for _ in range(40):
        a = complex(rng.uniform(0.2, 1.5), rng.uniform(-0.5, 0.5))
        b = complex(float(rng.randrange(1, 4)), 0.0)
        r = rng.uniform(20.0, 40.0)
        phi = rng.uniform(-math.pi / 4, math.pi / 4)
        z = cmath.rect(r, phi) * rng.choice((1.0, -1.0))
        monkeypatch.setattr(sf, "MAX_TERMS", 3000)
        monkeypatch.setattr(sf, "SWITCH_RADIUS", 1e9)
        v1 = kummer_m(a, b, z)
        monkeypatch.setattr(sf, "MAX_TERMS", 500)
        monkeypatch.setattr(sf, "SWITCH_RADIUS", 1.0)
        v2 = kummer_m(a, b, z)
        tol = 100.0 * math.exp(-r) * r**4 + 100.0 * eps * math.exp(
            r - abs(z.real)
        ) * r**3
        assert abs(v1 - v2) <= tol * max(1.0, abs(v1))


def test_kummer_accuracy_error_reports_bound(monkeypatch):
    monkeypatch.setattr(sf, "MAX_TERMS", 5)
    monkeypatch.setattr(sf, "SWITCH_RADIUS", 1e9)
    with pytest.raises(AccuracyError) as exc:
        kummer_m(0.5, 1.5, 20.0)
    assert exc.value.achieved > exc.value.requested


# --- logarithmic companion ----------------------------------------------------


def test_log_companion_s1_is_kummer():
    a, n, z = 0.4 - 0.7j, 2, 1.1 + 0.3j
    s1, _, _ = sf._CompanionPlan(a, n)(z, 0.0)
    assert abs(s1 - kummer_m(a, n + 1, z)) < 1e-12


def test_log_companion_p_polynomial():
    # n = 2: P = 1 + (a-2) z / (1-2) = 1 - (a-2) z
    a, z = 0.4, 0.9
    _, _, p = sf._CompanionPlan(a, 2)(z, 0.0)
    assert abs(p - (1.0 - (a - 2) * z)) < 1e-14
    assert kummer_log_channel(a, 2, z, 0.0)[1] == p
    # n = 0 has no subdominant channel
    _, _, p0 = sf._CompanionPlan(0.3, 0)(0.5, 0.0)
    assert p0 == 0.0


def test_log_companion_degenerate_parameter_raises():
    assert degenerate_log_index(1.0 + 0j, 1) == 1
    assert degenerate_log_index(2.0 + 0j, 3) == 2
    assert degenerate_log_index(0.0 + 0j, 3) is None
    assert degenerate_log_index(4.0 + 0j, 3) is None
    with pytest.raises(PoleError):
        sf._CompanionPlan(1.0, 1)


# --- Tricomi Psi ----------------------------------------------------------------


def test_tricomi_large_z_leading_asymptotic():
    a, b, z = 1.5, 2, 50.0
    lead = z ** (-a)
    assert abs(tricomi_u(a, b, z) - lead) < 0.05 * lead  # 1 + O(1/z)
    assert abs(tricomi_u(a, b, z) / lead - 1.0) < 5.0 / z


def test_tricomi_terminating_nonpositive_a():
    # Psi(-k, b; z) = (-1)^k (b)_k Phi(-k, b; z)
    b, z = 2, 0.8 + 0.5j
    want = pochhammer(b, 2) * kummer_m(-2.0, b, z)
    assert abs(tricomi_u(-2.0, b, z) - want) < 1e-13


def test_tricomi_exact_rational_case():
    # Psi(1, 2; z) = 1/z
    for z in (0.3, 2.0 + 1.0j, 7.0):
        assert abs(tricomi_u(1.0, 2, z) - 1.0 / z) < 1e-14


def test_tricomi_integer_b_against_delta_regularized_oracle(rng):
    # non-integer-b representation
    #   Psi(a,b;z) = G(1-b)/G(a-b+1) Phi(a,b;z) + G(b-1)/G(a) z^{1-b} Phi(a-b+1,2-b;z)
    # averaged over b = n+1 +- delta, delta = 1e-6
    def psi_noninteger(a, b, z):
        t1 = gamma_fn(1 - b) * rgamma(a - b + 1) * kummer_m(a, b, z)
        t2 = (
            gamma_fn(b - 1)
            * rgamma(a)
            * cmath.exp((1 - b) * cmath.log(z))
            * kummer_m(a - b + 1, 2 - b, z)
        )
        return t1 + t2

    delta = 1e-6
    cases = [(0.4 - 0.7j, 1, 0.9), (0.75, 2, 1.7), (1.3 + 0.2j, 3, 0.6 + 0.4j)]
    for _ in range(10):
        cases.append(
            (
                complex(rng.uniform(0.2, 1.8), rng.uniform(-0.8, 0.8)),
                rng.randrange(1, 4),
                complex(rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0)),
            )
        )
    for a, n, z in cases:
        ref = 0.5 * (
            psi_noninteger(a, n + 1 + delta, z) + psi_noninteger(a, n + 1 - delta, z)
        )
        val = tricomi_u(a, n + 1, z)
        assert abs(val - ref) <= 1e-6 * max(1.0, abs(val))


def test_tricomi_b_below_one_reflection():
    # Psi(a,b;z) = z^{1-b} Psi(a-b+1, 2-b; z)
    a, z = 0.7, 1.3
    lhs = tricomi_u(a, 0, z)
    rhs = z * tricomi_u(a + 1, 2, z)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_tricomi_z_zero_pole():
    with pytest.raises(PoleError):
        tricomi_u(0.4, 1, 0.0)


# --- parameter derivative -------------------------------------------------------
#
# The m = 0 family solutions need d/dt Phi(a + t/2, 1 + t; z) at t = 0.  In the
# blocks of the n = 0 log channel it is S0/2 - gamma S1, i.e. L/2 at
# log_r = -2 gamma.


def _m0_derivative(a, z):
    return kummer_log_channel(a, 0, z, -2.0 * EULER_GAMMA)[2] / 2


def test_param_derivative_zero_at_origin():
    assert _m0_derivative(0.5, 0.0) == 0.0


def test_param_derivative_matches_finite_difference():
    a, b, z, da, db = 0.5, 1.0, 0.5, 0.5, 1.0
    eps = 1e-5
    fd = (
        kummer_m(a + da * eps, b + db * eps, z)
        - kummer_m(a - da * eps, b - db * eps, z)
    ) / (2 * eps)
    val = _m0_derivative(a, z)
    assert abs(val - fd) < 1e-8


# --- Bessel ---------------------------------------------------------------------


def test_bessel_trivial_values():
    assert bessel("J", 0, 0.0) == 1.0
    assert bessel("J", 1, 0.0) == 0.0


def test_bessel_first_zero_of_j0():
    z0 = 2.404825557695773  # frozen from a 50-digit root bracket
    assert abs(bessel("J", 0, z0)) < 1e-12


def test_bessel_h1_is_j_plus_iy():
    z = 1.7 + 0.4j
    for n in (0, 1, 3):
        h = bessel("H1", n, z)
        assert abs(h - (bessel("J", n, z) + 1j * bessel("Y", n, z))) < 1e-12 * abs(h)


def test_bessel_wronskian(rng):
    # J_n(z) Y_n'(z) - J_n'(z) Y_n(z) = 2/(pi z), derivatives by the
    # recurrence C_n' = (C_{n-1} - C_{n+1})/2 (C_0' = -C_1)
    def deriv(kind, n, z):
        if n == 0:
            return -bessel(kind, 1, z)
        return 0.5 * (bessel(kind, n - 1, z) - bessel(kind, n + 1, z))

    for _ in range(40):
        n = rng.randrange(0, 5)
        z = complex(rng.uniform(0.2, 8.0), rng.uniform(-2.0, 2.0))
        wr = bessel("J", n, z) * deriv("Y", n, z) - deriv("J", n, z) * bessel(
            "Y", n, z
        )
        want = 2.0 / (math.pi * z)
        assert abs(wr - want) <= 1e-10 * max(1.0, abs(want))


def test_bessel_y_singular_at_origin():
    with pytest.raises((PoleError, ValueError, ZeroDivisionError)):
        bessel("Y", 0, 0.0)


# --- per-parameter plans --------------------------------------------------------
#
# A plan is built once per parameter set and summed at many points; its
# bracket tables grow as the points need more terms.  Summed in any order, it
# must return bit for bit what a fresh plan (or the one-shot call that builds
# one) returns at each point.

# small |z| first, then a point needing more terms than any before it, then
# Re z < 0 (Kummer transformation), past the switch radius, and z = 0
PLAN_POINTS = [0.5 + 0.3j, 1.5 - 1.0j, 14.0 + 9.0j, 0.2j, 2.5, -4.0 + 2.0j,
               -0.3 - 0.1j, 24.0 - 3.0j, 35.0j, 41.0 - 2.0j, -38.0 + 1.0j, 0j]
BOTH_MAX_TERMS = pytest.mark.parametrize(
    "max_terms", [sf.MAX_TERMS, 12], ids=["default", "max_terms_12"]
)


def _outcome(fn, *args):
    """repr of the value, or of the error's type and message."""
    try:
        return repr(fn(*args))
    except (AccuracyError, PoleError, ValueError) as err:
        return f"{type(err).__name__}: {err}"


def _assert_plan_matches(plan, one_shot):
    outcomes = [(_outcome(plan, z), _outcome(one_shot, z)) for z in PLAN_POINTS]
    assert [p for p, _ in outcomes] == [o for _, o in outcomes]
    return [p for p, _ in outcomes]


@BOTH_MAX_TERMS
@pytest.mark.parametrize("a, b", [(0.3 + 0.2j, 2.0), (-1.7, 1.5 + 0.2j), (-3.0, 2.0), (4.0, 1.0)])
def test_kummer_plan_matches_one_shot(a, b, max_terms, monkeypatch):
    monkeypatch.setattr(sf, "MAX_TERMS", max_terms)
    _assert_plan_matches(sf._KummerPlan(a, b), lambda z: kummer_m(a, b, z))


@BOTH_MAX_TERMS
@pytest.mark.parametrize(
    "a, b",
    # log series, terminating a, terminating 2F0 (a - b + 1 = -1), b < 1
    [(0.3 + 0.2j, 1), (0.6 - 0.4j, 3), (-2.0, 2), (1.0, 3), (0.3 + 0.2j, -1)],
)
def test_tricomi_plan_matches_one_shot(a, b, max_terms, monkeypatch):
    monkeypatch.setattr(sf, "MAX_TERMS", max_terms)
    _assert_plan_matches(sf._TricomiPlan(a, b), lambda z: tricomi_u(a, b, z))


@BOTH_MAX_TERMS
@pytest.mark.parametrize(
    "a, n",
    # generic, and a = -3, where S1 terminates and S0 takes the pole tail
    [(0.3 + 0.2j, 0), (0.3 + 0.2j, 2), (-1.6 + 0.5j, 1), (-3.0, 1), (-3.0, 0)],
)
def test_log_companion_plan_matches_one_shot(a, n, max_terms, monkeypatch):
    monkeypatch.setattr(sf, "MAX_TERMS", max_terms)
    plan = sf._CompanionPlan(a, n)
    for log in (0.0, -1.3):
        _assert_plan_matches(
            lambda z: plan(z, log), lambda z: sf._CompanionPlan(a, n)(z, log)
        )
    if max_terms > 12 and a != -3.0:
        # the table grew past the first point's needs for the later points
        assert len(plan.brackets) > 20


@pytest.mark.parametrize(
    # n = 0 is the companion that sums the m = 0 pair's parameter derivative
    "plan", [sf._CompanionPlan(0.3 + 0.2j, 1), sf._CompanionPlan(0.3 + 0.2j, 0)],
    ids=["companion", "derivative"],
)
def test_a_grown_table_is_published_by_rebinding(plan):
    # a sum still reading the old table must not see it change under it
    plan(0.5 + 0.3j, 0.0)
    old = plan.brackets
    size = len(old)
    plan(14.0 + 9.0j, 0.0)
    assert len(old) == size < len(plan.brackets)
    assert plan.brackets[:size] == old


@BOTH_MAX_TERMS
@pytest.mark.parametrize(
    "a, n",
    # generic, pole tail at a = -2, and the degenerate index a = l0 = 1, 2 <= n
    # (n = 0 is test_param_derivative_plan_matches_one_shot)
    [(0.3 + 0.2j, 1), (0.6 - 0.4j, 3), (-2.0, 2), (1.0, 2), (2.0, 2)],
)
def test_log_channel_plan_matches_one_shot(a, n, max_terms, monkeypatch):
    monkeypatch.setattr(sf, "MAX_TERMS", max_terms)
    plan = sf._LogChannelPlan(a, n)
    for log_r in (0.0, -1.3):
        _assert_plan_matches(
            lambda z: plan(z, log_r), lambda z: sf.kummer_log_channel(a, n, z, log_r)
        )


@BOTH_MAX_TERMS
@pytest.mark.parametrize(
    "a, b, da, db",
    # the m = 0 pair's direction, the only one summed, and the pole tail at a = -2
    [(0.3 + 0.2j, 1.0, 0.5, 1.0), (-2.0, 1.0, 0.5, 1.0)],
)
def test_param_derivative_plan_matches_one_shot(a, b, da, db, max_terms, monkeypatch):
    # the n = 0 log channel's plan at log_r = -2 gamma, whose L / 2 is the
    # derivative along (da, db) = (1/2, 1) at b = 1
    assert (b, da, db) == (1.0, 0.5, 1.0)
    monkeypatch.setattr(sf, "MAX_TERMS", max_terms)
    plan = sf._LogChannelPlan(a, 0)
    log_r = -2.0 * EULER_GAMMA
    outcomes = _assert_plan_matches(
        lambda z: plan(z, log_r), lambda z: kummer_log_channel(a, 0, z, log_r)
    )
    if max_terms == 12:
        assert any(o.startswith("AccuracyError") for o in outcomes)
        assert not all(o.startswith("AccuracyError") for o in outcomes)


def test_plans_raise_what_one_shot_calls_raise():
    with pytest.raises(PoleError, match="kummer_m second parameter"):
        sf._KummerPlan(0.3, -2.0)
    with pytest.raises(PoleError, match="sigma_a"):
        sf._CompanionPlan(1.0, 2)
    with pytest.raises(ValueError):
        sf._LogChannelPlan(0.3, -1)


WAVE_SPECS = [
    (Theory.COULOMB, 2, -1.0, None, 3),  # C1 (Kummer plan)
    (Theory.COULOMB, 2, -1.0, None, 1.7),  # continuum, |z| up to 26
    (Theory.COULOMB, 1, -1.0, 0.35, 2),  # log channel, C3 tail past 4/K
    (Theory.COULOMB, 1, 0.6, -0.4, 1.3),
    (Theory.COULOMB, 0, -1.0, 0.3, 1),  # n = 0 log channel, C3 tail
    (Theory.COULOMB, 0, -0.8, 0.3, 0.9),
    (Theory.OSCILLATOR, 1, 1.3, None, 3),
    (Theory.OSCILLATOR, 0, 1.1, 0.7, 1),  # O2_0 pair, O3 tail
]


@pytest.mark.parametrize("theory, m, coupling, zeta, which", WAVE_SPECS)
def test_wave_values_do_not_depend_on_the_order_of_radii(theory, m, coupling, zeta, which):
    ext = None if zeta is None else ExtensionParam(zeta)
    spec = ProblemSpec(theory, m, coupling, 1.0, ext)
    fn = osc_eigenfunction if theory is Theory.OSCILLATOR else coul_eigenfunction
    radii = [0.02 + 0.1 * i for i in range(100)]
    shuffled = radii[:]
    random.Random(5).shuffle(shuffled)
    seen = []
    for order in (radii, radii[::-1], shuffled):
        wave = fn(spec, which)  # fresh plans, grown in this order
        seen.append({u: repr(wave(u)) for u in order})
    assert seen[0] == seen[1] == seen[2]


@pytest.mark.parametrize(
    "kind, m, energy, g",
    [
        ("C1", 2, 0.4 + 0.3j, -0.7), ("C3", 2, 0.4 + 0.3j, -0.7), ("C4", 2, 0.4 + 0.3j, -0.7),
        ("C3", 1, -1.3 + 0.2j, 1.1), ("C4", 1, -1.3 + 0.2j, 1.1), ("C2_0", 0, 0.9 + 0.5j, -1.2),
        ("C3", 0, 2.0 + 0.1j, 0.5),
        ("C4", 2, -1.0 / 25.0, -1.0),  # alpha = -1: terminating C3, pole-tail C4
        ("C2_0", 0, -1.0 / 9.0, -1.0),  # alpha = -1: pole-tail n = 0 channel
        ("C4", 2, -1.0, -1.0),  # alpha = 1: the degenerate log index
    ],
)
def test_solution_closure_matches_one_shot_solutions(kind, m, energy, g):
    closure = coulomb._coul_at(kind, coulomb.coul_parameters(m, energy, g), 1.0)
    radii = [0.05 + 0.25 * i for i in range(60)]
    random.Random(9).shuffle(radii)
    got = [repr(closure(x)) for x in radii]
    assert got == [repr(coulomb.coul_solution(kind, m, x, energy, g)) for x in radii]
