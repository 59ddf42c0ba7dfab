"""Special-function layer: gamma family, confluent hypergeometrics, Bessel."""

import cmath
import math
import random

import mpmath as mp
import pytest

from radialspec.specfun import (
    AccuracyError,
    DEFAULT_CONTROL,
    EULER_GAMMA,
    PoleError,
    SeriesControl,
    bessel,
    degenerate_log_index,
    digamma,
    frobenius_poly,
    gamma_fn,
    gamma_ln,
    kummer_log_companion,
    kummer_m,
    kummer_m_param_derivative,
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


def test_kummer_series_asymptotic_overlap(rng):
    # Both evaluation strategies agree in the overlap annulus up to two
    # unavoidable error sources: the optimal-truncation remainder of the
    # divergent asymptotic tail, ~e^{-|z|} poly(|z|), and the roundoff of the
    # convergent power series, whose terms peak at ~e^{|z|} while the result
    # is only ~e^{|Re z|} (cancellation sheds |z| - |Re z| digits near the
    # 45-degree phase boundary). The envelope below bounds both with a
    # comfortable constant; it was validated against 25000 samples.
    series_ctl = SeriesControl(1e-13, 3000, 1e9)
    asym_ctl = SeriesControl(1e-13, 500, 1.0)
    eps = 2.2e-16
    for _ in range(40):
        a = complex(rng.uniform(0.2, 1.5), rng.uniform(-0.5, 0.5))
        b = complex(float(rng.randrange(1, 4)), 0.0)
        r = rng.uniform(20.0, 40.0)
        phi = rng.uniform(-math.pi / 4, math.pi / 4)
        z = cmath.rect(r, phi) * rng.choice((1.0, -1.0))
        v1 = kummer_m(a, b, z, series_ctl)
        v2 = kummer_m(a, b, z, asym_ctl)
        tol = 100.0 * math.exp(-r) * r**4 + 100.0 * eps * math.exp(
            r - abs(z.real)
        ) * r**3
        assert abs(v1 - v2) <= tol * max(1.0, abs(v1))


def test_kummer_accuracy_error_reports_bound():
    tiny = SeriesControl(1e-13, 5, 1e9)
    with pytest.raises(AccuracyError) as exc:
        kummer_m(0.5, 1.5, 20.0, tiny)
    assert exc.value.achieved > exc.value.requested


# --- logarithmic companion ----------------------------------------------------


def test_log_companion_s1_is_kummer():
    a, n, z = 0.4 - 0.7j, 2, 1.1 + 0.3j
    s1, _, _ = kummer_log_companion(a, n, z)
    assert abs(s1 - kummer_m(a, n + 1, z)) < 1e-12


def test_log_companion_p_polynomial():
    # n = 2: P = 1 + (a-2) z / (1-2) = 1 - (a-2) z
    a, z = 0.4, 0.9
    _, _, p = kummer_log_companion(a, 2, z)
    assert abs(p - (1.0 - (a - 2) * z)) < 1e-14
    assert frobenius_poly(a, 2, z) == p
    # n = 0 has no subdominant channel
    _, _, p0 = kummer_log_companion(0.3, 0, 0.5)
    assert p0 == 0.0


def test_log_companion_degenerate_parameter_raises():
    assert degenerate_log_index(1.0 + 0j, 1) == 1
    assert degenerate_log_index(2.0 + 0j, 3) == 2
    assert degenerate_log_index(0.0 + 0j, 3) is None
    assert degenerate_log_index(4.0 + 0j, 3) is None
    with pytest.raises(PoleError):
        kummer_log_companion(1.0, 1, 0.5)


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


def test_param_derivative_zero_at_origin():
    assert kummer_m_param_derivative(0.5, 1.0, 0.0, 0.5, 1.0) == 0.0


def test_param_derivative_matches_finite_difference():
    a, b, z, da, db = 0.5, 1.0, 0.5, 0.5, 1.0
    eps = 1e-5
    fd = (
        kummer_m(a + da * eps, b + db * eps, z)
        - kummer_m(a - da * eps, b - db * eps, z)
    ) / (2 * eps)
    val = kummer_m_param_derivative(a, b, z, da, db)
    assert abs(val - fd) < 1e-8


def test_param_derivative_linearity():
    a, b, z = 0.3 - 0.2j, 1.2, 0.8 + 0.4j
    total = kummer_m_param_derivative(a, b, z, 0.5, 1.0)
    part_a = kummer_m_param_derivative(a, b, z, 0.5, 0.0)
    part_b = kummer_m_param_derivative(a, b, z, 0.0, 1.0)
    assert abs(total - (part_a + part_b)) < 1e-12


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
