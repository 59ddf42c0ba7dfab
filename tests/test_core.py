import cmath
import math
import random

import pytest
from scipy.optimize import brentq as scipy_brentq

from radialspec.core import (
    ComplexEnergy,
    ExtensionParam,
    ProblemSpec,
    RegimeClass,
    SamplePoint,
    SpectralMeasure,
    Theory,
    ValidationError,
    as_energy,
    brentq,
    canonicalize_zeta,
    classify,
    sample_measure,
)

HALF_PI = math.pi / 2


# ---------------------------------------------------------------- extension


def test_extension_param_range():
    ExtensionParam(0.0)
    ExtensionParam(HALF_PI)
    ExtensionParam(-HALF_PI + 1e-6)
    with pytest.raises(ValidationError):
        ExtensionParam(-HALF_PI)
    with pytest.raises(ValidationError):
        ExtensionParam(2.0)
    with pytest.raises(ValidationError):
        ExtensionParam(float("nan"))


def test_is_half_pi_snaps_nearby_angles():
    assert ExtensionParam(HALF_PI).is_half_pi
    # 1.5707963 is pi/2 to 8 decimals; tan(zeta) ~ 1e7 there already
    assert ExtensionParam(1.5707963).is_half_pi
    assert not ExtensionParam(1.57).is_half_pi
    assert not ExtensionParam(0.0).is_half_pi


def test_canonicalize_zeta_mod_pi(rng):
    for _ in range(50):
        z = rng.uniform(-HALF_PI + 1e-3, HALF_PI)
        k = rng.randrange(-4, 5)
        got = canonicalize_zeta(z + k * math.pi).zeta
        assert abs(got - z) < 1e-12


def test_canonicalize_zeta_boundary():
    # -pi/2 is identified with +pi/2 (same boundary condition mod pi)
    assert canonicalize_zeta(-HALF_PI).zeta == HALF_PI
    assert canonicalize_zeta(HALF_PI + 3 * math.pi).zeta == HALF_PI
    assert canonicalize_zeta(1.5707963).zeta == HALF_PI
    with pytest.raises(ValidationError):
        canonicalize_zeta(float("inf"))


# ---------------------------------------------------------------- spec/classify


def test_problem_spec_validation():
    with pytest.raises(ValidationError):
        ProblemSpec(Theory.OSCILLATOR, 1, 1.0, kappa0=0.0)
    with pytest.raises(ValidationError):
        ProblemSpec(Theory.OSCILLATOR, 1, float("inf"))
    spec = ProblemSpec(Theory.OSCILLATOR, 1, 1.0)
    with pytest.raises(ValidationError):
        spec.zeta


@pytest.mark.parametrize(
    "theory,m,coupling,zeta,cell",
    [
        (Theory.OSCILLATOR, 1, 2.0, None, RegimeClass.OSC_M_POS_LAMBDA_POS),
        (Theory.OSCILLATOR, -3, -2.0, None, RegimeClass.OSC_M_POS_LAMBDA_NEG),
        (Theory.OSCILLATOR, 2, 0.0, None, RegimeClass.OSC_M_POS_LAMBDA_ZERO),
        (Theory.OSCILLATOR, 0, 2.0, 0.3, RegimeClass.OSC_M0_LAMBDA_POS),
        (Theory.OSCILLATOR, 0, -2.0, 0.3, RegimeClass.OSC_M0_LAMBDA_NEG),
        (Theory.OSCILLATOR, 0, 0.0, HALF_PI, RegimeClass.OSC_M0_LAMBDA_ZERO),
        (Theory.COULOMB, 2, -1.0, None, RegimeClass.COUL_UNIQUE),
        (Theory.COULOMB, -5, 1.0, None, RegimeClass.COUL_UNIQUE),
        (Theory.COULOMB, 1, -1.0, 0.4, RegimeClass.COUL_M1_FAMILY),
        (Theory.COULOMB, -1, -1.0, HALF_PI, RegimeClass.COUL_M1_FAMILY),
        (Theory.COULOMB, 0, -1.0, 0.0, RegimeClass.COUL_M0_FAMILY),
    ],
)
def test_classify_cells(theory, m, coupling, zeta, cell):
    ext = ExtensionParam(zeta) if zeta is not None else None
    assert classify(ProblemSpec(theory, m, coupling, 1.0, ext)) is cell


def test_classify_extension_rules():
    # family cells require zeta; unique cells forbid it
    with pytest.raises(ValidationError):
        classify(ProblemSpec(Theory.OSCILLATOR, 0, 1.0))
    with pytest.raises(ValidationError):
        classify(ProblemSpec(Theory.COULOMB, 1, -1.0))
    with pytest.raises(ValidationError):
        classify(
            ProblemSpec(Theory.OSCILLATOR, 2, 1.0, 1.0, ExtensionParam(0.1))
        )
    with pytest.raises(ValidationError):
        classify(ProblemSpec(Theory.COULOMB, 3, -1.0, 1.0, ExtensionParam(0.1)))


# ---------------------------------------------------------------- energies


def test_energy_upper_half_plane_only():
    as_energy(1.0 + 2.0j)
    as_energy(-3.0)
    with pytest.raises(ValidationError):
        ComplexEnergy(1.0 - 1.0j)


def test_sqrt_minus_branch():
    # E < 0: K = sqrt(-E) real positive
    assert abs(as_energy(-4.0).sqrt_minus() - 2.0) < 1e-15
    # E > 0: K = -i sqrt(E)
    assert abs(as_energy(9.0).sqrt_minus() - (-3.0j)) < 1e-14
    # continuity from above for E -> positive axis
    k_eps = as_energy(9.0 + 1e-12j).sqrt_minus()
    assert abs(k_eps - (-3.0j)) < 1e-12


def test_sqrt_forward_branch():
    # W > 0: principal root; W < 0: +i sqrt(|W|)
    assert abs(as_energy(4.0).sqrt_forward() - 2.0) < 1e-15
    assert abs(as_energy(-4.0).sqrt_forward() - 2.0j) < 1e-15
    w = as_energy(1.0 + 1.0j).sqrt_forward()
    assert abs(w * w - (1.0 + 1.0j)) < 1e-14
    assert w.imag >= 0


def test_branch_consistency(rng):
    # K^2 = -E and sqrt(W)^2 = W on random upper-half-plane samples
    for _ in range(50):
        e = complex(rng.uniform(-5, 5), rng.uniform(0, 5))
        en = as_energy(e)
        assert abs(en.sqrt_minus() ** 2 + e) < 1e-13 * max(1.0, abs(e))
        assert abs(en.sqrt_forward() ** 2 - e) < 1e-13 * max(1.0, abs(e))
        assert 0.0 <= en.phi <= math.pi


def test_phi_zero_energy():
    assert as_energy(0.0).phi == 0.0
    assert as_energy(0.0).sqrt_minus() == 0.0


# ---------------------------------------------------------------- measures


def test_spectral_measure_validation():
    SpectralMeasure(discrete=((-2.0, 1.0), (-1.0, 0.5)), support="empty")
    with pytest.raises(ValidationError):
        SpectralMeasure(discrete=((-1.0, 1.0), (-2.0, 0.5)))
    with pytest.raises(ValidationError):
        SpectralMeasure(discrete=((-1.0, 0.0),))
    with pytest.raises(ValidationError):
        SpectralMeasure(support="C")


def test_density_support_clipping():
    meas = SpectralMeasure(density=lambda e: 0.5, support="R+")
    assert meas.density_at(3.0) == 0.5
    assert meas.density_at(-3.0) == 0.0
    empty = SpectralMeasure(density=lambda e: 0.5, support="empty")
    assert empty.density_at(3.0) == 0.0


def test_sample_measure_mixed():
    meas = SpectralMeasure(
        discrete=((-2.0, 0.7),), density=lambda e: 1.0 / (1.0 + e * e), support="R"
    )
    pts = sample_measure(meas, [-2.0, 0.0, 1.0])
    assert pts[0] == SamplePoint(-2.0, 0.7, "discrete")
    assert pts[1].kind == "continuous" and abs(pts[1].value - 1.0) < 1e-15
    assert abs(pts[2].value - 0.5) < 1e-15
    with pytest.raises(ValidationError):
        sample_measure(meas, [1.0, 0.0])


# ---------------------------------------------------------------- brentq

# the (xtol, rtol) pairs the library's root solves use
BRENT_TOLERANCES = [(5e-16, 8.9e-16), (1e-14, 8.9e-16), (1e-10, 1e-12)]


def _brent_case(rng):
    """A function with one root r inside a bracket drawn around it, reversed
    half the time; shapes range from smooth (extrapolation steps) through a
    triple root (short steps) to a near-step (bisection)."""
    r = rng.uniform(-5.0, 5.0)
    s = rng.uniform(0.2, 3.0)
    f = rng.choice(
        [
            lambda x: math.atan(s * (x - r)) + 0.1 * (x - r) ** 3,
            lambda x: math.expm1(s * (x - r)),
            lambda x: (x - r) ** 3,
            lambda x: math.copysign(math.sqrt(abs(x - r)), x - r),
            lambda x: math.tanh(50.0 * s * (x - r)) + 1e-3 * (x - r),
        ]
    )
    a = r - 10.0 ** rng.uniform(-3.0, 1.0)
    b = r + 10.0 ** rng.uniform(-3.0, 1.0)
    return (f, b, a) if rng.random() < 0.5 else (f, a, b)


@pytest.mark.parametrize("xtol, rtol", BRENT_TOLERANCES)
def test_brentq_bit_identical_to_scipy(xtol, rtol):
    rng = random.Random(20240811)
    for _ in range(2000):
        f, a, b = _brent_case(rng)
        expected = scipy_brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=200)
        assert brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=200) == expected


@pytest.mark.parametrize("a, b", [(0.25, 3.0), (3.0, 0.25), (-2.0, 0.25), (0.25, -2.0)])
def test_brentq_root_at_endpoint(a, b):
    f = lambda x: x - 0.25
    assert brentq(f, a, b, xtol=1e-14, rtol=8.9e-16, maxiter=200) == 0.25
    assert scipy_brentq(f, a, b, xtol=1e-14, rtol=8.9e-16, maxiter=200) == 0.25


@pytest.mark.parametrize(
    "f, a, b, maxiter, error",
    [
        (lambda x: x * x + 1.0, -1.0, 2.0, 200, ValueError),  # same-sign ends
        (lambda x: math.nan, -1.0, 2.0, 200, ValueError),  # NaN at an end
        # NaN at the first interior step
        (lambda x: math.nan if 0.0 < x < 0.5 else x - 0.1, -1.0, 1.0, 200, ValueError),
        (lambda x: (x - 0.3) ** 3, -4.0, 5.0, 3, RuntimeError),
    ],
)
def test_brentq_errors_match_scipy(f, a, b, maxiter, error):
    with pytest.raises(error):
        scipy_brentq(f, a, b, xtol=5e-16, rtol=8.9e-16, maxiter=maxiter)
    with pytest.raises(error):
        brentq(f, a, b, xtol=5e-16, rtol=8.9e-16, maxiter=maxiter)


@pytest.mark.parametrize("xtol", [0.1, 0.5, 1.0])
def test_brentq_coarse_tolerance_matches_scipy(xtol):
    """A coarse xtol makes delta comparable to the bracket, which is where a
    step is accepted or refused by its margin 3|sbis| - delta."""
    for r in (-2.0, -1.3, 0.4):
        for a, b in ((-4.0, 2.0), (-6.0, 3.0), (3.0, -5.0)):
            for f in (lambda x: math.expm1(x - r), lambda x: (x - r) ** 3 - 0.9):
                expected = scipy_brentq(f, a, b, xtol=xtol, rtol=1e-12, maxiter=200)
                assert brentq(f, a, b, xtol=xtol, rtol=1e-12, maxiter=200) == expected
