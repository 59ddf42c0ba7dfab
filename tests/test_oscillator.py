import cmath
import math

import pytest
from scipy.integrate import quad
from scipy.optimize import brentq as scipy_brentq

from radialspec import _confluent
from radialspec.core import (
    ExtensionParam,
    ProblemSpec,
    Theory,
    ValidationError,
    as_energy,
)
from radialspec.oscillator import (
    osc_coefficients,
    osc_density,
    osc_eigenfunction,
    osc_family_function,
    osc_green,
    osc_parameters,
    osc_solution,
    osc_spectral_omega,
    osc_spectrum,
)
from radialspec.specfun import AccuracyError

EULER = 0.5772156649015329


def _wronskian(f, g, u, h=1e-5):
    df = (f(u + h) - f(u - h)) / (2 * h)
    dg = (g(u + h) - g(u - h)) / (2 * h)
    return f(u) * dg - df * g(u)


# ---------------------------------------------------------------- parameters


def test_varkappa_branch():
    # lambda > 0: real positive quartic root
    assert abs(osc_parameters(0, 1.0, 16.0).varkappa - 2.0) < 1e-15
    # lambda < 0: e^{-i pi/4} |lambda|^{1/4}
    vk = osc_parameters(0, 1.0, -16.0).varkappa
    assert abs(vk - 2.0 * cmath.exp(-0.25j * math.pi)) < 1e-14


def test_parameter_composition():
    par = osc_parameters(3, 2.0 + 1.0j, 4.0)
    assert par.beta == 4
    w = (2.0 + 1.0j) / (4.0 * par.varkappa**2)
    assert abs(par.alpha - (2.0 - w)) < 1e-14
    assert abs(par.alpha_minus - (par.alpha - 3)) < 1e-14


# ---------------------------------------------------------------- solutions


def test_solution_small_u_asymptotics():
    lam, W, k0 = 2.0, 0.7, 1.3
    u = 1e-5
    # O1 ~ (k0 u)^{1/2+|m|}, O4 ~ (k0 u)^{1/2-|m|}
    for m in (1, 2, 3):
        o1 = osc_solution("O1", m, u, W, lam, k0)
        assert abs(o1 / (k0 * u) ** (0.5 + m) - 1.0) < 1e-8
        o4 = osc_solution("O4", m, u, W, lam, k0)
        assert abs(o4 / (k0 * u) ** (0.5 - m) - 1.0) < 1e-7
    # O2_0 ~ sqrt(k0 u) ln(k0 u)
    o2 = osc_solution("O2_0", 0, u, W, lam, k0)
    assert abs(o2 / (math.sqrt(k0 * u) * math.log(k0 * u)) - 1.0) < 1e-6


def test_solution_kind_validation():
    with pytest.raises(ValidationError):
        osc_solution("O4", 0, 1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        osc_solution("O2_0", 1, 1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        osc_solution("O1", 1, -1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        osc_solution("O9", 1, 1.0, 1.0, 1.0)


def test_solution_solves_ode(rng):
    # -psi'' + (u^{-2}(m^2-1/4) + lam u^2) psi = W psi for every kind
    h = 1e-4
    for kind, m in (("O1", 2), ("O3", 1), ("O4", 3), ("O2_0", 0), ("O1", 0)):
        for _ in range(5):
            lam = rng.choice((1.7, -1.7))
            W = complex(rng.uniform(-2, 2), rng.uniform(0.1, 1.0))
            u = rng.uniform(0.5, 2.0)
            f = lambda x: osc_solution(kind, m, x, W, lam)
            d2 = (f(u + h) - 2 * f(u) + f(u - h)) / (h * h)
            resid = -d2 + ((m * m - 0.25) / u**2 + lam * u * u - W) * f(u)
            assert abs(resid) < 1e-5 * max(1.0, abs(f(u)))


def test_real_entire_kinds_are_real_on_real_axis(rng):
    for _ in range(10):
        lam = rng.choice((2.3, -2.3))
        W = rng.uniform(-3.0, 3.0)
        u = rng.uniform(0.3, 2.5)
        for kind, m in (("O1", 2), ("O4", 1), ("O2_0", 0)):
            v = osc_solution(kind, m, u, W, lam)
            assert abs(v.imag) < 1e-12 * max(1.0, abs(v))


def test_structure_identity_o3(rng):
    # O3 = B_m O1 + C_m O4 pointwise
    for _ in range(20):
        m = rng.choice((1, 2, 3, -2))
        lam = rng.choice((1.5, -0.8))
        W = complex(rng.uniform(-2, 2), rng.uniform(0.05, 1.5))
        u = rng.uniform(0.3, 2.0)
        _, b, c, _ = osc_coefficients(m, W, lam)
        o1 = osc_solution("O1", m, u, W, lam)
        o3 = osc_solution("O3", m, u, W, lam)
        o4 = osc_solution("O4", m, u, W, lam)
        assert abs(o3 - (b * o1 + c * o4)) < 1e-9 * max(1.0, abs(o3))


def test_wronskian_matches_coefficient():
    # Wr(O1, O3) = -2 kappa0 |m| C_m, checked with numeric derivatives
    m, W, lam, k0 = 1, 1.0 + 0.5j, 1.3, 1.0
    _, _, c, omega = osc_coefficients(m, W, lam, k0)
    wr = _wronskian(
        lambda u: osc_solution("O1", m, u, W, lam, k0),
        lambda u: osc_solution("O3", m, u, W, lam, k0),
        0.9,
    )
    assert abs(wr - (-2.0 * k0 * abs(m) * c)) < 1e-8 * max(1.0, abs(c))
    assert abs(omega - 2.0 * k0 * abs(m) * c) < 1e-14 * abs(omega)


def test_free_limit_continuity():
    # lambda -> 0 limits of O1 agree with the Bessel closed form
    m, W, u, k0 = 2, 1.7, 1.1, 1.0
    free = osc_solution("O1", m, u, W, 0.0, k0)
    for lam in (1e-7, -1e-7):
        near = osc_solution("O1", m, u, W, lam, k0)
        assert abs(near - free) < 1e-6 * max(1.0, abs(free))


def test_free_wronskian():
    # lambda = 0: Wr(O1, O3) = -2 kappa0 |m| (the Green normalization)
    m, W, k0 = 2, 1.3 + 0.4j, 1.0
    wr = _wronskian(
        lambda u: osc_solution("O1", m, u, W, 0.0, k0),
        lambda u: osc_solution("O3", m, u, W, 0.0, k0),
        1.2,
    )
    assert abs(wr - (-2.0 * k0 * m)) < 1e-7


# ---------------------------------------------------------------- spectra


def test_spectrum_ladder_m_pos():
    # E_k = 2 sqrt(lam) (1 + |m| + 2k)
    lam = 4.0
    spec = ProblemSpec(Theory.OSCILLATOR, 1, lam)
    meas = osc_spectrum(spec, levels=4)
    sq = 2.0 * math.sqrt(lam)
    for k, (e, w) in enumerate(meas.discrete):
        assert abs(e - sq * (2 + 2 * k)) < 1e-12 * e
        assert w > 0
    assert meas.support == "empty"


def test_spectrum_m0_half_pi_ladder():
    lam = 4.0
    spec = ProblemSpec(
        Theory.OSCILLATOR, 0, lam, 1.0, ExtensionParam(math.pi / 2)
    )
    meas = osc_spectrum(spec, levels=3)
    sq = 2.0 * math.sqrt(lam)
    for k, (e, w) in enumerate(meas.discrete):
        assert abs(e - sq * (1 + 2 * k)) < 1e-12 * e
        assert abs(w - sq) < 1e-12 * sq


def test_m0_family_roots_solve_root_equation():
    lam, k0, zeta = 2.0, 1.0, 0.6
    spec = ProblemSpec(Theory.OSCILLATOR, 0, lam, k0, ExtensionParam(zeta))
    meas = osc_spectrum(spec, levels=4)
    sq = 2.0 * math.sqrt(lam)
    prev = -math.inf
    for k, (e, w) in enumerate(meas.discrete):
        f = osc_family_function(e, lam, k0)
        assert abs(f.real + math.tan(zeta)) < 1e-8
        # interlacing: E_k below the zeta = pi/2 ladder rung, above the previous
        assert prev < e < sq * (1 + 2 * k)
        prev = sq * (1 + 2 * k)
        assert w > 0


def test_m0_family_levels_bit_identical_with_scipy_brentq(monkeypatch):
    specs = [
        ProblemSpec(Theory.OSCILLATOR, 0, lam, k0, ExtensionParam(zeta))
        for lam, k0, zeta in ((1.0, 1.0, 0.3), (0.2, 2.0, -1.3), (4.0, 0.5, 1.2))
    ]
    ours = [osc_spectrum(spec, levels=10).discrete for spec in specs]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return scipy_brentq(*args, **kwargs)

    monkeypatch.setattr(_confluent, "brentq", counted)
    assert [osc_spectrum(spec, levels=10).discrete for spec in specs] == ours
    assert len(calls) == 30  # the patched solver found every level


def test_m0_family_weight_matches_numeric_root_slope():
    # Q_n^2 = 1 / (kappa0 cos^2(zeta) f'(E_n)) with f' taken numerically
    lam, k0, zeta = 2.0, 1.3, 0.4
    spec = ProblemSpec(Theory.OSCILLATOR, 0, lam, k0, ExtensionParam(zeta))
    e0, w0 = osc_spectrum(spec, levels=1).discrete[0]
    h = 1e-5
    fp = (
        osc_family_function(e0 + h, lam, k0).real
        - osc_family_function(e0 - h, lam, k0).real
    ) / (2 * h)
    assert abs(w0 - 1.0 / (k0 * math.cos(zeta) ** 2 * fp)) < 1e-6 * w0


def test_m0_free_bound_state():
    # lambda = 0, |zeta| < pi/2: single atom at -4 k0^2 e^{2(tan z - gamma)}
    k0, zeta = 1.0, -0.3
    spec = ProblemSpec(Theory.OSCILLATOR, 0, 0.0, k0, ExtensionParam(zeta))
    meas = osc_spectrum(spec)
    assert len(meas.discrete) == 1
    e_b, w_b = meas.discrete[0]
    expected = -4.0 * k0 * k0 * math.exp(2.0 * (math.tan(zeta) - EULER))
    assert abs(e_b - expected) < 1e-12 * abs(expected)
    assert abs(w_b - 2.0 * abs(e_b) / (k0 * math.cos(zeta) ** 2)) < 1e-12 * w_b
    assert meas.support == "R+"
    # at zeta = pi/2 the atom disappears
    half = ProblemSpec(Theory.OSCILLATOR, 0, 0.0, k0, ExtensionParam(math.pi / 2))
    assert osc_spectrum(half).discrete == ()


# ---------------------------------------------------------------- densities


def test_density_matches_resolvent_imag(rng):
    # sigma'(E) = (1/pi) lim Im omega(E + i eps), Richardson in eps
    cases = [
        (ProblemSpec(Theory.OSCILLATOR, 2, -2.0), 1.5),
        (ProblemSpec(Theory.OSCILLATOR, 1, 0.0), 2.0),
        (ProblemSpec(Theory.OSCILLATOR, 0, -2.0, 1.0, ExtensionParam(0.5)), -0.7),
        (ProblemSpec(Theory.OSCILLATOR, 0, 0.0, 1.0, ExtensionParam(0.5)), 1.3),
    ]
    for spec, e in cases:
        dens = osc_density(spec, e)
        eps = 1e-5
        f1 = osc_spectral_omega(spec, complex(e, eps)).imag / math.pi
        f2 = osc_spectral_omega(spec, complex(e, eps / 2)).imag / math.pi
        extr = 2.0 * f2 - f1
        assert abs(extr - dens) < 1e-5 * max(1.0, dens)


def test_density_m_neg_regular_at_zero():
    # the coth/tanh cores are smooth across E = 0
    for m in (1, 2):
        spec = ProblemSpec(Theory.OSCILLATOR, m, -3.0)
        d0 = osc_density(spec, 0.0)
        assert d0 > 0
        assert abs(osc_density(spec, 1e-9) - d0) < 1e-8 * d0


def test_density_free_power_law():
    # lambda = 0: sigma'(E) = E^{|m|} / ((2 k0)^{2|m|} 2 k0 |m|!^2) on E > 0
    spec = ProblemSpec(Theory.OSCILLATOR, 2, 0.0)
    e = 3.0
    expected = e**2 / (2.0**4 * 2.0 * math.factorial(2) ** 2)
    assert abs(osc_density(spec, e) - expected) < 1e-14
    assert osc_density(spec, -1.0) == 0.0


# ---------------------------------------------------------------- Green


@pytest.mark.parametrize(
    "spec",
    [
        ProblemSpec(Theory.OSCILLATOR, 2, 1.5),
        ProblemSpec(Theory.OSCILLATOR, 1, -1.5),
        ProblemSpec(Theory.OSCILLATOR, 2, 0.0),
        ProblemSpec(Theory.OSCILLATOR, 0, 1.5, 1.0, ExtensionParam(0.4)),
        ProblemSpec(Theory.OSCILLATOR, 0, 0.0, 1.0, ExtensionParam(0.4)),
    ],
)
def test_green_symmetry_residual_jump(spec):
    W = 0.8 + 0.9j
    u, v = 0.7, 1.4
    g_uv = osc_green(spec, u, v, W)
    assert abs(g_uv - osc_green(spec, v, u, W)) < 1e-12 * max(1.0, abs(g_uv))
    # ODE residual in the first argument away from the diagonal
    lam, m = spec.coupling, spec.m
    h = 1e-4
    f = lambda x: osc_green(spec, x, v, W)
    d2 = (f(u + h) - 2 * f(u) + f(u - h)) / (h * h)
    resid = -d2 + ((m * m - 0.25) / u**2 + lam * u * u - W) * f(u)
    assert abs(resid) < 2e-5 * max(1.0, abs(f(u)))
    # unit derivative jump across the diagonal: G'(v+, v) - G'(v-, v) = -1
    d = 1e-5
    jump = (f(v + 2 * d) - f(v)) / (2 * d) - (f(v) - f(v - 2 * d)) / (2 * d)
    assert abs(jump - (-1.0)) < 1e-4


def test_green_requires_upper_half_plane():
    spec = ProblemSpec(Theory.OSCILLATOR, 2, 1.5)
    with pytest.raises(ValidationError):
        osc_green(spec, 1.0, 2.0, 3.0)


# ---------------------------------------------------------------- eigenfunctions


def _norm2(wave, u_max):
    val, _ = quad(lambda u: wave(u) ** 2, 1e-9, u_max, limit=300)
    return val


def test_eigenfunction_normalization_unique_cell():
    spec = ProblemSpec(Theory.OSCILLATOR, 1, 2.0)
    for idx in (0, 2):
        wave = osc_eigenfunction(spec, idx)
        assert abs(_norm2(wave, 12.0) - 1.0) < 1e-7


def test_eigenfunction_normalization_family_cell():
    spec = ProblemSpec(Theory.OSCILLATOR, 0, 2.0, 1.0, ExtensionParam(0.5))
    wave = osc_eigenfunction(spec, 1)
    assert abs(_norm2(wave, 12.0) - 1.0) < 1e-7


def test_eigenfunction_free_bound_atom():
    spec = ProblemSpec(Theory.OSCILLATOR, 0, 0.0, 1.0, ExtensionParam(-0.3))
    wave = osc_eigenfunction(spec, 0)
    assert wave.energy < 0
    assert abs(_norm2(wave, 60.0) - 1.0) < 1e-6


def test_eigenfunction_validation():
    spec = ProblemSpec(Theory.OSCILLATOR, 1, 2.0)
    with pytest.raises(ValidationError):
        osc_eigenfunction(spec, -1)
    with pytest.raises(ValidationError):
        # purely discrete cell has no continuous state at E = 1.0
        osc_eigenfunction(spec, 1.0)
    cont = ProblemSpec(Theory.OSCILLATOR, 1, -2.0)
    wave = osc_eigenfunction(cont, 1.0)
    assert wave.norm_constant > 0
    with pytest.raises(ValidationError):
        wave(-1.0)


def test_eigenfunction_deep_family_level_raises_accuracy_error():
    # E_0 ~ -15100: O3 underflows to 0 at the fixed switch radius, so the
    # bound wave cannot be matched there
    spec = ProblemSpec(Theory.OSCILLATOR, 0, 2.969, 1.0, ExtensionParam(1.361))
    assert osc_spectrum(spec, levels=1).discrete[0][0] < -15000
    with pytest.raises(AccuracyError, match="decaying solution 0"):
        osc_eigenfunction(spec, 0)
