import math

import mpmath as mp
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
from radialspec.coulomb import (
    coul_coefficients,
    coul_critical_zeta,
    coul_density,
    coul_eigenfunction,
    coul_family_function,
    coul_green,
    coul_parameters,
    coul_solution,
    coul_spectral_omega,
    coul_spectrum,
)

EULER = 0.5772156649015329


def _wronskian(f, g, x, h=1e-5):
    df = (f(x + h) - f(x - h)) / (2 * h)
    dg = (g(x + h) - g(x - h)) / (2 * h)
    return f(x) * dg - df * g(x)


def _m1_spec(g, zeta, k0=1.0):
    return ProblemSpec(Theory.COULOMB, 1, g, k0, ExtensionParam(zeta))


def _m0_spec(g, zeta, k0=1.0):
    return ProblemSpec(Theory.COULOMB, 0, g, k0, ExtensionParam(zeta))


# ---------------------------------------------------------------- parameters


def test_parameters_branch():
    par = coul_parameters(2, -4.0, -1.0)
    assert abs(par.K - 2.0) < 1e-15  # K = sqrt(-E) > 0 for E < 0
    assert abs(par.w - 0.25) < 1e-15  # w = -g / 2K
    assert par.beta == 3
    assert abs(par.alpha - (1.5 - 0.25)) < 1e-15
    with pytest.raises(ValidationError):
        coul_parameters(2, 0.0, -1.0)


# ---------------------------------------------------------------- solutions


def test_solution_small_x_asymptotics():
    g, E, k0 = -1.0, -0.3, 1.2
    x = 1e-6
    for m in (1, 2, 3):
        c1 = coul_solution("C1", m, x, E, g, k0)
        assert abs(c1 / (k0 * x) ** (0.5 * (1 + m)) - 1.0) < 1e-5
        c4 = coul_solution("C4", m, x, E, g, k0)
        assert abs(c4 / (k0 * x) ** (0.5 * (1 - m)) - 1.0) < 1e-4
    c2 = coul_solution("C2_0", 0, x, E, g, k0)
    assert abs(c2 / (0.5 * math.sqrt(k0 * x) * math.log(k0 * x)) - 1.0) < 1e-4


def test_solution_kind_validation():
    with pytest.raises(ValidationError):
        coul_solution("C4", 0, 1.0, -1.0, -1.0)
    with pytest.raises(ValidationError):
        coul_solution("C2_0", 1, 1.0, -1.0, -1.0)
    with pytest.raises(ValidationError):
        coul_solution("C1", 1, 0.0, -1.0, -1.0)


def test_solution_solves_ode(rng):
    # -psi'' + ((m^2-1)/(4x^2) + g/x - E) psi = 0 for every kind
    h = 1e-4
    for kind, m in (("C1", 2), ("C3", 1), ("C4", 3), ("C2_0", 0), ("C1", 0)):
        for _ in range(5):
            g = rng.choice((-1.3, 0.9))
            E = complex(rng.uniform(-2, 2), rng.uniform(0.1, 1.0))
            x = rng.uniform(0.5, 2.0)
            f = lambda t: coul_solution(kind, m, t, E, g)
            d2 = (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)
            resid = -d2 + ((m * m - 1) / (4 * x * x) + g / x - E) * f(x)
            assert abs(resid) < 1e-5 * max(1.0, abs(f(x)))


def test_structure_identity_c3(rng):
    # C3 = B_m C1 + C_m C4 pointwise
    for _ in range(20):
        m = rng.choice((1, 2, 3, -2))
        g = rng.choice((-1.1, 0.8))
        E = complex(rng.uniform(-2, 2), rng.uniform(0.05, 1.5))
        x = rng.uniform(0.3, 2.0)
        _, b, c, _ = coul_coefficients(m, E, g)
        c1 = coul_solution("C1", m, x, E, g)
        c3 = coul_solution("C3", m, x, E, g)
        c4 = coul_solution("C4", m, x, E, g)
        assert abs(c3 - (b * c1 + c * c4)) < 1e-9 * max(1.0, abs(c3))


def test_wronskian_matches_coefficient():
    # Wr(C1, C3) = -kappa0 |m| C_m, checked with numeric derivatives
    m, E, g, k0 = 1, 1.0 + 0.5j, -1.0, 1.0
    _, _, c, omega = coul_coefficients(m, E, g, k0)
    wr = _wronskian(
        lambda x: coul_solution("C1", m, x, E, g, k0),
        lambda x: coul_solution("C3", m, x, E, g, k0),
        0.9,
    )
    assert abs(wr - (-k0 * abs(m) * c)) < 1e-8 * max(1.0, abs(c))
    assert abs(omega - k0 * abs(m) * c) < 1e-14 * abs(omega)


def test_degenerate_fourth_solution():
    # g = 0, |m| = 1 puts alpha at the integer 1: the logarithmic channel
    # degenerates; C4 must stay finite and still solve the equation
    m, g, E = 1, 0.0, -0.5
    x, h = 0.8, 1e-4
    f = lambda t: coul_solution("C4", m, t, E, g)
    v = f(x)
    assert abs(v) < 1e3 and abs(v.imag) < 1e-12 * max(1.0, abs(v))
    d2 = (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)
    resid = -d2 + ((m * m - 1) / (4 * x * x) + g / x - E) * f(x)
    assert abs(resid) < 1e-6 * max(1.0, abs(v))


# ---------------------------------------------------------------- family functions


def test_f1_free_closed_form():
    # g = 0: f_1(E) = -sqrt(-E)/kappa0, so f_1(-1) = -1
    assert abs(coul_family_function(1, -1.0, 0.0) - (-1.0)) < 1e-15
    assert abs(coul_family_function(1, -4.0, 0.0, 2.0) - (-1.0)) < 1e-15


def test_f0_free_limit():
    # f_0 is continuous in g at g = 0 (alpha -> 1/2)
    E = -0.7
    f_at_zero = coul_family_function(0, E, 0.0)
    k = math.sqrt(-E)
    expected = -EULER - 0.5 * (-EULER - 2.0 * math.log(2.0)) - 0.5 * math.log(2.0 * k)
    assert abs(f_at_zero - expected) < 1e-14
    assert abs(coul_family_function(0, E, 1e-9) - f_at_zero) < 1e-7


def test_family_function_validation():
    with pytest.raises(ValidationError):
        coul_family_function(2, -1.0, -1.0)


def test_critical_zeta_values():
    g, k0 = 2.0, 1.0
    assert abs(coul_critical_zeta(1, g, k0) - math.atan(g * math.log(g))) < 1e-15
    assert (
        abs(coul_critical_zeta(0, g, k0) - math.atan(0.5 * math.log(g) + EULER))
        < 1e-15
    )
    # m = -1 belongs to the m = +-1 family
    assert coul_critical_zeta(-1, g, k0) == coul_critical_zeta(1, g, k0)
    with pytest.raises(ValidationError):
        coul_critical_zeta(1, -1.0)
    with pytest.raises(ValidationError):
        coul_critical_zeta(2, 1.0)


# ---------------------------------------------------------------- spectra


def test_unique_ladder_and_weights():
    g = -1.0
    spec = ProblemSpec(Theory.COULOMB, 2, g)
    meas = coul_spectrum(spec, levels=3)
    for k, (e, w) in enumerate(meas.discrete):
        assert abs(e - (-g * g / (3 + 2 * k) ** 2)) < 1e-15
        assert w > 0
    assert meas.support == "R+"
    # repulsive coupling: no atoms
    assert coul_spectrum(ProblemSpec(Theory.COULOMB, 2, 1.0)).discrete == ()


def test_unique_weight_is_resolvent_residue():
    # Q_0^2 = lim eps -> 0 of eps * Im Omega(E_0 + i eps)
    g = -1.0
    spec = ProblemSpec(Theory.COULOMB, 2, g)
    e0, q2 = coul_spectrum(spec, levels=1).discrete[0]
    assert abs(e0 - (-1.0 / 9.0)) < 1e-15
    eps = 1e-5
    r1 = eps * coul_spectral_omega(spec, complex(e0, eps)).imag
    r2 = 0.5 * eps * coul_spectral_omega(spec, complex(e0, 0.5 * eps)).imag
    extr = 2.0 * r2 - r1  # residue is quadratic in eps around the pole
    assert abs(extr - q2) < 1e-5 * q2


def test_half_pi_family_ladders():
    g = -1.0
    m1 = coul_spectrum(_m1_spec(g, math.pi / 2), levels=3)
    for n, (e, w) in enumerate(m1.discrete):
        assert abs(e - (-g * g / (4.0 * (1 + n) ** 2))) < 1e-15
        assert abs(w - 4.0 * (abs(g) / (2.0 * (1 + n))) ** 3) < 1e-15
    m0 = coul_spectrum(_m0_spec(g, math.pi / 2), levels=3)
    for n, (e, w) in enumerate(m0.discrete):
        assert abs(e - (-g * g / (1 + 2 * n) ** 2)) < 1e-15
        assert abs(w - 4.0 * (g / (1 + 2 * n)) ** 2 / (1 + 2 * n)) < 1e-15


def test_family_roots_solve_root_equations():
    g = -1.0
    for zeta in (-0.8, 0.0, 0.6):
        for n, (e, w) in enumerate(coul_spectrum(_m1_spec(g, zeta), levels=3).discrete):
            f1 = coul_family_function(1, e, g).real
            assert abs(f1 - math.tan(zeta)) < 1e-8
            assert w > 0
        for n, (e, w) in enumerate(coul_spectrum(_m0_spec(g, zeta), levels=3).discrete):
            f0 = coul_family_function(0, e, g).real
            assert abs(f0 + math.tan(zeta)) < 1e-8
            assert w > 0


def test_family_ladder_interlacing():
    # attractive-coupling roots interlace the zeta = pi/2 ladder
    g = -1.0
    ref1 = [-g * g / (4.0 * (1 + n) ** 2) for n in range(4)]
    ref0 = [-g * g / (1 + 2 * n) ** 2 for n in range(4)]
    for zeta in (-0.5, 0.7):
        e1 = [e for e, _ in coul_spectrum(_m1_spec(g, zeta), levels=4).discrete]
        e0 = [e for e, _ in coul_spectrum(_m0_spec(g, zeta), levels=4).discrete]
        for n in range(4):
            lo1 = ref1[n - 1] if n >= 1 else -math.inf
            assert lo1 < e1[n] < ref1[n]
            lo0 = ref0[n - 1] if n >= 1 else -math.inf
            assert lo0 < e0[n] < ref0[n]


def test_family_levels_monotone_in_zeta():
    # each E_n decreases as zeta moves down through the family
    g = -1.0
    zs = [1.2, 0.6, 0.0, -0.6, -1.2]
    for build in (_m1_spec, _m0_spec):
        rows = [
            [e for e, _ in coul_spectrum(build(g, z), levels=3).discrete] for z in zs
        ]
        sign = -1.0 if build is _m1_spec else 1.0
        for n in range(3):
            seq = [sign * rows[i][n] for i in range(len(zs))]
            assert all(b < a for a, b in zip(seq, seq[1:])) or all(
                b > a for a, b in zip(seq, seq[1:])
            )


def test_atom_count_logic_m1():
    # g > 0: one bound level iff zeta below the critical angle; at the
    # critical angle the atom sits exactly at zero energy
    for g in (0.3, 1.0, 2.5):
        zc = coul_critical_zeta(1, g)
        assert coul_spectrum(_m1_spec(g, min(zc + 0.2, 1.5))).discrete == ()
        atoms = coul_spectrum(_m1_spec(g, zc - 0.2)).discrete
        assert len(atoms) == 1 and atoms[0][0] < 0
        crit = coul_spectrum(_m1_spec(g, zc)).discrete
        assert len(crit) == 1 and crit[0][0] == 0.0
        assert abs(crit[0][1] - 3.0 * g * g / math.cos(zc) ** 2) < 1e-12 * crit[0][1]
    # g = 0: the atom -(k0 tan z)^2 exists only for zeta < 0
    assert coul_spectrum(_m1_spec(0.0, 0.3)).discrete == ()
    atoms = coul_spectrum(_m1_spec(0.0, -0.3)).discrete
    assert len(atoms) == 1
    assert abs(atoms[0][0] - (-math.tan(-0.3) ** 2)) < 1e-12


def test_atom_count_logic_m0():
    # g > 0: one bound level iff zeta above the critical angle
    for g in (0.3, 1.0, 2.5):
        zc = coul_critical_zeta(0, g)
        assert coul_spectrum(_m0_spec(g, max(zc - 0.2, -1.5))).discrete == ()
        atoms = coul_spectrum(_m0_spec(g, min(zc + 0.2, 1.5))).discrete
        assert len(atoms) == 1 and atoms[0][0] < 0
        crit = coul_spectrum(_m0_spec(g, zc)).discrete
        assert len(crit) == 1 and crit[0][0] == 0.0
        assert abs(crit[0][1] - 24.0 * g * g / math.cos(zc) ** 2) < 1e-12 * crit[0][1]
    # g = 0: every |zeta| < pi/2 member binds exactly one level
    for zeta in (-1.0, 0.0, 1.0):
        atoms = coul_spectrum(_m0_spec(0.0, zeta)).discrete
        assert len(atoms) == 1 and atoms[0][0] < 0
        f0 = coul_family_function(0, atoms[0][0], 0.0).real
        assert abs(f0 + math.tan(zeta)) < 1e-10


def test_family_weight_matches_numeric_root_slope():
    g, zeta = -1.0, 0.4
    e0, w0 = coul_spectrum(_m1_spec(g, zeta), levels=1).discrete[0]
    h = 1e-6
    fp = (
        coul_family_function(1, e0 + h, g).real
        - coul_family_function(1, e0 - h, g).real
    ) / (2 * h)
    assert abs(w0 - 1.0 / (math.cos(zeta) ** 2 * fp)) < 1e-6 * w0
    e0, w0 = coul_spectrum(_m0_spec(g, zeta), levels=1).discrete[0]
    fp = (
        coul_family_function(0, e0 + h, g).real
        - coul_family_function(0, e0 - h, g).real
    ) / (2 * h)
    assert abs(w0 - 2.0 / (math.cos(zeta) ** 2 * fp)) < 1e-6 * w0


def test_family_levels_bit_identical_with_scipy_brentq(monkeypatch):
    specs = [
        _m1_spec(-1.0, 0.4),
        _m1_spec(-0.3, -1.2, k0=2.0),
        _m1_spec(0.8, -1.2),
        _m0_spec(-1.0, 0.4),
        _m0_spec(-2.5, -0.7, k0=0.5),
        _m0_spec(0.8, 1.2),
    ]
    ours = [coul_spectrum(spec, levels=10).discrete for spec in specs]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return scipy_brentq(*args, **kwargs)

    monkeypatch.setattr(_confluent, "brentq", counted)
    assert [coul_spectrum(spec, levels=10).discrete for spec in specs] == ours
    # the patched solver found every level: 10 per g < 0 ladder, 1 per g > 0 spec
    assert len(calls) == 42


# ---------------------------------------------------------------- densities


def test_density_matches_resolvent_imag():
    cases = [
        (ProblemSpec(Theory.COULOMB, 2, -1.0), 1.5),
        (ProblemSpec(Theory.COULOMB, 3, 1.0), 0.8),
        (_m1_spec(-1.0, 0.4), 1.2),
        (_m1_spec(1.0, math.pi / 2), 2.0),
        (_m0_spec(-1.0, 0.4), 1.2),
        (_m0_spec(1.0, math.pi / 2), 2.0),
        (ProblemSpec(Theory.COULOMB, -1, -1.0, 1.0, ExtensionParam(0.4)), 1.2),
        (_m1_spec(0.0, 0.7), 1.1),
        (ProblemSpec(Theory.COULOMB, -1, 0.0, 1.3, ExtensionParam(-0.5)), 0.9),
        # g > 0 away from the critical angles (-0.18 for m = 1, 0.52 for m = 0)
        (_m1_spec(0.8, -1.2), 0.6),
        (_m0_spec(1.0, 0.9), 1.4),
    ]
    for spec, e in cases:
        dens = coul_density(spec, e)
        eps = 1e-5
        f1 = coul_spectral_omega(spec, complex(e, eps)).imag / math.pi
        f2 = coul_spectral_omega(spec, complex(e, eps / 2)).imag / math.pi
        extr = 2.0 * f2 - f1
        assert abs(extr - dens) < 1e-5 * max(1.0, dens)
        assert coul_density(spec, -1.0) == 0.0


def _mp_m0_density(spec, E):
    """(1/pi) Im Omega(E + i0) of the m = 0 family at 40 digits, through
    mpmath's digamma."""
    with mp.workdps(40):
        g, k0 = mp.mpf(spec.coupling), mp.mpf(spec.kappa0)
        K = mp.sqrt(E) * mp.expj(-mp.pi / 2)  # sqrt(-E - i0)
        f = mp.digamma(1) - mp.digamma(0.5 + g / (2 * K)) / 2 - mp.log(2 * K / k0) / 2
        half_pi = spec.extension.is_half_pi
        s, c = (1, 0) if half_pi else (mp.sin(spec.zeta), mp.cos(spec.zeta))
        return mp.im((2 / k0) * (f * s - c) / (f * c + s)) / mp.pi


@pytest.mark.parametrize(
    "spec, E",
    [
        # below the repulsive barrier 1 - tanh(pi g / 2 sqrt E) cancelled: 0.0 at
        # E = 0.06 (against 1.9e-17) and 1e-4 off at E = 0.1
        (_m0_spec(3.0, math.pi / 2), 0.06),
        (_m0_spec(3.0, math.pi / 2), 0.1),
        (_m0_spec(3.0, 1.2), 0.06),
        (_m0_spec(1.0, math.pi / 2), 0.5),
        # no cancellation
        (_m0_spec(-1.5, 0.3, k0=0.7), 0.8),
        (_m0_spec(0.5, math.pi / 2), 3.0),
    ],
)
def test_m0_density_below_the_barrier_against_mpmath(spec, E):
    ref = _mp_m0_density(spec, E)
    assert abs(coul_density(spec, E) - ref) <= 1e-12 * ref


def test_density_solves_no_atom(monkeypatch):
    # g > 0 below the critical angle: one negative atom, which reading the
    # continuum must not root-solve for
    spec = _m1_spec(0.8, -1.2)
    assert len(coul_spectrum(spec, levels=0).discrete) == 1
    expected = coul_spectrum(spec).density_at(0.3)

    def no_root(*args, **kwargs):
        raise AssertionError("a continuum read solved for an atom")

    monkeypatch.setattr(_confluent, "brentq", no_root)
    assert coul_density(spec, 0.3) == expected
    assert coul_eigenfunction(spec, 0.3).norm_constant == math.sqrt(expected)


def test_density_repulsive_barrier_suppression():
    # strong repulsion at low energy: density is exponentially small
    spec = ProblemSpec(Theory.COULOMB, 2, 5.0)
    assert coul_density(spec, 1e-4) < 1e-300
    assert coul_density(spec, 10.0) > 0


# ---------------------------------------------------------------- Green


@pytest.mark.parametrize(
    "spec",
    [
        ProblemSpec(Theory.COULOMB, 2, -1.0),
        ProblemSpec(Theory.COULOMB, 3, 1.0),
        _m1_spec(-1.0, 0.4),
        _m0_spec(-1.0, 0.4),
    ],
)
def test_green_symmetry_residual_jump(spec):
    E = 0.8 + 0.9j
    x, y = 0.7, 1.4
    g_xy = coul_green(spec, x, y, E)
    assert abs(g_xy - coul_green(spec, y, x, E)) < 1e-12 * max(1.0, abs(g_xy))
    g, m = spec.coupling, spec.m
    h = 1e-4
    f = lambda t: coul_green(spec, t, y, E)
    d2 = (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)
    resid = -d2 + ((m * m - 1) / (4 * x * x) + g / x - E) * f(x)
    assert abs(resid) < 2e-5 * max(1.0, abs(f(x)))
    d = 1e-5
    jump = (f(y + 2 * d) - f(y)) / (2 * d) - (f(y) - f(y - 2 * d)) / (2 * d)
    assert abs(jump - (-1.0)) < 1e-4


def test_green_requires_upper_half_plane():
    with pytest.raises(ValidationError):
        coul_green(ProblemSpec(Theory.COULOMB, 2, -1.0), 1.0, 2.0, -0.5)
    # every cell rejects a radius <= 0 with the same error
    for spec in (ProblemSpec(Theory.COULOMB, 2, -1.0), _m1_spec(-1.0, 0.4), _m0_spec(1.0, 0.4)):
        for x, y in ((0.0, 1.0), (1.0, -0.5)):
            with pytest.raises(ValidationError, match="x must be positive"):
                coul_green(spec, x, y, 0.5 + 0.5j)


# ---------------------------------------------------------------- eigenfunctions


def _norm2(wave, x_max):
    val, _ = quad(lambda x: wave(x) ** 2, 1e-9, x_max, limit=400)
    return val


def test_eigenfunction_normalization_unique():
    spec = ProblemSpec(Theory.COULOMB, 2, -1.0)
    for idx, x_max in ((0, 80.0), (1, 140.0)):
        wave = coul_eigenfunction(spec, idx)
        assert abs(_norm2(wave, x_max) - 1.0) < 1e-6


def test_eigenfunction_normalization_family():
    for spec, x_max in (
        (_m1_spec(-1.0, 0.4), 60.0),
        (_m0_spec(-1.0, math.pi / 2), 40.0),
        (_m0_spec(-1.0, -0.5), 60.0),
    ):
        wave = coul_eigenfunction(spec, 0)
        assert abs(_norm2(wave, x_max) - 1.0) < 1e-6


def test_zero_energy_atom_has_no_eigenfunction():
    g = 1.0
    zc = coul_critical_zeta(1, g)
    with pytest.raises(ValidationError):
        coul_eigenfunction(_m1_spec(g, zc), 0)


def test_eigenfunction_validation():
    spec = ProblemSpec(Theory.COULOMB, 2, 1.0)
    with pytest.raises(ValidationError):
        coul_eigenfunction(spec, 0)  # repulsive: no atoms
    wave = coul_eigenfunction(spec, 5.0)  # continuum state
    assert wave.norm_constant > 0
