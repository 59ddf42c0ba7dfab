"""One series pass per point for the extension-family solution pairs.

The n = 0 log channel, which fuses Phi and the m = 0 pair's parameter
derivative, and the log companion's S1 against 40-digit mpmath and against
the separate specfun calls, on the points the Coulomb theory reaches: the
continuum (imaginary z, |z| <= 14), bound energies (real z < 8) and complex
Green energies.  Then the wave closures and family Green functions built on
the pairs against the named solutions, the bound-state ladder where
(alpha)_k has a zero, and eigenfunctions that solve only the requested level.
"""

import cmath
import math
import random

import mpmath as mp
import pytest

from radialspec import specfun as sf
from radialspec.core import ExtensionParam, ProblemSpec, Theory
from radialspec.coulomb import (
    coul_eigenfunction,
    coul_green,
    coul_parameters,
    coul_solution,
    coul_spectral_omega,
    coul_spectrum,
)
from radialspec.duality import verify_solution_identity
from radialspec.oscillator import (
    osc_eigenfunction,
    osc_green,
    osc_solution,
    osc_spectral_omega,
    osc_spectrum,
)


def _points(seed=2011, count=60):
    """(alpha, beta, z) of Coulomb solutions, cycling over the continuum,
    bound energies and complex Green energies."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n, g = rng.randrange(3), rng.uniform(-2.0, 2.0)
        if i % 3 == 0:
            energy = rng.uniform(0.01, 0.49)
            x = min(10.0, rng.uniform(0.2, 7.0 / math.sqrt(energy)))
        elif i % 3 == 1:
            energy = -rng.uniform(0.01, 2.0)
            x = rng.uniform(0.1, 4.0 / math.sqrt(-energy))
        else:
            energy = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.05, 2.0))
            x = rng.uniform(0.2, 3.0)
        par = coul_parameters(n, energy, g)
        out.append((par.alpha, float(par.beta), par.z(x)))
    return out


POINTS = _points()


def _m0_member(a, b):
    """alpha of the m = 0 solution at a point's energy, coupling and radius:
    alpha = (1 + |m|)/2 + g/(2K) loses |m|/2 = (b - 1)/2, and z is unchanged."""
    return a - 0.5 * (b - 1.0)


def _m0_pair_series(a, z):
    """(Phi, d/dt Phi(a + t/2, 1 + t; z) at t = 0) from one pass of the n = 0
    log channel: the derivative is S0/2 - gamma S1, i.e. L/2 at log_r = -2 gamma."""
    phi, _, log_part = sf.kummer_log_channel(a, 0, z, -2.0 * sf.EULER_GAMMA)
    return phi, 0.5 * log_part


def _term_sums(a, b, z, da, db):
    """sum |T_k| and sum |T_k G_k| of the Phi and derivative series: the
    scale of their rounding error when the sums cancel."""
    t, h, st, sd = 1.0 + 0.0j, 0.0j, 1.0, 0.0
    for k in range(400):
        h += da / (a + k) - db / (b + k)
        t *= (a + k) * z / ((b + k) * (k + 1))
        st += abs(t)
        sd += abs(t * h)
    return st, sd


def test_points_cover_the_three_regions():
    z = [p[2] for p in POINTS]
    assert any(abs(v.real) < 1e-12 * abs(v) and abs(v) > 10.0 for v in z)
    assert all(abs(v) <= 14.0 + 1e-9 for v in z[0::3])
    assert all(v.imag == 0.0 and 0.0 < v.real < 8.0 for v in z[1::3])
    assert all(v.real > 0.0 and v.imag < 0.0 for v in z[2::3])


@pytest.mark.parametrize("a, b, z", POINTS)
def test_fused_kernel_against_mpmath(a, b, z):
    # at every point's m = 0 member, so all 60 points are at b = 1
    a = _m0_member(a, b)
    phi, dphi = _m0_pair_series(a, z)
    with mp.workdps(40):
        ref_phi = complex(mp.hyp1f1(a, 1, z))
        ref_d = complex(mp.diff(lambda t: mp.hyp1f1(a + t / 2, 1 + t, z), 0))
    st, sd = _term_sums(a, 1.0, z, 0.5, 1.0)
    assert abs(phi - ref_phi) <= 2e-14 * st
    assert abs(dphi - ref_d) <= 2e-14 * (st + sd)


@pytest.mark.parametrize("a, b, z", POINTS)
def test_fused_kernel_against_separate_calls(a, b, z):
    # Phi against kummer_m, and L against tricomi_u: at n = 0, DLMF 13.2.9
    # reads Gamma(a) Psi(a, 1; z) = -L at log_r = ln z + psi(a)
    a = _m0_member(a, b)
    log_r = cmath.log(z) + sf.digamma(a)
    phi, _, log_part = sf.kummer_log_channel(a, 0, z, log_r)
    alone = sf.kummer_m(a, 1.0, z)
    assert abs(phi - alone) <= 1e-12 * abs(alone)
    u_alone = sf.gamma_fn(a) * sf.tricomi_u(a, 1, z)
    assert abs(log_part + u_alone) <= 1e-12 * (abs(phi * log_r) + abs(log_part))


@pytest.mark.parametrize("a, b, z", POINTS)
def test_log_companion_s1_stands_in_for_kummer(a, b, z):
    n = int(b) - 1
    s1, _, _ = sf._CompanionPlan(a, n)(complex(z), 0.0)
    assert sf._KummerPlan(a, b).plain(complex(z))
    phi = sf.kummer_m(a, b, z)
    assert abs(s1 - phi) <= 1e-12 * abs(phi)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_log_companion_s1_meets_kummer_rule_next_to_a_zero_of_phi(n):
    # |S1| is ~1e-9 of the terms here while S0 is not small: S1 must still
    # be summed until its own terms fall below rel_tol |S1|, as kummer_m's are
    a = -2.5
    z = float(mp.findroot(lambda t: mp.hyp1f1(a, n + 1, t), 1.0 + n)) * (1 + 1e-9)
    s1, s0, _ = sf._CompanionPlan(a, n)(z, 0.0)
    assert abs(s0) > 1e6 * abs(s1)
    phi = sf.kummer_m(a, n + 1, z)
    assert abs(s1 - phi) <= 1e-12 * abs(phi)


def test_fused_kernel_takes_phi_from_kummer_off_the_plain_series():
    # Re z < 0 (Kummer transformation), |z| past the switch radius
    # (asymptotic branch) and terminating a: Phi is kummer_m's value exactly
    for a, b, z in ((0.7 + 0.2j, 2.0, -3.0 + 1.0j), (0.6, 1.0, 35.0j), (-3.0, 2.0, 2.5),
                    (0.7 + 0.2j, 1.0, -3.0 + 1.0j), (-3.0, 1.0, 2.5)):
        assert not sf._KummerPlan(a, b).plain(complex(z))
        phi, _, _ = sf.kummer_log_channel(a, int(b) - 1, z, 0.0)
        assert phi == sf.kummer_m(a, b, z)


# --- the bound-state ladder: (alpha)_k has a zero ------------------------------


def _ladder_samples(m):
    """(x, E, g) with E = -g^2 / (1 + |m| + 2j)^2, where alpha = -j."""
    return [
        (x, -g * g / (1 + abs(m) + 2 * j) ** 2, g)
        for j in range(5)
        for g in (-1.0, -0.6)
        for x in (0.3, 1.1, 2.4)
    ]


def _c2_0_ref(x, energy, g):
    with mp.workdps(40):
        K = mp.sqrt(-mp.mpf(energy))
        a = mp.mpf(1) / 2 + mp.mpf(g) / (2 * K)
        z = 2 * K * x
        pre = mp.sqrt(x) * mp.exp(-z / 2)
        d = mp.diff(lambda t: mp.hyp1f1(a + t / 2, 1 + t, z), 0)
        return complex(pre * (d + mp.hyp1f1(a, 1, z) * mp.log(x) / 2))


def _c4_ref(m, x, energy, g):
    """C4 = (C3 - B_m C1) / C_m at g nudged by 1e-25: C_m vanishes on the
    ladder, and C4 is analytic in g."""
    n = abs(m)
    with mp.workdps(70):
        g = mp.mpf(g) * (1 + mp.mpf(10) ** -25)
        K = mp.sqrt(-mp.mpf(energy))
        a = mp.mpf(1 + n) / 2 + g / (2 * K)
        z = 2 * K * x
        pre = mp.exp(-z / 2) * mp.mpf(x) ** (mp.mpf(1 + n) / 2)
        c1, c3 = pre * mp.hyp1f1(a, 1 + n, z), pre * mp.hyperu(a, 1 + n, z)
        b_m = (
            (-1) ** (n + 1) / (2 * mp.factorial(n)) * mp.rgamma(a - n)
            * (mp.digamma(a - n) + mp.digamma(a) + 2 * mp.log(2 * K))
        )
        c_m = (2 * K) ** (-n) * mp.factorial(n - 1) * mp.rgamma(a)
        return complex((c3 - b_m * c1) / c_m)


@pytest.mark.parametrize("k, m", [(2, 0), (4, 1), (4, 2)])
def test_ladder_solutions_against_mpmath(k, m):
    kind = "C2_0" if k == 2 else "C4"
    for x, energy, g in _ladder_samples(m):
        val = coul_solution(kind, m, x, energy, g)
        ref = _c2_0_ref(x, energy, g) if k == 2 else _c4_ref(m, x, energy, g)
        assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref)), (x, energy, g)


@pytest.mark.parametrize("k, m", [(2, 0), (4, 1), (4, 2)])
def test_ladder_duality_identity(k, m):
    assert verify_solution_identity(k, m, _ladder_samples(m)) < 1e-12


def test_specfun_limits_at_nonpositive_integer_a():
    z = 1.7
    for J in range(4):
        with mp.workdps(60):
            a_ref = -J + mp.mpf(10) ** -30
            d_ref = complex(mp.diff(lambda t: mp.hyp1f1(a_ref + t / 2, 1 + t, z), 0))
        _, d = _m0_pair_series(-J, z)
        assert abs(d - d_ref) <= 1e-13 * abs(d_ref)
        for n in (0, 1, 2):
            with mp.workdps(60):
                # S0 is continuous in a: its definition at a = -J + 1e-30
                a = -J + mp.mpf(10) ** -30
                sig = sum(1 / (a - l) for l in range(1, n + 1))
                c, h, s0 = mp.mpf(1), mp.mpf(0), mp.mpf(0)
                for j in range(80):
                    s0 += c * (h + sig / 2 - mp.digamma(j + 1) - mp.digamma(n + j + 1))
                    h += 1 / (a + j)
                    c *= (a + j) * z / ((n + 1 + j) * (j + 1))
                s0 = complex(s0)
            s1, got, _ = sf._CompanionPlan(-J, n)(z, 0.0)
            assert abs(got - s0) <= 1e-13 * abs(s0)
            assert abs(s1 - sf.kummer_m(-J, n + 1, z)) <= 1e-13 * abs(s1)


# --- wave closures and Green functions against the named solutions -------------


def _coul_spec(m, g, zeta, k0=1.0):
    return ProblemSpec(Theory.COULOMB, m, g, k0, ExtensionParam(zeta))


def _osc_spec(lam, zeta, k0=1.0):
    return ProblemSpec(Theory.OSCILLATOR, 0, lam, k0, ExtensionParam(zeta))


def _named_wave(solution, second, spec, wave, switch):
    """The eigenfunction assembled from separate named-solution calls."""
    s, c = math.sin(spec.zeta), math.cos(spec.zeta)
    m, e, cpl, k0 = spec.m, wave.energy, spec.coupling, spec.kappa0

    def direct(r):
        first = solution(f"{second[0]}1", m, r, e, cpl, k0)
        return first * s + solution(second, m, r, e, cpl, k0) * c

    if switch is None:
        return lambda r: (wave.norm_constant * direct(r)).real
    decay = f"{second[0]}3"
    ratio = direct(switch) / solution(decay, m, switch, e, cpl, k0)
    return lambda r: (
        wave.norm_constant
        * (direct(r) if r < switch else ratio * solution(decay, m, r, e, cpl, k0))
    ).real


@pytest.mark.parametrize(
    "spec, which",
    [
        (_coul_spec(1, -1.1, -0.93), 0.29),
        (_coul_spec(-1, -0.6, 0.4), 3),
        (_coul_spec(1, 0.8, -1.2), 0),
        (_coul_spec(0, -0.7, 0.5), 0.4),
        (_coul_spec(0, -1.3, -0.2), 5),
    ],
)
def test_coulomb_wave_closures_match_named_solutions(spec, which):
    wave = coul_eigenfunction(spec, which)
    second = "C2_0" if spec.m == 0 else "C4"
    switch = 4.0 / math.sqrt(-wave.energy) if wave.energy < 0 else None
    named = _named_wave(coul_solution, second, spec, wave, switch)
    radii = [0.05 + 0.1 * i for i in range(100)]
    vals = [wave(x) for x in radii]
    scale = max(abs(v) for v in vals)
    assert all(abs(v - named(x)) <= 1e-12 * scale for v, x in zip(vals, radii))


@pytest.mark.parametrize(
    "spec, which",
    [
        (_osc_spec(1.3, 0.4), 2),
        (_osc_spec(0.7, -1.0), 0),
        (_osc_spec(0.0, 0.3), 0),
        (_osc_spec(0.0, -0.8), 2.5),
    ],
)
def test_oscillator_wave_closures_match_named_solutions(spec, which):
    wave = osc_eigenfunction(spec, which)
    lam = spec.coupling
    switch = None
    if isinstance(which, int):
        switch = math.sqrt(8.0) / lam**0.25 if lam > 0 else 4.0 / math.sqrt(-wave.energy)
    named = _named_wave(osc_solution, "O2_0", spec, wave, switch)
    radii = [0.05 + 0.05 * i for i in range(100)]
    vals = [wave(u) for u in radii]
    scale = max(abs(v) for v in vals)
    assert all(abs(v - named(u)) <= 1e-12 * scale for v, u in zip(vals, radii))


def _named_green(solution, second, omega, spec, x, y, energy, cross_weight):
    """The family Green function assembled from separate named-solution calls."""
    s, c = math.sin(spec.zeta), math.cos(spec.zeta)
    m, cpl, k0 = spec.m, spec.coupling, spec.kappa0
    first = f"{second[0]}1"

    def u(r):
        one, two = (solution(k, m, r, energy, cpl, k0) for k in (first, second))
        return one * s + two * c

    def u_tilde(r):
        one, two = (solution(k, m, r, energy, cpl, k0) for k in (first, second))
        return one * c - two * s

    hi, lo = max(x, y), min(x, y)
    return omega(spec, energy) * u(x) * u(y) + (cross_weight / k0) * u_tilde(hi) * u(lo)


@pytest.mark.parametrize(
    "spec, energy",
    [
        (_coul_spec(1, -0.9, 0.6), 0.3 + 0.4j),
        (_coul_spec(-1, 0.5, -0.3), -0.2 + 0.05j),
        (_coul_spec(0, -0.4, 1.1), 0.45 + 0.2j),
        (_coul_spec(0, 1.2, -0.7), -1.5 + 0.8j),
    ],
)
def test_coulomb_family_green_symmetric_and_matches_named(spec, energy):
    weight = -1.0 if abs(spec.m) == 1 else 2.0
    for x, y in ((0.4, 1.7), (2.2, 0.9), (1.3, 1.3)):
        g_xy = coul_green(spec, x, y, energy)
        assert g_xy == coul_green(spec, y, x, energy)
        ref = _named_green(coul_solution, "C4" if spec.m else "C2_0", coul_spectral_omega,
                           spec, x, y, energy, weight)
        assert abs(g_xy - ref) <= 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize(
    "spec, energy",
    [
        (_osc_spec(1.1, 0.6), 3.0 + 0.7j),
        (_osc_spec(0.4, -1.0), 8.0 + 2.0j),
        (_osc_spec(0.0, 0.2), 1.5 + 0.5j),
    ],
)
def test_oscillator_family_green_symmetric_and_matches_named(spec, energy):
    for u, v in ((0.3, 1.4), (1.8, 0.6), (1.0, 1.0)):
        g_uv = osc_green(spec, u, v, energy)
        assert g_uv == osc_green(spec, v, u, energy)
        ref = _named_green(osc_solution, "O2_0", osc_spectral_omega, spec, u, v, energy, 1.0)
        assert abs(g_uv - ref) <= 1e-12 * max(1.0, abs(ref))


# --- eigenfunctions solve only the requested level -----------------------------


@pytest.mark.parametrize(
    "spec",
    [
        ProblemSpec(Theory.COULOMB, 2, -0.8, 1.3),
        _coul_spec(1, -1.0, 0.4),
        _coul_spec(-1, -0.5, math.pi / 2),
        _coul_spec(1, 0.7, -1.0),
        _coul_spec(1, 0.0, -0.5),
        _coul_spec(0, -1.2, -0.6, 0.8),
        _coul_spec(0, -0.3, math.pi / 2),
        _coul_spec(0, 0.9, 1.2),
        _coul_spec(0, 0.0, 0.3),
    ],
)
def test_coulomb_level_eigenfunction_matches_spectrum_bit_for_bit(spec):
    count = len(coul_spectrum(spec, levels=12).discrete)
    for idx in sorted({0, 1, 5, 11} & set(range(count))):
        energy, weight = coul_spectrum(spec, levels=idx + 1).discrete[idx]
        wave = coul_eigenfunction(spec, idx)
        assert wave.energy == energy
        assert wave.norm_constant == math.sqrt(weight)


@pytest.mark.parametrize(
    "spec",
    [
        ProblemSpec(Theory.OSCILLATOR, 2, 0.9, 1.2),
        _osc_spec(1.3, 0.4),
        _osc_spec(0.6, math.pi / 2),
        _osc_spec(0.0, -0.4),
    ],
)
def test_oscillator_level_eigenfunction_matches_spectrum_bit_for_bit(spec):
    count = len(osc_spectrum(spec, levels=12).discrete)
    for idx in sorted({0, 1, 5, 11} & set(range(count))):
        energy, weight = osc_spectrum(spec, levels=idx + 1).discrete[idx]
        wave = osc_eigenfunction(spec, idx)
        assert wave.energy == energy
        assert wave.norm_constant == math.sqrt(weight)
