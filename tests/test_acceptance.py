"""End-to-end acceptance suite: closed-form spectra, extension families,
densities, duality, structural properties and special functions, each at its
contracted tolerance."""

import cmath
import math
import time

import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from radialspec import specfun as sf
from radialspec.core import (
    ExtensionParam,
    ProblemSpec,
    Theory,
    as_energy,
)
from radialspec.coulomb import (
    coul_critical_zeta,
    coul_density,
    coul_eigenfunction,
    coul_family_function,
    coul_solution,
    coul_spectral_omega,
    coul_spectrum,
)
from radialspec.duality import (
    verify_coefficient_identities,
    verify_solution_identity,
    verify_spectrum_correspondence,
)
from radialspec.oracle import GridSpec, fd_eigenvalues
from radialspec.oscillator import (
    osc_density,
    osc_eigenfunction,
    osc_family_function,
    osc_solution,
    osc_spectral_omega,
    osc_spectrum,
)

HALF_PI = math.pi / 2
EULER = 0.5772156649015329


def _staggered(u_max, points):
    h = u_max / (points - 0.5)
    return GridSpec(h / 2.0, u_max, points)


# -----------------------------------------------------------------------------
# 1. Oscillator discrete levels: closed form to 1e-12, oracle to 1e-3, < 10 s
# -----------------------------------------------------------------------------


def test_oscillator_discrete_levels_with_oracle():
    t0 = time.perf_counter()
    for lam in (0.5, 1.0, 4.0):
        for m in (1, 2, 5):
            spec = ProblemSpec(Theory.OSCILLATOR, m, lam)
            measure = osc_spectrum(spec, levels=11)
            sq = 2.0 * math.sqrt(lam)
            for n, (e, w) in enumerate(measure.discrete):
                exact = sq * (1 + m + 2 * n)
                assert abs(e - exact) <= 1e-12 * exact
                assert w > 0
            u_max = 9.0 / lam**0.25
            oracle = fd_eigenvalues(spec, _staggered(u_max, 4000), 3)
            for n in range(3):
                e = measure.discrete[n][0]
                assert abs(oracle[n] - e) <= 1e-3 * e
    assert time.perf_counter() - t0 < 10.0


# -----------------------------------------------------------------------------
# 2. Coulomb discrete levels: closed form to 1e-12, oracle to 1e-3
# -----------------------------------------------------------------------------


def test_coulomb_discrete_levels_with_oracle():
    for g in (-0.5, -1.0, -3.0):
        for m in (2, 3):
            spec = ProblemSpec(Theory.COULOMB, m, g)
            measure = coul_spectrum(spec, levels=11)
            for n, (e, w) in enumerate(measure.discrete):
                exact = -g * g / (1 + m + 2 * n) ** 2
                assert abs(e - exact) <= 1e-12 * abs(exact)
                assert w > 0
            # oracle for the lowest 3: domain sized by the slowest decay rate
            tau2 = abs(g) / (1 + m + 4)
            oracle = fd_eigenvalues(spec, _staggered(13.0 / tau2, 5000), 3)
            for n in range(3):
                e = measure.discrete[n][0]
                assert abs(oracle[n] - e) <= 1e-3 * max(1.0, abs(e))


def test_coulomb_family_half_pi_ladders():
    for g in (-0.5, -1.0, -3.0):
        m0 = coul_spectrum(
            ProblemSpec(Theory.COULOMB, 0, g, 1.0, ExtensionParam(HALF_PI)), levels=11
        )
        # the pi/2 members are the unique-cell ladder at n = |m|, whose integer
        # factors cancel exactly: the weights are their closed forms bit for bit
        for n, (e, w) in enumerate(m0.discrete):
            exact = -g * g / (1 + 2 * n) ** 2
            assert abs(e - exact) <= 1e-12 * abs(exact)
            assert w == 4.0 * (g / (1 + 2 * n)) ** 2 / (1 + 2 * n)
        m1 = coul_spectrum(
            ProblemSpec(Theory.COULOMB, 1, g, 1.0, ExtensionParam(HALF_PI)), levels=11
        )
        for n, (e, w) in enumerate(m1.discrete):
            exact = -g * g / (4.0 * (1 + n) ** 2)
            assert abs(e - exact) <= 1e-12 * abs(exact)
            assert w == 4.0 * (abs(g) / (2.0 * (1 + n))) ** 3


# -----------------------------------------------------------------------------
# 3. Extension families: one root per interval, monotonicity, endpoint limits,
#    critical angles
# -----------------------------------------------------------------------------


def _family_cells():
    # (label, spectrum builder, rung ladder, root function with target sign,
    #  monotone sign of dE_n/dzeta)
    lam, g = 1.0, -1.0
    osc_rungs = [2.0 * math.sqrt(lam) * (1 + 2 * k) for k in range(6)]
    c0_rungs = [-g * g / (1 + 2 * n) ** 2 for n in range(6)]
    c1_rungs = [-g * g / (4.0 * (1 + n) ** 2) for n in range(6)]
    return [
        (
            "osc m=0",
            lambda z, n: osc_spectrum(
                ProblemSpec(Theory.OSCILLATOR, 0, lam, 1.0, ExtensionParam(z)),
                levels=n,
            ).discrete,
            osc_rungs,
            lambda E, z: osc_family_function(E, lam).real + math.tan(z),
            -1.0,
        ),
        (
            "coul m=0",
            lambda z, n: coul_spectrum(
                ProblemSpec(Theory.COULOMB, 0, g, 1.0, ExtensionParam(z)), levels=n
            ).discrete,
            c0_rungs,
            lambda E, z: coul_family_function(0, E, g).real + math.tan(z),
            -1.0,
        ),
        (
            "coul m=1",
            lambda z, n: coul_spectrum(
                ProblemSpec(Theory.COULOMB, 1, g, 1.0, ExtensionParam(z)), levels=n
            ).discrete,
            c1_rungs,
            lambda E, z: coul_family_function(1, E, g).real - math.tan(z),
            +1.0,
        ),
    ]


def test_family_sweep_roots_and_monotonicity():
    zs = [(-1.4 + 0.35 * k) for k in range(9)]  # 9-point sweep inside the family
    for label, build, rungs, _, sign in _family_cells():
        rows = []
        for z in zs:
            levels = [e for e, w in build(z, 4)]
            assert len(levels) == 4, label
            # exactly one root per ladder interval
            for n, e in enumerate(levels):
                lo = rungs[n - 1] if n >= 1 else -math.inf
                assert lo < e < rungs[n], (label, z, n)
            rows.append(levels)
        # monotone in zeta with the contracted sign for every level
        for n in range(4):
            seq = [rows[i][n] for i in range(len(zs))]
            diffs = [b - a for a, b in zip(seq, seq[1:])]
            assert all(sign * d > 0 for d in diffs), (label, n)


def test_family_endpoint_limits():
    # divergent side (where tan blows up and the ground level escapes):
    # solve the root equation directly at zeta = +-(pi/2 - d) and extrapolate
    # linearly in cot; levels n >= 1 must land on rung n-1 within 1e-6
    for label, build, rungs, root_eq, sign in _family_cells():
        z_edge = HALF_PI if sign < 0 else -HALF_PI
        for n in (1, 2, 3):
            vals = []
            for d in (3e-6, 1.5e-6):
                z = z_edge - math.copysign(d, z_edge)
                dlt = 1e-10 * max(1.0, abs(rungs[n - 1]))
                vals.append(
                    brentq(
                        lambda E: root_eq(E, z),
                        rungs[n - 1] + dlt,
                        rungs[n] - dlt,
                        xtol=1e-14,
                        rtol=8.9e-16,
                    )
                )
            extrap = 2.0 * vals[1] - vals[0]
            assert abs(extrap - rungs[n - 1]) <= 1e-6 * max(1.0, abs(rungs[n - 1]))
        # finite side: the spectrum itself, quadratically extrapolated in d,
        # must land on rung n
        z_edge = -z_edge
        d = 1e-3
        tables = []
        for dd in (d, d / 2, d / 4):
            z = z_edge - math.copysign(dd, z_edge)
            tables.append([e for e, _ in build(z, 3)])
        for n in range(3):
            extrap = (tables[0][n] - 6.0 * tables[1][n] + 8.0 * tables[2][n]) / 3.0
            assert abs(extrap - rungs[n]) <= 1e-6 * max(1.0, abs(rungs[n]))


def test_family_critical_angles_and_zero_energy_atoms():
    g = 1.0
    # tan zeta_1 = (g/kappa0) ln(g/kappa0); tan zeta_0 = ln(g/kappa0)/2 - psi(1)
    z1 = coul_critical_zeta(1, g)
    z0 = coul_critical_zeta(0, g)
    assert abs(math.tan(z1) - g * math.log(g)) < 1e-14
    assert abs(math.tan(z0) - (0.5 * math.log(g) + EULER)) < 1e-14
    crit1 = coul_spectrum(
        ProblemSpec(Theory.COULOMB, 1, g, 1.0, ExtensionParam(z1))
    ).discrete
    assert len(crit1) == 1 and crit1[0][0] == 0.0
    crit0 = coul_spectrum(
        ProblemSpec(Theory.COULOMB, 0, g, 1.0, ExtensionParam(z0))
    ).discrete
    assert len(crit0) == 1 and crit0[0][0] == 0.0
    # atom-count flip around the critical angle (m=1 binds below, m=0 above)
    assert (
        coul_spectrum(
            ProblemSpec(Theory.COULOMB, 1, g, 1.0, ExtensionParam(z1 - 0.1))
        ).discrete[0][0]
        < 0
    )
    assert (
        coul_spectrum(
            ProblemSpec(Theory.COULOMB, 1, g, 1.0, ExtensionParam(z1 + 0.1))
        ).discrete
        == ()
    )
    assert (
        coul_spectrum(
            ProblemSpec(Theory.COULOMB, 0, g, 1.0, ExtensionParam(z0 + 0.1))
        ).discrete[0][0]
        < 0
    )
    assert (
        coul_spectrum(
            ProblemSpec(Theory.COULOMB, 0, g, 1.0, ExtensionParam(z0 - 0.1))
        ).discrete
        == ()
    )
    # g = 0 cases: m=1 binds only for zeta < 0; m=0 always binds exactly once
    assert coul_spectrum(
        ProblemSpec(Theory.COULOMB, 1, 0.0, 1.0, ExtensionParam(0.3))
    ).discrete == ()
    assert (
        len(
            coul_spectrum(
                ProblemSpec(Theory.COULOMB, 1, 0.0, 1.0, ExtensionParam(-0.3))
            ).discrete
        )
        == 1
    )
    for z in (-0.9, 0.0, 0.9):
        assert (
            len(
                coul_spectrum(
                    ProblemSpec(Theory.COULOMB, 0, 0.0, 1.0, ExtensionParam(z))
                ).discrete
            )
            == 1
        )


# -----------------------------------------------------------------------------
# 4. Densities: closed forms, positivity, Green-function extrapolation to 1e-6
# -----------------------------------------------------------------------------


def test_density_closed_forms_and_positivity():
    # free oscillator: sigma' = [(p/2k0)^{|m|} / (sqrt(2 k0) |m|!)]^2 on E > 0
    for m in (1, 2, 5):
        spec = ProblemSpec(Theory.OSCILLATOR, m, 0.0)
        for e in (0.5, 2.0, 7.0):
            p = math.sqrt(e)
            exact = ((p / 2.0) ** m / (math.sqrt(2.0) * math.factorial(m))) ** 2
            assert abs(osc_density(spec, e) - exact) <= 1e-14 * exact
        assert osc_density(spec, -1.0) == 0.0
    # free Coulomb m=0 at zeta = pi/2: density is the constant 1/(2 kappa0)
    for k0 in (1.0, 2.0):
        spec = ProblemSpec(Theory.COULOMB, 0, 0.0, k0, ExtensionParam(HALF_PI))
        for e in (0.3, 1.0, 9.0):
            assert abs(coul_density(spec, e) - 0.5 / k0) <= 1e-14
    # coth/tanh cores: lambda < 0 densities strictly positive on all of R
    for m in (1, 2):
        spec = ProblemSpec(Theory.OSCILLATOR, m, -2.0)
        for e in (-8.0, -1.0, 0.0, 1.0, 8.0):
            assert osc_density(spec, e) > 0.0


def test_density_green_extrapolation_ten_energies():
    # (1/pi) Im of the resolvent diagonal at E + i eps, linearly extrapolated
    # in eps, must match the closed-form density to 1e-6
    cases = [
        (ProblemSpec(Theory.OSCILLATOR, 1, -2.0), 1.5, osc_spectral_omega, osc_density),
        (ProblemSpec(Theory.OSCILLATOR, 2, -2.0), -0.5, osc_spectral_omega, osc_density),
        (ProblemSpec(Theory.OSCILLATOR, 1, 0.0), 2.0, osc_spectral_omega, osc_density),
        (
            ProblemSpec(Theory.OSCILLATOR, 0, -2.0, 1.0, ExtensionParam(0.5)),
            1.0,
            osc_spectral_omega,
            osc_density,
        ),
        (
            ProblemSpec(Theory.OSCILLATOR, 0, 0.0, 1.0, ExtensionParam(-0.4)),
            1.3,
            osc_spectral_omega,
            osc_density,
        ),
        (ProblemSpec(Theory.COULOMB, 2, -1.0), 0.9, coul_spectral_omega, coul_density),
        (ProblemSpec(Theory.COULOMB, 3, 1.0), 1.7, coul_spectral_omega, coul_density),
        (
            ProblemSpec(Theory.COULOMB, 1, -1.0, 1.0, ExtensionParam(0.4)),
            1.2,
            coul_spectral_omega,
            coul_density,
        ),
        (
            ProblemSpec(Theory.COULOMB, 0, -1.0, 1.0, ExtensionParam(-0.6)),
            0.8,
            coul_spectral_omega,
            coul_density,
        ),
        (
            ProblemSpec(Theory.COULOMB, 0, 1.0, 1.0, ExtensionParam(HALF_PI)),
            2.5,
            coul_spectral_omega,
            coul_density,
        ),
    ]
    assert len(cases) == 10
    for spec, e, omega_fn, dens_fn in cases:
        dens = dens_fn(spec, e)
        eps = 1e-5
        f1 = omega_fn(spec, complex(e, eps)).imag / math.pi
        f2 = omega_fn(spec, complex(e, eps / 2)).imag / math.pi
        extrap = 2.0 * f2 - f1
        assert abs(extrap - dens) <= 1e-6 * max(1.0, dens), (spec, e)


# -----------------------------------------------------------------------------
# 5. Duality: identities to 1e-8 over >= 100 samples, spectra to 1e-12, < 5 s
# -----------------------------------------------------------------------------


def test_duality_identities_and_spectra(rng):
    t0 = time.perf_counter()
    triples = [
        (
            rng.uniform(0.3, 2.0),
            complex(rng.uniform(-2.0, 2.0), rng.uniform(0.1, 1.5)),
            rng.uniform(-1.5, 1.5),
        )
        for _ in range(100)
    ]
    for m, kinds in ((0, (1, 2, 3)), (1, (1, 3, 4)), (2, (1, 3, 4))):
        for k in kinds:
            assert verify_solution_identity(k, m, triples) <= 1e-8
    pairs = [(e, g) for (_, e, g) in triples]
    for m in (1, 2, 3):
        out = verify_coefficient_identities(m, pairs)
        assert max(out["max_rel"].values()) <= 1e-8
    out0 = verify_coefficient_identities(0, pairs, zeta=0.4)
    assert max(out0["max_rel"].values()) <= 1e-8
    for m in (0, 1, 2, 5):
        zeta = HALF_PI if m == 0 else None
        report = verify_spectrum_correspondence(m, 2.0, 20, zeta=zeta)
        assert report["max_abs_dev"] <= 1e-12 * max(1.0, abs(report["lambda"] / 4.0))
        assert report["pass"]
    assert time.perf_counter() - t0 < 5.0


# -----------------------------------------------------------------------------
# 6. Property suites: Wronskian constancy, orthonormality, real-entireness,
#    free-limit agreement
# -----------------------------------------------------------------------------


def _stencil(f, u, h):
    return (-f(u + 2 * h) + 8 * f(u + h) - 8 * f(u - h) + f(u - 2 * h)) / (12 * h)


def _derivative(f, u, h):
    # Richardson-extrapolated fourth-order stencil (h^6 truncation)
    return (16.0 * _stencil(f, u, h / 2) - _stencil(f, u, h)) / 15.0


def test_wronskian_constancy():
    grid = (0.1, 0.5, 1.0, 2.0, 5.0)
    W, lam = 1.0 + 0.8j, 1.5
    o1 = lambda u: osc_solution("O1", 2, u, W, lam)
    o3 = lambda u: osc_solution("O3", 2, u, W, lam)
    E, g = 0.7 + 0.6j, -1.0
    c1 = lambda x: coul_solution("C1", 2, x, E, g)
    c3 = lambda x: coul_solution("C3", 2, x, E, g)
    for f, gg in ((o1, o3), (c1, c3)):
        vals = []
        for u in grid:
            h = 1e-3 * u
            vals.append(f(u) * _derivative(gg, u, h) - _derivative(f, u, h) * gg(u))
        mean = sum(vals) / len(vals)
        assert max(abs(v - mean) for v in vals) <= 1e-8 * abs(mean)


@pytest.mark.parametrize(
    "build_wave,u_max",
    [
        (lambda n: osc_eigenfunction(ProblemSpec(Theory.OSCILLATOR, 1, 2.0), n), 10.0),
        # the n=4 hydrogen-like orbitals reach out to x ~ 300: the domain must
        # extend to 400 before the tail drops below the 1e-6 budget
        (lambda n: coul_eigenfunction(ProblemSpec(Theory.COULOMB, 2, -1.0), n), 400.0),
        (
            lambda n: coul_eigenfunction(
                ProblemSpec(Theory.COULOMB, 0, -1.0, 1.0, ExtensionParam(HALF_PI)), n
            ),
            400.0,
        ),
    ],
)
def test_orthonormality(build_wave, u_max):
    waves = [build_wave(n) for n in range(5)]
    for i in range(5):
        for j in range(i, 5):
            val, _ = quad(
                lambda u: waves[i](u) * waves[j](u),
                1e-9,
                u_max,
                limit=800,
                epsabs=1e-10,
                epsrel=1e-10,
            )
            target = 1.0 if i == j else 0.0
            assert abs(val - target) <= 1e-6, (i, j, val)


def test_real_entire_solutions_on_real_energy(rng):
    for _ in range(20):
        u = rng.uniform(0.2, 3.0)
        W = rng.uniform(-3.0, 3.0)
        lam = rng.choice((1.2, -1.2))
        g = rng.choice((-1.0, 0.7))
        for kind, m in (("O1", 1), ("O1", 0), ("O4", 2)):
            v = osc_solution(kind, m, u, W, lam)
            assert abs(v.imag) <= 1e-12 * max(1.0, abs(v))
        for kind, m in (("C1", 1), ("C1", 0), ("C4", 2)):
            v = coul_solution(kind, m, u, W, g)
            assert abs(v.imag) <= 1e-12 * max(1.0, abs(v))


def test_free_limit_agreement():
    # lambda = +-1e-6 within 1e-4 of the lambda = 0 closed forms
    for m in (0, 1, 2):
        for u in (0.5, 1.5, 3.0):
            base = osc_solution("O1", m, u, 1.7, 0.0)
            for lam in (1e-6, -1e-6):
                v = osc_solution("O1", m, u, 1.7, lam)
                assert abs(v - base) <= 1e-4 * max(1.0, abs(base))
    for m in (1, 2):
        free = ProblemSpec(Theory.OSCILLATOR, m, 0.0)
        near = ProblemSpec(Theory.OSCILLATOR, m, -1e-6)
        for e in (0.5, 2.0):
            d0 = osc_density(free, e)
            assert abs(osc_density(near, e) - d0) <= 1e-4 * max(1.0, d0)


# -----------------------------------------------------------------------------
# 7. Special functions: recurrences, Kummer transformation, Bessel Wronskian
#    at 1e-10; integer-b Tricomi against the regularized oracle at 1e-6
# -----------------------------------------------------------------------------


def _rand_z(rng, scale):
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def test_recurrence_suites(rng):
    for _ in range(50):
        z = _rand_z(rng, 5.0)
        if abs(z) < 0.2 or sf._nonpositive_int(z) is not None:
            continue
        # digamma: psi(z + 1) = psi(z) + 1/z
        assert abs(sf.digamma(z + 1) - sf.digamma(z) - 1.0 / z) <= 1e-10 * max(
            1.0, abs(sf.digamma(z))
        )
    for _ in range(50):
        # Kummer contiguous relation in a:
        # (b - a) M(a-1) + (2a - b + z) M(a) - a M(a+1) = 0
        a = _rand_z(rng, 2.0)
        b = complex(rng.uniform(0.5, 3.0), rng.uniform(-0.5, 0.5))
        z = _rand_z(rng, 4.0)
        lhs = (
            (b - a) * sf.kummer_m(a - 1, b, z)
            + (2 * a - b + z) * sf.kummer_m(a, b, z)
            - a * sf.kummer_m(a + 1, b, z)
        )
        scale = max(1.0, abs(sf.kummer_m(a, b, z)))
        assert abs(lhs) <= 1e-10 * scale
    for _ in range(50):
        # Bessel: J_{n-1}(z) + J_{n+1}(z) = (2n/z) J_n(z)
        n = rng.randrange(1, 5)
        z = complex(rng.uniform(0.3, 8.0), rng.uniform(-2.0, 2.0))
        lhs = sf.bessel("J", n - 1, z) + sf.bessel("J", n + 1, z)
        rhs = (2.0 * n / z) * sf.bessel("J", n, z)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_kummer_transformation_acceptance(rng):
    for _ in range(60):
        a = _rand_z(rng, 3.0)
        b = complex(rng.uniform(0.5, 4.0), rng.uniform(-1.0, 1.0))
        z = _rand_z(rng, 8.0)
        lhs = sf.kummer_m(a, b, z)
        rhs = cmath.exp(z) * sf.kummer_m(b - a, b, -z)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_bessel_wronskian_acceptance(rng):
    # J_n(z) Y_n'(z) - J_n'(z) Y_n(z) = 2 / (pi z), derivatives by recurrence
    for _ in range(40):
        n = rng.randrange(0, 4)
        z = complex(rng.uniform(0.3, 9.0), rng.uniform(-2.0, 2.0))
        jn = sf.bessel("J", n, z)
        yn = (sf.bessel("H1", n, z) - jn) / 1j
        jp = sf.bessel("J", n - 1, z) - (n / z) * jn if n >= 1 else -sf.bessel("J", 1, z)
        hp = (
            sf.bessel("H1", n - 1, z) - (n / z) * sf.bessel("H1", n, z)
            if n >= 1
            else -sf.bessel("H1", 1, z)
        )
        yp = (hp - jp) / 1j
        wr = jn * yp - jp * yn
        assert abs(wr - 2.0 / (math.pi * z)) <= 1e-10 * max(1.0, abs(2.0 / (math.pi * z)))


def test_tricomi_integer_b_regularized_oracle(rng):
    # Psi at integer b against the delta = 1e-6 regularization of the
    # two-term reflection formula, averaged over +-delta to kill the O(delta)
    # term; agreement to 1e-6
    # the two reflection terms are ~1/delta each, so in double precision the
    # cancellation roundoff alone is ~1e-6; the oracle is therefore evaluated
    # in 40-digit arithmetic
    import mpmath as mp

    mp.mp.dps = 40

    def psi_reg(a, b, z):
        a, z = mp.mpc(a), mp.mpc(z)
        g1 = mp.gamma(b - 1) / mp.gamma(a)
        g2 = mp.gamma(1 - b) / mp.gamma(a - b + 1)
        val = g2 * mp.hyp1f1(a, b, z) + g1 * z ** (1 - b) * mp.hyp1f1(
            a - b + 1, 2 - b, z
        )
        return complex(val)

    delta = 1e-6
    for _ in range(20):
        b = float(rng.randrange(1, 4))
        a = complex(rng.uniform(0.3, 2.5), rng.uniform(-1.0, 1.0))
        z = complex(rng.uniform(0.4, 6.0), rng.uniform(-2.0, 2.0))
        exact = sf.tricomi_u(a, b, z)
        approx = 0.5 * (psi_reg(a, b + delta, z) + psi_reg(a, b - delta, z))
        assert abs(exact - approx) <= 1e-6 * max(1.0, abs(exact))
