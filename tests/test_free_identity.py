"""The lambda = 0 oscillator is the g = 0 Coulomb problem.

At lambda = 0 the oscillator's -phi'' + (m^2 - 1/4) u^-2 phi = W phi is the
Coulomb equation at g = 0 with angular number 2m, x = u and E = W.  The
oscillator side is summed from Bessel functions and the Coulomb side from
the confluent kernel at b = 2m + 1, so each identity below checks that
kernel against an exact path.  The m = 0 families meet at tan(zeta_C) =
tan(zeta_O) / 2: the boundary conditions weigh the logarithm by 1 and 1/2.
"""

import math

import pytest

from radialspec import ExtensionParam, ProblemSpec, Theory
from radialspec import coul_density, coul_green, coul_spectrum
from radialspec import osc_density, osc_green, osc_spectrum

KAPPAS = (0.7, 1.0, 1.3)


def _pair(m: int, kappa0: float, zeta_o: float = 0.3):
    """(oscillator spec at lambda = 0, its Coulomb twin at g = 0)."""
    if m == 0:
        zeta_c = math.atan(math.tan(zeta_o) / 2.0)
        return (ProblemSpec(Theory.OSCILLATOR, 0, 0.0, kappa0, ExtensionParam(zeta_o)),
                ProblemSpec(Theory.COULOMB, 0, 0.0, kappa0, ExtensionParam(zeta_c)))
    return (ProblemSpec(Theory.OSCILLATOR, m, 0.0, kappa0),
            ProblemSpec(Theory.COULOMB, 2 * m, 0.0, kappa0))


@pytest.mark.parametrize("kappa0", KAPPAS)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_unique_densities_are_equal(m, kappa0):
    osc, coul = _pair(m, kappa0)
    for energy in (0.1, 1.0, 7.0, 30.0):
        assert osc_density(osc, energy) == pytest.approx(coul_density(coul, energy), rel=1e-14)


@pytest.mark.parametrize("kappa0", KAPPAS)
@pytest.mark.parametrize("zeta_o", [0.3, -0.8, 1.2])
def test_m0_family_levels_are_equal(zeta_o, kappa0):
    osc, coul = _pair(0, kappa0, zeta_o)
    osc_levels = [e for e, _ in osc_spectrum(osc, 3).discrete]
    coul_levels = [e for e, _ in coul_spectrum(coul, 3).discrete]
    assert len(osc_levels) == len(coul_levels) == 1
    assert osc_levels[0] == pytest.approx(coul_levels[0], rel=1e-14)


# small |z| = 2 |K| x, where the Coulomb confluent path is accurate
GREEN_POINTS = [(0.3, 1.2, 0.7 + 1j), (1.0, 2.5, -2 + 0.5j), (2.0, 3.0, 3 + 0.2j),
                (0.2, 0.9, -10 + 3j), (0.4, 1.3, 20 + 2j)]


def _green_mismatch(m, kappa0, u, v, energy):
    osc, coul = _pair(m, kappa0)
    g_osc = osc_green(osc, u, v, energy)
    return abs(g_osc - coul_green(coul, u, v, energy)) / abs(g_osc)


@pytest.mark.parametrize("kappa0", [0.7, 1.0])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_green_functions_are_equal(m, kappa0):
    for u, v, energy in GREEN_POINTS:
        assert _green_mismatch(m, kappa0, u, v, energy) <= 1e-11


# the Coulomb confluent path loses digits at large |z| (ROADMAP item 2)
_LOSES_DIGITS = pytest.mark.xfail(strict=True, reason="confluent kernel at large |z|")


@pytest.mark.parametrize(
    # measured mismatch: 4.7e-7, 1.6e-14 (m = 1); 2.9e21, 1.8e94 (m = 0)
    "m, u, v, energy",
    [pytest.param(1, 2.0, 7.0, 40 + 0.5j, marks=_LOSES_DIGITS),
     (1, 3.0, 9.0, 150 + 1j),
     pytest.param(0, 2.0, 7.0, 40 + 0.5j, marks=_LOSES_DIGITS),
     pytest.param(0, 3.0, 9.0, 150 + 1j, marks=_LOSES_DIGITS)],
)
def test_green_functions_at_large_z(m, u, v, energy):
    assert _green_mismatch(m, 1.0, u, v, energy) <= 1e-11
