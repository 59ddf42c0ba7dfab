"""Assembly shared by both radial operators, which are one confluent problem
in (alpha, beta = 1 + |m|, z): solution closures, family roots, spectral
measures, eigenfunctions and family Green functions.  Each theory passes in
its own parameter map, radius powers and weights; this module imports
neither theory, so the duality checks compare two independent maps.
"""

from __future__ import annotations

import cmath
import math

from . import specfun as sf
from .core import SpectralMeasure, ValidationError, brentq, classify


def series_solution(series, alpha: complex, beta: int, z_of, power: float, kappa0: float):
    """r -> (kappa0 r)^power e^{-z/2} series(alpha, beta; z(r)): C1/C3 and
    O1/O3 with series = kummer_m / tricomi_u."""

    def solution(r: float) -> complex:
        z = z_of(r)
        return (kappa0 * r) ** power * cmath.exp(-0.5 * z) * series(alpha, beta, z)

    return solution


def m0_pair(alpha: complex, z_of, log_weight: float, kappa0: float):
    """r -> (C1, C2_0) or (O1, O2_0) from one series pass: the parameter
    derivative carries Phi along; O2_0 adds ln(kappa0 r) O1, C2_0 half that."""

    def pair(r: float) -> tuple[complex, complex]:
        z = z_of(r)
        pre = (kappa0 * r) ** 0.5 * cmath.exp(-0.5 * z)
        phi, dphi = sf.kummer_m_with_param_derivative(alpha, 1.0, z, 0.5, 1.0)
        first = pre * phi
        return first, pre * dphi + first * (log_weight * math.log(kappa0 * r))

    return pair


def log_pair(
    alpha: complex, n: int, z_of, low: float, high: float, log_scale: float, rest, kappa0: float
):
    """r -> (C1, C4) or (O1, O4) at |m| = n >= 1 from one log-channel pass:
    e^{-z/2} ((kappa0 r)^high Phi, (kappa0 r)^low P - rest (kappa0 r)^high L),
    where L carries log_scale ln(kappa0 r)."""

    def pair(r: float) -> tuple[complex, complex]:
        z = z_of(r)
        pre = cmath.exp(-0.5 * z)
        phi, p, log_part = sf.kummer_log_channel(alpha, n, z, log_scale * math.log(kappa0 * r))
        high_r = (kappa0 * r) ** high
        return high_r * pre * phi, pre * ((kappa0 * r) ** low * p - rest * high_r * log_part)

    return pair


def family_root(h, lo: float, hi: float, xtol: float, span: float | None = None) -> float:
    """Root of h in [lo, hi]; with `span`, lo first steps down by a doubling
    span until h(lo) < 0."""
    if span is not None:
        for _ in range(300):
            if h(lo) < 0:
                break
            lo -= span
            span *= 2.0
        else:
            raise ValidationError("failed to bracket the family level")
    return brentq(h, lo, hi, xtol=xtol, rtol=8.9e-16, maxiter=200)


def measure(levels, continuum, spec, count: int) -> SpectralMeasure:
    """Spectral measure of spec's cell with `count` atoms of an infinite ladder:
    levels(spec, cell) -> (number of atoms or None, k -> (E_k, Q_k^2)) and
    continuum(spec, cell) -> (density, support)."""
    cell = classify(spec)
    density, support = continuum(spec, cell)
    n, atom = levels(spec, cell)
    # tuple() of a list, not of a generator: the generator form leaves tuples
    # of its intermediate sizes in CPython's free lists and raises peak memory
    atoms = tuple([atom(k) for k in range(count if n is None else n)])
    return SpectralMeasure(atoms, density, support)


def eigen_amplitude(levels, continuum, spec, cell, which: int | float):
    """(energy, amplitude, bound): an int selects a discrete level, whose one
    root is solved for, a float an energy of the continuum."""
    if isinstance(which, int) and not isinstance(which, bool):
        if which < 0:
            raise ValidationError("level index must be >= 0")
        count, atom = levels(spec, cell)
        if count is not None and which >= count:
            raise ValidationError(f"cell has no discrete level with index {which}")
        energy, weight = atom(which)
        return energy, math.sqrt(weight), True
    energy = float(which)
    dens = SpectralMeasure((), *continuum(spec, cell)).density_at(energy)
    if dens <= 0:
        raise ValidationError(f"E={energy} is not in the continuous spectrum")
    return energy, math.sqrt(dens), False


def family_wave(pair, zeta: float, amp: float, decaying=None, switch: float = 0.0):
    """r -> amp (sin(zeta) first + cos(zeta) second) from pair(r), |zeta| < pi/2.
    For a bound state that sum cancels catastrophically beyond `switch`, so
    the wave continues there with the decaying solution, matched at switch."""
    c, s = math.cos(zeta), math.sin(zeta)

    def direct(r: float) -> complex:
        first, second = pair(r)
        return first * s + second * c

    if decaying is None:
        return lambda r: (amp * direct(r)).real
    tail = decaying(switch)
    if tail == 0:  # a deep level's decaying solution underflows at the switch
        raise sf.AccuracyError(
            math.inf, sf.SeriesControl().rel_tol,
            f"bound wave at the switch radius r = {switch:.6g} (decaying solution 0 there)",
        )
    ratio = direct(switch) / tail

    def ev(r: float) -> float:
        if r < switch:
            return (amp * direct(r)).real
        return (amp * ratio * decaying(r)).real

    return ev


def family_green(pair, omega: complex, zeta: float, weight: float, hi: float, lo: float) -> complex:
    """omega u(hi) u(lo) + weight u~(hi) u(lo), hi >= lo, for the rotated pair
    u = sin(zeta) first + cos(zeta) second, u~ = cos(zeta) first - sin(zeta) second."""
    c, s = math.cos(zeta), math.sin(zeta)
    (h1, h2), (l1, l2) = pair(hi), pair(lo)
    u_hi, u_lo = h1 * s + h2 * c, l1 * s + l2 * c
    return omega * (u_hi * u_lo) + weight * ((h1 * c - h2 * s) * u_lo)
