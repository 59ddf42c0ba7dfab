"""Oscillator <-> Coulomb correspondence.

The change of variables u = sqrt(x/kappa0) with the parameter swap
W = -4 kappa0 g, lambda = -4 kappa0^2 E identifies the two radial problems.
This module provides the maps and batch verifiers for the pointwise solution
identities, the coefficient identities, and the spectrum correspondence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from . import specfun as sf
from .core import (
    ExtensionParam,
    ProblemSpec,
    Theory,
    ValidationError,
    as_energy,
)
from .coulomb import (
    coul_coefficients,
    coul_family_function,
    coul_level,
    coul_parameters,
    coul_solution,
)
from .oscillator import (
    osc_coefficients,
    osc_family_function,
    osc_solution,
    osc_spectrum,
)

__all__ = [
    "DualityMap",
    "coulomb_to_oscillator",
    "oscillator_to_coulomb",
    "verify_solution_identity",
    "verify_coefficient_identities",
    "verify_spectrum_correspondence",
]

_KIND_PAIRS = {1: ("C1", "O1"), 2: ("C2_0", "O2_0"), 3: ("C3", "O3"), 4: ("C4", "O4")}
# |m| >= 1 coefficient samples with alpha this close to a pole are excluded
_POLE_RADIUS = 1e-3


@dataclass(frozen=True)
class DualityMap:
    """Coordinate/parameter correspondence at a fixed scale kappa0."""

    kappa0: float = 1.0

    def __post_init__(self) -> None:
        if not (self.kappa0 > 0 and math.isfinite(self.kappa0)):
            raise ValidationError("kappa0 must be a positive finite number")

    def forward(self, x: float, energy: complex, g: float):
        """Coulomb (x, E, g) -> oscillator (u, W, lambda)."""
        if x <= 0:
            raise ValidationError("x must be positive")
        k0 = self.kappa0
        return math.sqrt(x / k0), -4.0 * k0 * g, -4.0 * k0 * k0 * energy

    def backward(self, u: float, W: complex, lam: complex):
        """Oscillator (u, W, lambda) -> Coulomb (x, E, g)."""
        if u <= 0:
            raise ValidationError("u must be positive")
        k0 = self.kappa0
        return k0 * u * u, -lam / (4.0 * k0 * k0), -W / (4.0 * k0)


def coulomb_to_oscillator(x: float, energy: complex, g: float, kappa0: float = 1.0):
    return DualityMap(kappa0).forward(x, energy, g)


def oscillator_to_coulomb(u: float, W: complex, lam: complex, kappa0: float = 1.0):
    return DualityMap(kappa0).backward(u, W, lam)


def verify_solution_identity(
    k: int,
    m: int,
    samples: Iterable[tuple[float, complex, float]],
    kappa0: float = 1.0,
) -> float:
    """Max relative deviation of C_k(x; E) = (kappa0 u)^{1/2} O_k(u; W)
    over samples of (x, E, g). The 0-channel (m = 0) admits k in {1, 2, 3};
    |m| >= 1 admits k in {1, 3, 4}."""
    if k not in _KIND_PAIRS:
        raise ValidationError("k must be one of {1, 2, 3, 4}")
    if m == 0 and k == 4:
        raise ValidationError("the fourth solution does not exist for m = 0")
    if m != 0 and k == 2:
        raise ValidationError("the logarithmic channel k=2 exists only for m = 0")
    worst = 0.0
    for x, energy, g in samples:
        u, w, lam = coulomb_to_oscillator(x, energy, g, kappa0)
        c_val = coul_solution(_KIND_PAIRS[k][0], m, x, energy, g, kappa0)
        o_val = osc_solution(_KIND_PAIRS[k][1], m, u, as_energy(w), lam, kappa0)
        scale = max(1.0, abs(c_val))
        worst = max(worst, abs(c_val - math.sqrt(kappa0 * u) * o_val) / scale)
    return worst


def verify_coefficient_identities(
    m: int,
    samples: Iterable[tuple[complex, float]],
    kappa0: float = 1.0,
    zeta: float | None = None,
) -> dict:
    """Check the coefficient identities over samples of (E, g):
    |m| >= 1: omega_O = 2 omega_C, B_O = B_C, Omega_C = 2 Omega_O;
    m = 0: omega_{C0} = omega_{O0} and, given zeta, omega_{C,zeta} = omega_{O,zeta}."""
    excluded: list[int] = []
    if m == 0:
        max_omega0 = 0.0
        max_omega_zeta = 0.0
        used = 0
        for i, (energy, g) in enumerate(samples):
            _, w, lam = coulomb_to_oscillator(1.0, energy, g, kappa0)
            try:
                om_c = 2.0 * coul_family_function(0, energy, g, kappa0)
                om_o = 2.0 * osc_family_function(w, lam, kappa0)
            except (sf.PoleError, ValidationError):
                excluded.append(i)
                continue
            used += 1
            dev = abs(om_c - om_o) / max(1.0, abs(om_c))
            max_omega0 = max(max_omega0, dev)
            if zeta is not None:
                c, s = math.cos(zeta), math.sin(zeta)
                wc = 0.5 * om_c * c + s
                wo = 0.5 * om_o * c + s
                max_omega_zeta = max(
                    max_omega_zeta, abs(wc - wo) / max(1.0, abs(wc))
                )
        out = {"samples": used, "excluded": excluded, "max_rel": {"omega0": max_omega0}}
        if zeta is not None:
            out["max_rel"]["omega_zeta"] = max_omega_zeta
        return out
    max_dev = {"omega": 0.0, "B": 0.0, "Omega": 0.0}
    used = 0
    for i, (energy, g) in enumerate(samples):
        _, w, lam = coulomb_to_oscillator(1.0, energy, g, kappa0)
        try:
            a_c, b_c, c_c, om_c = coul_coefficients(m, energy, g, kappa0)
            a_o, b_o, c_o, om_o = osc_coefficients(m, as_energy(w), lam, kappa0)
            omega_c, omega_o = b_c / om_c, b_o / om_o
        except (sf.PoleError, ValidationError):
            excluded.append(i)
            continue
        # exclude alpha within _POLE_RADIUS of a nonpositive integer: both
        # sides blow up identically and relative comparison loses all digits
        alpha = coul_parameters(m, energy, g).alpha
        near = round(alpha.real)
        if near <= 0 and abs(alpha - near) < _POLE_RADIUS:
            excluded.append(i)
            continue
        used += 1
        max_dev["omega"] = max(
            max_dev["omega"], abs(om_o - 2.0 * om_c) / max(1.0, abs(om_o))
        )
        max_dev["B"] = max(max_dev["B"], abs(b_o - b_c) / max(1.0, abs(b_c)))
        max_dev["Omega"] = max(
            max_dev["Omega"], abs(omega_c - 2.0 * omega_o) / max(1.0, abs(omega_c))
        )
    return {"samples": used, "excluded": excluded, "max_rel": max_dev}


def verify_spectrum_correspondence(
    m: int, lam: float, n_max: int, kappa0: float = 1.0, zeta: float | None = None
) -> dict:
    """Each oscillator level E_n at coupling lambda > 0 must reappear as the
    n-th bound state of the dual Coulomb problem (g = -E_n/4 kappa0) exactly
    at E = -lambda/4 kappa0^2.  Each Coulomb level is solved for on its own,
    so n_max + 1 levels cost O(n_max) Coulomb atoms."""
    if lam <= 0:
        raise ValidationError("spectrum correspondence needs lambda > 0")
    if n_max < 0:
        raise ValidationError("n_max must be >= 0")
    if m == 0:
        # the angle snaps to pi/2 as everywhere else (ExtensionParam.is_half_pi)
        if zeta is None or not ExtensionParam(zeta).is_half_pi:
            raise ValidationError(
                "m = 0 correspondence is one-to-one only at zeta = pi/2 on both sides"
            )
        spec_o = ProblemSpec(Theory.OSCILLATOR, 0, lam, kappa0, ExtensionParam(zeta))
    else:
        spec_o = ProblemSpec(Theory.OSCILLATOR, m, lam, kappa0)
    osc_levels = osc_spectrum(spec_o, levels=n_max + 1).discrete
    target = -lam / (4.0 * kappa0 * kappa0)
    deviations = []
    for n_idx, (e_n, _) in enumerate(osc_levels):
        g = -e_n / (4.0 * kappa0)
        if abs(m) <= 1:
            # the Coulomb family cells correspond at the pure-power member
            spec_c = ProblemSpec(
                Theory.COULOMB, m, g, kappa0, ExtensionParam(math.pi / 2)
            )
        else:
            spec_c = ProblemSpec(Theory.COULOMB, m, g, kappa0)
        deviations.append(abs(coul_level(spec_c, n_idx)[0] - target))
    max_dev = max(deviations)
    return {
        "m": m,
        "lambda": lam,
        "n_max": n_max,
        "max_abs_dev": max_dev,
        "pass": max_dev <= 1e-12 * max(1.0, abs(target)),
    }
