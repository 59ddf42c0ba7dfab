#!/usr/bin/env python3
"""Cross-check closed-form spectra against independent numerical solvers.

The closed-form bound levels come from explicit ladder formulas (or root
equations for the extension families).  Two independent oracles confirm them:
a finite-volume discretization of the radial operator (a symmetric
tridiagonal pencil), and a shooting method that carries the decaying solution
inwards and matches it against the Frobenius series near the origin by a
normalised Wronskian.  Neither oracle knows anything about the closed forms.
"""

import math

from radialspec import (
    ExtensionParam,
    GridSpec,
    ProblemSpec,
    Theory,
    compare_spectra,
    coul_spectrum,
    fd_eigenvalues,
    osc_spectrum,
    shoot_eigenvalue,
)


def _staggered(u_max: float, points: int) -> GridSpec:
    h = u_max / (points - 0.5)
    return GridSpec(h / 2.0, u_max, points)


def crosscheck_fd(title, spec, spectrum_fn, grid, count):
    closed = spectrum_fn(spec, levels=count)
    oracle = fd_eigenvalues(spec, grid, count)
    report = compare_spectra(closed, oracle, tol=1e-3)
    print(title)
    print(f"  {'n':>2} | {'closed form':>16} | {'finite diff':>16} | rel dev")
    for row in report["levels"]:
        print(
            f"  {row['n']:>2} | {row['closed']:16.10f} | {row['oracle']:16.10f}"
            f" | {row['rel_dev']:.2e}"
        )
    print(f"  overall pass at tol 1e-3: {report['pass']}")
    print()


def crosscheck_shooting():
    print("Shooting oracle on extension-family members:")
    cases = [
        (
            "oscillator m=0, lambda=2, zeta=0.7",
            ProblemSpec(Theory.OSCILLATOR, 0, 2.0, 1.0, ExtensionParam(0.7)),
            osc_spectrum,
        ),
        (
            "Coulomb m=1, g=-1, zeta=0.4",
            ProblemSpec(Theory.COULOMB, 1, -1.0, 1.0, ExtensionParam(0.4)),
            coul_spectrum,
        ),
    ]
    for label, spec, spectrum_fn in cases:
        closed = spectrum_fn(spec, levels=1).discrete[0][0]
        bracket = (closed - 0.1 * abs(closed), closed + 0.1 * abs(closed))
        shot = shoot_eigenvalue(spec, bracket)
        rel = abs(shot - closed) / max(1.0, abs(closed))
        print(f"  {label}:")
        print(f"    closed {closed:.10f}   shot {shot:.10f}   rel dev {rel:.2e}")
    print()


def main() -> None:
    crosscheck_fd(
        "Oscillator, m = 1, lambda = 1 (unique extension, ladder 2 sqrt(lam)(2+2n)):",
        ProblemSpec(Theory.OSCILLATOR, 1, 1.0),
        osc_spectrum,
        _staggered(9.0, 3000),
        3,
    )
    crosscheck_fd(
        "Coulomb, m = 2, g = -1 (unique extension, ladder -g^2/(3+2n)^2):",
        ProblemSpec(Theory.COULOMB, 2, -1.0),
        coul_spectrum,
        _staggered(70.0, 5000),
        2,
    )
    crosscheck_fd(
        "Oscillator, m = 0, zeta = pi/2 (distinguished family member):",
        ProblemSpec(Theory.OSCILLATOR, 0, 1.0, 1.0, ExtensionParam(math.pi / 2)),
        osc_spectrum,
        _staggered(9.0, 3000),
        3,
    )
    crosscheck_shooting()


if __name__ == "__main__":
    main()
