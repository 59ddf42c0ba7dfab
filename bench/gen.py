"""Seeded input generator for the benchmark workloads.

Every workload is an endless stream of tasks drawn from one ``Stream``
(``random.Random`` plus low-discrepancy draws) seeded by (workload, seed),
so the same seed always gives the same inputs.  The kinds of task and the
regime cells follow a fixed cycle (a stratified design: every cycle visits
every cell it lists), while the continuous parameters inside each stratum
are drawn from the physics domain:

* real rho with alpha down to -levels (Coulomb levels 0-30, oscillator
  levels 0-7),
* purely imaginary z for the Coulomb continuum (E > 0, z = -2i sqrt(E) x),
* complex energies for Green functions,
* zeta over (-pi/2, pi/2], with zeta = pi/2 drawn exactly a quarter of the
  time.

Every workload keeps to the part of that domain where radialspec meets the
tolerances of ``check.py``, so that a run with any failed task is a wrong
run.  The regions left out are known accuracy defects; ``KNOWN_DEFECTS``
names them, and a fix that widens the accurate domain should widen these
draws with it.

This module imports nothing from radialspec: a task is plain data.
"""

from __future__ import annotations

import math
import random
from itertools import count, islice

HALF_PI = math.pi / 2
UMIN, UMAX, RADII = 0.01, 10.0, 200  # CLI wavefunction defaults, 200 radii
DENSITY_POINTS = 200
GREEN_POINTS = 50

# regime cells, named as in radialspec.core.RegimeClass
CELLS = (
    "OSC_M_POS_LAMBDA_POS",
    "OSC_M_POS_LAMBDA_NEG",
    "OSC_M_POS_LAMBDA_ZERO",
    "OSC_M0_LAMBDA_POS",
    "OSC_M0_LAMBDA_NEG",
    "OSC_M0_LAMBDA_ZERO",
    "COUL_UNIQUE",
    "COUL_M1_FAMILY",
    "COUL_M0_FAMILY",
)

WORKLOADS = ("grid", "spectra", "oracle", "cli")

# regions of the physics domain that the workloads leave out, because
# radialspec returns values outside the tolerances of check.py there or
# raises an error it should not raise
KNOWN_DEFECTS = (
    "grid: oscillator lambda < 0 continuum (both cells) and the m = 0 "
    "lambda > 0 family eigenfunctions: log companion and parameter "
    "derivative lose all digits",
    "grid: oscillator lambda > 0 levels above 7 (series cancellation) and "
    "bound states past 1.2 classical turning points (tail cancellation)",
    "grid: Coulomb continuum with |z| = 2 sqrt(E) x above ~16, and the "
    "repulsive (g > 0) continuum under the barrier x < g / E",
    "grid: Green rows of the family cells, of lambda != 0 oscillator cells, "
    "and at |E| > 0.5 for Coulomb (integer-b tricomi_u, large |a|)",
    "grid: duality sweeps with |z| above ~10 (integer-b tricomi_u), and "
    "k = 2, 4 at Coulomb bound-state energies (ZeroDivisionError)",
    "spectra: zeta within 0.03 of +-pi/2 other than pi/2 itself "
    "(OverflowError or ValidationError from bracketing)",
    "spectra: Coulomb couplings |g| < 0.25, whose high family levels lie "
    "below |E| ~ 1e-7, under the root finder's absolute tolerance",
    "oracle: FD in log-mixed channels (no convergence to the closed form) "
    "and FD of the |m| >= 1 oscillator (Richardson estimate not tight)",
)
ZETA_GAP = 0.03


def linspace(a: float, b: float, n: int) -> list[float]:
    step = (b - a) / (n - 1)
    return [a + k * step for k in range(n)]


class Stream(random.Random):
    """random.Random plus low-discrepancy draws: successive ``spread(name)``
    values of one parameter cover [0, 1) evenly (golden-ratio sequence from
    a seeded offset), so rare corners such as zeta near +-pi/2 come up at
    the same rate for every seed instead of by chance."""

    def __init__(self, seed) -> None:
        super().__init__(seed)
        self._state: dict[str, float] = {}

    def spread(self, name: str) -> float:
        u = self._state.get(name)
        u = self.random() if u is None else (u + 0.6180339887498949) % 1.0
        self._state[name] = u
        return u


def _loguniform(rng: Stream, lo: float, hi: float, name: str = "") -> float:
    u = rng.spread(name) if name else rng.random()
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _zeta(rng: Stream) -> float:
    """zeta in (-pi/2, pi/2]; exactly pi/2 for a quarter of the draws, the
    rest at least ZETA_GAP away from +-pi/2."""
    u = rng.spread("zeta")
    if u < 0.25:
        return HALF_PI
    return -HALF_PI + ZETA_GAP + (1.0 - (u - 0.25) / 0.75) * (math.pi - 2 * ZETA_GAP)


def draw_spec(rng: Stream, cell: str, attractive: bool = False) -> dict:
    """A spec in `cell`; `attractive` forces g < 0 for Coulomb level ladders.
    The scale kappa0 is drawn too, so no two draws share a spec."""
    kappa0 = _loguniform(rng, 0.5, 2.0, "kappa0")

    def _spec(theory, m, coupling, zeta=None):
        return {"theory": theory, "m": m, "coupling": coupling, "kappa0": kappa0, "zeta": zeta}

    sign = rng.choice((-1, 1))
    lam = _loguniform(rng, 0.25, 4.0, "lambda")
    if cell == "OSC_M_POS_LAMBDA_POS":
        return _spec("osc", sign * rng.randint(1, 3), lam)
    if cell == "OSC_M_POS_LAMBDA_NEG":
        return _spec("osc", sign * rng.randint(1, 3), -lam)
    if cell == "OSC_M_POS_LAMBDA_ZERO":
        return _spec("osc", sign * rng.randint(1, 3), 0.0)
    if cell == "OSC_M0_LAMBDA_POS":
        return _spec("osc", 0, lam, _zeta(rng))
    if cell == "OSC_M0_LAMBDA_NEG":
        return _spec("osc", 0, -lam, _zeta(rng))
    if cell == "OSC_M0_LAMBDA_ZERO":
        return _spec("osc", 0, 0.0, _zeta(rng))
    g = _loguniform(rng, 0.25, 2.0, "g")
    g = -g if attractive or rng.random() < 0.5 else g
    if cell == "COUL_UNIQUE":
        return _spec("coul", sign * rng.randint(2, 4), g)
    if cell == "COUL_M1_FAMILY":
        return _spec("coul", sign, g, _zeta(rng))
    if cell == "COUL_M0_FAMILY":
        return _spec("coul", 0, g, _zeta(rng))
    raise ValueError(f"unknown cell {cell!r}")


def _energy_range(cell: str) -> tuple[float, float]:
    """Continuum energies of the cell: R for lambda < 0, R+ otherwise."""
    if cell in ("OSC_M_POS_LAMBDA_NEG", "OSC_M0_LAMBDA_NEG"):
        return (-15.0, 15.0)
    if cell.startswith("OSC"):
        return (0.1, 20.0)
    return (0.02, 0.5)  # Coulomb: z = -2i sqrt(E) x stays within 14.2i for x <= 10


def _pick(rng: Stream, n: int, k: int) -> list[int]:
    return sorted(rng.sample(range(n), k))


def _stratified(rng: Stream, lo: float, hi: float, k: int) -> list[float]:
    w = (hi - lo) / k
    return [lo + (i + rng.random()) * w for i in range(k)]


def eigen_radii(spec: dict, energy: float, bound: bool) -> list[float]:
    """An eigenfunction task's RADII radii: UMIN to UMAX, or for a bound state
    whose TAIL_TURNS classical turning points are nearer than UMAX, the same
    grid scaled down to end there (deep family levels end far below UMIN)."""
    scale = 1.0
    if bound:
        if spec["theory"] == "osc":
            turn = math.sqrt(energy / spec["coupling"])  # lambda u^2 = E
        else:
            turn = spec["coupling"] / energy  # g / x = E
        scale = min(1.0, TAIL_TURNS * turn / UMAX)
    return [u * scale for u in linspace(UMIN, UMAX, RADII)]


# --- grid ---------------------------------------------------------------------

# (cell, sweep kind, with a Green row); each sweep is four eigenfunction
# tasks on one spec
GRID_SWEEPS = (
    ("OSC_M_POS_LAMBDA_POS", "levels", False),
    ("OSC_M_POS_LAMBDA_ZERO", "energies", True),
    ("OSC_M0_LAMBDA_ZERO", "energies", False),
    ("COUL_UNIQUE", "levels", True),
    ("COUL_UNIQUE", "energies", True),
    ("COUL_M1_FAMILY", "levels", False),
    ("COUL_M1_FAMILY", "energies", False),
    ("COUL_M0_FAMILY", "levels", False),
    ("COUL_M0_FAMILY", "energies", False),
)
TAIL_TURNS = 1.2
LEVEL_BANDS = {"osc": ((0, 1), (2, 3), (4, 5), (6, 7)),
               "coul": ((0, 7), (8, 15), (16, 23), (24, 30))}


def _green_energy(rng: Stream, theory: str) -> list[float]:
    if theory == "osc":
        return [rng.uniform(1.0, 40.0), rng.uniform(0.5, 5.0)]
    r = _loguniform(rng, 0.005, 0.5)
    th = rng.uniform(0.05, math.pi - 0.05)
    return [r * math.cos(th), r * math.sin(th)]


def _duality_samples(rng: Stream, n: int, ladder_m: int | None = None,
                     x_max: float = 2.5) -> list[list[float]]:
    """(x, Re E, Im E, g) spanning both half-planes; with `ladder_m` given,
    every fourth sample sits on the Coulomb bound-state ladder
    E = -g^2/(1+|m|+2j)^2, where the decaying solution terminates."""
    out = []
    for i in range(n):
        x = rng.uniform(0.2, x_max)
        g = rng.uniform(-2.0, 2.0)
        kind = i % 4 if ladder_m is not None else i % 3
        if kind == 0:
            e = (rng.uniform(0.1, 3.0), rng.uniform(0.1, 2.0))
        elif kind == 1:
            e = (-rng.uniform(0.1, 3.0), rng.uniform(0.1, 2.0))
        elif kind == 2:
            e = (-rng.uniform(0.1, 3.0), 0.0)
        else:
            g = -_loguniform(rng, 0.25, 2.0)
            e = (-g * g / (1 + abs(ladder_m) + 2 * rng.randint(0, 5)) ** 2, 0.0)
        out.append([x, e[0], e[1], g])
    return out


def _grid_cycle(rng: Stream, cycle: int):
    for cell, sweep, green in GRID_SWEEPS:
        # attractive Coulomb sweeps only: see KNOWN_DEFECTS
        spec = draw_spec(rng, cell, attractive=True)
        if sweep == "levels":
            whichs = [rng.randint(lo, hi) for lo, hi in LEVEL_BANDS[spec["theory"]]]
        else:
            whichs = _stratified(rng, *_energy_range(cell), 4)
        for w in whichs:
            yield {"kind": "eigen", "cell": cell, "spec": spec, "which": w,
                   "check": _pick(rng, RADII, 1)}
        if sweep == "energies":
            lo, hi = _energy_range(cell)
            yield {"kind": "density", "cell": cell, "spec": spec,
                   "energies": [lo, hi], "check": _pick(rng, DENSITY_POINTS, 1)}
        if green:
            yield {"kind": "green", "cell": cell, "spec": spec,
                   "energy": _green_energy(rng, spec["theory"]),
                   "v": rng.uniform(0.5, 5.0), "check": _pick(rng, GREEN_POINTS, 1)}
    for m, ks in ((0, (1, 2, 3)), (1, (1, 3, 4)), (2, (1, 3, 4))):
        for k in ks:
            # k = 2, 4 raise ZeroDivisionError on the bound-state ladder
            samples = _duality_samples(rng, 20, m if k in (1, 3) else None)
            yield {"kind": "duality_solution", "cell": "COUL_M0_FAMILY" if m == 0 else
                   ("COUL_M1_FAMILY" if m == 1 else "COUL_UNIQUE"),
                   "m": m, "k": k, "samples": samples, "check": _pick(rng, 20, 1)}


# --- spectra ------------------------------------------------------------------

SPECTRA_CELLS = (
    "OSC_M_POS_LAMBDA_POS",
    "OSC_M0_LAMBDA_POS",
    "OSC_M0_LAMBDA_ZERO",
    "COUL_UNIQUE",
    "COUL_M1_FAMILY",
    "COUL_M0_FAMILY",
)


def _spectra_cycle(rng: Stream, cycle: int):
    for cell in SPECTRA_CELLS:
        spec = draw_spec(rng, cell, attractive=(cell == "COUL_UNIQUE"))
        levels = 1 + int(30 * rng.spread("levels"))
        yield {"kind": "measure", "cell": cell, "spec": spec, "levels": levels,
               "check": _pick(rng, levels, 1)}
    for m in (0, 1, 2, 3)[cycle % 2::2]:
        yield {"kind": "correspondence", "cell": "OSC_M0_LAMBDA_POS" if m == 0
               else "OSC_M_POS_LAMBDA_POS", "m": m,
               "lam": _loguniform(rng, 0.25, 4.0, "lambda"),
               "n_max": 1 + int(30 * rng.spread("n_max"))}
    for m in ((0, 1), (2, 0), (1, 2))[cycle % 3]:
        yield {"kind": "coefficients", "cell": "COUL_M0_FAMILY" if m == 0 else
               ("COUL_M1_FAMILY" if m == 1 else "COUL_UNIQUE"), "m": m,
               "zeta": _zeta(rng) if m == 0 else None,
               "samples": [s[1:] for s in _duality_samples(rng, 20)],
               "check": _pick(rng, 20, 1)}


# --- oracle -------------------------------------------------------------------

# boundary channel: pure power (unique cells, zeta = pi/2) or log-mixed.
# FD solves run in the pure-power channels where the oracle's second-order
# Richardson estimate holds; shooting covers the log-mixed channels too.
ORACLE_CELLS = (
    ("OSC_M0_LAMBDA_POS", "power"),
    ("COUL_UNIQUE", "power"),
    ("COUL_M1_FAMILY", "power"),
    ("COUL_M0_FAMILY", "power"),
)
# A cycle holds 36 FD slots, with node counts evenly spaced over FD_NODES
# and the cells in turn, and 4 shooting tasks, one after every nine FD
# solves: one task in ten shoots, and the FD latency distribution has no wide
# gaps for the median to jump across.  The slots visit the node counts with a
# stride coprime to 36, so a run that ends inside a cycle still sees node
# counts and shooting at their cycle-wide shares.
ORACLE_FD = tuple(ORACLE_CELLS[(7 * i) % len(ORACLE_CELLS)] for i in range(36))
NODE_STRIDE = 13
# one shooting solve of each per cycle, so every cycle has the same mix
ORACLE_SHOOT = (
    ("OSC_M_POS_LAMBDA_POS", "power"),
    ("OSC_M0_LAMBDA_POS", "log"),
    ("COUL_M1_FAMILY", "log"),
    ("COUL_UNIQUE", "power"),
)
FD_NODES = (4000, 40000)


def _oracle_spec(rng: Stream, cell: str, channel: str) -> dict:
    if cell.startswith("COUL"):
        spec = draw_spec(rng, cell)
        spec["coupling"] = -_loguniform(rng, 0.5, 2.0)
    else:
        spec = draw_spec(rng, cell)
    if spec["zeta"] is not None:
        spec["zeta"] = HALF_PI if channel == "power" else rng.uniform(-1.2, 1.2)
    return spec


def _oracle_cycle(rng: Stream, cycle: int):
    lo, hi = FD_NODES
    step = (hi - lo) / (len(ORACLE_FD) - 1)
    for i, (cell, channel) in enumerate(ORACLE_FD):
        # fixed task sizes: node count and level count depend on the slot only
        nodes = int(lo + (NODE_STRIDE * i) % len(ORACLE_FD) * step) | 1  # odd: half grid
        yield {"kind": "fd", "cell": cell, "channel": channel,
               "spec": _oracle_spec(rng, cell, channel), "nodes": nodes,
               "levels": 1 if cell.startswith("COUL") else 2}
        if i % 9 == 8:
            yield _shoot_task(rng, *ORACLE_SHOOT[i // 9])


def _shoot_task(rng: Stream, cell: str, channel: str) -> dict:
    spec = _oracle_spec(rng, cell, channel)
    # a shooting solve costs 0.2-2 s depending on m, the scale, the coupling
    # and the angle; near-fixed parameters per cell keep that cost comparable
    if spec["m"]:
        spec["m"] = 2 if cell == "COUL_UNIQUE" else 1
    spec["kappa0"] = 1.0
    spec["coupling"] = math.copysign(rng.uniform(0.95, 1.05), spec["coupling"])
    if channel == "log":
        spec["zeta"] = rng.uniform(0.2, 0.4)
    return {"kind": "shoot", "cell": cell, "channel": channel, "spec": spec, "level": 0}


# --- cli ----------------------------------------------------------------------

CLI_COMMANDS = ("spectrum", "density", "wavefunction", "duality", "verify")


def _f(x: float) -> str:
    return repr(float(x))


def _spec_flags(spec: dict) -> list[str]:
    flags = ["--theory", spec["theory"], "--m", str(spec["m"]),
             "--coupling", _f(spec["coupling"]), "--kappa0", _f(spec["kappa0"])]
    if spec["zeta"] is not None:
        flags += ["--zeta", _f(spec["zeta"])]
    return flags


def _cli_cycle(rng: Stream, cycle: int):
    for cmd in CLI_COMMANDS:
        if cmd == "spectrum":
            cell = SPECTRA_CELLS[cycle % len(SPECTRA_CELLS)]
            spec = draw_spec(rng, cell, attractive=cell.startswith("COUL"))
            argv = ["spectrum", *_spec_flags(spec), "--levels", str(rng.randint(1, 10))]
        elif cmd == "density":
            cell = ("OSC_M_POS_LAMBDA_NEG", "OSC_M0_LAMBDA_ZERO", "COUL_UNIQUE",
                    "COUL_M1_FAMILY", "COUL_M0_FAMILY")[cycle % 5]
            spec = draw_spec(rng, cell)
            lo, hi = _energy_range(cell)
            argv = ["density", *_spec_flags(spec), "--emin", _f(lo), "--emax", _f(hi),
                    "--samples", "20"]
        elif cmd == "wavefunction":
            cell = "OSC_M_POS_LAMBDA_POS" if cycle % 2 else "COUL_UNIQUE"
            spec = draw_spec(rng, cell, attractive=True)
            argv = ["wavefunction", *_spec_flags(spec), "--level", str(rng.randint(0, 5)),
                    "--samples", "20"]
        elif cmd == "duality":
            check = ("spectra", "solutions", "coefficients")[cycle % 3]
            cell = "OSC_M_POS_LAMBDA_POS" if check == "spectra" else "COUL_UNIQUE"
            argv = ["duality", "--checks", check, "--m", str(rng.randint(1, 3)),
                    "--samples", "10", "--levels", "5",
                    "--coupling", _f(_loguniform(rng, 0.25, 4.0))]
        else:
            cell = "OSC_M_POS_LAMBDA_POS"
            spec = draw_spec(rng, cell)
            argv = ["verify", *_spec_flags(spec), "--levels", "2", "--points", "1001",
                    "--umax", "9", "--tol", "1e-2"]
        yield {"kind": "cli", "cell": cell, "command": cmd, "argv": argv}


_CYCLES = {"grid": _grid_cycle, "spectra": _spectra_cycle,
           "oracle": _oracle_cycle, "cli": _cli_cycle}


def stream(workload: str, seed: int):
    """Endless, reproducible task stream of `workload` for `seed`."""
    if workload not in _CYCLES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = Stream(f"{workload}:{seed}")
    tid = count()
    for cycle in count():
        for task in _CYCLES[workload](rng, cycle):
            task["id"] = next(tid)
            yield task


def first(workload: str, seed: int, n: int) -> list[dict]:
    return list(islice(stream(workload, seed), n))
