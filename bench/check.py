"""Correctness checks, run after the worker has exited (outside every timed
region, set-up included).

Each record gets (ok, err): `ok` is False for a raised error, an output
outside the workload's stated tolerance, or an output the reference could
not be evaluated for; `err` is the relative error against the reference
(None when there is nothing to compare).

Tolerances:
* grid: 1e-8 relative against the 40-digit mpmath reference (ref.py), at the
  seeded subset of points each task names (eigenfunction values relative to
  the largest reference magnitude over the point and its grid neighbours, as
  a value next to a node has no relative precision of its own), and on the
  energy an eigenfunction reports; duality sweeps 1e-8 (the CLI's default) on the verifier's own
  worst deviation and on one seeded sample of C_k against the reference.
* spectra: 1e-9 relative on energies (exact ladders, or the 40-digit family
  residual converted to an energy error) and on weights; coefficient sweeps
  1e-8 on the verifier's worst deviation and on one seeded sample against
  the reference.
* oracle: FD levels within twice the oracle's own half-resolution
  Richardson estimate |E_h - E_2h| / 3 of the closed form, the half grid
  staggered like the full one (the estimate assumes second order), plus the
  eigensolver's rounding floor 4 eps ||A|| with ||A|| ~ 4 / h^2;
  shooting within 1e-3 relative (the loosest tolerance the oracle tests use).
* cli: the output must equal the same call made in-process, exactly.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import sys
import warnings

from mpmath.libmp import NoConvergence

import gen
import ref
import worker

GRID_TOL = 1e-8
SPECTRA_TOL = 1e-9
# The estimate is built from the value under test, so a factor >= 3 would let
# any error in that value pass; 2 leaves room for second-order noise only.
RICHARDSON_FACTOR = 2.0
ROUNDING_ULPS = 4.0
SHOOT_TOL = 1e-3

GREEN_PTS = gen.linspace(0.2, gen.UMAX, gen.GREEN_POINTS)


def rel(value, reference) -> float:
    if reference == 0:
        return abs(value)
    return float(abs(value - reference) / abs(reference))


def _worst(errs) -> float:
    errs = [e for e in errs if e is not None]
    return max(errs) if errs else 0.0


def _within(err: float, tol: float) -> tuple[float, bool]:
    return err, math.isfinite(err) and err <= tol


# --- grid ---------------------------------------------------------------------


def _eigen(t, out):
    p = ref.Problem(t["spec"])
    which, energy = t["which"], out["energy"]
    bound = isinstance(which, int)
    if bound:
        exact = p.level_energy(which)
        errs = [rel(energy, float(exact)) if exact is not None else p.root_error(energy)]
        amp = math.sqrt(p.level_weight(which, energy))
    else:
        errs = [rel(energy, which)]
        amp = math.sqrt(p.density(energy))
    radii = gen.eigen_radii(t["spec"], energy, bound)
    errs.append(rel(out["norm"], amp))
    for i, v in zip(t["check"], out["values"]):
        exact = p.eigen(radii[i], energy, amp, bound)
        err = rel(v, exact)
        if err > GRID_TOL:
            # relative to the largest magnitude over the point and its grid
            # neighbours, so that a value next to a node is judged on the
            # function's scale there rather than on its near-zero value
            scale = max([abs(exact)] + [abs(p.eigen(radii[j], energy, amp, bound))
                                        for j in (i - 1, i + 1) if 0 <= j < len(radii)])
            err = abs(v - exact) / scale if scale else abs(v)
        errs.append(err)
    return _within(_worst(errs), GRID_TOL)


def _density(t, out):
    p = ref.Problem(t["spec"])
    grid = gen.linspace(*t["energies"], gen.DENSITY_POINTS)
    return _within(_worst(rel(v, p.density(grid[i]))
                          for i, v in zip(t["check"], out["values"])), GRID_TOL)


def _green(t, out):
    p = ref.Problem(t["spec"])
    w = complex(*t["energy"])
    return _within(_worst(rel(complex(*v), complex(p.green(GREEN_PTS[i], t["v"], w)))
                          for i, v in zip(t["check"], out["values"])), GRID_TOL)


def _coulomb(m: int, g: float) -> ref.Problem:
    return ref.Problem({"theory": "coul", "m": m, "coupling": g, "kappa0": 1.0, "zeta": None})


def _duality_solution(t, out):
    from radialspec.coulomb import coul_solution

    (i,) = t["check"]
    x, er, ei, g = t["samples"][i]
    e = complex(er, ei)
    name = {1: "C1", 2: "C2_0", 3: "C3", 4: "C4"}[t["k"]]
    value = coul_solution(name, t["m"], x, e, g, 1.0)
    err = rel(value, complex(_coulomb(t["m"], g).sol(t["k"], x, e)))
    return _within(max(out["worst"], err), GRID_TOL)


# --- spectra ------------------------------------------------------------------


def _measure(t, out):
    p = ref.Problem(t["spec"])
    errs = []
    for k, atom in zip(t["check"], out["atoms"]):
        if atom is None:
            continue
        energy, weight = atom
        exact = p.level_energy(k)
        errs.append(rel(energy, float(exact)) if exact is not None else p.root_error(energy))
        errs.append(rel(weight, p.level_weight(k, energy)))
    full_ladder = (p.c > 0) if p.osc else (p.c < 0)
    if full_ladder and out["count"] != t["levels"]:
        return 1.0, False  # a level of a full ladder went missing
    return _within(_worst(errs), SPECTRA_TOL)


def _correspondence(t, out):
    err = out["max_abs_dev"] / max(1.0, t["lam"] / 4.0)
    return err, out["pass"] and err <= 1e-12


def _coefficients(t, out):
    from radialspec.coulomb import coul_coefficients, coul_family_function

    (i,) = t["check"]
    er, ei, g = t["samples"][i]
    e = complex(er, ei)
    p = _coulomb(t["m"], g)
    if t["m"] == 0:
        errs = [rel(coul_family_function(0, e, g, 1.0), complex(p.family_fn(e)))]
    else:
        _, b_m, c_m, _ = coul_coefficients(t["m"], e, g, 1.0)
        errs = [rel(b_m, complex(p.coefficient_b(e))), rel(c_m, complex(p.coefficient_c(e)))]
    return _within(_worst([*out["max_rel"].values(), *errs]), GRID_TOL)


# --- oracle -------------------------------------------------------------------


def _fd(t, out):
    import radialspec as rs

    spec = worker.build_spec(rs, t["spec"])
    u_min, u_max, n = out["grid"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", rs.GridResolutionWarning)
        coarse = rs.fd_eigenvalues(spec, rs.GridSpec(*worker.staggered(u_max, (n + 1) // 2)),
                                   t["levels"])
    # rounding: a backward-stable eigensolver is exact only up to a few
    # eps * ||A||, and ||A|| ~ 4 / h^2 here; Richardson cannot see that
    h = (u_max - u_min) / (n - 1)
    rounding = ROUNDING_ULPS * sys.float_info.epsilon * 4.0 / h**2
    worst, ok = 0.0, True
    for fine, c, closed in zip(out["oracle"], coarse, out["closed"]):
        dev = abs(fine - closed)
        estimate = abs(fine - c) / 3.0  # second-order Richardson
        ok = ok and dev <= RICHARDSON_FACTOR * estimate + rounding
        worst = max(worst, dev / max(1.0, abs(closed)))
    return worst, ok


def _shoot(t, out):
    closed = out["closed"][0]
    return _within(abs(out["oracle"][0] - closed) / max(1.0, abs(closed)), SHOOT_TOL)


# --- cli ----------------------------------------------------------------------

_NUM = re.compile(r"-?\d+\.?\d*(?:[eE][-+]?\d+)?|nan|inf")


def _cli(t, out):
    from radialspec import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(t["argv"]))
    if code != out["returncode"]:
        return 1.0, False
    if buf.getvalue() == out["stdout"]:
        return 0.0, code == 0  # exit code 3 would be a verification breach
    a, b = _NUM.findall(buf.getvalue()), _NUM.findall(out["stdout"])
    if len(a) != len(b):
        return 1.0, False
    return _worst(rel(float(x), float(y)) for x, y in zip(b, a)), False


CHECKS = {"eigen": _eigen, "density": _density, "green": _green,
          "duality_solution": _duality_solution, "measure": _measure,
          "correspondence": _correspondence, "coefficients": _coefficients,
          "fd": _fd, "shoot": _shoot, "cli": _cli}


def check(records: list) -> list[tuple[bool, float | None]]:
    """(ok, relative error) for every record, in order.  An output the
    40-digit reference cannot be evaluated for (mpmath gives up, e.g. on a U
    value it cannot tell from 0) is unverified, and counts as failed:
    (False, None)."""
    results = []
    for r in records:
        t, out = r["task"], r["out"]
        if r["status"] != "ok":
            results.append((False, None))
            continue
        try:
            err, ok = CHECKS[t["kind"]](t, out)
        except (ValueError, ArithmeticError, NoConvergence):
            err, ok = None, False
        results.append((ok, err))
    return results
