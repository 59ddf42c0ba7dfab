"""Batch command-line front end.

Subcommands: spectrum, density, wavefunction, duality, verify. Each builds
its payload and ends in one writer, `_write`, so every output has the same
versioned envelope in either --format:
- JSON: {"schema_version", "spec", ...payload} at indent 2;
- CSV: "# radialspec <command> schema=<version>", the spec as
  "# theory=... m=... coupling=... kappa0=... zeta=...", the payload's own
  "# key=value" lines, a header and the rows.
duality checks no single problem, so its output carries no spec. It draws
--samples random points and refuses fewer than one (exit 2); a coefficient
check whose every sample was excluded compared nothing and fails.
Exit codes: 0 ok, 2 usage/regime error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import specfun as sf
from .core import (
    ExtensionParam,
    ProblemSpec,
    SpectralMeasure,
    Theory,
    ValidationError,
    classify,
)
from .coulomb import _coul_continuum, coul_eigenfunction, coul_spectrum
from .duality import (
    verify_coefficient_identities,
    verify_solution_identity,
    verify_spectrum_correspondence,
)
from .oracle import GridSpec, compare_spectra, fd_eigenvalues
from .oscillator import _osc_continuum, osc_eigenfunction, osc_spectrum

SCHEMA_VERSION = "1"

_THEORIES = {"osc": Theory.OSCILLATOR, "coul": Theory.COULOMB}

# per theory: (spectrum, continuum, eigenfunction)
_CLOSED_FORMS = {
    Theory.OSCILLATOR: (osc_spectrum, _osc_continuum, osc_eigenfunction),
    Theory.COULOMB: (coul_spectrum, _coul_continuum, coul_eigenfunction),
}

# duality's default --tol per check, in the order its --checks choices print
_DUALITY_TOL = {"solutions": 1e-8, "coefficients": 1e-8, "spectra": 1e-12}


def _fmt(x) -> str:
    """One CSV cell or comment value: text as is, None empty, a number to 17
    significant digits (a bool as 0 or 1)."""
    if x is None:
        return ""
    return x if isinstance(x, str) else "%.17g" % x


def _build_spec(args) -> ProblemSpec:
    ext = ExtensionParam(args.zeta) if args.zeta is not None else None
    return ProblemSpec(_THEORIES[args.theory], args.m, args.coupling, args.kappa0, ext)


def _spec_dict(spec: ProblemSpec) -> dict:
    return {
        "theory": spec.theory.value,
        "m": spec.m,
        "coupling": spec.coupling,
        "kappa0": spec.kappa0,
        "zeta": None if spec.extension is None else spec.extension.zeta,
    }


def _write(args, out, spec, doc, comments, header, rows) -> int:
    """Write a subcommand's payload in the one versioned envelope of --format.

    JSON is {"schema_version", "spec", **doc}. CSV is the schema line, the
    spec and each dict of `comments` as a "# key=value ..." line, `header`
    and `rows`. Without a spec both spec parts are left out. Returns the
    exit code: 3 if doc holds a failed "pass", else 0.
    """
    envelope = {"schema_version": SCHEMA_VERSION}
    if spec is not None:
        envelope["spec"] = _spec_dict(spec)
        comments = [envelope["spec"], *comments]
    if args.format == "json":
        out.write(json.dumps({**envelope, **doc}, indent=2) + "\n")
    else:
        lines = [f"# radialspec {args.command} schema={SCHEMA_VERSION}"]
        for note in comments:
            lines.append("# " + " ".join(f"{k}={_fmt(v)}" for k, v in note.items()))
        lines += [header] + [",".join(map(_fmt, row)) for row in rows]
        out.write("".join(line + "\n" for line in lines))
    return 0 if doc.get("pass", True) else 3


def _grid(lo: float, hi: float, samples: int) -> list[float]:
    step = (hi - lo) / (samples - 1)
    return [lo + k * step for k in range(samples)]


def _get_spectrum(spec: ProblemSpec, levels: int):
    return _CLOSED_FORMS[spec.theory][0](spec, levels=levels)


def _cmd_spectrum(args, out) -> int:
    spec = _build_spec(args)
    measure = _get_spectrum(spec, args.levels)
    rows = [(n, e, w) for n, (e, w) in enumerate(measure.discrete[: args.levels])]
    doc = {
        "discrete": [{"n": n, "E": e, "weight": w} for n, e, w in rows],
        "continuous": {"support": measure.support, "samples": []},
    }
    note = {"support": measure.support}
    return _write(args, out, spec, doc, [note], "n,E,weight", rows)


def _cmd_density(args, out) -> int:
    spec = _build_spec(args)
    # the continuous part of the measure alone: no atom is solved for
    measure = SpectralMeasure((), *_CLOSED_FORMS[spec.theory][1](spec, classify(spec)))
    if args.samples < 2 or args.emax <= args.emin:
        raise ValidationError("need emin < emax and samples >= 2")
    grid = _grid(args.emin, args.emax, args.samples)
    rows = [(e, measure.density_at(e)) for e in grid]
    doc = {"discrete": [], "continuous": {"support": measure.support, "samples": rows}}
    note = {"support": measure.support}
    return _write(args, out, spec, doc, [note], "E,density", rows)


def _cmd_wavefunction(args, out) -> int:
    spec = _build_spec(args)
    if (args.level is None) == (args.energy is None):
        raise ValidationError("give exactly one of --level / --energy")
    which = args.level if args.level is not None else args.energy
    wave = _CLOSED_FORMS[spec.theory][2](spec, which)
    if args.samples < 2 or not (0 < args.umin < args.umax):
        raise ValidationError("need 0 < umin < umax and samples >= 2")
    rows = [(u, float(wave(u))) for u in _grid(args.umin, args.umax, args.samples)]
    doc = {
        "wavefunction": {
            "energy": wave.energy,
            "norm_constant": wave.norm_constant,
            "asymptotic_class": wave.asymptotic_class,
            "samples": rows,
        }
    }
    note = {"energy": wave.energy, "norm": wave.norm_constant}
    return _write(args, out, spec, doc, [note], "u,value", rows)


def _duality_samples(n: int, seed: int = 20240811):
    """Deterministic admissible (x, E, g) triples spanning both half-planes."""
    if n < 1:
        raise ValidationError("need samples >= 1")
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        x = rng.uniform(0.2, 3.0)
        g = rng.uniform(-2.0, 2.0)
        kind = rng.randrange(3)
        if kind == 0:
            e = complex(rng.uniform(0.1, 3.0), rng.uniform(0.1, 2.0))
        elif kind == 1:
            e = complex(-rng.uniform(0.1, 3.0), rng.uniform(0.1, 2.0))
        else:
            e = complex(-rng.uniform(0.1, 3.0), 0.0)
        out.append((x, e, g))
    return out


def _cmd_duality(args, out) -> int:
    tol = _DUALITY_TOL[args.checks] if args.tol is None else args.tol
    if args.checks == "spectra":
        report = verify_spectrum_correspondence(
            args.m, args.coupling, args.levels, args.kappa0, zeta=args.zeta
        )
        worst = report["max_abs_dev"]
    elif args.checks == "solutions":
        samples = _duality_samples(args.samples)
        kinds = (1, 2, 3) if args.m == 0 else (1, 3, 4)
        per_kind = {
            str(k): verify_solution_identity(k, args.m, samples, args.kappa0)
            for k in kinds
        }
        worst = max(per_kind.values())
        report = {"m": args.m, "max_rel": per_kind, "samples": args.samples}
    else:
        pairs = [(e, g) for (_, e, g) in _duality_samples(args.samples)]
        report = verify_coefficient_identities(
            args.m, pairs, args.kappa0, zeta=args.zeta
        )
        worst = max(report["max_rel"].values())
    # a check whose every sample was excluded compared nothing
    compared = report.get("samples", 1) > 0
    passed = bool(worst <= tol) and report.get("pass", True) and compared
    doc = {
        "checks": args.checks,
        "report": report,
        "max_error": worst,
        "tol": tol,
        "pass": passed,
    }
    row = (args.checks, worst, tol, passed)
    return _write(args, out, None, doc, [], "checks,max_error,tol,pass", [row])


def _cmd_verify(args, out) -> int:
    spec = _build_spec(args)
    closed = _get_spectrum(spec, args.levels)
    if not closed.discrete:
        raise ValidationError("cell has no discrete levels to verify")
    umax = args.umax
    if umax is None:  # the box u <= 15 in both theories, x = kappa0 u^2
        umax = 15.0 if spec.theory is Theory.OSCILLATOR else 225.0 * spec.kappa0
    grid = GridSpec(args.umin, umax, args.points)
    oracle_vals = fd_eigenvalues(spec, grid, min(args.levels, len(closed.discrete)))
    report = compare_spectra(closed, oracle_vals, args.tol)
    header = "n,closed,oracle,rel_dev,pass"
    rows = [[level[k] for k in header.split(",")] for level in report["levels"]]
    doc = {"report": report, "pass": report["pass"]}
    return _write(args, out, spec, doc, [], header, rows)


def _add_spec_flags(p):
    p.add_argument("--theory", required=True, choices=("osc", "coul"))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--coupling", type=float, required=True)
    p.add_argument("--zeta", type=float, default=None, help="radians")
    p.add_argument("--kappa0", type=float, default=1.0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="radialspec",
        description="Spectra of oscillator- and Coulomb-like radial operators "
        "with self-adjoint extension families.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="discrete levels and continuous support")
    _add_spec_flags(p)
    p.add_argument("--levels", type=int, default=10)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("density", help="continuous spectral density samples")
    _add_spec_flags(p)
    p.add_argument("--emin", type=float, required=True)
    p.add_argument("--emax", type=float, required=True)
    p.add_argument("--samples", type=int, default=50)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("wavefunction", help="normalized eigenfunction samples")
    _add_spec_flags(p)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--energy", type=float, default=None)
    p.add_argument("--umin", type=float, default=0.01)
    p.add_argument("--umax", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=_cmd_wavefunction)

    p = sub.add_parser("duality", help="oscillator <-> Coulomb identity checks")
    p.add_argument("--checks", required=True, choices=tuple(_DUALITY_TOL))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--coupling", type=float, default=1.0, help="lambda for spectra")
    p.add_argument("--zeta", type=float, default=None)
    p.add_argument("--kappa0", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--levels", type=int, default=20)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=_cmd_duality)

    p = sub.add_parser("verify", help="compare closed-form spectrum to the oracle")
    _add_spec_flags(p)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--umin", type=float, default=1e-3)
    p.add_argument(
        "--umax",
        type=float,
        default=None,
        help="Dirichlet edge in the theory's own radius (u or x); default 15 "
        "for osc and 225 kappa0 for coul, the same box u <= 15 under x = kappa0 u^2",
    )
    p.add_argument("--points", type=int, default=4000)
    p.set_defaults(func=_cmd_verify)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.func(args, sys.stdout)
    except (ValidationError, sf.PoleError, sf.AccuracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
