"""Batch command-line front end.

Subcommands: spectrum, density, wavefunction, duality, verify.
Emits CSV or JSON with a versioned schema; every output embeds the full
problem specification. Exit codes: 0 ok, 2 usage/regime error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
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


def _fmt(x: float) -> str:
    return "%.17g" % x


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


def _spec_comment(spec: ProblemSpec) -> str:
    d = _spec_dict(spec)
    zeta = "" if d["zeta"] is None else _fmt(d["zeta"])
    return (
        f"# theory={d['theory']} m={d['m']} coupling={_fmt(d['coupling'])} "
        f"kappa0={_fmt(d['kappa0'])} zeta={zeta}"
    )


def _emit(out, lines) -> None:
    for line in lines:
        out.write(line + "\n")


def _get_spectrum(spec: ProblemSpec, levels: int):
    return _CLOSED_FORMS[spec.theory][0](spec, levels=levels)


def _cmd_spectrum(args, out) -> int:
    spec = _build_spec(args)
    measure = _get_spectrum(spec, args.levels)
    atoms = measure.discrete[: args.levels]
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "spec": _spec_dict(spec),
            "discrete": [
                {"n": n, "E": e, "weight": w} for n, (e, w) in enumerate(atoms)
            ],
            "continuous": {"support": measure.support, "samples": []},
        }
        out.write(json.dumps(doc, indent=2) + "\n")
        return 0
    lines = [
        f"# radialspec spectrum schema={SCHEMA_VERSION}",
        _spec_comment(spec),
        f"# support={measure.support}",
        "n,E,weight",
    ]
    for n, (e, w) in enumerate(atoms):
        lines.append(f"{n},{_fmt(e)},{_fmt(w)}")
    _emit(out, lines)
    return 0


def _cmd_density(args, out) -> int:
    spec = _build_spec(args)
    # the continuous part of the measure alone: no atom is solved for
    measure = SpectralMeasure((), *_CLOSED_FORMS[spec.theory][1](spec, classify(spec)))
    if args.samples < 2 or args.emax <= args.emin:
        raise ValidationError("need emin < emax and samples >= 2")
    step = (args.emax - args.emin) / (args.samples - 1)
    grid = [args.emin + k * step for k in range(args.samples)]
    rows = [(e, measure.density_at(e)) for e in grid]
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "spec": _spec_dict(spec),
            "discrete": [],
            "continuous": {
                "support": measure.support,
                "samples": [[e, d] for e, d in rows],
            },
        }
        out.write(json.dumps(doc, indent=2) + "\n")
        return 0
    lines = [
        f"# radialspec density schema={SCHEMA_VERSION}",
        _spec_comment(spec),
        f"# support={measure.support}",
        "E,density",
    ]
    lines += [f"{_fmt(e)},{_fmt(d)}" for e, d in rows]
    _emit(out, lines)
    return 0


def _cmd_wavefunction(args, out) -> int:
    spec = _build_spec(args)
    if (args.level is None) == (args.energy is None):
        raise ValidationError("give exactly one of --level / --energy")
    which = args.level if args.level is not None else args.energy
    wave = _CLOSED_FORMS[spec.theory][2](spec, which)
    if args.samples < 2 or not (0 < args.umin < args.umax):
        raise ValidationError("need 0 < umin < umax and samples >= 2")
    step = (args.umax - args.umin) / (args.samples - 1)
    grid = [args.umin + k * step for k in range(args.samples)]
    rows = [(u, float(wave(u))) for u in grid]
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "spec": _spec_dict(spec),
            "wavefunction": {
                "energy": wave.energy,
                "norm_constant": wave.norm_constant,
                "asymptotic_class": wave.asymptotic_class,
                "samples": [[u, v] for u, v in rows],
            },
        }
        out.write(json.dumps(doc, indent=2) + "\n")
        return 0
    lines = [
        f"# radialspec wavefunction schema={SCHEMA_VERSION}",
        _spec_comment(spec),
        f"# energy={_fmt(wave.energy)} norm={_fmt(wave.norm_constant)}",
        "u,value",
    ]
    lines += [f"{_fmt(u)},{_fmt(v)}" for u, v in rows]
    _emit(out, lines)
    return 0


def _duality_samples(n: int, seed: int = 20240811):
    """Deterministic admissible (x, E, g) triples spanning both half-planes."""
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
    report: dict
    tol = args.tol
    if args.checks == "spectra":
        if tol is None:
            tol = 1e-12
        report = verify_spectrum_correspondence(
            args.m, args.coupling, args.levels, args.kappa0, zeta=args.zeta
        )
        worst = report["max_abs_dev"]
    elif args.checks == "solutions":
        if tol is None:
            tol = 1e-8
        samples = _duality_samples(args.samples)
        kinds = (1, 2, 3) if args.m == 0 else (1, 3, 4)
        per_kind = {}
        for k in kinds:
            per_kind[str(k)] = verify_solution_identity(
                k, args.m, samples, args.kappa0
            )
        worst = max(per_kind.values())
        report = {"m": args.m, "max_rel": per_kind, "samples": args.samples}
    else:
        if tol is None:
            tol = 1e-8
        pairs = [(e, g) for (_, e, g) in _duality_samples(args.samples)]
        report = verify_coefficient_identities(
            args.m, pairs, args.kappa0, zeta=args.zeta
        )
        worst = max(report["max_rel"].values())
    passed = bool(worst <= tol) and report.get("pass", True)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "checks": args.checks,
        "report": report,
        "max_error": worst,
        "tol": tol,
        "pass": passed,
    }
    if args.format == "json":
        out.write(json.dumps(doc, indent=2) + "\n")
    else:
        _emit(
            out,
            [
                f"# radialspec duality schema={SCHEMA_VERSION}",
                "checks,max_error,tol,pass",
                f"{args.checks},{_fmt(worst)},{_fmt(tol)},{int(passed)}",
            ],
        )
    return 0 if passed else 3


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
    doc = {
        "schema_version": SCHEMA_VERSION,
        "spec": _spec_dict(spec),
        "report": report,
        "pass": report["pass"],
    }
    if args.format == "json":
        out.write(json.dumps(doc, indent=2) + "\n")
    else:
        lines = [
            f"# radialspec verify schema={SCHEMA_VERSION}",
            _spec_comment(spec),
            "n,closed,oracle,rel_dev,pass",
        ]
        for row in report["levels"]:
            lines.append(
                f"{row['n']},{_fmt(row['closed'])},{_fmt(row['oracle'])},"
                f"{_fmt(row['rel_dev'])},{int(row['pass'])}"
            )
        _emit(out, lines)
    return 0 if report["pass"] else 3


def _add_spec_flags(p, need_zeta=True):
    p.add_argument("--theory", required=True, choices=("osc", "coul"))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--coupling", type=float, required=True)
    if need_zeta:
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
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("density", help="continuous spectral density samples")
    _add_spec_flags(p)
    p.add_argument("--emin", type=float, required=True)
    p.add_argument("--emax", type=float, required=True)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("wavefunction", help="normalized eigenfunction samples")
    _add_spec_flags(p)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--energy", type=float, default=None)
    p.add_argument("--umin", type=float, default=0.01)
    p.add_argument("--umax", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_wavefunction)

    p = sub.add_parser("duality", help="oscillator <-> Coulomb identity checks")
    p.add_argument(
        "--checks", required=True, choices=("solutions", "coefficients", "spectra")
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--coupling", type=float, default=1.0, help="lambda for spectra")
    p.add_argument("--zeta", type=float, default=None)
    p.add_argument("--kappa0", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--levels", type=int, default=20)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
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
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_verify)

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
