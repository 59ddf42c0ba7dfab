"""Span tracer that wraps radialspec's public functions from outside.

Nothing under ``src/`` is edited.  ``Tracer.installed()`` replaces each
target function in every ``radialspec`` module namespace that binds it, so
internal calls (``sf.kummer_m`` attribute calls, ``from .x import y`` names,
intra-module global lookups) are seen as well as the benchmark's own calls.
SciPy's ``brentq``, ``eigh_tridiagonal`` and ``solve_ivp`` are wrapped where
``oscillator``, ``coulomb`` and ``oracle`` bind them.

Each wrapped call records a span (id, name, start, end, parent span, task
id) in memory; self time is a span's duration minus its child spans.  The
``specfun`` branch of ``kummer_m``/``tricomi_u`` is inferred from the call's
arguments by the rule ``specfun`` applies today.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
from collections import defaultdict
from itertools import count
from time import perf_counter

MAX_SPANS = 100_000  # spans kept for the span file; aggregates count every call

# (module, attribute, span name); several attributes may share a span name
FUNCTIONS = [
    ("specfun", "kummer_m", "specfun.kummer_m"),
    ("specfun", "tricomi_u", "specfun.tricomi_u"),
    ("specfun", "kummer_log_companion", "specfun.kummer_log_companion"),
    ("specfun", "kummer_m_param_derivative", "specfun.kummer_m_param_derivative"),
    ("specfun", "bessel", "specfun.bessel"),
    ("specfun", "digamma", "specfun.digamma"),
    ("specfun", "trigamma", "specfun.trigamma"),
    ("specfun", "gamma_fn", "specfun.gamma"),
    ("specfun", "gamma_ln", "specfun.gamma"),
    ("specfun", "rgamma", "specfun.gamma"),
    ("core", "classify", "core.classify"),
    ("oscillator", "osc_solution", "oscillator.osc_solution"),
    ("oscillator", "osc_eigenfunction", "oscillator.osc_eigenfunction"),
    ("oscillator", "osc_green", "oscillator.osc_green"),
    ("oscillator", "osc_family_function", "oscillator.osc_family_function"),
    ("oscillator", "osc_spectrum", "oscillator.osc_spectrum"),
    ("coulomb", "coul_solution", "coulomb.coul_solution"),
    ("coulomb", "coul_eigenfunction", "coulomb.coul_eigenfunction"),
    ("coulomb", "coul_green", "coulomb.coul_green"),
    ("coulomb", "coul_family_function", "coulomb.coul_family_function"),
    ("coulomb", "coul_spectrum", "coulomb.coul_spectrum"),
    ("duality", "verify_solution_identity", "duality.verify_solution_identity"),
    ("duality", "verify_coefficient_identities", "duality.verify_coefficient_identities"),
    ("duality", "verify_spectrum_correspondence", "duality.verify_spectrum_correspondence"),
    ("oracle", "fd_eigenvalues", "oracle.fd_eigenvalues"),
    ("oracle", "shoot_eigenvalue", "oracle.shoot_eigenvalue"),
    ("oracle", "compare_spectra", "oracle.compare_spectra"),
]
# SciPy callables, wrapped only in the module named (they are a "scipy" layer)
SCIPY = [
    ("oscillator", "brentq"),
    ("coulomb", "brentq"),
    ("oracle", "brentq"),
    ("oracle", "eigh_tridiagonal"),
    ("oracle", "solve_ivp"),
]
METHODS = [
    ("core", "RadialWave", "__call__", "core.RadialWave.call"),
    ("core", "SpectralMeasure", "density_at", "core.SpectralMeasure.density_at"),
]
MODULE_LAYERS = ("specfun", "core", "oscillator", "coulomb", "duality", "oracle")

# per-layer metric -> workload whose pass it is read from
HOME = {}
for _name in [
    "specfun.kummer_m.series.us_per_call", "specfun.kummer_m.asymptotic.us_per_call",
    "specfun.kummer_m.terminating.us_per_call", "specfun.kummer_m.calls_per_task",
    "specfun.tricomi_u.log_series.us_per_call", "specfun.tricomi_u.asymptotic.us_per_call",
    "specfun.tricomi_u.terminating.us_per_call", "specfun.tricomi_u.calls_per_task",
    "specfun.kummer_log_companion.us_per_call", "specfun.kummer_m_param_derivative.us_per_call",
    "specfun.bessel.us_per_call", "specfun.self_share",
    "oscillator.osc_solution.us_per_call", "oscillator.osc_solution.calls_per_task",
    "coulomb.coul_solution.us_per_call", "coulomb.coul_solution.calls_per_task",
    "core.RadialWave.call.us_per_point", "core.SpectralMeasure.density_at.us_per_point",
    "core.classify.calls_per_task", "oscillator.self_share", "coulomb.self_share",
    "core.self_share", "oscillator.osc_eigenfunction.us_per_call",
    "coulomb.coul_eigenfunction.us_per_call", "oscillator.osc_green.us_per_point",
    "coulomb.coul_green.us_per_point", "duality.verify_solution_identity.us_per_sample",
]:
    HOME[_name] = "grid"
for _name in [
    "specfun.digamma.us_per_call", "specfun.digamma.calls_per_task",
    "specfun.trigamma.us_per_call", "specfun.gamma.us_per_call",
    "oscillator.osc_family_function.evals_per_level",
    "coulomb.coul_family_function.evals_per_level",
    "oscillator.osc_spectrum.us_per_level", "coulomb.coul_spectrum.us_per_level",
    "duality.verify_coefficient_identities.us_per_sample",
    "duality.verify_spectrum_correspondence.us_per_level",
]:
    HOME[_name] = "spectra"
for _name in [
    "oracle.fd_eigenvalues.ns_per_node", "oracle.eigh_tridiagonal.share_of_fd",
    "oracle.self_share", "oracle.shoot_eigenvalue.ms_per_call",
    "oracle.solve_ivp.calls_per_shoot", "oracle.solve_ivp.ms_per_call",
]:
    HOME[_name] = "oracle"
CLI_IMPORTS = ("radialspec", "scipy.special", "scipy.optimize", "scipy.linalg",
               "scipy.integrate")
CLI_COMMANDS = ("spectrum", "density", "wavefunction", "duality", "verify")
for _name in ["cli.interpreter_ms",
              *[f"cli.import.{m.replace('.', '_')}_ms" for m in CLI_IMPORTS],
              *[f"cli.{c}.wall_ms" for c in CLI_COMMANDS]]:
    HOME[_name] = "cli"

PER_LAYER = [*HOME, "trace.overhead"]

UNITS = {"us_per_call": "us", "us_per_point": "us", "us_per_sample": "us",
         "us_per_level": "us", "ns_per_node": "ns", "ms_per_call": "ms",
         "calls_per_task": "count", "calls_per_shoot": "count",
         "evals_per_level": "count", "self_share": "ratio", "share_of_fd": "ratio",
         "overhead": "ratio"}


def unit_of(name: str) -> str:
    return "ms" if name.endswith("_ms") else UNITS[name.rsplit(".", 1)[1]]


# --- branch inference (the rules radialspec.specfun applies today) ----------


def _nonpositive_int(z: complex) -> bool:
    n = round(z.real)
    return abs(z.imag) <= 1e-12 and n <= 0 and abs(z.real - n) <= 1e-12 * max(1.0, abs(n))


def _radius(ctl) -> float:
    return getattr(ctl, "asymptotic_switch_radius", 30.0)


def kummer_branch(a, b, z, ctl=None, *_, **__) -> str:
    a, b, z = complex(a), complex(b), complex(z)
    if z.real < 0:
        a, z = b - a, -z  # Kummer transformation, then the rules below
    if _nonpositive_int(a):
        return "terminating"
    if abs(z) > _radius(ctl):
        return "asymptotic"
    return "series"


def tricomi_branch(a, b, z, ctl=None, *_, **__) -> str:
    a, b, z = complex(a), int(b), complex(z)
    if b < 1:
        a, b = a - b + 1, 2 - b
    if _nonpositive_int(a) or _nonpositive_int(a - b + 1):
        return "terminating"
    if abs(z) > _radius(ctl):
        return "asymptotic"
    return "log_series"


BRANCHES = {"specfun.kummer_m": kummer_branch, "specfun.tricomi_u": tricomi_branch}


def _safe_branch(rule, args, kwargs) -> str:
    try:
        return rule(*args, **kwargs)
    except (TypeError, ValueError):
        return "other"  # arguments this rule does not understand (e.g. arrays)


def _size(obj) -> int:
    try:
        return len(obj)
    except TypeError:
        return 1


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, start, child_time, span_id, wrapper]
        self.spans: list[tuple] = []
        self.ids = count()
        self.task_id = None
        self.passes: dict[str, dict] = {}
        self._new_pass("none")

    # --- passes and tasks
    def _new_pass(self, workload: str) -> None:
        self.workload = workload
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total s, self s
        self.units = defaultdict(float)  # name -> points / samples / levels / nodes

    def begin_pass(self, workload: str) -> None:
        self._new_pass(workload)

    def end_pass(self, records: list) -> None:
        self.passes[self.workload] = {"agg": dict(self.agg), "units": dict(self.units),
                                      "records": records}

    def begin_task(self, task: dict) -> None:
        self.task_id = task["id"]
        self._enter("task." + task["kind"])

    def end_task(self) -> None:
        self._exit()
        self.task_id = None

    # --- spans
    def _enter(self, name: str, wrapper=None) -> None:
        self.stack.append([name, perf_counter(), 0.0, next(self.ids), wrapper])

    def _exit(self) -> float:
        t1 = perf_counter()
        name, t0, child, sid, _ = self.stack.pop()
        dur = t1 - t0
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        rec = self.agg[name]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, name, t0, t1, parent[3] if parent else None,
                               self.task_id, self.workload))
        return dur

    def wrap(self, name: str, fn):
        rule = BRANCHES.get(name)
        family = name.replace("_spectrum", "_family_function") if name.endswith("_spectrum") else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][4] is wrapper:
                return fn(*args, **kwargs)  # self-recursion belongs to the outer call
            label = name if rule is None else f"{name}.{_safe_branch(rule, args, kwargs)}"
            evals = tracer.agg[family][0] if family else 0
            tracer._enter(label, wrapper)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer._exit()
            if family:
                tracer._count_levels(name, family, result, dur, tracer.agg[family][0] - evals)
            else:
                tracer._count(name, args)
            return result

        return wrapper

    def _count_levels(self, name, family, result, dur, evals) -> None:
        """Levels found per spectrum call, and family-function evaluations
        spent on the calls that had to find roots."""
        levels = len(result.discrete)
        if levels:
            self.units[name + ".levels"] += levels
            self.units[name + ".time_with_levels"] += dur
        if evals:
            self.units[family + ".evals"] += evals
            self.units[family + ".levels"] += levels

    def _count(self, name, args) -> None:
        """Work units for the per-sample / per-level / per-node metrics."""
        u = self.units
        if name == "duality.verify_solution_identity":
            u[name + ".samples"] += _size(args[2])
        elif name == "duality.verify_coefficient_identities":
            u[name + ".samples"] += _size(args[1])
        elif name == "duality.verify_spectrum_correspondence":
            u[name + ".levels"] += int(args[2]) + 1
        elif name == "oracle.fd_eigenvalues":
            u[name + ".nodes"] += args[1].points

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding for the duration of the block, then restore."""
        import radialspec  # noqa: F401  (loads every submodule)

        mods = {k: v for k, v in sys.modules.items()
                if k == "radialspec" or k.startswith("radialspec.")}
        undo = []
        for modname, attr, name in FUNCTIONS:
            orig = getattr(mods.get("radialspec." + modname), attr, None)
            if orig is None:
                continue
            wrapped = self.wrap(name, orig)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        undo.append((mod, key, val))
                        setattr(mod, key, wrapped)
        for modname, attr in SCIPY:
            mod = mods.get("radialspec." + modname)
            orig = getattr(mod, attr, None)
            if orig is not None:
                undo.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(f"{modname}.{attr}", orig))
        for modname, cls, attr, name in METHODS:
            klass = getattr(mods.get("radialspec." + modname), cls, None)
            orig = klass.__dict__.get(attr) if klass is not None else None
            if orig is not None:
                undo.append((klass, attr, orig))
                setattr(klass, attr, self.wrap(name, orig))
        try:
            yield self
        finally:
            for obj, key, val in reversed(undo):
                setattr(obj, key, val)

    # --- results
    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent",
                                            "task", "workload"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    def per_layer(self, interpreter_ms: float) -> dict:
        out = {}
        for w, p in self.passes.items():
            if w == "cli":
                out.update(_cli_metrics(p["records"], interpreter_ms))
            else:
                m = _pass_metrics(p)
                out.update({k: v for k, v in m.items() if HOME.get(k) == w})
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pass_metrics(p: dict) -> dict:
    agg, units = p["agg"], p["units"]
    tasks = sum(v[0] for k, v in agg.items() if k.startswith("task."))
    task_time = sum(v[1] for k, v in agg.items() if k.startswith("task."))

    def calls(name):
        return sum(v[0] for k, v in agg.items() if k == name or k.startswith(name + "."))

    def total(name):
        return sum(v[1] for k, v in agg.items() if k == name or k.startswith(name + "."))

    def per_call(name, scale=1e6):
        return _ratio(total(name) * scale, calls(name))

    m = {}
    for fn, branches in (("kummer_m", ("series", "asymptotic", "terminating")),
                         ("tricomi_u", ("log_series", "asymptotic", "terminating"))):
        for br in branches:
            m[f"specfun.{fn}.{br}.us_per_call"] = per_call(f"specfun.{fn}.{br}")
        m[f"specfun.{fn}.calls_per_task"] = _ratio(calls(f"specfun.{fn}"), tasks)
    for fn in ("kummer_log_companion", "kummer_m_param_derivative", "bessel", "digamma",
               "trigamma", "gamma"):
        m[f"specfun.{fn}.us_per_call"] = per_call(f"specfun.{fn}")
    m["specfun.digamma.calls_per_task"] = _ratio(calls("specfun.digamma"), tasks)
    for layer in MODULE_LAYERS:
        own = sum(v[2] for k, v in agg.items() if k.startswith(layer + ".")
                  and not k.endswith((".brentq", ".eigh_tridiagonal", ".solve_ivp")))
        m[f"{layer}.self_share"] = _ratio(own, task_time)
    for mod, fn in (("oscillator", "osc"), ("coulomb", "coul")):
        m[f"{mod}.{fn}_solution.us_per_call"] = per_call(f"{mod}.{fn}_solution")
        m[f"{mod}.{fn}_solution.calls_per_task"] = _ratio(calls(f"{mod}.{fn}_solution"), tasks)
        m[f"{mod}.{fn}_eigenfunction.us_per_call"] = per_call(f"{mod}.{fn}_eigenfunction")
        m[f"{mod}.{fn}_green.us_per_point"] = per_call(f"{mod}.{fn}_green")
        fam = f"{mod}.{fn}_family_function"
        m[fam + ".evals_per_level"] = _ratio(units.get(fam + ".evals", 0.0),
                                             units.get(fam + ".levels", 0.0))
        spc = f"{mod}.{fn}_spectrum"
        m[spc + ".us_per_level"] = _ratio(units.get(spc + ".time_with_levels", 0.0) * 1e6,
                                          units.get(spc + ".levels", 0.0))
    m["core.RadialWave.call.us_per_point"] = per_call("core.RadialWave.call")
    m["core.SpectralMeasure.density_at.us_per_point"] = per_call(
        "core.SpectralMeasure.density_at")
    m["core.classify.calls_per_task"] = _ratio(calls("core.classify"), tasks)
    for name in ("duality.verify_solution_identity", "duality.verify_coefficient_identities"):
        m[name + ".us_per_sample"] = _ratio(total(name) * 1e6, units.get(name + ".samples", 0))
    name = "duality.verify_spectrum_correspondence"
    m[name + ".us_per_level"] = _ratio(total(name) * 1e6, units.get(name + ".levels", 0))
    fd = total("oracle.fd_eigenvalues")
    m["oracle.fd_eigenvalues.ns_per_node"] = _ratio(
        fd * 1e9, units.get("oracle.fd_eigenvalues.nodes", 0))
    # eigh_tridiagonal is only called from inside fd_eigenvalues
    m["oracle.eigh_tridiagonal.share_of_fd"] = _ratio(total("oracle.eigh_tridiagonal"), fd)
    m["oracle.shoot_eigenvalue.ms_per_call"] = per_call("oracle.shoot_eigenvalue", 1e3)
    m["oracle.solve_ivp.calls_per_shoot"] = _ratio(calls("oracle.solve_ivp"),
                                                   calls("oracle.shoot_eigenvalue"))
    m["oracle.solve_ivp.ms_per_call"] = per_call("oracle.solve_ivp", 1e3)
    return m


def _cli_metrics(records: list, interpreter_ms: float) -> dict:
    m = {"cli.interpreter_ms": interpreter_ms}
    ok = [r for r in records if r["status"] == "ok"]
    for mod in CLI_IMPORTS:
        vals = [r["out"]["importtime"].get(mod, 0.0) for r in ok]
        m[f"cli.import.{mod.replace('.', '_')}_ms"] = statistics.median(vals) if vals else 0.0
    for cmd in CLI_COMMANDS:
        vals = [r["lat"] * 1e3 for r in records if r["task"]["command"] == cmd]
        m[f"cli.{cmd}.wall_ms"] = statistics.median(vals) if vals else 0.0
    return m
