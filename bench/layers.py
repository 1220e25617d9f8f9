"""Per-layer timing and counting for the traced benchmark run.

The wrappers sit outside the program: each one replaces a public name in
the module (or class) where its caller looks it up, for the duration of a
traced round only, and restores the original afterwards. A name that no
longer exists is reported as absent instead of stopping the run.
"""

from __future__ import annotations

import importlib
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import reference


def _state_rows(args, kwargs) -> int:
    """Leading batch size of a ``RodState`` argument."""
    return math.prod(args[0].u1.shape[:-1])


def _guess_rows(args, kwargs) -> int:
    """Leading batch size of a base-strain guess argument."""
    return math.prod(args[0].shape[:-1])


def _written_bytes(args, kwargs) -> int:
    return os.path.getsize(args[0])


def _record_pass(args, kwargs) -> bool:
    return bool(kwargs.get("record", args[3] if len(args) > 3 else False))


@dataclass(frozen=True)
class Target:
    """One wrapped name: ``stat`` collects calls to ``module:attr``.

    ``attr`` may be ``Class.method``. ``rows`` adds an amount per call to
    the stat's rows; ``tag`` routes a call into a second stat as well.
    """

    stat: str
    module: str
    attr: str
    rows: object = None
    tag: tuple | None = None     # (second stat, predicate)


_ROUTINGS = ("StraightRouting", "HelicalRouting", "PiecewiseAngularRouting")
_RESTS = ("StraightRest", "ArcRest", "HelixRest")

TARGETS = [
    Target("statics.assemble_system", "nestrod.statics", "assemble_system",
           rows=_state_rows),
    Target("statics.state_derivative", "nestrod.shooting", "state_derivative",
           rows=_state_rows),
    Target("so3.reorthonormalize", "nestrod.shooting", "reorthonormalize"),
    Target("shooting.integrate_segment", "nestrod.shooting",
           "integrate_segment"),
    Target("shooting.apply_transition", "nestrod.shooting", "apply_transition"),
    Target("shooting.boundary_residual", "nestrod.shooting",
           "boundary_residual", rows=_guess_rows,
           tag=("shooting.record_pass", _record_pass)),
    Target("shooting.build_problem", "nestrod.shooting", "build_problem"),
    Target("assembly.segment_plan", "nestrod.shooting", "segment_plan"),
    Target("shooting.shoot", "nestrod.shooting", "shoot"),
    *[Target("assembly.routing.eval", "nestrod.assembly", f"{cls}.eval")
      for cls in _ROUTINGS],
    *[Target("assembly.rest.eval", "nestrod.assembly", f"{cls}.{meth}")
      for cls in _RESTS for meth in ("curvature", "stretch")],
    Target("scenario.load", "nestrod.scenario", "preset_scenario"),
    Target("scenario.load", "nestrod.scenario", "load_scenario"),
    Target("export.solution_payload", "nestrod.export", "solution_payload"),
    Target("export.write_json", "nestrod.export", "write_json",
           rows=_written_bytes),
]


@dataclass
class Stat:
    calls: int = 0
    rows: int = 0
    s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Inclusive and self time, calls and rows per stat name.

    Times are process CPU time, as in the timed runs, without the
    reference kernel's passes (``reference.py``). Self time is a call's
    duration minus the durations of the wrapped calls made inside it,
    tracked with a stack of child-time accumulators.
    """

    def __init__(self, targets=TARGETS):
        self.stats: dict[str, Stat] = {}
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._resolved = []
        for target in targets:
            owner, name = self._owner(target)
            if owner is None or not callable(getattr(owner, name, None)):
                self.absent.append(f"{target.module}:{target.attr}")
                continue
            # Only a class's own attribute is restored by setattr; an
            # inherited one would be shadowed for good.
            if isinstance(owner, type) and name not in vars(owner):
                self.absent.append(f"{target.module}:{target.attr}")
                continue
            self._resolved.append((target, owner, name, getattr(owner, name)))
            self.stats.setdefault(target.stat, Stat())
            if target.tag:
                self.stats.setdefault(target.tag[0], Stat())

    @staticmethod
    def _owner(target: Target):
        try:
            owner = importlib.import_module(target.module)
        except ImportError:
            return None, None
        *path, name = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None
        return owner, name

    def _wrap(self, target: Target, fn):
        stat = self.stats[target.stat]
        tagged = self.stats[target.tag[0]] if target.tag else None
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start, paused = time.process_time(), reference.spent()
            try:
                result = fn(*args, **kwargs)
            finally:
                # without the reference passes taken inside the call
                elapsed = (time.process_time() - start
                           - (reference.spent() - paused))
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat.calls += 1
                stat.s += elapsed
                stat.self_s += elapsed - children
                if tagged is not None and target.tag[1](args, kwargs):
                    tagged.calls += 1
                    tagged.s += elapsed
            if target.rows is not None:
                stat.rows += target.rows(args, kwargs)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Swap every resolved name for its wrapper, and back on exit."""
        for target, owner, name, fn in self._resolved:
            setattr(owner, name, self._wrap(target, fn))
        try:
            yield self
        finally:
            for _, owner, name, fn in self._resolved:
                setattr(owner, name, fn)


# Stat fields reported per traced round, by stat name.
_FIELDS = [
    ("statics.assemble_system", ("calls", "rows", "s")),
    ("statics.state_derivative", ("calls", "rows", "s", "self_s")),
    ("so3.reorthonormalize", ("calls", "s")),
    ("shooting.integrate_segment", ("calls", "s", "self_s")),
    ("shooting.apply_transition", ("calls", "s")),
    ("shooting.boundary_residual", ("calls", "rows", "s")),
    ("shooting.build_problem", ("calls", "s")),
    ("assembly.segment_plan", ("calls",)),
    ("shooting.shoot", ("self_s",)),
    ("assembly.routing.eval", ("calls", "s")),
    ("assembly.rest.eval", ("calls", "s")),
    ("export.solution_payload", ("s",)),
    ("export.write_json", ("s", "rows")),
]
_UNITS = {"calls": "count", "rows": "rows", "s": "s", "self_s": "s"}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, reports, rounds: int):
    """(name, unit, value) of every per-layer metric.

    Values are per traced round, except ``scenario.load.*``, which are per
    set-up. ``reports`` are the convergence reports of every traced solve.
    """
    def stat(name):
        return tracer.stats.get(name, Stat())

    out = []
    for name, fields in _FIELDS:
        for f in fields:
            if name == "export.write_json" and f == "rows":
                out.append(("export.write_json.bytes", "B",
                            stat(name).rows / rounds))
            else:
                out.append((f"{name}.{f}", _UNITS[f],
                            getattr(stat(name), f) / rounds))
    deriv = stat("statics.state_derivative")
    residual = stat("shooting.boundary_residual")
    record = stat("shooting.record_pass")
    load = stat("scenario.load")
    iterations = sum(r.iterations for r in reports)
    out += [
        ("statics.rows_per_call", "rows/call", _ratio(deriv.rows, deriv.calls)),
        ("shooting.record_pass_s", "s", record.s / rounds),
        ("shooting.newton_iterations", "count", iterations / rounds),
        ("shooting.residual_evals_per_iteration", "evals/iter",
         _ratio(residual.calls - record.calls, iterations)),
        ("shooting.continuation_steps", "count",
         sum(r.continuation_steps for r in reports) / rounds),
        ("scenario.load.calls", "count", load.calls),
        ("scenario.load.s", "s", load.s),
        ("trace.absent", "count", len(tracer.absent)),
    ]
    return out
