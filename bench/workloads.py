"""The benchmark's workloads.

Each workload loads or builds its assemblies once (``load``, part of the
timed set-up) and then solves the same operations in every round. One
operation is one solve as ``nestrod solve`` does it: ``shoot()``, then
``solution_payload()`` and ``write_json()``. The program is reached through
module attributes at call time, so the traced run's wrappers see each call.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nestrod import export, scenario, shooting
from nestrod.assembly import (AssemblySpec, StraightRouting, TendonSpec,
                              TubeSpec, section_stiffness)

import checks
import reference


@dataclass
class Op:
    """One timed solve: its CPU time, the reference kernel's pass times
    around and during it, and the solution, or the error."""

    label: str
    seconds: float
    passes: list
    solution: object = None
    error: str | None = None

    @property
    def scaled(self) -> float:
        """CPU seconds at the reference machine speed (see reference.py)."""
        return reference.scaled(self.seconds, self.passes)


def solve(out_dir: Path, label: str, assembly, options, guess=None) -> Op:
    """One operation, timed in process CPU time (see README: wall time on a
    shared machine swings with preemption, CPU time follows the work) and
    measured against the reference kernel."""
    meter = reference.Meter()
    solution, error = None, None
    with meter.measure():
        try:
            solution = shooting.shoot(assembly, options, initial_guess=guess)
            export.write_json(out_dir / f"{label}.json",
                              export.solution_payload(solution))
        except Exception:  # a failed solve is counted and reported, never fatal
            error = traceback.format_exc()
    return Op(label, meter.seconds, meter.passes, solution, error)


class ColdPresets:
    """Cold solves from the rest guess of bundled presets.

    Why: the tension ramp and Newton from rest dominate, with RHS calls at
    the FD-stencil batch width. The presets run at fewer steps per segment
    than their default 200, so that two or three rounds fit a run and each
    solve counts at its median over them. The helix backbone keeps 150, as
    its tip is 7e-7 m from the reference model at 100 steps, against a
    1e-6 m check.
    """

    # (preset, steps_per_segment)
    PRESETS = (
        ("ctr_theta_90", 50),                    # tendon-free curved pair
        ("single_tube_helical_backbone", 150),   # helix rest shape
        ("two_tube_helical", 20),                # helical routing
        ("three_tube_c", 10),                    # 3-D three-tube stack
    )

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir
        self.scenarios = []

    def load(self):
        self.scenarios = []
        for name, steps in self.PRESETS:
            sc = scenario.preset_scenario(name, allow_placeholders=True)
            sc.options.steps_per_segment = steps
            self.scenarios.append(sc)

    def round(self) -> list[Op]:
        return [solve(self.out_dir, sc.name, sc.assembly, sc.options)
                for sc in self.scenarios]

    def check(self, ops: list[Op]) -> list[str]:
        out = []
        for sc, op in zip(self.scenarios, ops):
            sol = op.solution
            if sol is None:
                continue
            found = checks.common(sol)
            if sc.name == "ctr_theta_90":
                found += checks.overlap_closed_form(sol, sc.assembly)
            if sc.name == "single_tube_helical_backbone":
                found += checks.oracle_tip(sol, sc.assembly)
            out += [f"{op.label}: {msg}" for msg in found]
        return out


class WarmTrack:
    """``two_tube_0`` with every tension scaled together from zero to
    nominal in equal steps, each point warm-started from the previous
    solution's guess as ``nestrod sweep`` does.

    Why: the control and shape-estimation use. No ramp and few Newton
    iterations, so per-solve fixed costs and batch-1 passes weigh more.
    """

    PRESET = "two_tube_0"
    POINTS = 6
    STEPS = 50

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir
        self.sc = None
        self.nominal = []

    def load(self):
        self.sc = scenario.preset_scenario(self.PRESET, allow_placeholders=True)
        self.sc.options.steps_per_segment = self.STEPS
        self.nominal = [t.tension for t in self.sc.assembly.tendons]

    def round(self) -> list[Op]:
        ops = []
        guess = None
        for i in range(self.POINTS):
            scale = i / (self.POINTS - 1)
            for tendon, nominal in zip(self.sc.assembly.tendons, self.nominal):
                tendon.tension = scale * nominal
            op = solve(self.out_dir, f"{self.PRESET}_{i}", self.sc.assembly,
                       self.sc.options, guess)
            if op.solution is not None:
                guess = op.solution.guess
            ops.append(op)
        return ops

    def check(self, ops: list[Op]) -> list[str]:
        out = []
        solved = [op for op in ops if op.solution is not None]
        for op in solved:
            found = checks.common(op.solution) + checks.in_plane(op.solution)
            if op is ops[0]:
                found += checks.rest_tip(op.solution)
            out += [f"{op.label}: {msg}" for msg in found]
        return out + checks.monotone_deflection([op.solution for op in solved])


class SingleTubeDraws:
    """Seeded random tendon-loaded single tubes, solved with default
    ``SolverOptions`` and each checked against the scipy reference model.

    Why: the one-tube branch of the system assembly and short solves,
    where per-solve set-up, the recording pass and export weigh more.

    Candidates are drawn over the parameter ranges of the acceptance test's
    single-tube draws. A round takes four of them, chosen by the two inputs
    that set a solve's cost. The tension band sets the number of ramp
    steps, and the load parameter T·L²/EI sets how hard Newton works; its
    top percent costs several times the rest. The four draws fill the
    tension bands as a uniform tension fills them, and each is the
    candidate of its band whose load parameter lies nearest a set quantile
    of the pool's. Four draws taken at random made round times differ by up
    to 2x between seeds. Each draw goes through a scenario file, as a
    user's robot would.
    """

    BANDS = ((0.3, 0.5), (0.5, 1.0), (0.5, 1.0), (1.0, 1.2))   # N
    QUANTILES = (0.25, 0.5, 0.5, 0.75)
    POOL = 64

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir
        self.seed = seed
        self.specs = []          # the assemblies as drawn
        self.loaded = []         # the same, read back from scenario files

    def _draw(self):
        rng = np.random.default_rng(self.seed)
        pool = []
        for _ in range(self.POOL):
            length = rng.uniform(0.08, 0.20)
            od = rng.uniform(0.8e-3, 1.6e-3)
            bore = od * rng.uniform(0.50, 0.85)
            e_mod = rng.uniform(40e9, 210e9)
            g_mod = e_mod / (2.0 * (1.0 + rng.uniform(0.30, 0.42)))
            radius = rng.uniform(1.5e-3, 3.2e-3)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            tension = rng.uniform(0.3, 1.2)
            tube = TubeSpec(length=length, elastic_modulus=e_mod,
                            shear_modulus=g_mod, outer_diameter=od,
                            inner_diameter=bore)
            bending = section_stiffness(tube).kbt_diag[0]
            # keep the accumulated bend shallow, as the acceptance test does
            bend = tension * radius * length / bending
            if bend > 2.0:
                tension *= 2.0 / bend
            spec = AssemblySpec(tubes=[tube], tendons=[TendonSpec(
                routing=StraightRouting([radius * math.cos(angle),
                                         radius * math.sin(angle)]),
                tension=tension)])
            pool.append((tension * length ** 2 / bending, spec))
        loads = sorted(load for load, _ in pool)
        picks = []
        for (lo, hi), q in zip(self.BANDS, self.QUANTILES):
            target = loads[int(q * self.POOL)]
            band = [(load, spec) for load, spec in pool
                    if lo < spec.tendons[0].tension <= hi
                    and not any(spec is p for p in picks)]
            picks.append(min(band, key=lambda c: abs(math.log(c[0] / target)))[1])
        return picks

    @staticmethod
    def _scenario_text(name: str, spec) -> str:
        (tube,), (tendon,) = spec.tubes, spec.tendons
        x, y = tendon.routing.offset[:2]
        return (
            f"name {name}\nstrategy outermost\n\n"
            f"tube {{\n"
            f"  length_m {tube.length!r}\n"
            f"  elastic_modulus_Pa {tube.elastic_modulus!r}\n"
            f"  shear_modulus_Pa {tube.shear_modulus!r}\n"
            f"  outer_diameter_m {tube.outer_diameter!r}\n"
            f"  inner_diameter_m {tube.inner_diameter!r}\n"
            f"}}\n\n"
            f"tendon {{\n"
            f"  tube 0\n"
            f"  tension_N {tendon.tension!r}\n"
            f"  routing {{\n"
            f"    kind straight\n"
            f"    offset_m [{float(x)!r}, {float(y)!r}]\n"
            f"  }}\n"
            f"}}\n")

    def load(self):
        self.specs = self._draw()
        self.loaded = []
        for i, spec in enumerate(self.specs):
            path = self.out_dir / f"draw_{i}.scn"
            path.write_text(self._scenario_text(f"draw_{i}", spec),
                            encoding="utf-8")
            self.loaded.append(scenario.load_scenario(path))

    def round(self) -> list[Op]:
        return [solve(self.out_dir, sc.name, sc.assembly, shooting.SolverOptions())
                for sc in self.loaded]

    def check(self, ops: list[Op]) -> list[str]:
        out = []
        for spec, op in zip(self.specs, ops):
            if op.solution is None:
                continue
            found = checks.common(op.solution) + checks.oracle_tip(op.solution, spec)
            out += [f"{op.label}: {msg}" for msg in found]
        return out


WORKLOADS = {
    "cold_presets": ColdPresets,
    "warm_track": WarmTrack,
    "single_tube_draws": SingleTubeDraws,
}
