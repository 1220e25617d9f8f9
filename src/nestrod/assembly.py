"""Specification of a nested-tube assembly and its segment decomposition.

An assembly is an ordered list of elastic tubes (outermost first) sharing a
clamped base, plus tendons routed along cross-section offsets. Tube tips and
tendon terminations split the robot into segments; within a segment the set
of active tubes and tendons is constant. All stations are reference
(undeformed) arc length measured from the base plate.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyAssembly, OutOfDomain, ValidationError

# Stations closer than this merge into a single segment boundary, and a
# tendon termination may overshoot its tube's tip by at most this much.
STATION_TOL = 1e-6

# A routing query may overshoot its knot span by this much (round-off of
# the integrator's stations).
KNOT_TOL = 1e-12


# ---------------------------------------------------------------------------
# rest shapes (stress-free curvature / stretch, constant along the tube)
# ---------------------------------------------------------------------------


class StraightRest:
    """Stress-free state of a straight tube: zero curvature, unit stretch."""

    constant = True  # station-independent; the solver requires it of a rest

    def curvature(self, s: float) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros(3), np.zeros(3)

    def stretch(self, s: float) -> tuple[np.ndarray, np.ndarray]:
        return np.array([0.0, 0.0, 1.0]), np.zeros(3)


@dataclass(frozen=True)
class ArcRest:
    """Planar pre-curved tube: constant curvature ``kappa`` whose rotation
    axis lies in the cross-section at ``plane_angle`` from the first axis."""

    kappa: float
    plane_angle: float = 0.0

    constant = True

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and math.isfinite(self.plane_angle)):
            raise ValidationError("arc rest shape needs a finite curvature and plane angle")

    def curvature(self, s: float) -> tuple[np.ndarray, np.ndarray]:
        u = self.kappa * np.array(
            [math.cos(self.plane_angle), math.sin(self.plane_angle), 0.0]
        )
        return u, np.zeros(3)

    def stretch(self, s: float) -> tuple[np.ndarray, np.ndarray]:
        return np.array([0.0, 0.0, 1.0]), np.zeros(3)


@dataclass(frozen=True)
class HelixRest:
    """Stress-free backbone tracing a helix of given radius and pitch.

    The material frame spins about the base third axis (rate 2*pi per turn
    of helix arc length) while the backbone point rides at a constant
    cross-section offset, so both rest curvature and rest stretch are
    constant vectors: twist-only curvature plus an off-axis stretch.
    """

    radius: float
    pitch: float  # advance along the axis per full turn
    phase: float = 0.0

    constant = True

    def __post_init__(self):
        if not (0 < self.radius < math.inf and 0 < self.pitch < math.inf
                and math.isfinite(self.phase)):
            raise ValidationError(
                "helix rest shape needs finite radius > 0, pitch > 0 and phase")

    @property
    def _turn_length(self) -> float:
        return math.hypot(2.0 * math.pi * self.radius, self.pitch)

    def curvature(self, s: float) -> tuple[np.ndarray, np.ndarray]:
        omega = 2.0 * math.pi / self._turn_length
        return np.array([0.0, 0.0, omega]), np.zeros(3)

    def stretch(self, s: float) -> tuple[np.ndarray, np.ndarray]:
        swirl = 2.0 * math.pi * self.radius / self._turn_length
        v = np.array(
            [
                -swirl * math.sin(self.phase),
                swirl * math.cos(self.phase),
                self.pitch / self._turn_length,
            ]
        )
        return v, np.zeros(3)


# ---------------------------------------------------------------------------
# cross-section stiffness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StiffnessPair:
    """Diagonal shear/extension and bending/torsion stiffness of one tube.

    ``kse_diag`` holds (GA, GA, EA); ``kbt_diag`` holds (EI, EI, GJ).
    """

    kse_diag: np.ndarray
    kbt_diag: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kse_diag", np.asarray(self.kse_diag, dtype=float))
        object.__setattr__(self, "kbt_diag", np.asarray(self.kbt_diag, dtype=float))
        if self.kse_diag.shape != (3,) or self.kbt_diag.shape != (3,):
            raise ValidationError("stiffness diagonals must be length-3")
        diagonals = np.concatenate([self.kse_diag, self.kbt_diag])
        if not np.all((diagonals > 0) & np.isfinite(diagonals)):
            raise ValidationError("stiffness entries must be positive and finite")

    def scaled(self, factor: float) -> "StiffnessPair":
        return StiffnessPair(self.kse_diag * factor, self.kbt_diag * factor)


@dataclass
class TubeSpec:
    """Geometry and material of a single tube.

    Cross-section stiffness comes from the annulus formulas unless an
    explicit ``stiffness`` override is supplied (in which case diameters and
    moduli may be omitted). ``base_offset`` is how much of the tube is
    retracted behind the base plate (telescoping), so the tip sits at
    composite station ``length - base_offset``.
    """

    length: float
    elastic_modulus: float | None = None
    shear_modulus: float | None = None
    outer_diameter: float | None = None
    inner_diameter: float | None = None
    rest_shape: object = field(default_factory=StraightRest)
    stiffness: StiffnessPair | None = None

    def validate(self, label: str = "tube") -> list[str]:
        problems = []
        for name in ("length", "elastic_modulus", "shear_modulus",
                     "outer_diameter", "inner_diameter"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                problems.append(f"{label}: {name} must be finite (got {value})")
        if not (self.length > 0):
            problems.append(f"{label}: length must be > 0 (got {self.length})")
        if self.stiffness is None:
            for name in ("elastic_modulus", "shear_modulus", "outer_diameter", "inner_diameter"):
                if getattr(self, name) is None:
                    problems.append(f"{label}: {name} required without a stiffness override")
            if self.elastic_modulus is not None and self.elastic_modulus <= 0:
                problems.append(f"{label}: elastic_modulus must be > 0")
            if self.shear_modulus is not None and self.shear_modulus <= 0:
                problems.append(f"{label}: shear_modulus must be > 0")
        if not getattr(self.rest_shape, "constant", False):
            problems.append(
                f"{label}: rest shape {type(self.rest_shape).__name__} is not "
                "constant along the tube (constant = True); the solver reads "
                "rest strains once per segment")
        if self.outer_diameter is not None and self.inner_diameter is not None:
            if not (self.outer_diameter > self.inner_diameter >= 0):
                problems.append(
                    f"{label}: need outer_diameter > inner_diameter >= 0 "
                    f"(got {self.outer_diameter}, {self.inner_diameter})"
                )
        return problems


def section_stiffness(tube: TubeSpec) -> StiffnessPair:
    """Shear/extension and bending/torsion stiffness of an annular section.

    Area ``A = pi/4 (OD^2 - ID^2)``, second moment ``I = pi/64 (OD^4 - ID^4)``,
    polar moment ``J = 2 I``. An explicit override on the tube wins.
    """
    if tube.stiffness is not None:
        return tube.stiffness
    problems = tube.validate()
    if problems:
        raise ValidationError(problems)
    od, idi = tube.outer_diameter, tube.inner_diameter
    e, g = tube.elastic_modulus, tube.shear_modulus
    area = math.pi / 4.0 * (od**2 - idi**2)
    second = math.pi / 64.0 * (od**4 - idi**4)
    polar = 2.0 * second
    return StiffnessPair(
        kse_diag=np.array([g * area, g * area, e * area]),
        kbt_diag=np.array([e * second, e * second, g * polar]),
    )


# ---------------------------------------------------------------------------
# tendon routing paths
# ---------------------------------------------------------------------------


class StraightRouting:
    """Constant cross-section offset; the tendon runs parallel to the axis."""

    constant = True  # station-independent, safe to cache per segment

    def __init__(self, offset):
        offset = np.asarray(offset, dtype=float)
        if offset.shape == (2,):
            offset = np.array([offset[0], offset[1], 0.0])
        if offset.shape != (3,) or offset[2] != 0.0:
            raise ValidationError("straight routing offset must be in-plane (z = 0)")
        if not np.all(np.isfinite(offset)):
            raise ValidationError("straight routing offset must be finite")
        self.offset = offset

    def eval(self, s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.offset.copy(), np.zeros(3), np.zeros(3)


class HelicalRouting:
    """Offset winding around the cross-section: fixed radius, the angle
    advancing ``2*pi`` per ``period`` of arc length, starting at ``phase``."""

    def __init__(self, radius: float, period: float, phase: float = 0.0):
        if not (0 < radius < math.inf and 0 < period < math.inf
                and math.isfinite(phase)):
            raise ValidationError(
                "helical routing needs finite radius > 0, period > 0 and phase")
        self.radius = float(radius)
        self.period = float(period)
        self.phase = float(phase)

    def eval(self, s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        w = 2.0 * math.pi / self.period
        a = w * s + self.phase
        c, sn = math.cos(a), math.sin(a)
        r = self.radius * np.array([c, sn, 0.0])
        rdot = self.radius * w * np.array([-sn, c, 0.0])
        rddot = -(w**2) * r
        return r, rdot, rddot


class PiecewiseAngularRouting:
    """Routing through guide points given as (station, angle, radius) knots.

    Angle and radius are interpolated with natural cubic splines so the
    second derivative of the offset stays continuous. Queries outside the
    knot span raise :class:`OutOfDomain`.
    """

    def __init__(self, knots):
        knots = sorted((float(s), float(a), float(r)) for s, a, r in knots)
        if len(knots) < 2:
            raise ValidationError("piecewise angular routing needs at least 2 knots")
        if not np.all(np.isfinite(knots)):
            raise ValidationError("routing knots must be finite")
        stations = np.array([k[0] for k in knots])
        if np.any(np.diff(stations) <= 0):
            raise ValidationError("routing knot stations must be strictly increasing")
        if any(k[2] <= 0 for k in knots):
            raise ValidationError("routing knot radii must be positive")
        from scipy.interpolate import CubicSpline

        self.stations = stations
        self._angle = CubicSpline(stations, [k[1] for k in knots], bc_type="natural")
        self._radius = CubicSpline(stations, [k[2] for k in knots], bc_type="natural")

    def eval(self, s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if s < self.stations[0] - KNOT_TOL or s > self.stations[-1] + KNOT_TOL:
            raise OutOfDomain(
                f"station {s} outside routing domain "
                f"[{self.stations[0]}, {self.stations[-1]}]"
            )
        a, da, dda = (float(self._angle(s, k)) for k in range(3))
        rho, drho, ddrho = (float(self._radius(s, k)) for k in range(3))
        c, sn = math.cos(a), math.sin(a)
        e = np.array([c, sn, 0.0])            # radial direction
        t = np.array([-sn, c, 0.0])           # tangential direction
        r = rho * e
        rdot = drho * e + rho * da * t
        rddot = (
            (ddrho - rho * da * da) * e + (2.0 * drho * da + rho * dda) * t
        )
        return r, rdot, rddot


# ---------------------------------------------------------------------------
# tendons, strategies, assembly
# ---------------------------------------------------------------------------


class Strategy(enum.Enum):
    """How distributed tendon loads attach to tubes within a segment: to
    the segment's outermost tube, or to the tube each tendon anchors on.
    Anchor point loads always act on the anchoring tube."""

    OUTERMOST_OF_SEGMENT = "outermost_of_segment"
    TERMINATING_TUBE = "terminating_tube"


def _is_index(i, n: int) -> bool:
    """Whether ``i`` is a whole number in ``range(n)``."""
    return isinstance(i, numbers.Integral) and 0 <= i < n


@dataclass
class TendonSpec:
    """One tendon: its routing, pull tension, and where it anchors.

    ``tube`` is the 0-based index of the tube whose wall/guides the tendon
    terminates on; ``termination`` is the anchor station in that tube's own
    arc length (defaults to the tube tip). The routing, too, is a function
    of that tube's own arc length, so it travels with the tube when the
    tube is retracted behind the base plate. The terminating tube always
    receives the anchor point load; distributed-load attachment follows the
    assembly strategy.
    """

    routing: object
    tension: float
    tube: int = 0
    termination: float | None = None

    def validate(self, tubes: list[TubeSpec], label: str = "tendon") -> list[str]:
        problems = []
        if not (0 <= self.tension < math.inf):
            problems.append(
                f"{label}: tension must be >= 0 and finite (got {self.tension})")
        if not _is_index(self.tube, len(tubes)):
            problems.append(f"{label}: terminating tube index {self.tube} out of range")
            return problems
        if self.termination is not None:
            tube_len = tubes[self.tube].length
            if not math.isfinite(self.termination):
                problems.append(f"{label}: termination must be finite "
                                f"(got {self.termination})")
            elif self.termination > tube_len + STATION_TOL:
                problems.append(
                    f"{label}: termination {self.termination} m beyond its tube's "
                    f"length {tube_len} m"
                )
            if self.termination <= 0:
                problems.append(f"{label}: termination must be > 0")
        return problems


@dataclass
class AssemblySpec:
    """Full description of one nested-tube robot.

    Tubes are ordered outermost first. ``base_twists[i]`` is the actuated
    rotation of tube ``i`` about the shared tangent at the base (tube 0 is
    the angular reference and must have zero twist); ``base_offsets[i]`` is
    the retraction of tube ``i`` behind the base plate.
    """

    tubes: list[TubeSpec]
    tendons: list[TendonSpec] = field(default_factory=list)
    base_twists: list[float] | None = None
    base_offsets: list[float] | None = None
    strategy: Strategy = Strategy.OUTERMOST_OF_SEGMENT

    def __post_init__(self):
        n = len(self.tubes)
        if self.base_twists is None:
            self.base_twists = [0.0] * n
        if self.base_offsets is None:
            self.base_offsets = [0.0] * n

    def validate(self) -> None:
        """Raise :class:`ValidationError` listing every problem found."""
        if not self.tubes:
            raise EmptyAssembly("assembly has no tubes")
        problems: list[str] = []
        n = len(self.tubes)
        for i, tube in enumerate(self.tubes):
            problems += tube.validate(f"tube {i + 1}")
        if len(self.base_twists) != n:
            problems.append(f"base_twists must have {n} entries")
        else:
            if self.base_twists[0] != 0.0:
                problems.append("tube 1 is the angular reference; its base twist must be 0")
            problems += [f"tube {i + 1}: base twist must be finite (got {twist})"
                         for i, twist in enumerate(self.base_twists)
                         if not math.isfinite(twist)]
        if len(self.base_offsets) != n:
            problems.append(f"base_offsets must have {n} entries")
        else:
            for i, (tube, off) in enumerate(zip(self.tubes, self.base_offsets)):
                if not math.isfinite(off):
                    problems.append(f"tube {i + 1}: base offset must be finite (got {off})")
                elif off < 0:
                    problems.append(f"tube {i + 1}: base offset must be >= 0")
                elif tube.length - off <= STATION_TOL:
                    problems.append(f"tube {i + 1}: fully retracted behind the base")
        for i in range(n - 1):
            outer, inner = self.tubes[i], self.tubes[i + 1]
            if outer.inner_diameter is not None and inner.outer_diameter is not None:
                if inner.outer_diameter >= outer.inner_diameter:
                    problems.append(
                        f"tube {i + 2} (OD {inner.outer_diameter}) does not fit inside "
                        f"tube {i + 1} (ID {outer.inner_diameter})"
                    )
        placed = (len(self.base_offsets) == n
                  and all(_is_index(t.tube, n) for t in self.tendons))
        for j, tendon in enumerate(self.tendons):
            problems += tendon.validate(self.tubes, f"tendon {j + 1}")
            # A retracted tube can carry its anchor behind the base plate
            # (a termination at or below zero is TendonSpec's problem).
            if (placed and (tendon.termination or 0.0) > 0
                    and self.termination_station(j) <= STATION_TOL):
                problems.append(f"tendon {j + 1}: anchors at/behind the base plate")
        piecewise = [j for j, t in enumerate(self.tendons)
                     if isinstance(t.routing, PiecewiseAngularRouting)]
        if piecewise and placed:
            # The tendon runs from the base plate to its anchor, in the arc
            # length of its tube; the knots have to span that. The anchor
            # is where segment_plan puts it, snapped onto a nearby boundary.
            _, anchors = _snap_stations(
                [self.tip_station(i) for i in range(n)],
                [self.termination_station(j) for j in range(len(self.tendons))])
            for j in piecewise:
                tendon = self.tendons[j]
                start = self.base_offsets[tendon.tube]
                end = anchors[j] + start
                knots = tendon.routing.stations
                if start < knots[0] - KNOT_TOL or end > knots[-1] + KNOT_TOL:
                    problems.append(
                        f"tendon {j + 1}: routing knots span [{knots[0]}, "
                        f"{knots[-1]}] m of its tube, but the tendon runs "
                        f"over [{start}, {end}] m")
        if problems:
            raise ValidationError(problems)

    def tip_station(self, i: int) -> float:
        """Composite station of tube ``i``'s distal end."""
        return self.tubes[i].length - self.base_offsets[i]

    def termination_station(self, j: int) -> float:
        """Composite station where tendon ``j`` anchors."""
        tendon = self.tendons[j]
        local = tendon.termination
        if local is None:
            local = self.tubes[tendon.tube].length
        return local - self.base_offsets[tendon.tube]


@dataclass
class Segment:
    """One constant-membership stretch of the robot, and the boundary at
    its ``end``: the tubes whose tips and the tendons whose anchors lie
    there (the robot's tip for the last segment)."""

    start: float
    end: float
    tubes: list[int]                 # active tube indices, outermost first
    tendons: list[int]               # active tendon indices
    ending_tubes: list[int]          # active tubes whose tip is at ``end``
    terminating_tendons: list[int]   # active tendons anchored at ``end``


def _snap_stations(tips: list[float],
                   terms: list[float]) -> tuple[list[float], list[float]]:
    """Boundary stations and the station each termination snaps to.

    Tube tips seed the boundary set; terminations snap to an existing
    boundary when within tolerance, otherwise they open a new one.
    """
    merged: list[float] = []
    for st in sorted(set(tips)):
        if merged and st - merged[-1] <= STATION_TOL:
            continue
        merged.append(st)
    snapped = []
    for ts in terms:
        near = min(merged, key=lambda b: abs(b - ts))
        if abs(near - ts) <= STATION_TOL:
            snapped.append(near)
        else:
            snapped.append(ts)
            merged = sorted(set(merged + [ts]))
    return merged, snapped


def segment_plan(assembly: AssemblySpec) -> list[Segment]:
    """Split the assembly at every tube tip and tendon termination; the
    segments run base to tip.

    Stations within ``STATION_TOL`` of each other merge (tendon terminations
    snap onto tube tips); a termination beyond its tube's tip or at/behind
    the base plate is a validation error, raised by
    :meth:`AssemblySpec.validate`.
    """
    assembly.validate()
    n = len(assembly.tubes)
    tips = [assembly.tip_station(i) for i in range(n)]
    terms = [assembly.termination_station(j) for j in range(len(assembly.tendons))]
    merged, snapped_terms = _snap_stations(tips, terms)
    boundaries = [b for b in merged if b > STATION_TOL]

    segments: list[Segment] = []
    start = 0.0
    for b in boundaries:
        # A tube is active on the segment (start, b] iff its tip is at or past b.
        active_tubes = [i for i in range(n) if tips[i] >= b - STATION_TOL]
        active_tendons = [j for j in range(len(assembly.tendons))
                          if snapped_terms[j] >= b - STATION_TOL]
        if not active_tubes:
            raise ValidationError([f"no tube spans segment ending at {b:.6f} m"])
        segments.append(Segment(
            start, b, active_tubes, active_tendons,
            ending_tubes=[i for i in active_tubes if abs(tips[i] - b) <= STATION_TOL],
            terminating_tendons=[j for j in active_tendons
                                 if abs(snapped_terms[j] - b) <= STATION_TOL],
        ))
        start = b
    return segments
