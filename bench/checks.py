"""Correctness checks on solved shapes.

Every check compares a solution with an independent computation (scipy's
Simpson rule, the reference models in ``nestrod.oracles``) or with a
property the exact solution must have (rest state, mirror symmetry,
monotone response). None compares against stored output. Each returns a
list of failure messages, empty when the check passes.

``nestrod.oracles`` and scipy are imported inside the checks that use
them, so they never count towards the benchmark's set-up time.
"""

from __future__ import annotations

import numpy as np

from nestrod import shooting
from nestrod.assembly import section_stiffness

FORCE_TOL = 1e-8          # N, per force-class residual component
MOMENT_TOL = 1e-10        # N·m, per moment-class residual component
TWIST_TOL = 1e-8          # rad per 0.1 m, shooting.twist_consistency
FRAME_TOL = 1e-12         # max |RᵀR − I| entry at any station
# Simpson's rule errs by about L·h⁴·|f⁗|/180 over a span of length L with
# step h, and h⁴·f⁗ is the integrand's fourth difference; the RK4 march
# errs by the same order. The tip may differ from the quadrature by the sum
# of L·max|Δ⁴f| over segments (13× the worst case the workloads show), plus
# round-off.
QUADRATURE_FLOOR = 1e-12  # × total length
ORACLE_TIP_TOL = 1e-6     # m, against oracles.single_tube_shoot
# The reference model's own tolerances; at these its tip moves by ~1e-10 m
# from its defaults, and the helix backbone checks in 5 s instead of 10 s.
ORACLE_RTOL, ORACLE_ATOL = 1e-8, 1e-10
OVERLAP_TOL = 1e-6        # relative, against oracles.ctr_overlap_curvature
REST_TIP_TOL = 1e-9       # × total length, tip of an unloaded straight stack
PLANE_TOL = 1e-12         # × total length, out-of-plane station coordinate


def solve_budgets(solution) -> list[str]:
    """Converged, residual components within budget, twist bookkeeping."""
    out = []
    report = solution.report
    if not report.converged:
        out.append("solve did not converge")
    classes = shooting.build_problem(solution.assembly,
                                     solution.options).residual_classes
    tol = np.where(np.array(classes) == "f", FORCE_TOL, MOMENT_TOL)
    residual = np.abs(np.asarray(report.residual))
    if residual.shape != tol.shape:
        out.append(f"residual has {residual.size} components, "
                   f"expected {tol.size}")
    elif not np.all(residual <= tol):
        worst = int(np.argmax(residual - tol))
        out.append(f"residual component {worst} is {residual[worst]:.3e}, "
                   f"budget {tol[worst]:.0e}")
    twist = shooting.twist_consistency(solution)
    if not twist < TWIST_TOL:
        out.append(f"twist consistency {twist:.3e} rad per 0.1 m")
    return out


def tip_quadrature(solution) -> list[str]:
    """The recorded tip equals the Simpson integral of R·v₁ over stations,
    within the truncation error both discretizations share."""
    from scipy.integrate import simpson

    p = np.zeros(3)
    tol = QUADRATURE_FLOOR * solution.total_length
    for seg in solution.segments:
        rate = np.einsum("sij,sj->si", seg.R, seg.v1)
        p = p + simpson(rate, x=seg.stations, axis=0)
        fourth = np.linalg.norm(np.diff(rate, n=4, axis=0), axis=-1)
        tol += (seg.end - seg.start) * float(np.max(fourth, initial=0.0))
    err = float(np.linalg.norm(p - solution.tip_position))
    if not err <= tol:
        return [f"tip is {err:.3e} m from the quadrature of R·v1 "
                f"(bound {tol:.3e} m)"]
    return []


def frames_orthonormal(solution) -> list[str]:
    worst = 0.0
    for seg in solution.segments:
        gram = np.swapaxes(seg.R, -1, -2) @ seg.R
        worst = max(worst, float(np.max(np.abs(gram - np.eye(3)))))
        if np.any(np.linalg.det(seg.R) <= 0.0):
            return ["a recorded frame is a reflection"]
    if not worst <= FRAME_TOL:
        return [f"recorded frames are {worst:.3e} from orthonormal"]
    return []


def common(solution) -> list[str]:
    """The checks every solve of every workload passes."""
    return (solve_budgets(solution) + tip_quadrature(solution)
            + frames_orthonormal(solution))


# The reference tip of every spec checked so far, by the spec's repr. A
# workload checks the same specs in every round, and the reference for the
# helix backbone takes seconds. The spec is kept with its tip, so that no
# routing object dies and lends its address (which its repr shows) to
# another.
_REFERENCE_TIPS: dict[str, tuple] = {}


def _reference_tip(spec) -> np.ndarray:
    key = repr(spec)
    if key not in _REFERENCE_TIPS:
        from nestrod.oracles import single_tube_shoot

        (tube,) = spec.tubes
        pair = section_stiffness(tube)
        ref = single_tube_shoot(tube.length, pair.kse_diag, pair.kbt_diag,
                                tube.rest_shape,
                                tendons=[(t.routing, t.tension)
                                         for t in spec.tendons],
                                rtol=ORACLE_RTOL, atol=ORACLE_ATOL)
        _REFERENCE_TIPS[key] = (spec, ref.tip_position)
    return _REFERENCE_TIPS[key][1]


def oracle_tip(solution, spec) -> list[str]:
    """Tip of a one-tube solve against the scipy RK45 reference model.

    ``spec`` is the assembly the solve was meant to model; every tendon
    anchors at the tip.
    """
    err = float(np.linalg.norm(solution.tip_position - _reference_tip(spec)))
    if not err <= ORACLE_TIP_TOL:
        return [f"tip is {err:.3e} m from the single-tube reference"]
    return []


def overlap_closed_form(solution, spec) -> list[str]:
    """Load-free two-tube overlap: shared curvature at every station equals
    the stiffness-weighted closed form at the local relative twist θ(s)."""
    from nestrod.oracles import ctr_overlap_curvature

    outer, inner = spec.tubes
    kbt = [section_stiffness(t).kbt_diag for t in spec.tubes]
    worst = 0.0
    overlaps = [seg for seg in solution.segments if len(seg.tubes) == 2]
    for seg in overlaps:
        for j, s in enumerate(seg.stations):
            u_out, _ = outer.rest_shape.curvature(s + spec.base_offsets[0])
            u_in, _ = inner.rest_shape.curvature(s + spec.base_offsets[1])
            want = ctr_overlap_curvature(kbt[0], kbt[1], u_out, u_in,
                                         float(seg.theta[j, 0]))
            err = np.linalg.norm(seg.u1[j, :2] - want) / np.linalg.norm(want)
            worst = max(worst, float(err))
    if not overlaps:
        return ["no two-tube overlap in the solution"]
    if not worst <= OVERLAP_TOL:
        return [f"overlap curvature {worst:.3e} (relative) from closed form"]
    return []


def rest_tip(solution) -> list[str]:
    """An unloaded straight stack stays straight: tip at (0, 0, L)."""
    length = solution.total_length
    err = float(np.linalg.norm(solution.tip_position - [0.0, 0.0, length]))
    if not err <= REST_TIP_TOL * length:
        return [f"unloaded tip is {err:.3e} m from (0, 0, L)"]
    return []


def in_plane(solution) -> list[str]:
    """Guides in the x–z plane keep every station in that plane."""
    worst = max(float(np.max(np.abs(seg.p[:, 1])))
                for seg in solution.segments)
    if not worst <= PLANE_TOL * solution.total_length:
        return [f"station {worst:.3e} m out of the guide plane"]
    return []


def monotone_deflection(solutions) -> list[str]:
    """Tip x-deflection grows strictly with the tension scale."""
    tips = [float(s.tip_position[0]) for s in solutions]
    if not all(b > a for a, b in zip(tips, tips[1:])):
        return ["tip x-deflection is not strictly increasing with tension: "
                + ", ".join(f"{x:.6g}" for x in tips)]
    return []
