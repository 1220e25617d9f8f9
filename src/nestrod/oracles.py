"""Independent reference models used to cross-check the main solver.

Everything in this module is implemented from first principles on purpose:
its own skew map, its own single-tube and nested-stack cross-section
assemblies, an energy-minimizing planar chain, and closed-form overlap
curvature. None of it calls into :mod:`nestrod.statics`,
:mod:`nestrod.shooting` or :mod:`nestrod.so3` except inside
:func:`run_validate`, whose whole job is to compare the two routes. scipy
is imported by the routines that use it, so importing the package does not
load it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


def _hat(v):
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def _rotz(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


# ---------------------------------------------------------------------------
# cross-section properties by quadrature
# ---------------------------------------------------------------------------


def section_quadrature(outer_diameter: float, inner_diameter: float,
                       elastic_modulus: float, shear_modulus: float):
    """Annulus section constants by Gauss-Legendre x periodic-trapezoid
    quadrature (exact for these polynomial/harmonic integrands).

    Returns (kse_diag, kbt_diag) like the closed-form section routine.
    """
    nodes, weights = np.polynomial.legendre.leggauss(6)
    r0, r1 = inner_diameter / 2.0, outer_diameter / 2.0
    rho = 0.5 * (r1 - r0) * nodes + 0.5 * (r1 + r0)
    w_r = 0.5 * (r1 - r0) * weights
    n_t = 16
    th = 2.0 * np.pi * np.arange(n_t) / n_t
    w_t = 2.0 * np.pi / n_t

    area = np.sum(w_r * rho) * n_t * w_t
    # second moment about x: integral of (rho sin th)^2 rho drho dth
    second = np.sum(w_r * rho**3) * np.sum(w_t * np.sin(th) ** 2)
    polar = np.sum(w_r * rho**3) * n_t * w_t

    ga = shear_modulus * area
    ea = elastic_modulus * area
    ei = elastic_modulus * second
    gj = shear_modulus * polar
    return np.array([ga, ga, ea]), np.array([ei, ei, gj])


# ---------------------------------------------------------------------------
# independent single-tube cross-section system and shooting solver
# ---------------------------------------------------------------------------


def single_tube_system(u, v, kse_diag, kbt_diag, ustar, ustar_dot,
                       vstar, vstar_dot, tendons):
    """Direct 6x6 assembly of one tube's rate balance, scalar throughout.

    ``tendons`` is a list of (r, rdot, rddot, tension). Unknown order is
    [u̇, v̇]; rows are [moment balance, force balance].
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    kse = np.diag(np.asarray(kse_diag, dtype=float))
    kbt = np.diag(np.asarray(kbt_diag, dtype=float))
    hu = _hat(u)

    a = np.zeros((6, 6))
    b = np.zeros(6)
    a[0:3, 0:3] = kbt
    a[3:6, 3:6] = kse
    b[0:3] = (kbt @ ustar_dot - hu @ (kbt @ (u - ustar))
              - _hat(v) @ (kse @ (v - vstar)))
    b[3:6] = kse @ vstar_dot - hu @ (kse @ (v - vstar))

    for r, rdot, rddot, tension in tendons:
        r = np.asarray(r, dtype=float)
        rdot = np.asarray(rdot, dtype=float)
        rddot = np.asarray(rddot, dtype=float)
        pb = hu @ r + rdot + v
        c = tension / np.linalg.norm(pb) ** 3
        pp = _hat(pb) @ _hat(pb)
        hr = _hat(r)
        known = hu @ pb + hu @ rdot + rddot
        a[0:3, 0:3] += c * hr @ pp @ hr
        a[0:3, 3:6] += -c * hr @ pp
        a[3:6, 0:3] += c * pp @ hr
        a[3:6, 3:6] += -c * pp
        b[0:3] += c * hr @ pp @ known
        b[3:6] += c * pp @ known
    return a, b


def stack_system(u1, v1, theta, u_d3, beta, sections):
    """Direct (2k+4)-square assembly of a k-tube cross-section, scalar
    throughout, composed from each tube's :func:`single_tube_system`.

    ``theta``, ``u_d3`` and ``beta`` hold one entry per inner tube.
    ``sections`` lists the tubes outermost first, each as the arguments of
    :func:`single_tube_system` that follow the strains: (kse_diag, kbt_diag,
    ustar, ustar_dot, vstar, vstar_dot, tendons). Inner tube i bends with
    the stack and twists and dilates on its own: u_i = R_z(θ_i)ᵀ u₁ with
    the third component replaced by u_d3,i, and v_i = β_i R_z(θ_i)ᵀ v₁.
    Unknown order is [u̇₁, v̇₁, u̇_d3 per inner tube, β̇ per inner tube];
    rows are [stack moment d1, d2 | each tube's own moment d3 | stack force
    d1, d2 | each tube's own force d3], the stack rows summed in the
    outermost tube's frame.
    """
    u1 = np.asarray(u1, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    k = len(sections)
    m = 2 * k + 4
    thetas = np.concatenate([[0.0], theta])
    betas = np.concatenate([[1.0], beta])
    spin = _hat([0.0, 0.0, 1.0]).T      # d/dθ R_z(θ)ᵀ = spin R_z(θ)ᵀ
    a = np.zeros((m, m))
    b = np.zeros(m)
    for i, section in enumerate(sections):
        rot = _rotz(thetas[i])
        u_i = rot.T @ u1
        v_i = betas[i] * (rot.T @ v1)
        # The tube's own rates as an affine map of the unknowns:
        # [u̇_i, v̇_i] = sel @ x + shift.
        sel = np.zeros((6, m))
        shift = np.zeros(6)
        sel[0:3, 0:3] = rot.T
        sel[3:6, 3:6] = betas[i] * rot.T
        if i:
            u_i[2] = u_d3[i - 1]
            theta_dot = u_d3[i - 1] - u1[2]
            sel[2, 0:3] = 0.0
            sel[2, 5 + i] = 1.0
            sel[3:6, 4 + k + i] = rot.T @ v1
            shift[0:3] = theta_dot * spin @ rot.T @ u1
            shift[3:6] = betas[i] * theta_dot * spin @ rot.T @ v1
        a_i, b_i = single_tube_system(u_i, v_i, *section)
        a_x = a_i @ sel
        b_x = b_i - a_i @ shift
        a[2 + i] = a_x[2]
        b[2 + i] = b_x[2]
        a[4 + k + i] = a_x[5]
        b[4 + k + i] = b_x[5]
        a[0:2] += (rot @ a_x[0:3])[0:2]
        b[0:2] += (rot @ b_x[0:3])[0:2]
        a[2 + k:4 + k] += (rot @ a_x[3:6])[0:2]
        b[2 + k:4 + k] += (rot @ b_x[3:6])[0:2]
    return a, b


@dataclass
class SingleTubeResult:
    base_strains: np.ndarray     # converged [u(0), v(0)]
    tip_position: np.ndarray
    tip_residual: np.ndarray


def single_tube_shoot(length, kse_diag, kbt_diag, rest, tendons,
                      rtol=1e-10, atol=1e-12) -> SingleTubeResult:
    """Reference statics of one tendon-loaded tube via adaptive integration.

    ``tendons`` entries are (routing, tension) with every tendon anchored at
    the tip. Uses scipy's RK45 and hybrid-Powell root finding; nothing is
    shared with the production shooting code path.
    """
    from scipy.integrate import solve_ivp
    from scipy.optimize import root

    def odes(s, y):
        rmat = y[3:12].reshape(3, 3)
        u, v = y[12:15], y[15:18]
        ustar, ustar_dot = rest.curvature(s)
        vstar, vstar_dot = rest.stretch(s)
        tds = [routing.eval(s) + (tension,) for routing, tension in tendons]
        a, b = single_tube_system(u, v, kse_diag, kbt_diag, ustar, ustar_dot,
                                  vstar, vstar_dot, tds)
        x = np.linalg.solve(a, b)
        return np.concatenate([rmat @ v, (rmat @ _hat(u)).ravel(), x])

    def propagate(base):
        y0 = np.concatenate([np.zeros(3), np.eye(3).ravel(), base])
        out = solve_ivp(odes, (0.0, length), y0, method="RK45",
                        rtol=rtol, atol=atol, dense_output=False)
        return out.y[:, -1]

    def residual(base):
        y = propagate(base)
        u, v = y[12:15], y[15:18]
        ustar, _ = rest.curvature(length)
        vstar, _ = rest.stretch(length)
        n_int = np.asarray(kse_diag) * (v - vstar)
        m_int = np.asarray(kbt_diag) * (u - ustar)
        f_sum = np.zeros(3)
        m_sum = np.zeros(3)
        for routing, tension in tendons:
            r, rdot, _ = routing.eval(length)
            pb = _hat(u) @ r + rdot + v
            f = -tension * pb / np.linalg.norm(pb)
            f_sum += f
            m_sum += _hat(r) @ f
        return np.concatenate([n_int - f_sum, m_int - m_sum])

    ustar0, _ = rest.curvature(0.0)
    vstar0, _ = rest.stretch(0.0)
    sol = root(residual, np.concatenate([ustar0, vstar0]), method="hybr",
               tol=1e-12)
    y = propagate(sol.x)
    return SingleTubeResult(base_strains=sol.x, tip_position=y[0:3],
                            tip_residual=residual(sol.x))


# ---------------------------------------------------------------------------
# planar energy-minimizing chain
# ---------------------------------------------------------------------------


@dataclass
class PlanarEquilibrium:
    points: np.ndarray        # (N+1, 2) columns (transverse, axial)
    tip: np.ndarray           # (2,)
    turning: float            # tangent angle at the last segment, rad
    energy: float
    grad_inf: float           # worst residual force component, N


def _chain_energy_grad(q, n_seg, h, ei, ea, offset, tension):
    pts = np.concatenate([np.zeros((1, 2)), q.reshape(n_seg, 2)], axis=0)
    d = np.diff(pts, axis=0)
    ell = np.linalg.norm(d, axis=1)
    t_hat = d / ell[:, None]
    psi = np.arctan2(d[:, 0], d[:, 1])
    phi = np.diff(psi, prepend=0.0)

    c = np.full(n_seg, ei / (2.0 * h))
    c[0] = ei / h            # clamped base: half-length lever arm
    eps = ell / h - 1.0
    energy = (np.sum(c * phi**2) + 0.5 * ea * h * np.sum(eps**2)
              + tension * (np.sum(ell) - offset * psi[-1]))

    d_ell = ea * eps + tension
    d_psi = 2.0 * c * phi
    d_psi[:-1] -= 2.0 * c[1:] * phi[1:]
    d_psi[-1] -= tension * offset

    n_hat = np.stack([d[:, 1], -d[:, 0]], axis=1) / (ell**2)[:, None]
    g_seg = d_ell[:, None] * t_hat + d_psi[:, None] * n_hat
    grad = np.zeros((n_seg + 1, 2))
    grad[1:] += g_seg
    grad[:-1] -= g_seg
    return energy, grad[1:].ravel()


def _chain_angle_energy_grad(x, n_seg, h, ei, ea, offset, tension):
    """Same discrete energy in tangent-angle / stretch variables."""
    psi, eps = x[:n_seg], x[n_seg:]
    phi = np.diff(psi, prepend=0.0)
    c = np.full(n_seg, ei / (2.0 * h))
    c[0] = ei / h
    energy = (np.sum(c * phi**2) + 0.5 * ea * h * np.sum(eps**2)
              + tension * (h * np.sum(1.0 + eps) - offset * psi[-1]))
    d_psi = 2.0 * c * phi
    d_psi[:-1] -= 2.0 * c[1:] * phi[1:]
    d_psi[-1] -= tension * offset
    d_eps = ea * h * eps + tension * h
    return energy, np.concatenate([d_psi, d_eps])


def planar_energy_minimize(length, bending_stiffness, axial_stiffness,
                           offset, tension, n_segments=200) -> PlanarEquilibrium:
    """Equilibrium of a clamped planar rod pulled by one offset tendon.

    Discrete chain of extensible segments with turning springs; the tendon
    contributes its exact offset-polyline length times the tension. The
    minimization runs in tangent-angle/stretch variables (the position
    parameterization is too stiff for quasi-Newton steps); the result is
    then verified against the position-space force balance, so the returned
    ``grad_inf`` is an independent equilibrium residual, not the
    minimizer's own stopping criterion.
    """
    from scipy.optimize import minimize, root

    h = length / n_segments
    args = (n_segments, h, bending_stiffness, axial_stiffness, offset, tension)
    x0 = np.zeros(2 * n_segments)
    res = minimize(_chain_angle_energy_grad, x0, args=args, jac=True,
                   method="L-BFGS-B",
                   options={"maxiter": 50000, "maxfun": 100000,
                            "ftol": 1e-18, "gtol": 1e-14})
    polished = root(lambda x: _chain_angle_energy_grad(x, *args)[1], res.x,
                    method="hybr")
    x = polished.x if polished.success else res.x
    energy, _ = _chain_angle_energy_grad(x, *args)

    psi, eps = x[:n_segments], x[n_segments:]
    ell = h * (1.0 + eps)
    seg_vec = np.stack([ell * np.sin(psi), ell * np.cos(psi)], axis=1)
    pts = np.concatenate([np.zeros((1, 2)), np.cumsum(seg_vec, axis=0)], axis=0)
    _, grad_pos = _chain_energy_grad(pts[1:].ravel(), *args)
    return PlanarEquilibrium(points=pts, tip=pts[-1],
                             turning=float(psi[-1]),
                             energy=float(energy),
                             grad_inf=float(np.max(np.abs(grad_pos))))


# ---------------------------------------------------------------------------
# closed-form overlap curvature of two torsion-free pre-curved tubes
# ---------------------------------------------------------------------------


def ctr_overlap_curvature(kbt1_diag, kbt2_diag, u1_rest, u2_rest,
                          theta: float) -> np.ndarray:
    """Bending curvature of two fully overlapping load-free tubes.

    With no external load the stack's internal moment vanishes pointwise,
    so the shared curvature is the stiffness-weighted average of the two
    rest curvatures, the second one rotated by the relative angle. Returns
    the two bending components in the first tube's frame.
    """
    k1 = np.diag(np.asarray(kbt1_diag, dtype=float))
    k2 = np.diag(np.asarray(kbt2_diag, dtype=float))
    rhs = k1 @ np.asarray(u1_rest, dtype=float) \
        + _rotz(theta) @ k2 @ np.asarray(u2_rest, dtype=float)
    full = np.linalg.solve(k1 + k2, rhs)
    return full[0:2]


# ---------------------------------------------------------------------------
# derivative spot checks
# ---------------------------------------------------------------------------


def fd_jacobian_check(fun, jac, x0, step=1e-6) -> float:
    """Worst relative deviation between ``jac`` and central differences.

    ``fun`` maps an (n,) vector to an (m,) vector; ``jac`` returns the
    analytic (m, n) matrix at the same point.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    analytic = np.atleast_2d(np.asarray(jac(x0), dtype=float))
    cols = []
    for j in range(x0.size):
        dx = np.zeros_like(x0)
        dx[j] = step
        cols.append((np.asarray(fun(x0 + dx)) - np.asarray(fun(x0 - dx)))
                    / (2.0 * step))
    fd = np.stack(cols, axis=-1).reshape(analytic.shape)
    scale = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(fd - analytic) / scale))


# ---------------------------------------------------------------------------
# validation harness
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    tolerance: float
    measured: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.tolerance

    def as_dict(self) -> dict:
        return {"name": self.name, "tolerance": self.tolerance,
                "measured": self.measured, "passed": self.passed}


@dataclass
class ValidationReport:
    mutation: float
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {"mutation": self.mutation, "passed": self.passed,
                "checks": [c.as_dict() for c in self.checks]}

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            out.append(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: "
                       f"measured {c.measured:.3e} vs tolerance {c.tolerance:.3e}")
        out.append(f"overall: {'PASS' if self.passed else 'FAIL'} "
                   f"(stiffness scale {self.mutation})")
        return out


_CHECK_NAMES = ("section", "reference", "routing", "planar", "pair")


def run_validate(mutation: float = 1.0, checks=_CHECK_NAMES,
                 include_scenarios: bool = False) -> ValidationReport:
    """Cross-check the production solver against every oracle in this module.

    ``mutation`` scales the section stiffness of every tube handed to the
    solver; the oracles keep the true physics, so any systematic solver
    perturbation shows up as failed comparisons. ``include_scenarios``
    additionally re-solves all bundled scenarios and checks their terminal
    balance.
    """
    from .assembly import (ArcRest, AssemblySpec, HelicalRouting,
                           PiecewiseAngularRouting, StraightRouting,
                           StraightRest, TendonSpec, TubeSpec, section_stiffness)
    from .shooting import SolverOptions, shoot, twist_consistency
    from .statics import RodState, SegmentContext, TendonContext, TubeContext, assemble_system

    def mutated(tube: TubeSpec) -> TubeSpec:
        return replace(tube, stiffness=section_stiffness(tube).scaled(mutation))

    results: list[CheckResult] = []

    if "section" in checks:
        worst = 0.0
        for od, idi, e, g in ((1.35e-3, 1.07e-3, 65e9, 24.4e9),
                              (1.1e-3, 0.9e-3, 45e9, 16.91e9),
                              (0.5e-3, 0.0, 255e9, 98e9)):
            tube = TubeSpec(length=0.1, elastic_modulus=e, shear_modulus=g,
                            outer_diameter=od, inner_diameter=idi)
            eff = section_stiffness(tube).scaled(mutation)
            kse_q, kbt_q = section_quadrature(od, idi, e, g)
            dev = max(np.max(np.abs(eff.kse_diag - kse_q) / kse_q),
                      np.max(np.abs(eff.kbt_diag - kbt_q) / kbt_q))
            worst = max(worst, float(dev))
        results.append(CheckResult("section constants vs quadrature",
                                   1e-9, worst))

    if "reference" in checks:
        rng = np.random.default_rng(20260814)
        worst = 0.0
        for _ in range(5):
            od = rng.uniform(0.9e-3, 1.6e-3)
            idi = rng.uniform(0.3, 0.8) * od
            tube = TubeSpec(length=0.2, elastic_modulus=rng.uniform(40e9, 220e9),
                            shear_modulus=rng.uniform(15e9, 85e9),
                            outer_diameter=od, inner_diameter=idi,
                            rest_shape=ArcRest(kappa=rng.uniform(0.0, 6.0),
                                               plane_angle=rng.uniform(0, 6.28)))
            stiff = section_stiffness(tube).scaled(mutation)
            tendons = []
            tds = []
            for _ in range(2):
                off = rng.uniform(-4e-3, 4e-3, size=2)
                tension = rng.uniform(0.3, 3.0)
                routing = StraightRouting(offset=off)
                tendons.append(TendonContext(routing=routing, tension=tension,
                                             tube=0, termination=0.2))
                tds.append(routing.eval(0.1) + (tension,))
            u = rng.uniform(-6, 6, size=3)
            v = np.array([0, 0, 1.0]) + rng.uniform(-2e-4, 2e-4, size=3)
            ctx = SegmentContext(start=0.0, end=0.2,
                                 tubes=[TubeContext(index=0,
                                                    kse_diag=stiff.kse_diag,
                                                    kbt_diag=stiff.kbt_diag,
                                                    rest=tube.rest_shape,
                                                    offset=0.0)],
                                 loads=[tendons])
            state = RodState(p=np.zeros(3), R=np.eye(3), u1=u, v1=v,
                             theta=np.zeros(0), u_d3=np.zeros(0),
                             beta=np.zeros(0), s=0.1)
            a_main, b_main = assemble_system(state, ctx)
            ustar, ustar_dot = tube.rest_shape.curvature(0.1)
            vstar, vstar_dot = tube.rest_shape.stretch(0.1)
            a_ref, b_ref = single_tube_system(
                u, v, section_stiffness(tube).kse_diag,
                section_stiffness(tube).kbt_diag, ustar, ustar_dot,
                vstar, vstar_dot, tds)
            dev_a = np.max(np.abs(a_main - a_ref) / np.maximum(1.0, np.abs(a_ref)))
            dev_b = np.max(np.abs(b_main - b_ref) / np.maximum(1.0, np.abs(b_ref)))
            worst = max(worst, float(dev_a), float(dev_b))
        results.append(CheckResult("cross-section system vs independent "
                                   "reference", 1e-10, worst))

    if "routing" in checks:
        worst = 0.0
        paths = [
            StraightRouting(offset=(1.5e-3, -2e-3)),
            HelicalRouting(radius=6.5e-3, period=0.72, phase=31 * np.pi / 18),
            PiecewiseAngularRouting(knots=[(0.0, 0.0, 3e-3),
                                           (0.07, 1.2, 3.5e-3),
                                           (0.15, 2.0, 2.5e-3)]),
        ]
        for path in paths:
            for s0 in (0.02, 0.06, 0.11):
                worst = max(worst, fd_jacobian_check(
                    lambda x: path.eval(float(x[0]))[0],
                    lambda x: np.asarray(path.eval(float(x[0]))[1]).reshape(3, 1),
                    [s0], step=1e-6))
                worst = max(worst, fd_jacobian_check(
                    lambda x: path.eval(float(x[0]))[1],
                    lambda x: np.asarray(path.eval(float(x[0]))[2]).reshape(3, 1),
                    [s0], step=1e-6))
        results.append(CheckResult("routing derivatives vs central "
                                   "differences", 1e-6, worst))

    if "planar" in checks:
        length = 0.14
        tube = TubeSpec(length=length, elastic_modulus=60e9, shear_modulus=23e9,
                        outer_diameter=1.1e-3, inner_diameter=0.9e-3)
        stiff = section_stiffness(tube)
        offset = 3e-3
        worst = 0.0
        for tension in (0.5, 1.0, 2.0):
            asm = AssemblySpec(tubes=[mutated(tube)], tendons=[
                TendonSpec(routing=StraightRouting(offset=(0.0, offset)),
                           tension=tension)])
            sol = shoot(asm, SolverOptions())
            eq = planar_energy_minimize(length, stiff.kbt_diag[0],
                                        stiff.kse_diag[2], offset, tension)
            tip_solver = sol.tip_position
            dev = np.hypot(tip_solver[1] - eq.tip[0], tip_solver[2] - eq.tip[1])
            worst = max(worst, float(dev / length + abs(tip_solver[0]) / length))
        results.append(CheckResult("planar chain equilibrium vs solver",
                                   1e-2, worst))

    if "pair" in checks:
        from .assembly import StiffnessPair
        kap = 1.0 / 0.219
        stiff = StiffnessPair(kse_diag=(5.0e3, 5.0e3, 1.45e4),
                              kbt_diag=(6.5e-3, 6.5e-3, 5.0e-3))
        t1 = TubeSpec(length=0.15, rest_shape=ArcRest(kappa=kap),
                      stiffness=stiff)
        t2 = TubeSpec(length=0.15, rest_shape=ArcRest(kappa=2.0),
                      stiffness=stiff.scaled(2.0))
        sol = shoot(AssemblySpec(tubes=[mutated(t1), mutated(t2)]),
                    SolverOptions())
        seg = sol.segments[0]
        expected = ctr_overlap_curvature(stiff.kbt_diag, 2.0 * stiff.kbt_diag,
                                         [kap, 0, 0], [2.0, 0, 0], 0.0)
        mid = seg.u1[len(seg.stations) // 2, 0:2]
        dev = np.linalg.norm(mid - expected) / np.linalg.norm(expected)
        results.append(CheckResult("pre-curved pair vs closed-form overlap "
                                   "curvature", 5e-3, float(dev)))

    if include_scenarios:
        from .scenario import preset_names, preset
        worst = 0.0
        for name in preset_names():
            assembly, options = preset(name, allow_placeholders=True)
            assembly.tubes = [mutated(t) for t in assembly.tubes]
            sol = shoot(assembly, options)
            worst = max(worst, sol.report.scaled_residual,
                        twist_consistency(sol) / 1e-8)
        results.append(CheckResult("bundled scenario terminal balance",
                                   1.0, worst))

    return ValidationReport(mutation=mutation, checks=results)
