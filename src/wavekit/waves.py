"""Pulsating traveling wave profiles on truncated cylinders.

Supercritical speeds c > c*: the exponential supersolution
ubar = e^{mu_wedge z} u'_{mu_wedge} kills the linearized operator exactly,
and subtracting a steeper multiple M e^{(mu_wedge+gamma) z} u'_{mu_wedge+gamma}
with gamma = min(mu_wedge, mu_vee - mu_wedge)/2 gives a subsolution of the
linear problem with the competition of ubar frozen in.  Their positive parts
trap a fixed point of r -> u_r, where u_r solves the linear periodic-Dirichlet
problem (R + diag(B' r)) u = 0 with boundary data (ulow v 0)(+-a); iterating
that map with damping converges to a profile of the full semilinear system.

Critical speed c = c*: the same program runs with the envelope pair built
from Theta(mu) = e^{mu z} u'_mu and its mu-derivative (eigenfunctions are
mean-one normalized so the family is differentiable in mu), the supersolution
clamped at a constant plateau through the one-sided-from-minus-infinity
min/max construction, and a semilinear but still cooperative inner operator
carrying the diagonal quadratic term.

Growing the half-length a and comparing profiles on a fixed centered window
yields the entire-cylinder profile; verification then measures downstream
decay (rate mu_wedge, or the |z| e^{mu* z} shape at criticality), the
upstream positivity floor and the discrete PDE residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coeffs import logistic_envelope
from .eigen import EigenEvaluator, PrincipalEigenpair, default_cell_grid
from .errors import InputError, NumericalError, WavekitError
from .frame import FrameSystem
from .pde_core import (
    Grid,
    GridField,
    OperatorSpec,
    apply_operator,
    build_operator_mu,
    solve_periodic_bvp,
)

__all__ = [
    "SupercriticalEnvelopes",
    "CriticalEnvelopes",
    "WaveProfile",
    "WaveVerification",
    "build_envelopes_supercritical",
    "fixed_point_truncated",
    "extend_to_entire",
    "verify_wave",
    "build_envelopes_critical",
    "critical_fixed_point",
    "cylinder_grid",
]

_EXP_ARG_CAP = 600.0  # exp overflow guard for envelope materialization
_THETA = 0.5  # outer damping; theta = 1 stalls in a 2-cycle as r -> u_r reverses order
_MAX_OUTER = 200
_A_MARGIN = 1e-8  # floor of the subsolution's boundary values at -a*
_TUNE_CAP = 1e8  # largest critical envelope constant tried
_H_REL = 1e-3  # step of the centered mu-difference, relative to mu*
_EPS_DOWN = 1e-3  # downstream smallness required on the left tenth
_SHAPE_RTOL = 0.20  # tolerance of the critical |z| e^{mu* z} shape slope
_BOUNDARY_MARGIN = 5.0  # floor window stops this far short of +a


# ---------------------------------------------------------------------------
# grids and eigenfunction extension


def cylinder_grid(fsys: FrameSystem, a: float, n_t: int | None = None,
                  n_z: int | None = None, points_per_cell: int = 64,
                  dz: float | None = None) -> Grid:
    """Truncated-cylinder grid [-a, a]; z nodes align with the periodic cell.

    Continuation across several half-lengths should fix dz (or
    points_per_cell), so that profiles share node positions exactly.
    """
    if fsys.L_z is not None:
        k = round(a / fsys.L_z)
        if abs(a - k * fsys.L_z) > 1e-9 or k < 1:
            raise InputError(
                f"half-length a={a} must be a positive multiple of the cell L_z={fsys.L_z}"
            )
        n_z_eff = 2 * k * points_per_cell + 1
        if n_z is not None and n_z != n_z_eff:
            raise InputError("pass points_per_cell, not n_z, for cell-periodic systems")
    elif n_z is not None:
        n_z_eff = n_z
    else:
        step = dz if dz is not None else 0.04
        n_z_eff = max(17, int(round(2 * a / step)) + 1)
    if n_t is None:
        n_t = 16 if fsys.is_time_independent() else 256
    return Grid.cylinder(fsys.T_frame, a, n_t, n_z_eff)


def _cell_grid_for(fsys: FrameSystem, grid: Grid) -> Grid:
    cell = default_cell_grid(fsys)
    n_t = cell.n_t if fsys.is_time_independent() else grid.n_t
    return Grid.periodic_cell(fsys.T_frame, cell.z1, n_t, cell.n_z)


def _extend_to_cylinder(values: np.ndarray, cell: Grid, grid: Grid) -> np.ndarray:
    """Map cell-periodic eigenfunction samples onto cylinder nodes, exactly."""
    cv = values
    if np.all(cv == cv[..., :1]):
        jmap = np.zeros(grid.n_z, dtype=int)
    else:
        frac = (grid.z - cell.z0) / cell.dz
        jmap = np.round(frac).astype(int)
        if np.abs(frac - jmap).max() > 1e-6:
            raise InputError("cylinder nodes do not align with the eigenfunction cell")
        jmap %= cell.n_z
    if np.all(cv == cv[:, :1, :]):
        kmap = np.zeros(grid.n_t, dtype=int)
    else:
        if cell.n_t != grid.n_t or abs(cell.t_period - grid.t_period) > 1e-12:
            raise InputError("eigenfunction time grid incompatible with the wave grid")
        kmap = np.arange(grid.n_t)
    return cv[:, kmap[:, None], jmap[None, :]]


def _exp_profile(rate: float, z: np.ndarray) -> np.ndarray:
    arg = rate * z
    if arg.max() > _EXP_ARG_CAP:
        raise NumericalError(f"exponential envelope overflows: mu*a = {arg.max():.1f}")
    return np.exp(arg)


# ---------------------------------------------------------------------------
# profile containers


@dataclass
class WaveProfile:
    e: tuple
    c: float
    a: float
    u: GridField
    trapping_violation: float
    pde_residual: float
    downstream_decay_rate: float
    upstream_floor: float
    iterations: int
    info: dict = field(default_factory=dict)

    def diagnostics(self) -> dict:
        return {
            "a": self.a,
            "c": self.c,
            "trapping_violation": self.trapping_violation,
            "pde_residual": self.pde_residual,
            "downstream_decay_rate": self.downstream_decay_rate,
            "upstream_floor": self.upstream_floor,
            "iterations": self.iterations,
            **{k: v for k, v in self.info.items() if np.isscalar(v) or isinstance(v, str)},
        }


@dataclass
class WaveVerification:
    downstream_sup: float
    downstream_pass: bool
    decay_rate: float
    decay_expected: float
    decay_pass: bool
    shape_slope: float | None
    shape_pass: bool | None
    upstream_floor: float
    upstream_pass: bool
    pde_residual: float

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


# ---------------------------------------------------------------------------
# supercritical envelopes


@dataclass
class SupercriticalEnvelopes:
    """Trapping pair for a supercritical speed, plus its tuning constants."""

    reported = ("mu_wedge", "mu_vee", "gamma", "M", "chi", "a_star")  # in a run's summary
    fsys: FrameSystem
    c: float
    mu_wedge: float
    mu_vee: float
    gamma: float
    M: float
    chi: float                      # lambda_{mu_wedge+gamma} + c (mu_wedge+gamma) > 0
    a_star: float
    eig_wedge: PrincipalEigenpair
    eig_gamma: PrincipalEigenpair
    cell: Grid
    ubar: GridField | None = None   # last materialization
    ulow: GridField | None = None

    def materialize(self, grid: Grid) -> tuple[GridField, GridField]:
        Uw = _extend_to_cylinder(self.eig_wedge.eigenfunction.values, self.cell, grid)
        Ug = _extend_to_cylinder(self.eig_gamma.eigenfunction.values, self.cell, grid)
        z = grid.z
        ubar = _exp_profile(self.mu_wedge, z)[None, None, :] * Uw
        ulow = ubar - self.M * _exp_profile(self.mu_wedge + self.gamma, z)[None, None, :] * Ug
        self.ubar = GridField(ubar, grid)
        self.ulow = GridField(ulow, grid)
        return self.ubar, self.ulow

    def fixed_point(self, a: float, **kw) -> WaveProfile:
        return fixed_point_truncated(self, a, **kw)


def build_envelopes_supercritical(fsys: FrameSystem, roots, grid: Grid,
                                  tol: float = 1e-8) -> SupercriticalEnvelopes:
    """Assemble the supersolution/subsolution pair at speed c > c*.

    fsys is the frame moving at c = roots.c and grid the cylinder grid the
    envelopes will be materialized on.  The max-one normalized principal
    eigenpairs at mu_wedge and mu_wedge + gamma, gamma =
    min(mu_wedge, mu_vee - mu_wedge)/2, are solved to tol on the matching
    periodic cell; in that frame the eigenvalues are lambda_{1,mu} + c mu, so
    the first must vanish and chi, the second, must be positive.

    The smallest admissible half-length a_star is a multiple of step, the cell
    length (1 without a cell), so -a is cell node 0, where e^{mu_wedge a}
    u_low(-a) = U0_wedge - M e^{-gamma a} U0_gamma (max-one eigenfunctions):
    a_star = step ceil(max(4, -ln K / mu_wedge,
                           max ln(M U0_gamma / (U0_wedge - _A_MARGIN)) / gamma) / step),
    the inner max over components and times.
    """
    mu_w, mu_v = roots.mu_wedge, roots.mu_vee
    gamma = 0.5 * min(mu_w, mu_v - mu_w)
    cell = _cell_grid_for(fsys, grid)
    ev = EigenEvaluator(fsys, grid=cell, tol=tol)
    eig_wedge, eig_gamma = ev.pair(mu_w), ev.pair(mu_w + gamma)
    chi = eig_gamma.lam
    if chi <= 0:
        raise NumericalError(
            f"lambda + c mu = {chi:.3e} <= 0 at mu_wedge + gamma; "
            "this contradicts mu_wedge < mu_wedge + gamma < mu_vee (upstream failure)"
        )
    kappa = eig_gamma.kappa
    b_bar = max(f.bounds()[1] for row in fsys.B for f in row)
    N = fsys.N
    M = max(1.0 / kappa, N * b_bar / (chi * kappa))
    _, K = logistic_envelope(fsys)

    step = fsys.L_z if fsys.L_z is not None else 1.0
    room = eig_wedge.eigenfunction.values[:, :, 0] - _A_MARGIN
    if room.min() > 0:
        a_sub = float(np.log((M * eig_gamma.eigenfunction.values[:, :, 0] / room).max())) / gamma
    else:
        a_sub = np.inf
    a = max(4.0, -np.log(K) / mu_w, a_sub)
    if not a <= 1e6:
        raise NumericalError("no admissible truncation half-length below 1e6")
    return SupercriticalEnvelopes(fsys, roots.c, mu_w, mu_v, gamma, M, chi,
                                  float(step * np.ceil(a / step)), eig_wedge, eig_gamma, cell)


# ---------------------------------------------------------------------------
# the supercritical fixed point


def fixed_point_truncated(env: SupercriticalEnvelopes, a: float,
                          tol: float = 1e-7, grid: Grid | None = None,
                          force_relaxation: bool = False,
                          record_iterates: bool = False,
                          **grid_kw) -> WaveProfile:
    """Damped fixed-point iteration for the truncated-cylinder profile.

    Each sweep solves the linear periodic-Dirichlet problem (R + diag(B' r)) u = 0
    with boundary data (ulow v 0)(+-a), relaxing from the previous sweep's u
    (the subsolution on the first) to max(tol/10, |u_prev - r|/100), and to
    tol/10 on the first and the terminating sweep.  The warm start lies in
    [usub, ubar] and the backward-Euler flow keeps order, so every iterate
    stays trapped; the converged u solves the discrete semilinear system.
    """
    ubar_f, ulow_f, usub, op0, bc = _truncated_problem(env, a, grid, grid_kw)
    ubar = ubar_f.values
    if usub[:, :, -1].max() > 0:
        raise NumericalError("subsolution must be nonpositive at the upstream end")

    # discrete envelope checks: R ubar = 0 and (R + diag(B' ubar)) ulow <= 0
    rsup = apply_operator(op0, ubar_f).values[:, :, 1:-1]
    super_resid = float(np.abs(rsup).max() / ubar.max())
    Bub = np.einsum("ijtz,jtz->itz", op0.b_tab, ubar)
    rsub = apply_operator(op0, ulow_f, extra_diag=Bub).values[:, :, 1:-1]
    sub_viol = float(np.maximum(rsub, 0.0).max() / ubar.max())

    def inner(r, u_prev):
        Br = np.einsum("ijtz,jtz->itz", op0.b_tab, r)
        # the tolerance follows the outer step, like inexact Newton's forcing term
        inner_tol = tol * 0.1
        if u_prev is not None:
            inner_tol = max(inner_tol, 0.01 * float(np.abs(u_prev.values - r).max()))
        u, bvp = solve_periodic_bvp(
            op0, bc, GridField(usub, op0.grid) if u_prev is None else u_prev, inner_tol,
            extra_diag=Br, force_relaxation=force_relaxation,
        )
        return u, bvp["periods"], inner_tol <= tol * 0.1

    return _damped_fixed_point(
        env.fsys, op0, env.c, a, ubar, usub, inner, tol, record_iterates,
        {"mu_wedge": env.mu_wedge, "pipeline": "supercritical",
         "supersolution_residual": super_resid,
         "subsolution_violation": sub_viol},
    )


def _truncated_problem(env, a: float, grid: Grid | None, grid_kw: dict):
    """env materialized on the cylinder of half-length a (grid, or one built
    from grid_kw): (ubar, ulow, usub = ulow v 0, operator at mu = 0, boundary data)."""
    if grid is None:
        grid = cylinder_grid(env.fsys, a, **grid_kw)
    ubar_f, ulow_f = env.materialize(grid)  # may move a_star (critical envelopes)
    if not np.isfinite(env.a_star) or a < env.a_star - 1e-9:
        raise WavekitError(f"domain too short: a = {a} < a* = {env.a_star}")
    usub = np.maximum(ulow_f.values, 0.0)
    op0 = build_operator_mu(env.fsys, 0.0, grid)
    return ubar_f, ulow_f, usub, op0, (usub[:, :, 0], usub[:, :, -1])


def _damped_fixed_point(fsys: FrameSystem, op0: OperatorSpec, c: float, a: float,
                        ubar: np.ndarray, usub: np.ndarray, inner, tol: float,
                        record_iterates: bool, info: dict) -> WaveProfile:
    """Outer loop r <- theta u_r + (1 - theta) r, and the profile.

    r starts at clip(min(ubar, K), usub, ubar), K the logistic bound: ubar is
    a supersolution for every r >= 0 and usub a subsolution while r <= ubar,
    so any start in [usub, ubar] keeps the trap.  inner(r, u_prev) returns
    (u_r as a GridField, relaxation periods, exact), u_prev being the previous
    sweep's u (None on the first); only an exact sweep (solved to tol/10) may
    end the loop.  The converged u is checked against the trapping pair
    (usub, ubar) and the semilinear PDE op0 u + (B' u) o u = 0.
    """
    _, K = logistic_envelope(fsys)
    r = np.clip(np.minimum(ubar, K), usub, ubar)
    iterate_bounds = []
    deltas = []
    periods = []
    u_field = None
    for it in range(_MAX_OUTER):
        u_field, n_periods, exact = inner(r, u_field)
        periods.append(n_periods)
        uv = u_field.values
        if record_iterates:
            iterate_bounds.append(
                (float((uv - usub).min()), float((ubar - uv).min()))
            )
        r_new = _THETA * uv + (1.0 - _THETA) * r
        delta = float(np.abs(r_new - r).max())
        deltas.append(delta)
        r = r_new
        if delta < tol and exact:
            break
    else:
        raise NumericalError(f"{info['pipeline']} fixed point stalled", history=deltas)

    trapping = max(0.0, float((usub - uv).max()), float((uv - ubar).max()))
    Bu = np.einsum("ijtz,jtz->itz", op0.b_tab, uv)
    res = apply_operator(op0, u_field).values + Bu * uv
    pde_residual = float(np.abs(res[:, :, 1:-1]).max() / max(np.abs(uv).max(), 1e-300))
    decay, floor = _decay_and_floor(u_field)
    return WaveProfile(
        e=tuple(fsys.frame.e_floats()), c=c, a=float(a), u=u_field,
        trapping_violation=trapping, pde_residual=pde_residual,
        downstream_decay_rate=decay, upstream_floor=floor, iterations=it + 1,
        info={"deltas": deltas, "iterate_bounds": iterate_bounds,
              "inner_periods": periods, "relax_periods": sum(periods), **info},
    )


def extend_to_entire(env, a_schedule, window: float, tol: float = 1e-4,
                     profile_tol: float = 1e-7, **kw) -> WaveProfile:
    """Continuation in the half-length a until the center window stabilizes.

    Runs the truncated fixed point of env's pipeline along the increasing
    schedule and stops when two successive profiles differ by less than tol
    on [-window, window]; the K-envelope bound 0 <= u <= K 1 is checked at
    every step.
    """
    a_schedule = [float(a) for a in a_schedule]
    if sorted(a_schedule) != a_schedule or len(a_schedule) < 2:
        raise InputError("a_schedule must be increasing with at least two entries")
    _, K = logistic_envelope(env.fsys)
    prev = None
    gaps = []
    for a in a_schedule:
        profile = env.fixed_point(a, tol=profile_tol, **kw)
        over_k = float(profile.u.values.max()) - K
        profile.info["k_bound_violation"] = max(0.0, over_k)
        if over_k > 1e-6 * (1 + K):
            raise NumericalError(f"profile exceeds the logistic bound K={K} by {over_k:.3e}")
        if prev is not None:
            gap = _window_gap(prev.u, profile.u, window)
            gaps.append(gap)
            if gap < tol:
                profile.info["stabilization_gap"] = gap
                profile.info["gaps"] = gaps
                return profile
        prev = profile
    raise NumericalError(
        f"profiles did not stabilize on [-{window}, {window}] along the schedule",
        history=gaps,
    )


def _window_gap(u1: GridField, u2: GridField, window: float) -> float:
    """Sup difference of two profiles on the common centered window."""
    z1, z2 = u1.grid.z, u2.grid.z
    dz = u1.grid.dz
    if abs(dz - u2.grid.dz) > 1e-9 * dz:
        raise InputError("window comparison needs matching dz")
    sel1 = np.abs(z1) <= window + 1e-9
    sel2 = np.abs(z2) <= window + 1e-9
    if sel1.sum() != sel2.sum():
        raise InputError("window nodes do not align across profiles")
    v1 = u1.values[:, :, sel1]
    v2 = u2.values[:, :, sel2]
    if v1.shape[1] != v2.shape[1]:
        raise InputError("time grids differ across profiles")
    return float(np.abs(v1 - v2).max())


# ---------------------------------------------------------------------------
# verification


def _decay_and_floor(u: GridField):
    """(downstream log-slope, upstream floor) of a profile."""
    g = u.grid
    z = g.z
    a = g.z1
    prof = u.values.max(axis=(0, 1))  # max over components and time per z
    fit_sel = (z >= -0.95 * a) & (z <= -a / 3.0) & (prof > 1e-280)
    if fit_sel.sum() >= 4:
        slope = float(np.polyfit(z[fit_sel], np.log(prof[fit_sel]), 1)[0])
    else:
        slope = float("nan")
    m = min(_BOUNDARY_MARGIN, 0.25 * a)
    floor_sel = (z >= a / 3.0) & (z <= a - m)
    floor = float(u.values[:, :, floor_sel].min()) if floor_sel.any() else float("nan")
    return slope, floor


def verify_wave(profile: WaveProfile, decay_rtol: float = 0.10,
                floor_required: float = 0.0) -> WaveVerification:
    """Check the defining wave limits on a constructed profile.

    Downstream: the profile must be uniformly small (below _EPS_DOWN) on the
    left tenth of the cylinder and decay at the expected exponential rate on
    the downstream third: mu_wedge, or mu* at criticality, where it must also
    match the |z| e^{mu* z} shape.  The pipeline and the rate are read from
    profile.info, as the fixed points record them.  A profile decaying like
    e^{mu_wedge z} has downstream_sup about e^{-0.8 mu_wedge a}, so
    downstream_pass needs a > ln(1/_EPS_DOWN) / (0.8 mu_wedge) ~ 8.63 / mu_wedge,
    whatever the accuracy of the profile.
    Upstream: a positive floor away from the artificial Dirichlet end, where
    the truncated problem pins the profile to (ulow v 0)(a) = 0 by
    construction; the floor window therefore stops short of +a.
    """
    pipeline = profile.info.get("pipeline")
    rate_key = {"supercritical": "mu_wedge", "critical": "mu_star"}.get(pipeline)
    if rate_key not in profile.info:
        raise InputError("verify_wave needs profile.info to name its pipeline and decay rate")
    decay_expected = profile.info[rate_key]
    g = profile.u.grid
    z = g.z
    a = g.z1
    vals = profile.u.values
    left_sel = z <= -0.8 * a
    downstream_sup = float(vals[:, :, left_sel].max(initial=0.0))
    downstream_pass = downstream_sup < _EPS_DOWN

    slope, floor = _decay_and_floor(profile.u)
    decay_pass = (
        np.isfinite(slope) and abs(slope - decay_expected) <= decay_rtol * abs(decay_expected)
    )

    shape_slope = None
    shape_pass = None
    if pipeline == "critical":
        prof = vals.max(axis=(0, 1))
        # the double characteristic root at criticality heals the Dirichlet
        # data shape only algebraically, so keep the fit window well clear of
        # the downstream end as well as of the front
        sel = (z >= -0.6 * a) & (z <= -max(a / 4.0, 10.0)) & (prof > 1e-280)
        if sel.sum() >= 4:
            y = np.log(prof[sel]) - decay_expected * z[sel]
            shape_slope = float(np.polyfit(np.log(-z[sel]), y, 1)[0])
            shape_pass = abs(shape_slope - 1.0) <= _SHAPE_RTOL
        else:
            shape_slope = float("nan")
            shape_pass = False

    upstream_pass = np.isfinite(floor) and floor > floor_required
    return WaveVerification(
        downstream_sup, bool(downstream_pass), slope, decay_expected,
        bool(decay_pass), shape_slope, shape_pass, floor, bool(upstream_pass),
        profile.pde_residual,
    )


# ---------------------------------------------------------------------------
# critical envelopes


@dataclass
class CriticalEnvelopes:
    """Envelope pair at the critical speed, built from Theta and its derivative."""

    reported = ("M1", "M2", "M3", "g_gamma", "a_star")  # in a run's summary
    fsys: FrameSystem
    mu_star: float
    gamma: float
    M1: float
    M2: float
    M3: float
    g_gamma: float                  # lambda_{1,mu*+gamma} + c*(mu*+gamma) < 0
    a_star: float
    eig_star: PrincipalEigenpair    # mean-one
    eig_gamma: PrincipalEigenpair   # mean-one, at mu* + gamma
    du_dmu: np.ndarray              # cell values of d u'_mu / d mu at mu*
    cell: Grid
    ubar: GridField | None = None
    ulow: GridField | None = None

    # -- materialization -----------------------------------------------------

    def _pieces(self, grid: Grid):
        Us = _extend_to_cylinder(self.eig_star.eigenfunction.values, self.cell, grid)
        Ug = _extend_to_cylinder(self.eig_gamma.eigenfunction.values, self.cell, grid)
        dU = _extend_to_cylinder(self.du_dmu, self.cell, grid)
        z = grid.z
        es = _exp_profile(self.mu_star, z)[None, None, :]
        eg = _exp_profile(self.mu_star + self.gamma, z)[None, None, :]
        theta = es * Us
        theta_dot = es * (z[None, None, :] * Us + dU)
        theta_g = eg * Ug
        return theta, theta_dot, theta_g

    def materialize(self, grid: Grid) -> tuple[GridField, GridField]:
        theta, theta_dot, theta_g = self._pieces(grid)
        ubar, _ = _clamp_supersolution(theta_dot, self.M1, self.M2)
        core = -theta_dot - self.M3 * theta + theta_g
        pos, roots = _positive_part_from_left(core, grid.z)
        ulow = self.M1 * self.M2 * pos
        self.ubar = GridField(ubar, grid)
        self.ulow = GridField(ulow, grid)
        # smallest admissible half-length: the subsolution support (-inf, z0)
        # must reach past -a, so a* sits one node beyond the deepest root
        self.a_star = float(-grid.z[roots.min()] + grid.dz)
        return self.ubar, self.ulow

    def fixed_point(self, a: float, **kw) -> WaveProfile:
        return critical_fixed_point(self, a, **kw)


def _clamp_supersolution(theta_dot: np.ndarray, M1: float, M2: float):
    """M2 ((-M1 theta_dot) clamped at 1 from the left), per component and time.

    Implements the one-sided-from-minus-infinity minimum with the constant 1:
    follow -M1 theta_dot from the downstream end until it first crosses the
    level 1 (equivalently 1 + M1 theta_dot crosses 0 downward), then hold the
    plateau.  Raises if the crossing is missing or the branch is not positive
    up to it.
    """
    v = -M1 * theta_dot
    kinks = (1.0 - v <= 0.0).argmax(axis=2)  # first crossing; 0 when there is none
    branch = np.arange(v.shape[2]) < kinks[..., None]
    bad = (kinks == 0) | (branch & (v <= 0.0)).any(axis=2)
    if bad.any():
        i, k = np.unravel_index(bad.argmax(), bad.shape)  # first in C order
        if kinks[i, k] == 0:
            raise NumericalError(
                "clamp level never reached: grow M1 "
                f"(component {i}, time index {k})"
            )
        raise NumericalError(
            "supersolution branch loses positivity before its clamp: "
            f"grow M1 (component {i}, time index {k})"
        )
    return np.where(branch, M2 * v, M2), kinks


def _positive_part_from_left(core: np.ndarray, z: np.ndarray):
    """core v 0 taken one-sidedly from z = -infinity, per component and time.

    Follows core from the downstream end while positive, clamps to zero from
    its first sign change on; the root must occur at z <= 0 so the result
    vanishes on the upstream half-line.  Returns (clamped array, root indices).
    """
    nonpos = core <= 0.0
    roots = nonpos.argmax(axis=2)  # first sign change; 0 when there is none
    missing = ~nonpos.any(axis=2)
    bad = nonpos[..., 0] | missing | (z[roots] > 1e-9)
    if bad.any():
        i, k = np.unravel_index(bad.argmax(), bad.shape)  # first in C order
        if nonpos[i, k, 0]:
            raise NumericalError(
                "critical subsolution not positive at the downstream end; "
                "increase a (support truncated)"
            )
        if missing[i, k]:
            raise NumericalError(
                "critical subsolution has no sign change: grow M3"
            )
        raise NumericalError(
            "critical subsolution must vanish on z >= 0: grow M3"
        )
    return np.where(np.arange(core.shape[2]) < roots[..., None], core, 0.0), roots


def build_envelopes_critical(fsys: FrameSystem, mu_star: float, grid: Grid,
                             tol: float = 1e-7) -> CriticalEnvelopes:
    """Tune (M1, M2, M3) so the critical envelope pair works on the given grid.

    The frame must move at c* (fsys.c), so eigensolves return lambda_{1,mu} + c* mu:
    that value vanishes to solver tolerance at mu* and must be strictly
    negative at mu* + gamma (strict concavity of the dispersion eigenvalue).
    Mean-one normalization keeps mu -> u'_mu differentiable; the derivative is
    a centered difference with step _H_REL * mu*.

    M3 has an upper end: the core -Theta_dot - M3 Theta + Theta_gamma is
    positive at the downstream node only for M3 < min (Theta_gamma -
    Theta_dot) / Theta there.  Its search bisects up to that end instead of
    doubling past it, keeps its 2% margin at most halfway to the end, and
    raises "increase a" only if no value below the end passes.
    """
    gamma = 0.5 * mu_star
    cell = _cell_grid_for(fsys, grid)
    ev = EigenEvaluator(fsys, grid=cell, tol=min(tol, 1e-8), normalization="mean-one")
    pair_star = ev.pair(mu_star)
    pair_g = ev.pair(mu_star + gamma)
    g_gamma = pair_g.lam
    if g_gamma >= 0:
        raise NumericalError(
            f"lambda + c* mu = {g_gamma:.3e} >= 0 at mu* + gamma; dispersion "
            "concavity violated upstream"
        )
    h = _H_REL * mu_star
    du = (ev.pair(mu_star + h).eigenfunction.values
          - ev.pair(mu_star - h).eigenfunction.values) / (2.0 * h)

    env = CriticalEnvelopes(
        fsys, mu_star, gamma, 1.0, 1.0, 1.0, g_gamma, np.inf,
        pair_star, pair_g, du, cell,
    )
    theta, theta_dot, theta_g = env._pieces(grid)
    op0 = build_operator_mu(fsys, 0.0, grid)
    dz2 = grid.dz ** 2
    tol_rel = max(10.0 * tol, 50.0 * dz2)

    # doubling scan then bisection towards the smallest passing constant;
    # oversized constants are admissible but push the subsolution support far
    # downstream and dilute the profile's |z| e^{mu* z} shape on finite grids

    def tune(start, pred, what, end):
        lo, hi = start / 2.0, start
        while not pred(hi):
            if 2.0 * hi >= end:  # pred fails at end: bisect up to it instead
                lo, hi = hi, end
                break
            lo, hi = hi, 2.0 * hi
            if hi > _TUNE_CAP:
                raise NumericalError(f"envelope tuning failed: {what} cap reached")
        if hi < end and pred(lo):
            return hi
        for _ in range(8):
            mid = 0.5 * (lo + hi)
            if pred(mid):
                hi = mid
            else:
                lo = mid
        if hi == end:
            raise NumericalError(f"no {what} below its upper end {end:.6g} passes: increase a")
        return min(1.02 * hi, 0.5 * (hi + end))

    def m1_ok(m1):
        try:
            _clamp_supersolution(theta_dot, m1, 1.0)
            return True
        except NumericalError:
            return False

    env.M1 = tune(1.0, m1_ok, "M1", np.inf)

    # M2: dominate the uncoupled quadratic on the plateau and on the grid
    lsum = op0.coupling.sum(axis=1)                      # (N, n_t, n_z)
    bdiag = np.einsum("iitz->itz", op0.b_tab)
    if bdiag.min() <= 0:
        raise NumericalError("diagonal competition must be positive (A4)")
    m2_floor = max(1.0, float((lsum / bdiag).max()))

    def m2_ok(m2):
        if m2 < m2_floor - 1e-12:
            return False  # plateau inequality -L'1 + m2 b_ii 1 >= 0 is exact
        ubar, kinks = _clamp_supersolution(theta_dot, env.M1, m2)
        ineq = apply_operator(op0, GridField(ubar, grid)).values + bdiag * ubar * ubar
        mask = _kink_mask(kinks, grid.n_z)
        scale = 1.0 + np.abs(ubar) + bdiag * ubar * ubar
        viol = np.where(mask, -ineq / scale, -np.inf)[:, :, 2:-2].max()
        return viol <= tol_rel

    env.M2 = tune(m2_floor, m2_ok, "M2", np.inf)

    # M3: order the pair, vanish upstream, and satisfy the reduced
    # subsolution inequality chi Theta_gamma + (B' ubar) o core <= 0
    ubar, _ = _clamp_supersolution(theta_dot, env.M1, env.M2)
    Bubar = np.einsum("ijtz,jtz->itz", op0.b_tab, ubar)
    m3_end = float(((theta_g - theta_dot) / theta)[:, :, 0].min())

    def m3_ok(m3):
        core = -theta_dot - m3 * theta + theta_g
        try:
            ulow = env.M1 * env.M2 * _positive_part_from_left(core, grid.z)[0]
        except NumericalError:
            return False
        support = ulow > 0
        ineq = g_gamma * theta_g + Bubar * core
        scale = np.abs(g_gamma) * theta_g + 1e-300
        viol_sub = float(np.where(support, ineq / scale, -np.inf).max())
        order_viol = float((ulow - ubar).max())
        return viol_sub <= tol_rel and order_viol <= tol * (1 + np.abs(ubar).max())

    env.M3 = tune(1.0, m3_ok, "M3", m3_end)

    env.materialize(grid)
    return env


def _kink_mask(kinks: np.ndarray, n_z: int) -> np.ndarray:
    """True away from the clamp kink (one-sided derivatives there)."""
    return np.abs(np.arange(n_z) - kinks[..., None]) > 2


# ---------------------------------------------------------------------------
# the critical fixed point (semilinear monotone inner problem)


def critical_fixed_point(env: CriticalEnvelopes, a: float,
                         tol: float = 1e-7, grid: Grid | None = None,
                         force_relaxation: bool = False,
                         record_iterates: bool = False,
                         **grid_kw) -> WaveProfile:
    """Fixed point at c = c* with the diagonal quadratic term kept implicit.

    The inner problem replaces the linear cooperative operator by the
    semilinear monotone one u -> R u + diag(b'_ii) u^2
    + diag((B' - diag(b'_ii)) r) u, which preserves the comparison structure;
    solve_periodic_bvp solves it with the quadratic term kept implicit:
    pseudo-transient Newton continuation on the steady system
    (time-independent frames) or relaxation of the parabolic flow.
    """
    ubar_f, _, usub, op0, bc = _truncated_problem(env, a, grid, grid_kw)
    bdiag = np.einsum("iitz->itz", op0.b_tab)
    b_off = op0.b_tab * (1.0 - np.eye(op0.N))[:, :, None, None]  # B' off its diagonal

    def inner(r, u_prev):
        lin_extra = np.einsum("ijtz,jtz->itz", b_off, r)
        # Newton warm start from the supersolution on the first sweep: for the
        # concave quadratic nonlinearity it descends monotonically onto the
        # maximal trapped solution instead of stalling near the unstable zero
        # every sweep at tol/10: a loose first one nearly doubles the outer sweeps
        u, bvp = solve_periodic_bvp(
            op0, bc, ubar_f if u_prev is None else u_prev, tol * 0.1, extra_diag=lin_extra,
            force_relaxation=force_relaxation, quadratic=bdiag,
        )
        return u, bvp["periods"], True

    return _damped_fixed_point(
        env.fsys, op0, env.fsys.c, a, ubar_f.values, usub, inner, tol, record_iterates,
        {"mu_star": env.mu_star, "pipeline": "critical"},
    )
