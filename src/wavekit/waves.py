"""Pulsating traveling wave profiles on truncated cylinders.

Supercritical speeds c > c*: the exponential supersolution
ubar = e^{mu_wedge z} u'_{mu_wedge} kills the linearized operator exactly,
and subtracting a steeper multiple M e^{(mu_wedge+gamma) z} u'_{mu_wedge+gamma}
with gamma = min(mu_wedge, mu_vee - mu_wedge)/2 gives a subsolution of the
linear problem with the competition of ubar frozen in.  Their positive parts
trap a fixed point of r -> u_r, where u_r solves the linear periodic-Dirichlet
problem (R + diag(B' r)) u = 0 with boundary data (ulow v 0)(+-a): a profile
of the full semilinear system.

Critical speed c = c*: the envelope pair is built from Theta(mu) = e^{mu z}
u'_mu and its mu-derivative (u'_mu rescaled to mean one, differentiable in
mu), the supersolution clamped at a constant plateau through the
one-sided-from-minus-infinity min/max construction.

Every eigenpair u'_mu is the run's c = 0 pair seen from the frame moving at
c (EigenEvaluator.frame_pair), on the cylinder's own nodes.

Both pipelines run one loop: inexact Newton steps on the semilinear system,
each one warm-started periodic-Dirichlet solve, from the logistic bound K
above; damped iteration of r -> u_r is their fallback.  On a time-dependent
frame the steps share their slice LUs while the Jacobian moves little.

Growing the half-length a and comparing profiles on a fixed centered window
yields the entire-cylinder profile; verification then measures downstream
decay (rate mu_wedge, or the |z| e^{mu* z} shape at criticality), the
upstream positivity floor and the discrete PDE residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .coeffs import coupling_extrema, logistic_envelope
from .eigen import PrincipalEigenpair, default_cell_grid
from .errors import InputError, NumericalError, WavekitError
from .frame import FrameSystem
from .pde_core import (
    Grid,
    GridField,
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
_THETA = 0.5  # Picard damping of the fallback; theta = 1 stalls in a 2-cycle as r -> u_r
# reverses order, and r nears u only at rate 1 - theta, so sweeps are Newton steps
_MAX_OUTER = 200
_A_MARGIN = 1e-8  # floor of the subsolution's boundary values at -a*
_H_REL = 1e-3  # step of the centered mu-difference, relative to mu*
_EPS_DOWN = 1e-3  # downstream smallness required on the left tenth
_SHAPE_RTOL = 0.20  # tolerance of the critical |z| e^{mu* z} shape slope
_BOUNDARY_MARGIN = 5.0  # floor window stops this far short of +a


# ---------------------------------------------------------------------------
# grids and eigenfunction extension


def cylinder_grid(fsys: FrameSystem, a: float, n_t: int | None = None,
                  n_z: int | None = None, points_per_cell: int | None = None,
                  dz: float | None = None) -> Grid:
    """Truncated-cylinder grid [-a, a]; z nodes align with the periodic cell.

    A frame with a z-cell takes points_per_cell (64), any other n_z or dz
    (0.04).  n_t defaults to 1 for a time-independent frame, whose wave is
    steady, and to 256 otherwise.  Continuation across several half-lengths
    should fix dz (or points_per_cell), so that profiles share z nodes.
    """
    if fsys.L_z is not None:
        k = round(a / fsys.L_z)
        if abs(a - k * fsys.L_z) > 1e-9 or k < 1:
            raise InputError(
                f"half-length a={a} must be a positive multiple of the cell L_z={fsys.L_z}"
            )
        n_z_eff = 2 * k * (64 if points_per_cell is None else points_per_cell) + 1
        if (n_z is not None and n_z != n_z_eff) or dz is not None:
            raise InputError("pass points_per_cell, not n_z or dz, for cell-periodic systems")
    elif points_per_cell is not None:
        raise InputError("points_per_cell needs a frame with a z-cell; pass n_z or dz")
    elif n_z is not None:
        n_z_eff = n_z
    else:
        step = dz if dz is not None else 0.04
        n_z_eff = max(17, int(round(2 * a / step)) + 1)
    if n_t is None:
        n_t = 1 if fsys.is_time_independent() else 256
    return Grid.cylinder(fsys.T_frame, a, n_t, n_z_eff)


def _cell_grid_for(fsys: FrameSystem, grid: Grid) -> Grid:
    """fsys's eigen cell on the cylinder's nodes: its n_t slices, and its dz from z = 0
    over the whole cells a Grid's 16 nodes need (one node if z-independent)."""
    cell = replace(default_cell_grid(fsys), n_t=grid.n_t)
    ppc = round(cell.z1 / grid.dz)
    cells = -(-16 // ppc)
    return cell if cell.n_z == 1 else replace(cell, n_z=cells * ppc, z1=cells * cell.z1)


def _extend_to_cylinder(values: np.ndarray, cell: Grid, grid: Grid) -> np.ndarray:
    """Map samples on the cylinder's eigen cell (_cell_grid_for) onto its z nodes:
    -a is a cell multiple, so cylinder node j is cell node j mod n_z."""
    return values[:, :, np.arange(grid.n_z) % cell.n_z]


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

    def materialize(self, grid: Grid) -> tuple[GridField, GridField]:
        """(ubar, ulow) on the cylinder grid, whose eigen cell is self.cell."""
        Uw = _extend_to_cylinder(self.eig_wedge.eigenfunction.values, self.cell, grid)
        Ug = _extend_to_cylinder(self.eig_gamma.eigenfunction.values, self.cell, grid)
        z = grid.z
        ubar = _exp_profile(self.mu_wedge, z)[None, None, :] * Uw
        ulow = ubar - self.M * _exp_profile(self.mu_wedge + self.gamma, z)[None, None, :] * Ug
        return GridField(ubar, grid), GridField(ulow, grid)

    def fixed_point(self, grid: Grid, **kw) -> WaveProfile:
        return fixed_point_truncated(self, grid, **kw)


def build_envelopes_supercritical(fsys: FrameSystem, roots, grid: Grid) -> SupercriticalEnvelopes:
    """Assemble the supersolution/subsolution pair at speed c > c*.

    fsys is the frame moving at c = roots.c and grid the cylinder grid the
    envelopes will be materialized on.  The max-one normalized principal
    eigenpairs at mu_wedge and mu_wedge + gamma, gamma =
    min(mu_wedge, mu_vee - mu_wedge)/2, are roots.evaluator's seen from fsys
    on the cylinder's cell, with eigenvalues lambda_{1,mu} + c mu: the first
    must vanish and chi, the second, must be positive.

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
    eig_wedge, eig_gamma = (roots.evaluator.frame_pair(fsys, mu, cell)
                            for mu in (mu_w, mu_w + gamma))
    chi = eig_gamma.lam
    if chi <= 0:
        raise NumericalError(
            f"lambda + c mu = {chi:.3e} <= 0 at mu_wedge + gamma; "
            "this contradicts mu_wedge < mu_wedge + gamma < mu_vee (upstream failure)"
        )
    kappa = eig_gamma.kappa
    b_bar = float(coupling_extrema(fsys)[3].max())
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
# the fixed point: one inexact Newton loop for both pipelines


def fixed_point_truncated(env: SupercriticalEnvelopes, grid: Grid, tol: float = 1e-7,
                          force_relaxation: bool = False) -> WaveProfile:
    """Inexact Newton for the profile on the cylinder grid (_newton_fixed_point).

    The half-length a is grid.z1, at least env.a_star.  Before the loop the
    discrete envelopes are measured: R ubar = 0 and (R + diag(B' ubar)) ulow
    <= 0 on the interior, relative to max ubar.
    """
    ubar_f, ulow_f, usub, op0, bc = _truncated_problem(env, grid)
    if usub[:, :, -1].max() > 0:
        raise NumericalError("subsolution must be nonpositive at the upstream end")
    info = {"mu_wedge": env.mu_wedge, "pipeline": "supercritical",
            **_envelope_defects(op0, ubar_f, ulow_f)}
    del ulow_f  # the loop keeps only what it reads
    return _newton_fixed_point(env.fsys, env.c, (ubar_f, usub, op0, bc), tol,
                               force_relaxation, info)


def _envelope_defects(op0, ubar_f: GridField, ulow_f: GridField) -> dict:
    """R ubar and the positive part of (R + diag(B' ubar)) ulow on the interior,
    relative to max ubar."""
    ubar = ubar_f.values
    rsup = apply_operator(op0, ubar_f).values[:, :, 1:-1]
    Bub = np.einsum("ijtz,jtz->itz", op0.b_tab, ubar)
    rsub = apply_operator(replace(op0, pot0=op0.pot0 + Bub), ulow_f).values[:, :, 1:-1]
    return {"supersolution_residual": float(np.abs(rsup).max() / ubar.max()),
            "subsolution_violation": float(np.maximum(rsub, 0.0).max() / ubar.max())}


def _truncated_problem(env, grid: Grid):
    """env materialized on the cylinder grid: (ubar, ulow, usub = ulow v 0,
    operator at mu = 0, boundary data)."""
    if not np.isfinite(env.a_star) or grid.z1 < env.a_star - 1e-9:
        raise WavekitError(f"domain too short: a = {grid.z1} < a* = {env.a_star}")
    ubar_f, ulow_f = env.materialize(grid)
    usub = np.maximum(ulow_f.values, 0.0)
    op0 = build_operator_mu(env.fsys, 0.0, grid)
    return ubar_f, ulow_f, usub, op0, (usub[:, :, 0], usub[:, :, -1])


def _newton_fixed_point(fsys: FrameSystem, c: float, problem, tol: float,
                        force_relaxation: bool, info: dict) -> WaveProfile:
    """Inexact Newton for R u + (B' u) o u = 0 between the envelopes, and the profile.

    problem is _truncated_problem's (ubar, usub, op0, bc), ulow left out.  The
    iterate r starts at clip(min(ubar, K), usub, ubar), K the logistic bound:
    ubar is a supersolution for every r >= 0 and usub a subsolution while
    r <= ubar, so the start lies above the profile, and from above a concave
    KPP Newton sequence decreases onto the maximal solution (Pao 1992).  Each
    sweep solves J_r w = (B' r) o r, J_r = R + diag(B' r) + diag(r) B', with
    the Dirichlet data bc by one solve_periodic_bvp call warm-started at the
    last w (usub on the first): one band solve on a time-independent frame, a
    relaxation with a source term otherwise.  w becomes r.  Each sweep is
    solved to the forcing tolerance max(tol/10, |last update|/100)
    (Eisenstat & Walker, SIAM J. Sci. Comput. 1996), the first's update taken
    as sup|r - usub|.  The relaxations share one Stepper, whose slice LUs are
    kept while T max row sum |J_r - J_LU| <= pde_core.LU_REUSE: a chord step
    (Kelley, SIAM 2003) made exact by its lag source.  An iterate above K by
    more than tol (Newton linearizing below the profile) is cut back to K.
    Neither envelope is imposed: the discrete profile may cross either by the
    envelopes' truncation error, and a cut onto ubar would pin it there.  A
    NumericalError in a Newton solve turns the loop to damped Picard sweeps
    from r, r <- theta u_r + (1 - theta) r, u_r solving (R + diag(B' r)) u =
    0.  Only a sweep solved to tol/10 ends the loop, once its update is below
    tol; such a sweep also holds its orbit's wrap mismatch |v(T) - v(0)|/dt to
    tol/10 max|u|.  The converged u is checked against the trapping pair
    (usub, ubar) and the semilinear PDE; every sweep records (min(u - usub),
    min(ubar - u)) in info["iterate_bounds"].
    """
    ubar_f, usub, op0, bc = problem
    ubar = ubar_f.values
    _, K = logistic_envelope(fsys)
    r = np.clip(np.minimum(ubar, K), usub, ubar)
    newton = True
    iterate_bounds, deltas, periods = [], [], []
    u_field = GridField(usub, op0.grid)
    newton_steps = factorizations = 0
    stepper = None  # the relaxation's Stepper, retargeted sweep to sweep

    def solve(inner_tol):  # the Newton step from r, or u_r
        Br = np.einsum("ijtz,jtz->itz", op0.b_tab, r)
        source = Br * r if newton else None  # J_r w = (B' r) o r
        op = replace(op0, pot0=np.add(op0.pot0, Br, out=Br))
        if newton:
            op = replace(op, coupling=op0.coupling - r[:, None] * op0.b_tab)
        return solve_periodic_bvp(op, bc, u_field, inner_tol, source=source,
                                  force_relaxation=force_relaxation, stepper=stepper,
                                  wrap_tol=inner_tol if inner_tol <= tol * 0.1 else None)

    for it in range(_MAX_OUTER):
        # the forcing rule of every sweep; the first's update is taken as sup|r - usub|
        inner_tol = max(tol * 0.1, 0.01 * (deltas[-1] if deltas else float(np.abs(r - usub).max())))
        try:
            u_field, bvp = solve(inner_tol)
        except NumericalError:
            if not newton:
                raise
            newton = False
            u_field, bvp = solve(inner_tol)
        stepper = bvp["stepper"]
        periods.append(bvp["periods"])
        factorizations += bvp["factorizations"]
        uv = u_field.values
        if newton:
            newton_steps += 1
            if uv.max() > K + tol:
                uv = np.minimum(uv, K)
                u_field = GridField(uv, op0.grid)
            r_new = uv
        else:
            r_new = _THETA * uv + (1.0 - _THETA) * r
        iterate_bounds.append((float((uv - usub).min()), float((ubar - uv).min())))
        deltas.append(float(np.abs(r_new - r).max()))
        r = r_new
        if inner_tol <= tol * 0.1 and deltas[-1] < tol:
            break
    else:
        raise NumericalError(f"{info['pipeline']} fixed point stalled", history=deltas)
    del stepper, bvp  # the LUs, before the residual's bands

    trapping = max(0.0, float((usub - uv).max()), float((uv - ubar).max()))
    Bu = np.einsum("ijtz,jtz->itz", op0.b_tab, uv)
    res = apply_operator(op0, u_field).values + Bu * uv
    pde_residual = float(np.abs(res[:, :, 1:-1]).max() / max(np.abs(uv).max(), 1e-300))
    decay, floor = _decay_and_floor(u_field)
    return WaveProfile(
        e=tuple(fsys.frame.e_floats()), c=c, a=float(op0.grid.z1), u=u_field,
        trapping_violation=trapping, pde_residual=pde_residual,
        downstream_decay_rate=decay, upstream_floor=floor, iterations=it + 1,
        info={"deltas": deltas, "iterate_bounds": iterate_bounds,
              "inner_periods": periods, "relax_periods": sum(periods),
              "newton_steps": newton_steps, "factorizations": factorizations, **info},
    )


def extend_to_entire(env, a_schedule, window: float, tol: float = 1e-4,
                     profile_tol: float = 1e-7, **grid_kw) -> WaveProfile:
    """Continuation in the half-length a until the center window stabilizes.

    Builds every cylinder cylinder_grid(env.fsys, a, **grid_kw) of the
    increasing schedule first, and raises InputError unless their z nodes lie
    on one lattice: the same dz (pass dz or points_per_cell, not n_z), and
    half-lengths that differ by multiples of dz; the window must fit in the
    first cylinder, window <= a_schedule[0].  Then runs env's fixed point
    on each and stops when two successive profiles differ by less than tol on
    [-window, window]; the K-envelope bound 0 <= u <= K 1 is checked at
    every step.  A space-homogeneous frame leaves the translate free, and the
    truncation's pick moves with a: there the first z where max_i u_i(t_0)
    reaches K/2, if it does, is recorded as info["front_shift"], and
    _window_gap compares profiles with it moved to z = 0.
    """
    a_schedule = [float(a) for a in a_schedule]
    if sorted(a_schedule) != a_schedule or len(a_schedule) < 2:
        raise InputError("a_schedule must be increasing with at least two entries")
    if window > a_schedule[0]:
        raise InputError(f"window {window} exceeds the first half-length {a_schedule[0]}")
    grids = [cylinder_grid(env.fsys, a, **grid_kw) for a in a_schedule]
    dz = grids[0].dz
    for g in grids:
        shift = (g.z1 - grids[0].z1) / dz
        if abs(g.dz - dz) > 1e-9 * dz or abs(shift - round(shift)) > 1e-6:
            raise InputError("the a_schedule cylinders must share their z nodes: give dz or "
                             "points_per_cell, and half-lengths that differ by multiples of dz")
    _, K = logistic_envelope(env.fsys)
    prev = None
    gaps = []
    for grid in grids:
        profile = env.fixed_point(grid, tol=profile_tol)
        over_k = float(profile.u.values.max()) - K
        profile.info["k_bound_violation"] = max(0.0, over_k)
        if over_k > 1e-6 * (1 + K):
            raise NumericalError(f"profile exceeds the logistic bound K={K} by {over_k:.3e}")
        front = profile.u.values[:, 0].max(axis=0)
        if env.fsys.L_z is None and front.max() >= 0.5 * K:
            j = int(np.argmax(front >= 0.5 * K))
            at = slice(max(j - 1, 0), j + 1)  # the nodes around the first crossing
            profile.info["front_shift"] = float(np.interp(0.5 * K, front[at], profile.u.grid.z[at]))
        if prev is not None:
            gap = _window_gap(prev, profile, window)
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


def _window_gap(p1: WaveProfile, p2: WaveProfile, window: float) -> float:
    """Sup difference of two profiles on [-window, window], whose nodes they
    share; if both record a front_shift s, of u(z + s) by linear interpolation."""
    aligned = all("front_shift" in p.info for p in (p1, p2))
    v = []
    for p in (p1, p2):
        z = p.u.grid.z
        zw = z[np.abs(z) <= window + 1e-9] + (p.info["front_shift"] if aligned else 0.0)
        v.append([[np.interp(zw, z, row) for row in comp] for comp in p.u.values])
    return float(np.abs(np.subtract(*v)).max())


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

    slope, floor = profile.downstream_decay_rate, profile.upstream_floor
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
    eig_star: PrincipalEigenpair
    eig_gamma: PrincipalEigenpair   # at mu* + gamma
    du_dmu: np.ndarray              # cell values of d u'_mu / d mu at mu*, u'_mu mean-one
    cell: Grid

    # -- materialization -----------------------------------------------------

    def _pieces(self, grid: Grid):
        Us = _extend_to_cylinder(_mean_one(self.eig_star), self.cell, grid)
        Ug = _extend_to_cylinder(_mean_one(self.eig_gamma), self.cell, grid)
        dU = _extend_to_cylinder(self.du_dmu, self.cell, grid)
        z = grid.z
        es = _exp_profile(self.mu_star, z)[None, None, :]
        eg = _exp_profile(self.mu_star + self.gamma, z)[None, None, :]
        theta = es * Us
        theta_dot = es * (z[None, None, :] * Us + dU)
        theta_g = eg * Ug
        return theta, theta_dot, theta_g

    def materialize(self, grid: Grid) -> tuple[GridField, GridField]:
        """(ubar, ulow) on the cylinder grid, whose eigen cell is self.cell."""
        theta, theta_dot, theta_g = self._pieces(grid)
        ubar, _ = _clamp_supersolution(theta_dot, self.M1, self.M2)
        core = -theta_dot - self.M3 * theta + theta_g
        ulow = self.M1 * self.M2 * _positive_part_from_left(core, grid.z)[0]
        return GridField(ubar, grid), GridField(ulow, grid)

    def fixed_point(self, grid: Grid, **kw) -> WaveProfile:
        return critical_fixed_point(self, grid, **kw)


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


def build_envelopes_critical(fsys: FrameSystem, curve, grid: Grid,
                             tol: float = 1e-7) -> CriticalEnvelopes:
    """The least (M1, M2, M3) for which the critical envelope pair works on the grid.

    The frame must move at c* = curve.c_star (fsys.c), so curve.evaluator's
    pairs seen from it on the cylinder's cell have eigenvalue lambda_{1,mu} +
    c* mu: that vanishes to solver tolerance at mu* = curve.mu_star and must be
    strictly negative at mu* + gamma (strict concavity of the dispersion
    eigenvalue).
    Mean-one eigenfunctions keep mu -> u'_mu differentiable (_mean_one); the
    derivative is a centered difference with step _H_REL * mu*.

    Each constant's inequalities are, node by node, linear or quadratic in it,
    so its least admissible value lo is closed form; the constant is lo with a
    2% margin kept at most halfway to its upper end (see _least).  Oversized
    constants are admissible but push the subsolution support far downstream
    and dilute the profile's |z| e^{mu* z} shape on finite grids.
    """
    mu_star = curve.mu_star
    gamma = 0.5 * mu_star
    cell = _cell_grid_for(fsys, grid)
    pair = lambda mu: curve.evaluator.frame_pair(fsys, mu, cell)  # noqa: E731
    pair_star = pair(mu_star)
    pair_g = pair(mu_star + gamma)
    g_gamma = pair_g.lam
    if g_gamma >= 0:
        raise NumericalError(
            f"lambda + c* mu = {g_gamma:.3e} >= 0 at mu* + gamma; dispersion "
            "concavity violated upstream"
        )
    h = _H_REL * mu_star
    du = (_mean_one(pair(mu_star + h)) - _mean_one(pair(mu_star - h))) / (2.0 * h)

    env = CriticalEnvelopes(fsys, mu_star, gamma, 1.0, 1.0, 1.0, g_gamma, np.inf,
                            pair_star, pair_g, du, cell)
    theta, theta_dot, theta_g = env._pieces(grid)
    op0 = build_operator_mu(fsys, 0.0, grid)
    tol_rel = max(10.0 * tol, 50.0 * grid.dz ** 2)

    # M1: -M1 Theta_dot reaches the level 1 before p = -Theta_dot first turns
    # nonpositive, and stays below it at the downstream node
    p = -theta_dot
    peak = np.where(np.logical_and.accumulate(p > 0, axis=2), p, 0.0).max(axis=2).min()
    p0 = p[..., 0].max()
    env.M1 = _least(1.0 / peak if peak > 0 else np.inf, 1.0 / p0 if p0 > 0 else np.inf, "M1")

    # M2: ubar = M2 w dominates the uncoupled quadratic on the plateau
    # (-L'1 + M2 b_ii >= 0) and, away from the kink, to tolerance on the grid:
    # -(M2 R w + b M2^2 w^2) <= tol_rel (1 + M2 w + b M2^2 w^2) holds above the
    # larger root of M2^2 b w^2 (1 + tol_rel) + M2 (R w + tol_rel w) + tol_rel
    bdiag = np.einsum("iitz->itz", op0.b_tab)
    if bdiag.min() <= 0:
        raise NumericalError("diagonal competition must be positive (A4)")
    m2_floor = max(1.0, float((op0.coupling.sum(axis=1) / bdiag).max()))
    w, kinks = _clamp_supersolution(theta_dot, env.M1, 1.0)
    qa = bdiag * w * w * (1.0 + tol_rel)
    qb = apply_operator(op0, GridField(w, grid)).values + tol_rel * w
    disc = qb * qb - 4.0 * qa * tol_rel
    root = np.divide(np.sqrt(np.maximum(disc, 0.0)) - qb, 2.0 * qa, out=np.zeros_like(qa),
                     where=(disc >= 0) & (qa > 0) & _kink_mask(kinks, grid.n_z))
    env.M2 = _least(max(m2_floor, float(root[:, :, 2:-2].max())), np.inf, "M2")

    # M3: the core Theta_gamma - Theta_dot - M3 Theta is positive at node j iff
    # M3 < tau_j, so node j is on the support (-inf, root) iff M3 < cummin tau;
    # the first sign change lies at z <= 0 iff M3 >= min_{z <= 0} tau.  On the
    # support, the reduced subsolution inequality g_gamma Theta_gamma +
    # (B' ubar) core <= tol_rel |g_gamma| Theta_gamma and the order
    # M1 M2 core <= ubar + tol (1 + max ubar) are linear in M3 (B' ubar > 0 by A4)
    ubar = w * env.M2
    Bubar = np.einsum("ijtz,jtz->itz", op0.b_tab, ubar)
    core0, m12 = theta_g - theta_dot, env.M1 * env.M2
    tau = core0 / theta
    need = np.maximum((g_gamma * theta_g + Bubar * core0 - tol_rel
                       * (abs(g_gamma) * theta_g + 1e-300)) / (Bubar * theta),
                      (m12 * core0 - ubar - tol * (1 + ubar.max())) / (m12 * theta))
    lo = max(np.minimum(np.minimum.accumulate(tau, axis=2), need).max(),
             np.where(grid.z <= 1e-9, tau, np.inf).min(axis=2).max())
    env.M3 = _least(lo, tau[:, :, 0].min(), "M3")

    # smallest admissible half-length: the subsolution support (-inf, z0)
    # must reach past -a, so a* sits one node beyond the deepest root
    roots = _positive_part_from_left(-theta_dot - env.M3 * theta + theta_g, grid.z)[1]
    env.a_star = float(-grid.z[roots.min()] + grid.dz)
    return env


def _mean_one(pair: PrincipalEigenpair) -> np.ndarray:
    """The pair's eigenfunction values scaled to mean one, differentiable in mu."""
    return pair.eigenfunction.values / pair.eigenfunction.values.mean()


def _least(lo: float, end: float, what: str) -> float:
    """lo, the least admissible envelope constant, with a 2% margin kept at
    most halfway to the constant's upper end (exclusive)."""
    if not lo < end:
        raise NumericalError(f"no {what} below its upper end {end:.6g} passes: increase a")
    return float(lo + min(0.02 * abs(lo), 0.5 * (end - lo)))


def _kink_mask(kinks: np.ndarray, n_z: int) -> np.ndarray:
    """True away from the clamp kink (one-sided derivatives there)."""
    return np.abs(np.arange(n_z) - kinks[..., None]) > 2


# ---------------------------------------------------------------------------
# the critical fixed point


def critical_fixed_point(env: CriticalEnvelopes, grid: Grid, tol: float = 1e-7,
                         force_relaxation: bool = False) -> WaveProfile:
    """Fixed point at c = c* on the cylinder grid, between the critical envelopes.

    The half-length is grid.z1, at least env.a_star.  The same inexact Newton
    loop as at c > c* (_newton_fixed_point), from the K-box start under the
    clamped supersolution.
    """
    ubar_f, _, usub, op0, bc = _truncated_problem(env, grid)
    return _newton_fixed_point(env.fsys, env.fsys.c, (ubar_f, usub, op0, bc), tol,
                               force_relaxation, {"mu_star": env.mu_star, "pipeline": "critical"})
