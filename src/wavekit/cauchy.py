"""Direct nonlinear simulation of the reaction-diffusion system on a line.

IMEX time stepping: transport-diffusion implicit, stepped by the shared
pde_core.Stepper on the static-frame operator of an interval grid without
boundary data (zero-flux far ends, drift upwinded there), reaction explicit
with a time step small enough to preserve nonnegativity and the a-priori
envelope bound u <= K 1 coming from the logistic comparison
L u - (B u) o u <= r (1^T u)(K 1 - u).
Used for spreading-speed measurement, cross-checks of the dispersion minimal
speed, and the empirical nonexistence probe at subcritical speeds.

Simulations run on the nondimensionalized (unit-period) system; measured
speeds are therefore directly comparable with the dispersion module.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .coeffs import KPPSystem, logistic_envelope, nondimensionalize, validate_assumptions
from .dispersion import static_frame
from .errors import InputError, NumericalError
from .pde_core import Grid, Stepper, build_operator_mu

__all__ = [
    "SimulationRun",
    "SpeedMeasurement",
    "ProbeReport",
    "logistic_envelope",
    "simulate",
    "measure_spreading_speed",
    "nonexistence_probe",
    "bump_initial",
    "front_initial",
]

_DT_CAP = 0.05  # absolute cap on the Cauchy time step
_PROBE_TOL = 1e-6  # the probe needs c below c* by more than this


@dataclass
class SimulationRun:
    """Snapshots of a 1-D Cauchy simulation over one large domain."""

    x: np.ndarray
    times: np.ndarray
    snapshots: np.ndarray  # (n_snap, N, n_x)
    dt: float
    r: float
    K: float
    u_max_bound: float
    exhaustion_guard: float  # |front| beyond this is boundary-contaminated

    @property
    def N(self) -> int:
        return self.snapshots.shape[1]

    def max_component(self, k: int) -> np.ndarray:
        return self.snapshots[k].max(axis=0)

    def front_positions(self, theta: float):
        """Rightmost/leftmost crossings of max_i u_i = theta per snapshot.

        Linear interpolation between grid points; NaN when the level set is
        empty on that side.
        """
        right = np.full(len(self.times), np.nan)
        left = np.full(len(self.times), np.nan)
        for k in range(len(self.times)):
            prof = self.max_component(k)
            above = prof >= theta
            if not above.any():
                continue
            idx = np.nonzero(above)[0]
            j = idx[-1]
            if j == len(prof) - 1:
                right[k] = self.x[-1]
            else:
                w = (theta - prof[j + 1]) / (prof[j] - prof[j + 1])
                right[k] = self.x[j + 1] + (self.x[j] - self.x[j + 1]) * w
            j = idx[0]
            if j == 0:
                left[k] = self.x[0]
            else:
                w = (theta - prof[j - 1]) / (prof[j] - prof[j - 1])
                left[k] = self.x[j - 1] + (self.x[j] - self.x[j - 1]) * w
        return left, right

    def value_at(self, k: int, x0: float) -> np.ndarray:
        """Componentwise linear interpolation of snapshot k at position x0."""
        out = np.empty(self.N)
        for i in range(self.N):
            out[i] = np.interp(x0, self.x, self.snapshots[k, i])
        return out


@dataclass
class SpeedMeasurement:
    theta: float
    speed_left: float
    speed_right: float
    r2_left: float
    r2_right: float
    window: tuple[float, float]


@dataclass
class ProbeReport:
    c: float
    c_star: float
    observer_speed: float
    floor: float
    upstream_reference: float
    floor_ratio: float
    status: str  # "no_wave_signature" | "inconclusive"
    trace: list = field(default_factory=list)


def bump_initial(x: np.ndarray, N: int, amp: float = 0.5, width: float = 5.0) -> np.ndarray:
    """Compactly concentrated smooth bump around x = 0, identical components."""
    prof = amp * np.exp(-(x / width) ** 2)
    prof[np.abs(x) > 6 * width] = 0.0
    return np.tile(prof, (N, 1))

def front_initial(x: np.ndarray, N: int, e: float, amp: float = 0.5,
                  width: float = 1.0) -> np.ndarray:
    """Smooth step supported where x*e > 0 (mollified Heaviside of width 1)."""
    prof = amp * 0.5 * (1.0 + np.tanh(x * e / width))
    return np.tile(prof, (N, 1))


def simulate(sys: KPPSystem, initial: np.ndarray, t_final: float, X: float,
             n_x: int = 2048, snapshot_every: float = 1.0) -> SimulationRun:
    """Integrate the full nonlinear system from nonnegative bounded data.

    The time step honors dt <= 0.1/(r N K) (keeps the explicit reaction step
    inside the invariant region) and an absolute cap; the solution is checked
    against [0, max(K, max initial)] every snapshot and any violation beyond
    1e-8 aborts the run.
    """
    sys = nondimensionalize(sys)
    if sys.n != 1:
        raise InputError("simulate supports one spatial dimension")
    r, K = logistic_envelope(sys)
    N = sys.N
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (N, n_x):
        raise InputError(f"initial shape {initial.shape} != {(N, n_x)}")
    if initial.min() < 0:
        raise InputError("initial data must be nonnegative")
    u_max_bound = max(K, float(initial.max()))

    rep = validate_assumptions(sys)
    b_bar = float(rep.overline_B.max())
    l_diag_min = float(np.diag(rep.underline_L).min())
    # explicit-step positivity: 1 + dt (l_ii - (B u)_i) >= 0 for u in the bound
    pos_bound = 0.5 / max(abs(l_diag_min) + N * b_bar * u_max_bound, 1e-9)
    dt = min(_DT_CAP, 0.1 / (r * N * K), pos_bound)
    spp = int(np.ceil(1.0 / dt))
    dt = 1.0 / spp

    x = np.linspace(-X, X, n_x)
    op = build_operator_mu(static_frame(sys), 0.0, Grid.cylinder(1.0, X, spp, n_x))
    # the reaction stays explicit: step transport and diffusion only
    stepper = Stepper(replace(op, coupling=np.zeros_like(op.coupling)))
    L, B = op.coupling, op.b_tab

    n_steps = int(round(t_final / dt))
    snap_stride = max(1, int(round(snapshot_every / dt)))
    u = initial.copy()
    times = [0.0]
    snaps = [u.copy()]
    for step in range(n_steps):
        k = step % spp
        reaction = (np.einsum("ijx,jx->ix", L[:, :, k], u)
                    - np.einsum("ijx,jx->ix", B[:, :, k], u) * u)
        u = stepper.step(u + dt * reaction, k)
        if (step + 1) % snap_stride == 0 or step == n_steps - 1:
            if u.min() < -1e-8 or u.max() > u_max_bound + 1e-6 * (1 + u_max_bound):
                raise NumericalError(
                    f"invariant region violated at t={(step + 1) * dt:.3f}: "
                    f"range [{u.min():.3e}, {u.max():.3e}] vs [0, {u_max_bound:.6g}]; "
                    "reduce dt"
                )
            times.append((step + 1) * dt)
            snaps.append(u.copy())
    return SimulationRun(
        x, np.array(times), np.array(snaps), dt, r, K, u_max_bound, 0.9 * X
    )


def measure_spreading_speed(run: SimulationRun, theta: float,
                            sides=("left", "right")) -> SpeedMeasurement:
    """Least-squares front speeds over the late half of the run.

    theta is an absolute level in (0, K).  Raises when a requested front
    touched the exhaustion guard inside the fit window (boundary-contaminated
    fit); restrict `sides` to track one direction on asymmetric runs.
    """
    if not (0 < theta < run.u_max_bound):
        raise InputError(f"theta must lie in (0, {run.u_max_bound})")
    left, right = run.front_positions(theta)
    t = run.times
    t_lo = t[-1] / 2.0
    win = t >= t_lo
    out = {"left": (float("nan"), float("nan")), "right": (float("nan"), float("nan"))}
    tracked = [("left", left, -1.0), ("right", right, +1.0)]
    for name, pos, sign in (trk for trk in tracked if trk[0] in sides):
        sel = win & ~np.isnan(pos)
        if sel.sum() < 4:
            raise NumericalError(f"{name} front with level {theta} not trackable")
        if np.any(np.abs(pos[sel]) > run.exhaustion_guard):
            raise NumericalError(f"domain exhausted: {name} front passed the guard")
        coeff = np.polyfit(t[sel], pos[sel], 1)
        fit = np.polyval(coeff, t[sel])
        ss_res = float(np.sum((pos[sel] - fit) ** 2))
        ss_tot = float(np.sum((pos[sel] - pos[sel].mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        out[name] = (sign * coeff[0], r2)
    return SpeedMeasurement(
        theta, out["left"][0], out["right"][0], out["left"][1], out["right"][1],
        (float(t_lo), float(t[-1])),
    )


def nonexistence_probe(sys: KPPSystem, e: float, c: float, c_star: float,
                       t_final: float = 30.0, X: float = 90.0,
                       n_x: int = 2048) -> ProbeReport:
    """Empirical signature excluding waves at subcritical speed c < c*.

    Simulates from front-like data (smooth step in direction -e) and watches
    the solution at the observer x(t) = -((c + c*)/2) t e.  A wave of speed c
    would force the observed value to 0; instead the invasion spreads at c*
    and overtakes the slower observer, so a positive floor persisting over the
    late window contradicts any such wave.  Never returns a false positive:
    when the floor is not established the status is "inconclusive".
    """
    e = float(e)
    if abs(abs(e) - 1.0) > 1e-12:
        raise InputError("probe direction must be a unit scalar (n = 1)")
    if not c < c_star - _PROBE_TOL:
        raise InputError(f"probe precondition c < c* - tol violated: c={c}, c*={c_star}")
    sysn = nondimensionalize(sys)
    _, K = logistic_envelope(sysn)
    x = np.linspace(-X, X, n_x)
    init = front_initial(x, sysn.N, e, amp=0.5 * min(1.0, K))
    run = simulate(sysn, init, t_final, X, n_x=n_x)

    v_obs = (c + c_star) / 2.0
    trace = []
    for k, t in enumerate(run.times):
        x_obs = -v_obs * t * e
        if abs(x_obs) > run.exhaustion_guard:
            return ProbeReport(c, c_star, v_obs, float("nan"), float("nan"),
                               float("nan"), "inconclusive", trace)
        trace.append((float(t), float(run.value_at(k, x_obs).min())))
    upstream_ref = float(run.value_at(len(run.times) - 1, 0.0).min())
    late = [v for (t, v) in trace if t >= run.times[-1] / 2.0]
    floor = float(min(late)) if late else float("nan")
    ratio = floor / upstream_ref if upstream_ref > 0 else float("nan")
    status = "no_wave_signature" if (upstream_ref > 0 and ratio >= 0.5) else "inconclusive"
    return ProbeReport(c, c_star, v_obs, floor, upstream_ref, ratio, status, trace)
