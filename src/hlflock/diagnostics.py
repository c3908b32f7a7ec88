"""Quantitative probes over simulated trajectories.

Each probe turns one of the model's qualitative guarantees into a check with
an explicit tolerance: velocities stay nonnegative (scalar companion system),
speeds never leave the initial ball and per-coordinate hull, the two-agent
velocity gap sits under an explicit exponential envelope, dissipation
functionals never increase, and under an admissibly forced root the flock's
velocity hull widens by at most twice the forcing's mass since any earlier
time (the paper's consensus is asymptotic, which no finite run can refute).

The positivity, ball, two-agent and free-will probes check the discrete
statements Heun obeys when its stages are convex combinations, so they allow
rounding only. The dissipation probe is exact in continuous time only and
adds a slack calibrated from the disagreement between Heun and the oracle on
the same run (an empirical stand-in for C*h). Decay estimates are evaluated
from t = tau onward; the window [0, tau) is governed only by the prehistory
and is excluded.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .integrator import Trajectory, _trapezoid_mu_weights
# No probe simulates; ``simulate`` stays importable here because the
# benchmark tracer (perfbench/tracing.py) wraps it in this module's namespace.
from .integrator import simulate  # noqa: F401
from .model import (LeadershipDag, Scenario, ScenarioError, _cumulative_trapezoid,
                    check_forcing_conditions)
from .oracle import simulate_oracle

DIAMETER_FLOOR = 1e-12      # dV values at or below this are rounding noise
SPEED_TOL = 1e-8            # positivity and ball / hull invariance slack
DEFAULT_BOUND_TOL = 1e-6    # relative slack on exponential envelopes
_ENVELOPE_ROUNDING = 16.0   # envelope and hull checks' rounding per step, in eps * max speed
# Elements of one block of a pass over a whole trajectory: the diameter's
# (d, N, steps) planes, the speeds' (steps, N, d) rows. Bounds the temporaries.
_BLOCK_VALUES = 1 << 16
# Pruning bounds: values within +-_PRUNE_MAX square and sum without overflow, and a
# lower bound of at least _PRUNE_MIN_LB keeps every underflow far below the margin.
_PRUNE_MAX = 1e150
_PRUNE_MIN_LB = 1e-150
# Relative slack on the pruning threshold per coordinate: the centroid distances
# and the squared pair distances are off by a few d units in the last place.
_PRUNE_MARGIN = 1e-9
# Below this many agents the whole sweep of a block is cheaper than the test
# that prunes it (measured on smooth flocks in one to three dimensions).
_PRUNE_MIN_AGENTS = 10


class PreconditionError(ValueError):
    """The probe's hypotheses do not apply to this input."""


class InsufficientDataError(ValueError):
    """Not enough usable samples to fit."""


# ---------------------------------------------------------------------------
# Consensus series and decay fitting
# ---------------------------------------------------------------------------

class ConsensusSeries:
    """Max over agent pairs of |v_i - v_j| and of |x_i - x_j| at each step.

    Built from the positions (T, N, d) instead of ``position_diameter``, the
    position series is computed the first time it is read, so a caller that
    reads only the velocity diameter never pays for it. Built with neither,
    reading it raises :class:`PreconditionError`.
    """

    def __init__(self, times: np.ndarray, velocity_diameter: np.ndarray,
                 position_diameter: np.ndarray | None = None, *,
                 positions: np.ndarray | None = None):
        self.times = times
        self.velocity_diameter = velocity_diameter
        self._positions = positions
        if position_diameter is not None:
            self.position_diameter = position_diameter

    @cached_property
    def position_diameter(self) -> np.ndarray:
        if self._positions is None:
            raise PreconditionError("the consensus series has no positions: it was built "
                                    "with neither positions nor position_diameter")
        return _pairwise_diameter(self._positions)


def _pairwise_diameter(arr: np.ndarray) -> np.ndarray:
    """(T, N, d) -> (T,) max Euclidean distance over agent pairs.

    The steps are taken in blocks whose (d, N, steps) planes hold at most
    ``_BLOCK_VALUES`` elements (one step if N*d is larger), so the working
    memory is a few blocks whatever T. In each block :func:`_kept_agents`
    measures every pair with the agent farthest from the centroid, and the
    sweep (:func:`_sweep`) then visits only the agents that can be an
    endpoint of a farther pair, or all of them where it cannot prune. Both
    form every squared distance exactly as the all-pairs form, so the maximum
    is the same bit for bit. The square root is taken once, of the
    running maximum; sqrt is monotone and correctly rounded, so this equals
    the maximum of the distances bit for bit.
    """
    n_steps, n_agents, dim = arr.shape
    step = max(1, _BLOCK_VALUES // (n_agents * dim))
    best = np.zeros(n_steps)
    for lo in range(0, n_steps, step):
        # (d, N, steps): one contiguous row per agent and coordinate, so every
        # difference and the max over agents run along contiguous memory.
        planes = np.ascontiguousarray(arr[lo:lo + step].transpose(2, 1, 0))
        block = best[lo:lo + step]
        kept = _kept_agents(planes, block)
        _sweep(planes if kept is None else planes[:, kept], block)
    return np.sqrt(best, out=best)


def _sweep(planes: np.ndarray, best: np.ndarray) -> None:
    """Raise ``best`` (steps,) to the largest squared distance between agents
    of the (d, n, steps) ``planes``: agent i against itself and every later
    agent, squares summed coordinate by coordinate, so each pair is visited
    once. The i == i term is 0, or NaN where agent i's state is not finite,
    so non-finite input gives NaN as the all-pairs form does."""
    for i in range(planes.shape[1]):
        sq = planes[0, i:] - planes[0, i]
        sq *= sq
        for plane in planes[1:]:
            diff = plane[i:] - plane[i]
            diff *= diff
            sq += diff
        np.maximum(best, sq.max(axis=0), out=best)


def _kept_agents(planes: np.ndarray, best: np.ndarray) -> np.ndarray | None:
    """Raise ``best`` (steps,) to each step's largest squared distance from
    the agent farthest from the centroid, p, and return the indices, in
    order, of the agents of the (d, N, steps) ``planes`` that can still be an
    endpoint of a farther pair; or None to sweep them all.

    Every pair with p is measured here, as :func:`_sweep` measures it, and
    the largest, LB, is a pair distance. Let r_i be agent i's distance from
    the centroid. A pair (i, j) without p has distance at most
    r_i + r_j <= r_i + r_rest, r_rest the largest r of the agents other than
    p, so it can exceed LB only if r_i + r_rest >= LB, lowered here by
    d * ``_PRUNE_MARGIN`` of LB to cover rounding.

    None is returned for fewer than ``_PRUNE_MIN_AGENTS`` agents, a value that
    is not finite or not within +-``_PRUNE_MAX``, a step whose LB is below
    ``_PRUNE_MIN_LB``, and a kept set so large that its planes and their sweep
    would take more memory than the whole sweep (it would save little time
    either). Its two (N, steps) buffers match the whole sweep's two, so
    pruning adds only a few (steps,) arrays to the working memory.
    """
    dim, n, cols = planes.shape
    if n < _PRUNE_MIN_AGENTS or not (-_PRUNE_MAX <= planes.min() and planes.max() <= _PRUNE_MAX):
        return None                     # a NaN fails the bounds test too
    acc, scratch = np.empty((n, cols)), np.empty((n, cols))
    steps = np.arange(cols)
    centroid = planes.mean(axis=1)
    _squared_distances(planes, centroid, acc, scratch)
    far = acc.argmax(axis=0)
    acc[far, steps] = 0.0
    r_rest = np.sqrt(acc.max(axis=0))
    _squared_distances(planes, planes[:, far, steps], acc, scratch)
    lb_sq = acc.max(axis=0)
    if lb_sq.min() < _PRUNE_MIN_LB ** 2:
        return None
    np.maximum(best, lb_sq, out=best)
    threshold = np.sqrt(lb_sq) * (1.0 - _PRUNE_MARGIN * dim) - r_rest
    np.maximum(threshold, 0.0, out=threshold)
    threshold *= threshold              # compared with squared distances below
    _squared_distances(planes, centroid, acc, scratch)
    keep = np.greater_equal(acc, threshold, out=scratch.view(np.bool_)[:, :cols])
    keep[far, steps] = False
    kept = np.flatnonzero(keep.any(axis=1))
    return kept if (dim + 2) * kept.size <= 2 * n else None


def _squared_distances(planes: np.ndarray, centre: np.ndarray, out: np.ndarray,
                       scratch: np.ndarray) -> None:
    """Squared distance from each agent of the (d, N, steps) ``planes`` to
    ``centre`` (d, steps), into ``out`` (N, steps), summed coordinate by
    coordinate as :func:`_sweep` sums them; ``scratch`` is an (N, steps) buffer."""
    np.subtract(planes[0], centre[0], out=out)
    out *= out
    for plane, c in zip(planes[1:], centre[1:]):
        np.subtract(plane, c, out=scratch)
        scratch *= scratch
        out += scratch


def consensus_series(traj: Trajectory) -> ConsensusSeries:
    """Exact max-over-pairs velocity and position diameters at each step; the
    position diameter is computed when first read."""
    if traj.times.size == 0:
        raise PreconditionError("empty trajectory")
    return ConsensusSeries(times=traj.times,
                           velocity_diameter=_pairwise_diameter(traj.v),
                           positions=traj.x)


@dataclass(frozen=True)
class DecayFit:
    window: tuple[float, float]
    rate: float            # decay exponent (positive means shrinking)
    intercept: float       # fitted log-value at t=0
    residual_rms: float
    n_used: int
    n_censored: int


def window_mask(times: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    """Samples inside the closed window [t_a, t_b], widened by 1e-12 so a grid
    time that rounding puts just outside an edge still counts."""
    t_a, t_b = window
    return (times >= t_a - 1e-12) & (times <= t_b + 1e-12)


def fit_decay_rate(series: ConsensusSeries,
                   window: tuple[float, float] | None = None) -> DecayFit:
    """Least-squares line through (t, ln dV(t)) on the window; rate = -slope.

    Samples at or below ``DIAMETER_FLOOR`` are censored (they are dominated
    by rounding noise once consensus is numerically exact) and only counted.
    """
    times = series.times
    values = series.velocity_diameter
    if window is None:
        window = (float(times[0] + 0.5 * (times[-1] - times[0])), float(times[-1]))
    t_a, t_b = window
    in_window = window_mask(times, window)
    usable = in_window & (values > DIAMETER_FLOOR)
    n_censored = int(np.count_nonzero(in_window) - np.count_nonzero(usable))
    n_used = int(np.count_nonzero(usable))
    if n_used < 10:
        raise InsufficientDataError(
            f"insufficient decay data: {n_used} uncensored samples in window {window}")
    t_fit = times[usable]
    y_fit = np.log(values[usable])
    slope, intercept = np.polyfit(t_fit, y_fit, 1)
    resid = y_fit - (slope * t_fit + intercept)
    return DecayFit(window=(float(t_a), float(t_b)), rate=float(-slope),
                    intercept=float(intercept),
                    residual_rms=float(np.sqrt(np.mean(resid ** 2))),
                    n_used=n_used, n_censored=n_censored)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def max_speed(v: np.ndarray) -> float:
    """Largest Euclidean speed in (T, N, d) velocities: the square root of the
    largest squared norm, found over blocks of at most ``_BLOCK_VALUES``
    elements. sqrt is monotone and correctly rounded, so this is the largest
    of the speeds bit for bit."""
    step = max(1, _BLOCK_VALUES // v[0].size)
    largest = np.max([np.einsum("knd,knd->kn", v[lo:lo + step], v[lo:lo + step]).max()
                      for lo in range(0, v.shape[0], step)])
    return float(np.sqrt(largest))


def history_speed_bound(traj: Trajectory) -> float:
    """Largest speed over all agents and prehistory samples (the invariant
    velocity-ball radius)."""
    if traj.hist_v.size == 0:
        raise PreconditionError("trajectory carries no prehistory samples")
    return max_speed(traj.hist_v)


def calibrate_step_slack(traj: Trajectory) -> float:
    """Empirical discretization slack for bound checks on this run: the max
    velocity discrepancy against the independent Euler oracle at refinement
    2. Plays the role of C*h; both schemes are consistent, so it vanishes
    with the step."""
    oracle = simulate_oracle(_require_scenario(traj), 2)
    return float(np.abs(traj.v - oracle.v).max())


def _require_fine_step(scenario: Scenario) -> None:
    """The discrete form of the invariance theorems: with S the weight sum
    of a follower's window in one Heun stage, that stage makes its new
    velocity a convex combination of stored velocities when h*S <= 1, so no
    speed, coordinate hull or sign leaves its prehistory range. S is at most
    mu_h * psi(0) * |L(i)|, mu_h the stepper's quadrature mass of the kernel
    and psi(0) the largest value of the non-increasing potential; a coarser
    step is a precondition error naming h * mu_h * psi(0) * max_i |L(i)|."""
    fol, _ = scenario.dag.edge_arrays()
    leaders = int(np.bincount(fol).max()) if fol.size else 0
    value = (scenario.dt * float(_trapezoid_mu_weights(scenario).sum())
             * float(scenario.potential(0.0)) * leaders)
    if value > 1.0:
        raise PreconditionError(f"h*mu_h*psi(0)*max|L(i)| = {value:.6g} > 1: the step is too "
                                f"coarse for the discrete invariance theorem")


def _require_scenario(traj: Trajectory) -> Scenario:
    if traj.scenario is None:
        raise PreconditionError("this probe needs the trajectory's scenario")
    return traj.scenario


@dataclass
class ProbeReport:
    """Outcome of one probe. ``passed`` is None when the probe's hypotheses
    do not hold for the input (skipped, neither pass nor fail)."""
    name: str
    passed: bool | None
    details: dict = field(default_factory=dict)
    series: dict[str, np.ndarray] | None = None

    @property
    def skipped(self) -> bool:
        return self.passed is None

    def to_text(self) -> str:
        status = "SKIP" if self.passed is None else ("PASS" if self.passed else "FAIL")
        parts = []
        for key, val in self.details.items():
            if isinstance(val, float):
                parts.append(f"{key}={val:.6g}")
            else:
                parts.append(f"{key}={val}")
        return f"{self.name}: {status}" + (f" ({', '.join(parts)})" if parts else "")

    def to_dict(self) -> dict:
        def clean(v):
            if isinstance(v, (np.floating, np.integer)):
                return v.item()
            if isinstance(v, np.bool_):
                return bool(v)
            return v
        return {"name": self.name, "passed": self.passed,
                "details": {k: clean(v) for k, v in self.details.items()}}


# ---------------------------------------------------------------------------
# Two-agent exponential envelope
# ---------------------------------------------------------------------------

def check_two_flock_bound(traj: Trajectory, tol: float = DEFAULT_BOUND_TOL) -> ProbeReport:
    """Check the two-agent velocity gap w = v2 - v1 against the discrete
    envelope Heun obeys from step m = tau/h on.

    The unforced leader keeps its velocity v1, so from step m on every leader
    velocity in the follower's window is v1. With S0, S1 the window's weight
    sums sum_j c_j*psi_j in Heun's two stages (c_j the trapezoid weight times
    the kernel; the second stage's newest node is the predicted x + h*v), the
    stages are a0 = -S0*w and a1 = -S1*(1 - h*S0)*w, so a step gives
        w_{k+1} = w_k + h/2*(a0 + a1) = g_k*w_k,  g_k = (1 + (1 - h*S0)*(1 - h*S1)) / 2.
    psi is non-increasing and c_j >= 0, so in step k each S lies in
    [a_k, mu_h*psi(0)]: a_k = mu_h*psi(Y_k), mu_h = sum_j c_j the stepper's
    kernel mass and Y_k the largest distance at step k's window nodes, the
    stored ones and the predicted one. Under the step condition
    h*mu_h*psi(0) <= 1 (:func:`_require_fine_step`) both factors lie in
    [0, 1 - h*a_k], so 1/2 <= g_k <= r_k = 1 - h*a_k + (h*a_k)^2/2 and
    |w_k| <= |w_m|*prod_{j=m}^{k-1} r_j, with equality at beta = 0, where
    psi is 1. The product is taken as exp(cumsum(log1p((h*a_j)^2/2 - h*a_j))).

    Late in a run |w| is far below the speeds, so the rounding allowance is
    absolute: each step rounds the gap by a few eps*V, V the run's largest
    speed, and later steps contract that by at least r, the r_k of the
    run's largest window distance Y, so the check is
        |w_k| <= (1 + tol)*|w_m|*prod_{j=m}^{k-1} r_j + K*eps*V*sum_{j=0}^{k-m} r^j,
    K = ``_ENVELOPE_ROUNDING`` = 16. Over 3505 two-agent draws (d 1 to 3, each
    built-in kernel, beta in {0, 1/4, 1/2, 1}, 1 to 29 delay steps, up to 551
    steps) the largest |w_k| less the product is 0.62 of the allowance with
    K = 1 (0.63 against the whole-run r^(k-m) over 1980 draws of up to 23172
    steps).

    ``details`` give Y (``y_window``), the discrete rate -ln(r)/h and the
    paper's rate mu0*psi(y_M), y_M = max_{t>=tau} |x2 - x1| + 2*tau*D0 with D0
    the prehistory speed bound.
    """
    scenario = _require_scenario(traj)
    if scenario.n_agents != 2:
        raise PreconditionError("two-agent bound needs exactly 2 agents")
    if not scenario.forcing.is_zero:
        raise PreconditionError("the envelope assumes a constant-velocity root")
    m, h = scenario.delay_steps, scenario.dt
    if traj.times.size <= m:
        raise PreconditionError("trajectory ends before t = tau")
    _require_fine_step(scenario)
    dx, dv = traj.x[:, 1, :] - traj.x[:, 0, :], traj.v[:, 1, :] - traj.v[:, 0, :]
    w, y = np.linalg.norm(dv, axis=1), np.linalg.norm(dx, axis=1)
    # step k's window nodes: the states k-m..k and the predicted x + h*v
    y_steps = np.maximum(sliding_window_view(y, m + 1).max(axis=-1)[:-1],
                         np.linalg.norm(dx[m:-1] + h * dv[m:-1], axis=1))
    y_window = float(max(y[:-1].max(), y_steps.max(initial=0.0)))
    mu_h = float(_trapezoid_mu_weights(scenario).sum())
    ha_steps = h * mu_h * scenario.potential(y_steps)
    log_r = np.log1p(ha_steps * ha_steps / 2.0 - ha_steps)    # accurate for small h*a
    envelope = w[m] * np.exp(np.concatenate(([0.0], np.cumsum(log_r))))
    ha = h * mu_h * float(scenario.potential(y_window))
    q = -float(np.log1p(ha * ha / 2.0 - ha))      # r = e^-q
    decay = np.exp(-q * np.arange(w.size - m))
    allowance = _ENVELOPE_ROUNDING * np.finfo(float).eps * max_speed(traj.v) * np.cumsum(decay)
    excess = w[m:] - ((1.0 + tol) * envelope + allowance)
    y_m = float(y[m:].max() + 2.0 * scenario.tau * history_speed_bound(traj))
    return ProbeReport(
        name="two_flock_bound", passed=bool(np.all(excess <= 0.0)),
        details={"y_m": y_m, "rate": float(scenario.kernel.mu0 * scenario.potential(y_m)),
                 "y_window": y_window, "discrete_rate": q / h, "gap_at_tau": float(w[m]),
                 "max_excess": float(excess.max()), "tol": tol},
        series={"times": traj.times[m:], "gap": w[m:], "envelope": envelope})


# ---------------------------------------------------------------------------
# Positivity and invariance
# ---------------------------------------------------------------------------

def positivity_probe(traj: Trajectory) -> ProbeReport:
    """Check the scalar companion system's values never go negative.

    Realized as the velocity component of a one-dimensional flock whose
    velocity prehistories are all nonnegative (the positions evolve and feed
    the potential, which exercises the production code path). A negative
    prehistory sample violates the hypothesis and is an error.
    """
    scenario = _require_scenario(traj)
    if scenario.dim != 1:
        raise PreconditionError("positivity probe runs on one-dimensional scenarios")
    if not scenario.forcing.is_zero:
        raise PreconditionError("positivity probe assumes the unforced system")
    hist_min = traj.hist_v.min()
    if hist_min < 0:
        raise PreconditionError(f"negative history value {hist_min} violates the hypothesis")
    _require_fine_step(scenario)
    values = traj.v[:, :, 0]
    k, agent = np.unravel_index(np.argmin(values), values.shape)
    min_value = float(values[k, agent])
    return ProbeReport(
        name="positivity", passed=bool(min_value >= -SPEED_TOL),
        details={"min_value": min_value, "at_time": float(traj.times[k]),
                 "agent": int(agent + 1), "tolerance": SPEED_TOL})


def ball_invariance_probe(traj: Trajectory) -> ProbeReport:
    """Speeds stay inside the prehistory ball; each velocity coordinate stays
    inside the prehistory's per-coordinate hull. The statement covers the
    unforced system only, so a forced trajectory is a precondition error."""
    scenario = _require_scenario(traj)
    if not scenario.forcing.is_zero:
        raise PreconditionError("ball invariance assumes the unforced system")
    _require_fine_step(scenario)
    d0 = history_speed_bound(traj)
    run_speed = max_speed(traj.v)
    hull_hi = traj.hist_v.max(axis=(0, 1))    # per coordinate
    hull_lo = traj.hist_v.min(axis=(0, 1))
    run_hi = traj.v.max(axis=(0, 1))
    run_lo = traj.v.min(axis=(0, 1))
    hull_excess = float(np.maximum(run_hi - hull_hi, hull_lo - run_lo).max())
    passed = bool(run_speed <= d0 + SPEED_TOL and hull_excess <= SPEED_TOL)
    return ProbeReport(
        name="ball_invariance", passed=passed,
        details={"speed_bound": d0, "max_speed": run_speed,
                 "speed_excess": run_speed - d0, "hull_excess": hull_excess,
                 "tolerance": SPEED_TOL})


# ---------------------------------------------------------------------------
# Fluctuation around the leader average
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HatLeaderSeries:
    """Average of an agent's direct leaders, and the agent's deviation from it."""
    times: np.ndarray
    hat_x: np.ndarray    # (T, d) leader-average position
    hat_v: np.ndarray
    y: np.ndarray        # (T, d) position deviation
    w: np.ndarray        # (T, d) velocity deviation


def hat_leader_series(traj: Trajectory, dag: LeadershipDag, agent: int) -> HatLeaderSeries:
    if agent < 2:
        raise PreconditionError("agent 1 has no leaders to average")
    leaders = sorted(dag.leaders_of(agent))
    if not leaders:
        raise PreconditionError(f"agent {agent} has no leaders")
    idx = [j - 1 for j in leaders]
    hat_x = traj.x[:, idx, :].mean(axis=1)
    hat_v = traj.v[:, idx, :].mean(axis=1)
    return HatLeaderSeries(times=traj.times, hat_x=hat_x, hat_v=hat_v,
                           y=traj.x[:, agent - 1, :] - hat_x,
                           w=traj.v[:, agent - 1, :] - hat_v)


# ---------------------------------------------------------------------------
# Dissipation functionals
# ---------------------------------------------------------------------------

def _potential_primitive(scenario: Scenario, s_max: float):
    """Numeric primitive of the potential (``_cumulative_trapezoid`` from 0),
    returned as an interpolation grid. Non-decreasing with value 0 at 0."""
    s_grid = np.linspace(0.0, max(s_max, 1e-6), 65537)
    return s_grid, _cumulative_trapezoid(scenario.potential, s_grid)


def lyapunov_probe(traj: Trajectory, gain: float | None = None, offset: float | None = None,
                   tol: float = DEFAULT_BOUND_TOL,
                   slack: float | None = None) -> ProbeReport:
    """Monitor the dissipation functionals |w| +/- gain * phi(|y| + offset).

    (y, w) is the designated fluctuation pair: agent 2's deviation from its
    leader average (for a two-agent flock this is simply the state
    difference). phi is the numeric primitive of the potential. Along
    an unforced trajectory both functionals are non-increasing from t = tau
    on, so the maximum forward difference (F(t+h) - F(t))/h must stay below
    tol plus the discretization slack. ``gain`` defaults to the kernel mass
    mu0 and ``offset`` to 2*tau*D0, D0 the prehistory speed bound.
    """
    scenario = _require_scenario(traj)
    if scenario.n_agents < 2:
        raise PreconditionError("needs a follower to monitor")
    if not scenario.forcing.is_zero:
        raise PreconditionError("dissipation bound assumes the unforced system")
    after = traj.times[:-1] >= scenario.tau - 1e-12
    if not np.any(after):
        raise PreconditionError("trajectory ends before t = tau")
    if gain is None:
        gain = scenario.kernel.mu0
    if offset is None:
        offset = 2.0 * scenario.tau * history_speed_bound(traj)
    if slack is None:
        slack = calibrate_step_slack(traj)
    fluct = hat_leader_series(traj, scenario.dag, 2)
    w = np.linalg.norm(fluct.w, axis=1)
    y = np.linalg.norm(fluct.y, axis=1)
    s_grid, phi_grid = _potential_primitive(scenario, float(y.max() + offset) * 1.05 + 1.0)
    phi = np.interp(y + offset, s_grid, phi_grid)
    upper = w + gain * phi
    lower = w - gain * phi
    h = scenario.dt
    fd_upper = (np.diff(upper) / h)[after]
    fd_lower = (np.diff(lower) / h)[after]
    max_fd = float(max(fd_upper.max(), fd_lower.max()))
    tol_eff = tol + slack
    return ProbeReport(
        name="lyapunov_dissipation", passed=bool(max_fd <= tol_eff),
        details={"max_forward_difference": max_fd, "tolerance": float(tol_eff),
                 "gain": float(gain), "offset": float(offset), "slack": float(slack)},
        series={"times": traj.times, "upper": upper, "lower": lower})


# ---------------------------------------------------------------------------
# Free-will leader
# ---------------------------------------------------------------------------

def free_will_consensus_probe(traj: Trajectory) -> ProbeReport:
    """Consensus under an admissibly forced root, through two statements a
    finite run can refute: the paper's consensus is asymptotic, so no run
    can refute it directly.

    The preconditions, in order: a forcing ("no forcing present"), a flock
    of at least 2 agents, where the forcing hypotheses are defined, those
    hypotheses (integrability plus the decay conditions; if they fail, the
    probe reports "hypotheses unmet" with the flags and asserts nothing),
    and the step condition h*mu_h*psi(0)*max|L(i)| <= 1
    (:func:`_require_fine_step`).

    *Root cap.* The root speed never exceeds its initial speed plus the
    larger of the forcing's L1 mass (``root_speed_cap`` is the speed plus
    the mass) and ``forcing_step_l1``, the trapezoid sum of |f| on the step
    grid: Heun integrates the forcing by that rule, which over-counts a
    spike narrower than a step.

    *Hull statement.* A follower's Heun stages are a0 = A0 - S0*v and
    a1 = A1 - S1*vp: S0, S1 the weight sums of its two windows, A0, A1 the
    weighted sums of its leaders' velocities there (the second window ends
    at the predicted node), vp = v + h*a0. So
        v + h/2*(a0 + a1) = (1 + (1 - h*S0)*(1 - h*S1))/2 * v
                            + h*S0*(1 - h*S1)/2 * A0/S0 + h*S1/2 * A1/S1,
    and under the step condition the weights are nonnegative and sum to 1:
    the new velocity is a convex combination of the follower's own velocity,
    its leaders' stored window velocities and their predicted velocities. A
    follower's predicted velocity is one too (weights 1 - h*S0 and h*S0).
    Only the root moves the set: a step moves its velocity by
    h/2*(f(t_k) + f(t_k + h)), and its predicted velocity is v + h*f(t_k).
    With S(t) the step-grid trapezoid sum of |f| from 0 and
    Q(t) = max(S(t), max_{t_k < t} S(t_k) + h*|f(t_k)|), every root velocity,
    stored or predicted, from a grid time t0 up to t lies within
    Q(t) - S(t0) of the root's velocity at t0 in each coordinate. By
    induction over the steps, so does every velocity at t of the span of
    coordinate c over all agents and every window node in [t0 - tau, t0],
    prehistory included, whose width is W_c(t0). Hence, for all grid times
    t0 < t,
        width_c(t) <= W_c(t0) + 2*(Q(t) - S(t0)),
    width_c(t) = max_i v_ic(t) - min_i v_ic(t). Every t0 is checked at once,
    as width_c(t) - 2*Q(t) <= min_{t0 < t} (W_c(t0) - 2*S(t0)), a prefix
    minimum of per-step extremes and their extremes over m+1 rows.

    Each step may round a computed velocity a few eps*V outside the exact
    combination, V the run's largest speed, so both checks allow
    K*eps*V per step, K = ``_ENVELOPE_ROUNDING`` = 16: K*eps*V*(t - t0)/h
    for the hull, K*eps*V*n_steps for the root. Over 1138 forced draws
    (chain, binary_tree and random_hl; N 2 to 7, d 1 to 3, 1 to 11 delay
    steps, each built-in kernel, beta in {0, 1/4, 1/2, 1}; power_law,
    log_damped, one-step table spikes and sign-changing tables) no hull
    excess is positive with K = 0, and the root exceeds its cap by at most
    0.35*eps*V per step (0.23 on constant forcings along the root's velocity).

    ``details`` give the last row's velocity diameter (``final_diameter``),
    the root cap's values and ``hull_excess``, the largest
    width_c(t) - W_c(t0) - 2*(Q(t) - S(t0)) less the allowance over t0 < t
    (<= 0 passes).
    """
    scenario = _require_scenario(traj)
    forcing = scenario.forcing
    if forcing.is_zero:
        raise PreconditionError("no forcing present")
    if scenario.n_agents < 2:
        raise PreconditionError("the forcing conditions need a flock of >= 2 agents")
    flags = asdict(check_forcing_conditions(forcing, scenario.n_agents))
    if not all(flags.values()):
        return ProbeReport(name="free_will_consensus", passed=None,
                           details={"status": "hypotheses unmet", **flags})
    _require_fine_step(scenario)
    m, h, times, v = scenario.delay_steps, scenario.dt, traj.times, traj.v
    s = _cumulative_trapezoid(lambda t: np.abs(forcing.magnitude(t)), times)
    reach = s[:-1] + h * np.abs(forcing.magnitude(times[:-1]))  # the root predictor's reach
    q = np.maximum.accumulate(np.maximum(s, np.append(0.0, reach)))
    hi, lo = v.max(axis=1), v.min(axis=1)
    nodes_hi = np.concatenate((traj.hist_v[:-1].max(axis=1), hi))
    nodes_lo = np.concatenate((traj.hist_v[:-1].min(axis=1), lo))
    spread = (sliding_window_view(nodes_hi, m + 1, axis=0).max(axis=-1)
              - sliding_window_view(nodes_lo, m + 1, axis=0).min(axis=-1))
    allowance = (_ENVELOPE_ROUNDING * np.finfo(float).eps * max_speed(v)) * np.arange(times.size)
    floor = np.minimum.accumulate(spread - (2.0 * s + allowance)[:, None], axis=0)
    hull_excess = float(((hi - lo - (2.0 * q + allowance)[:, None])[1:] - floor[:-1]).max())
    root_speed = float(np.linalg.norm(v[:, 0, :], axis=1).max())
    v0, mass, step_l1 = float(np.linalg.norm(v[0, 0, :])), forcing.l1_norm(), float(s[-1])
    return ProbeReport(
        name="free_will_consensus",
        passed=bool(root_speed <= v0 + max(mass, step_l1) + allowance[-1] and hull_excess <= 0.0),
        details={"final_diameter": float(_pairwise_diameter(v[-1:])[0]),
                 "max_root_speed": root_speed, "root_speed_cap": v0 + mass,
                 "forcing_step_l1": step_l1, "hull_excess": hull_excess, **flags})


# ---------------------------------------------------------------------------
# Probe sets
# ---------------------------------------------------------------------------

PROBE_NAMES = ("positivity", "ball", "two-flock", "lyapunov", "free-will")


def check_probe_names(probes) -> tuple[str, ...]:
    """A selection of probes is a collection of names from ``PROBE_NAMES``:
    an unknown name, or a bare string (whose substrings would match), is a
    :class:`ScenarioError`. Returns the names, read once, as a tuple."""
    if isinstance(probes, str):
        raise ScenarioError(f"probes must be a collection of names from {PROBE_NAMES}, "
                            f"not the string {probes!r}")
    probes = tuple(probes)
    unknown = set(probes) - set(PROBE_NAMES)
    if unknown:
        raise ScenarioError(f"unknown probe name(s) {sorted(unknown)}; "
                            f"choose from {PROBE_NAMES}")
    return probes


def run_probes(traj: Trajectory, probes=PROBE_NAMES) -> list[ProbeReport]:
    """Run the selected probes on one trajectory, in ``PROBE_NAMES`` order.

    The selection is checked first (:func:`check_probe_names`). A probe
    whose hypotheses do not hold for the input is reported as skipped, such
    as the free-will probe on an unforced run ("no forcing present"). Each
    probe runs on the trajectory alone: the Lyapunov probe, the only one
    that runs the oracle, calibrates its own slack.
    """
    probes = check_probe_names(probes)
    reports = []
    # Each probe is looked up in this module's globals per call, so a wrapper
    # set on the module attribute (as the benchmark tracer does) sees it.
    for key, name, probe in (("positivity", "positivity", positivity_probe),
                             ("ball", "ball_invariance", ball_invariance_probe),
                             ("two-flock", "two_flock_bound", check_two_flock_bound),
                             ("lyapunov", "lyapunov_dissipation", lyapunov_probe),
                             ("free-will", "free_will_consensus", free_will_consensus_probe)):
        if key in probes:
            try:
                reports.append(probe(traj))
            except PreconditionError as e:
                reports.append(ProbeReport(name=name, passed=None,
                                           details={"status": f"skipped: {e}"}))
    return reports

