"""Quantitative probes over simulated trajectories.

Each probe turns one of the model's qualitative guarantees into a check with
an explicit tolerance: velocities stay nonnegative (scalar companion system),
speeds never leave the initial ball and per-coordinate hull, the two-agent
velocity gap sits under an explicit exponential envelope, dissipation
functionals never increase, and an admissibly forced root still drags the
flock to consensus.

The guarantees are exact in continuous time only, so bound-style probes add a
discretization slack calibrated from the disagreement between the main
stepper and the brute-force oracle on the same run (an empirical stand-in
for C*h). Decay estimates are evaluated from t = tau onward; the window
[0, tau) is governed only by the prehistory and is excluded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# No probe simulates; ``simulate`` stays importable here because the
# benchmark tracer (perfbench/tracing.py) wraps it in this module's namespace.
from .integrator import Trajectory, simulate, simulate_oracle  # noqa: F401
from .model import LeadershipDag, Scenario, check_forcing_conditions

DIAMETER_FLOOR = 1e-12      # dV values at or below this are rounding noise
SPEED_TOL = 1e-8            # ball / hull invariance and diameter-monotonicity slack
DEFAULT_BOUND_TOL = 1e-6    # relative slack on exponential envelopes
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
    reads only the velocity diameter never pays for it.
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


def calibrate_step_slack(traj: Trajectory, refinement: int = 2) -> float:
    """Empirical discretization slack for bound checks on this run: the max
    velocity discrepancy against the independent Euler oracle. Plays the role
    of C*h; both schemes are consistent, so it vanishes with the step."""
    oracle = simulate_oracle(_require_scenario(traj), refinement)
    return float(np.abs(traj.v - oracle.v).max())


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

def check_two_flock_bound(traj: Trajectory, tol: float = DEFAULT_BOUND_TOL,
                          slack: float | None = None) -> ProbeReport:
    """Check the two-agent velocity gap against its exponential envelope.

    The gap w(t) = v2 - v1 must satisfy, for every stored t >= tau,

        |w(t)| <= (1 + tol + slack) * exp(-mu0 * psi(y_M) * (t - tau)) * |w(tau)|

    where y_M = sup_{t>=tau} |x2(t) - x1(t)| + 2*tau*D0 is measured from the
    run itself and D0 is the prehistory speed bound. ``slack`` absorbs
    discretization error and defaults to the oracle-calibrated value.
    """
    scenario = _require_scenario(traj)
    if scenario.n_agents != 2:
        raise PreconditionError("two-agent bound needs exactly 2 agents")
    if not scenario.forcing.is_zero:
        raise PreconditionError("the envelope assumes a constant-velocity root")
    tau = scenario.tau
    after = traj.times >= tau - 1e-12
    if not np.any(after):
        raise PreconditionError("trajectory ends before t = tau")
    if slack is None:
        slack = calibrate_step_slack(traj)
    w = np.linalg.norm(traj.v[:, 1, :] - traj.v[:, 0, :], axis=1)
    y = np.linalg.norm(traj.x[:, 1, :] - traj.x[:, 0, :], axis=1)
    d0 = history_speed_bound(traj)
    y_m = float(y[after].max() + 2.0 * tau * d0)
    rate = scenario.kernel.mu0 * scenario.potential(y_m)
    t_tau = traj.times[after][0]
    w_tau = w[after][0]
    envelope = (1.0 + tol + slack) * np.exp(-rate * (traj.times[after] - t_tau)) * w_tau
    excess = w[after] - envelope
    passed = bool(np.all(excess <= 0.0))
    return ProbeReport(
        name="two_flock_bound", passed=passed,
        details={"y_m": y_m, "rate": float(rate), "gap_at_tau": float(w_tau),
                 "max_excess": float(excess.max()), "slack": float(slack), "tol": tol},
        series={"times": traj.times[after], "gap": w[after], "envelope": envelope})


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

_PRIMITIVE_CHUNK = 4096     # grid intervals summed per pass; bounds the temporaries


def _potential_primitive(scenario: Scenario, s_max: float):
    """Numeric primitive of the potential (cumulative trapezoid from 0),
    returned as an interpolation grid. Non-decreasing with value 0 at 0.

    The sum is scipy's ``cumulative_trapezoid(psi, s_grid, initial=0.0)``
    operation for operation, so it is bitwise equal to it without importing
    scipy. It runs a chunk of intervals at a time, each chunk's running sum
    started from the previous chunk's last value: the same sequential adds."""
    s_grid = np.linspace(0.0, max(s_max, 1e-6), 65537)
    phi = np.empty_like(s_grid)
    phi[0] = 0.0
    psi_lo = scenario.potential(s_grid[:1])
    for lo in range(0, s_grid.size - 1, _PRIMITIVE_CHUNK):
        hi = min(lo + _PRIMITIVE_CHUNK, s_grid.size - 1)
        psi = scenario.potential(s_grid[lo + 1:hi + 1])
        area = np.concatenate((psi_lo, psi[:-1]))
        area += psi
        area *= np.diff(s_grid[lo:hi + 1])
        area /= 2.0
        if lo:
            area[0] += phi[lo]
        np.cumsum(area, out=phi[lo + 1:hi + 1])
        psi_lo = psi[-1:]
    return s_grid, phi


def lyapunov_probe(traj: Trajectory, gain: float | None = None, offset: float | None = None,
                   agent: int = 2, tol: float = DEFAULT_BOUND_TOL,
                   slack: float | None = None) -> ProbeReport:
    """Monitor the dissipation functionals |w| +/- gain * phi(|y| + offset).

    (y, w) is the designated fluctuation pair: agent's deviation from its
    leader average (for a two-agent flock with agent=2 this is simply the
    state difference). phi is the numeric primitive of the potential. Along
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
    fluct = hat_leader_series(traj, scenario.dag, agent)
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

def free_will_consensus_probe(traj: Trajectory, target: float = 1e-3) -> ProbeReport:
    """Consensus under an admissibly forced root.

    Requires the forcing hypotheses to hold (integrability plus the decay
    conditions); if they do not, the probe reports "hypotheses unmet" and
    asserts nothing. Otherwise it checks that the final velocity diameter is
    at most ``target``, that the diameter is non-increasing (within
    ``SPEED_TOL`` per step) on the final quarter of the run, and that the
    root speed never exceeds its initial speed plus the forcing's L1 mass.
    """
    scenario = _require_scenario(traj)
    conditions = check_forcing_conditions(scenario.forcing, scenario.n_agents)
    flags = {"integrable": conditions.integrable,
             "little_o_condition": conditions.little_o_condition,
             "weighted_L1": conditions.weighted_L1}
    if not conditions.all_satisfied:
        return ProbeReport(name="free_will_consensus", passed=None,
                           details={"status": "hypotheses unmet", **flags})
    series = consensus_series(traj)
    dv = series.velocity_diameter
    final_ok = bool(dv[-1] <= target)
    quarter = traj.times >= traj.times[-1] - 0.25 * (traj.times[-1] - traj.times[0])
    increments = np.diff(dv[quarter])
    monotone_ok = bool(increments.size == 0 or increments.max() <= SPEED_TOL)
    root_speed = np.linalg.norm(traj.v[:, 0, :], axis=1)
    speed_cap = float(np.linalg.norm(traj.v[0, 0, :]) + scenario.forcing.l1_norm())
    root_ok = bool(root_speed.max() <= speed_cap + SPEED_TOL)
    return ProbeReport(
        name="free_will_consensus", passed=final_ok and monotone_ok and root_ok,
        details={"final_diameter": float(dv[-1]), "target": target,
                 "tail_max_increment": float(increments.max()) if increments.size else 0.0,
                 "max_root_speed": float(root_speed.max()), "root_speed_cap": speed_cap,
                 **flags})


# ---------------------------------------------------------------------------
# Probe sets
# ---------------------------------------------------------------------------

PROBE_NAMES = ("positivity", "ball", "two-flock", "lyapunov", "free-will")


def run_probes(traj: Trajectory, probes=PROBE_NAMES) -> list[ProbeReport]:
    """Run the selected probes on one trajectory, in ``PROBE_NAMES`` order.

    A probe whose hypotheses do not hold for the input is reported as
    skipped. The oracle slack is calibrated by the first bound probe that
    needs it and handed on to the next, so it is computed at most once.
    """
    reports = []

    def attempt(name, probe, **kwargs):
        try:
            report = probe(traj, **kwargs)
        except PreconditionError as e:
            report = ProbeReport(name=name, passed=None, details={"status": f"skipped: {e}"})
        reports.append(report)
        return report

    # Each probe is looked up in this module's globals per call, so a wrapper
    # set on the module attribute (as the benchmark tracer does) sees it.
    slack = None
    if "positivity" in probes:
        attempt("positivity", positivity_probe)
    if "ball" in probes:
        attempt("ball_invariance", ball_invariance_probe)
    if "two-flock" in probes:
        slack = attempt("two_flock_bound", check_two_flock_bound).details.get("slack")
    if "lyapunov" in probes:
        attempt("lyapunov_dissipation", lyapunov_probe, slack=slack)
    if "free-will" in probes:
        attempt("free_will_consensus", _forced_free_will)
    return reports


def _forced_free_will(traj: Trajectory) -> ProbeReport:
    # the probe itself accepts zero forcing, which meets its hypotheses trivially
    if _require_scenario(traj).forcing.is_zero:
        raise PreconditionError("no forcing present")
    return free_will_consensus_probe(traj)
