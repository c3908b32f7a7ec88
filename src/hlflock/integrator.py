"""Fixed-step integration of the delayed hierarchical flocking dynamics.

Velocities follow a memory term: each follower accelerates toward its
leaders' past velocities, weighted by the delay kernel over the sliding
window [t - tau, t] and by the interaction potential evaluated at the
*delayed* inter-agent distance (both positions inside the potential are
taken at the past time, the follower's velocity at the current time). The
root agent feels only its exogenous forcing, which is identically zero in
the unforced model.

Two schemes are provided on purpose:

* :func:`simulate` - Heun's predictor-corrector with composite-trapezoid
  quadrature of the delay integral on the step grid (the delay span must be
  an integer number of steps, so quadrature nodes coincide with stored
  samples). The integrand's history-only factors, the potential on every
  edge and the leaders' velocities, are evaluated once per stored node and
  kept in a doubled ring of 2(m+1) rows, so each window is one contiguous
  slice and the cache is O(m * edges * d) however long the run.
* :func:`simulate_oracle` - explicit Euler on a refined grid with
  left-rectangle quadrature; deliberately different discretization used to
  cross-validate the main one.

Any non-finite state aborts the run with the offending time stamp.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import Potential, Scenario, ScenarioError


class BlowUpError(RuntimeError):
    """The integration produced non-finite values."""

    def __init__(self, t: float):
        super().__init__(f"blow-up detected at t={t}")
        self.t = t


@dataclass(frozen=True)
class FlockState:
    t: float
    x: np.ndarray     # (N, d) positions
    v: np.ndarray     # (N, d) velocities


# ---------------------------------------------------------------------------
# Delay coupling (composite trapezoid on the window nodes)
# ---------------------------------------------------------------------------

def _trapezoid_mu_weights(scenario: Scenario) -> np.ndarray:
    """Per-node quadrature weight times kernel value, for window node k at
    offset (m-k)*h into the past. Fixed for the whole run."""
    m, h = scenario.delay_steps, scenario.dt
    w = np.full(m + 1, h)
    w[0] = w[-1] = 0.5 * h
    return w * scenario.kernel((m - np.arange(m + 1)) * h)


class _NodeRing:
    """The history-only factors of the delay integrand at the last m+1 nodes.

    The integrand at a stored node s is w(s) * psi(|x_i(s) - x_j(s)|) *
    (v_j(s) - v_i(now)): only the follower's current velocity changes between
    Heun stages. Each node therefore gets one row, filled once when the node
    is stored: psi on every edge (E,) and the gathered leader velocities
    (E, d). Rows live in a doubled ring of 2L rows, L = m+1: node r sits in
    rows r % L and r % L + L, so the window of nodes r..r+m is the contiguous
    slice starting at row r % L. Memory is O(m * E * d) whatever the horizon.
    """

    def __init__(self, xw: np.ndarray, vw: np.ndarray, fol: np.ndarray, led: np.ndarray,
                 potential: Potential):
        self.fol, self.led, self.potential = fol, led, potential
        self.size = size = xw.shape[0]
        self.psi = np.empty((2 * size, fol.size))
        self.vl = np.empty((2 * size, fol.size, xw.shape[2]))
        self.psi[:size], self.vl[:size] = self._factors(xw, vw)
        self.psi[size:], self.vl[size:] = self.psi[:size], self.vl[:size]

    def _factors(self, xw: np.ndarray, vw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """psi per edge (k, E) and leader velocities (k, E, d) for nodes (k, N, d)."""
        dp = xw[:, self.fol, :] - xw[:, self.led, :]
        return self.potential(np.sqrt(np.einsum("kef,kef->ke", dp, dp))), vw[:, self.led, :]

    def store(self, node: int, x: np.ndarray, v: np.ndarray) -> None:
        """Fill the row of window node ``node`` from its state x, v (N, d)."""
        psi, vl = self._factors(x[None], v[None])
        rows = slice(node % self.size, None, self.size)
        self.psi[rows] = psi
        self.vl[rows] = vl


def _coupling(ring: _NodeRing, first: int, v_now: np.ndarray,
              weights: np.ndarray) -> np.ndarray:
    """Delay-coupling acceleration for every agent at once, over the window of
    nodes first..first+m held in ``ring``; v_now is the current-time velocity
    entering the integrand. Positions inside the potential are both delayed,
    velocities of the leaders are delayed, the follower's velocity is current.
    """
    acc = np.zeros_like(v_now)
    fol = ring.fol
    lo = first % ring.size
    window = slice(lo, lo + ring.size)
    rel = ring.vl[window] - v_now[fol]
    contrib = np.einsum("k,ke,kef->ef", weights, ring.psi[window], rel)
    np.add.at(acc, fol, contrib)
    return acc


# ---------------------------------------------------------------------------
# Heun stepping
# ---------------------------------------------------------------------------

def _heun_step(x_cur: np.ndarray, v_cur: np.ndarray, t: float, first: int,
               ring: _NodeRing, weights: np.ndarray, scenario: Scenario
               ) -> tuple[np.ndarray, np.ndarray]:
    """One Heun step from the window of nodes first..first+m, whose newest
    node x_cur, v_cur is the state at time t; returns the new state and
    stores it in ``ring`` as node first+m+1.

    The predictor is an Euler step; the corrector re-evaluates the coupling at
    t+h against the window extended by the predictor, whose row holds node
    first+m+1 until the corrected state overwrites it. Both positions and
    velocities advance with the average of the two stage derivatives.
    """
    h = scenario.dt
    dim = scenario.dim
    forcing = scenario.forcing
    new_node = first + ring.size

    a0 = _coupling(ring, first, v_cur, weights)
    a0[0] = forcing.eval(t, dim)
    vp = v_cur + h * a0
    xp = x_cur + h * v_cur

    ring.store(new_node, xp, vp)
    a1 = _coupling(ring, first + 1, vp, weights)
    a1[0] = forcing.eval(t + h, dim)

    v_new = v_cur + 0.5 * h * (a0 + a1)
    x_new = x_cur + 0.5 * h * (v_cur + vp)
    if not (np.all(np.isfinite(v_new)) and np.all(np.isfinite(x_new))):
        raise BlowUpError(t + h)
    ring.store(new_node, x_new, v_new)
    return x_new, v_new


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """States on the uniform step grid from t=0 to t_end, plus the sampled
    prehistory on [-tau, 0] (whose final sample repeats the t=0 state)."""
    times: np.ndarray        # (T,)
    x: np.ndarray            # (T, N, d)
    v: np.ndarray            # (T, N, d)
    hist_times: np.ndarray   # (m+1,)
    hist_x: np.ndarray
    hist_v: np.ndarray
    scenario: Scenario | None = None

    @property
    def n_agents(self) -> int:
        return self.x.shape[1]

    @property
    def dim(self) -> int:
        return self.x.shape[2]

    def state_at(self, k: int) -> FlockState:
        return FlockState(float(self.times[k]), self.x[k], self.v[k])


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


def simulate(scenario: Scenario,
             on_step: Callable[[FlockState], None] | None = None) -> Trajectory:
    """Integrate the scenario from t=0 to t_end with the Heun stepper."""
    scenario.validate()
    m, n = scenario.delay_steps, scenario.n_steps
    h = scenario.dt
    n_agents, dim = scenario.n_agents, scenario.dim

    hist_s = (np.arange(m + 1) - m) * h
    xs0, vs0 = scenario.history.sample(hist_s)
    X = np.empty((m + n + 1, n_agents, dim))
    V = np.empty_like(X)
    X[: m + 1] = xs0
    V[: m + 1] = vs0

    fol, led = scenario.dag.edge_arrays()
    weights = _trapezoid_mu_weights(scenario)
    ring = _NodeRing(X[: m + 1], V[: m + 1], fol, led, scenario.potential)
    for k in range(n):
        x_new, v_new = _heun_step(X[k + m], V[k + m], k * h, k, ring, weights, scenario)
        X[k + m + 1] = x_new
        V[k + m + 1] = v_new
        if on_step is not None:
            on_step(FlockState((k + 1) * h, x_new, v_new))

    times = np.arange(n + 1) * h
    traj = Trajectory(times=times, x=X[m:], v=V[m:],
                      hist_times=hist_s, hist_x=X[: m + 1], hist_v=V[: m + 1],
                      scenario=scenario)
    _freeze(traj.times, traj.x, traj.v, traj.hist_times, traj.hist_x, traj.hist_v)
    return traj


def _scalar_potential(potential: Potential):
    """Potential as a scalar function of the *squared* distance, for the
    oracle's plain-float inner loop."""
    if potential.family == "cucker_smale":
        beta = potential.beta
        if beta == 0.0:
            return lambda d2: 1.0
        if beta == 0.5:
            return lambda d2: 1.0 / math.sqrt(1.0 + d2)
        return lambda d2: (1.0 + d2) ** (-beta)
    return lambda d2: float(potential(math.sqrt(d2)))


def simulate_oracle(scenario: Scenario, refinement: int) -> Trajectory:
    """Brute-force cross-check: explicit Euler with step h/refinement and
    left-rectangle quadrature of the delay integral, recorded on the coarse
    grid so the result is directly comparable to :func:`simulate`.

    Implemented as plain-float loops over a ring buffer, deliberately sharing
    no array machinery with the Heun path. Uniform kernels get an O(1)
    sliding update of the window sums; other kernels pay the full window per
    substep, which is fine at the short horizons where they are used.
    """
    scenario.validate()
    if not isinstance(refinement, int) or refinement < 1:
        raise ScenarioError(f"refinement must be a positive integer, got {refinement!r}")
    m, n = scenario.delay_steps, scenario.n_steps
    h = scenario.dt
    k_ref = refinement
    h2 = h / k_ref
    m2, n2 = m * k_ref, n * k_ref
    n_agents, dim = scenario.n_agents, scenario.dim
    forcing = scenario.forcing
    forced = not forcing.is_zero
    psi_sq = _scalar_potential(scenario.potential)
    fol_arr, led_arr = scenario.dag.edge_arrays()
    fol = [int(e) * dim for e in fol_arr]     # flat base offsets
    led = [int(e) * dim for e in led_arr]
    n_edges = len(fol)
    nd = n_agents * dim

    hist_s = (np.arange(m2 + 1) - m2) * h2
    xs0, vs0 = scenario.history.sample(hist_s)

    # ring of the m2+1 live rows (window nodes plus current state)
    ring = m2 + 1
    x_ring = [list(map(float, xs0[r].ravel())) for r in range(m2 + 1)]
    v_ring = [list(map(float, vs0[r].ravel())) for r in range(m2 + 1)]

    rect_w = [h2 * float(scenario.kernel((m2 - j) * h2)) for j in range(m2)]
    uniform = scenario.kernel.shape == "uniform"

    def node_parts(xr: list, vr: list) -> tuple[list, list]:
        # per-edge potential value and potential-weighted leader velocity
        psis = [0.0] * n_edges
        u = [0.0] * (n_edges * dim)
        for e in range(n_edges):
            fi, li = fol[e], led[e]
            d2 = 0.0
            for c in range(dim):
                dx = xr[fi + c] - xr[li + c]
                d2 += dx * dx
            p = psi_sq(d2)
            psis[e] = p
            for c in range(dim):
                u[e * dim + c] = p * vr[li + c]
        return u, psis

    u_ring: list = [None] * ring
    p_ring: list = [None] * ring
    if n_edges:
        for r in range(m2 + 1):
            u_ring[r], p_ring[r] = node_parts(x_ring[r], v_ring[r])
    if uniform and n_edges:
        w0 = rect_w[0]
        s_u = [0.0] * (n_edges * dim)
        s_p = [0.0] * n_edges
        for r in range(m2):
            row_u, row_p = u_ring[r], p_ring[r]
            for k in range(n_edges * dim):
                s_u[k] += row_u[k]
            for e in range(n_edges):
                s_p[e] += row_p[e]

    x_out = np.empty((n + 1, n_agents, dim))
    v_out = np.empty_like(x_out)
    x_out[0] = xs0[m2]
    v_out[0] = vs0[m2]

    for sub in range(n2):
        slot_old = sub % ring
        slot_cur = (sub + m2) % ring
        xv = x_ring[slot_cur]
        vv = v_ring[slot_cur]

        acc = [0.0] * nd
        if n_edges:
            if uniform:
                for e in range(n_edges):
                    fi = fol[e]
                    wp = w0 * s_p[e]
                    for c in range(dim):
                        acc[fi + c] += w0 * s_u[e * dim + c] - wp * vv[fi + c]
            else:
                for e in range(n_edges):
                    fi, li = fol[e], led[e]
                    for j in range(m2):
                        slot = (sub + j) % ring
                        wp = rect_w[j] * p_ring[slot][e]
                        row_v = v_ring[slot]
                        for c in range(dim):
                            acc[fi + c] += wp * (row_v[li + c] - vv[fi + c])
        if forced:
            fvec = forcing.eval(sub * h2, dim)
            for c in range(dim):
                acc[c] = float(fvec[c])

        v_new = [vv[i] + h2 * acc[i] for i in range(nd)]
        x_new = [xv[i] + h2 * vv[i] for i in range(nd)]

        if n_edges:
            new_u, new_p = node_parts(x_new, v_new)
            if uniform:
                cur_u, cur_p = u_ring[slot_cur], p_ring[slot_cur]
                old_u, old_p = u_ring[slot_old], p_ring[slot_old]
                for k in range(n_edges * dim):
                    s_u[k] += cur_u[k] - old_u[k]
                for e in range(n_edges):
                    s_p[e] += cur_p[e] - old_p[e]
            u_ring[slot_old], p_ring[slot_old] = new_u, new_p
        x_ring[slot_old] = x_new
        v_ring[slot_old] = v_new

        if (sub + 1) % k_ref == 0:
            if not (all(map(math.isfinite, v_new)) and all(map(math.isfinite, x_new))):
                raise BlowUpError((sub + 1) * h2)
            i = (sub + 1) // k_ref
            for a in range(n_agents):
                for c in range(dim):
                    x_out[i, a, c] = x_new[a * dim + c]
                    v_out[i, a, c] = v_new[a * dim + c]

    times = np.arange(n + 1) * h
    traj = Trajectory(times=times, x=x_out, v=v_out,
                      hist_times=(np.arange(m + 1) - m) * h,
                      hist_x=xs0[::k_ref].copy(), hist_v=vs0[::k_ref].copy(),
                      scenario=scenario)
    _freeze(traj.times, traj.x, traj.v, traj.hist_times, traj.hist_x, traj.hist_v)
    return traj


# ---------------------------------------------------------------------------
# CSV export / import
# ---------------------------------------------------------------------------

def trajectory_columns(n_agents: int, dim: int) -> list[str]:
    """Column names of the trajectory CSV: t, then x{i}_{k}, v{i}_{k} per
    agent i=1..N and coordinate k=1..d."""
    names = ["t"]
    for i in range(1, n_agents + 1):
        for k in range(1, dim + 1):
            names.append(f"x{i}_{k}")
            names.append(f"v{i}_{k}")
    return names


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """One row per stored step, full double precision (17 significant digits)."""
    n_agents, dim = traj.n_agents, traj.dim
    cols = np.empty((traj.times.size, 1 + 2 * n_agents * dim))
    cols[:, 0] = traj.times
    for i in range(n_agents):
        for k in range(dim):
            base = 1 + 2 * (i * dim + k)
            cols[:, base] = traj.x[:, i, k]
            cols[:, base + 1] = traj.v[:, i, k]
    header = ",".join(trajectory_columns(n_agents, dim))
    np.savetxt(path, cols, fmt="%.17g", delimiter=",", header=header, comments="")


def read_trajectory_csv(path) -> Trajectory:
    """Load a trajectory CSV written by :func:`write_trajectory_csv`.

    Only the step grid is recoverable from the file, so the returned
    trajectory has an empty prehistory and no scenario attached.
    """
    with open(path, newline="") as fh:
        names = next(csv.reader(fh))
    names = [s.strip() for s in names]
    expect_prefix = names[0] == "t" and len(names) > 1 and names[1].startswith("x")
    if not expect_prefix:
        raise ScenarioError(f"{path}: not a trajectory CSV (header starts {names[:2]})")
    n_cols = len(names) - 1
    agents = {int(s[1:].split("_")[0]) for s in names[1:]}
    dims = {int(s.split("_")[1]) for s in names[1:]}
    n_agents, dim = max(agents), max(dims)
    if n_cols != 2 * n_agents * dim or trajectory_columns(n_agents, dim) != names:
        raise ScenarioError(f"{path}: malformed trajectory header")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    times = data[:, 0]
    x = np.empty((data.shape[0], n_agents, dim))
    v = np.empty_like(x)
    for i in range(n_agents):
        for k in range(dim):
            base = 1 + 2 * (i * dim + k)
            x[:, i, k] = data[:, base]
            v[:, i, k] = data[:, base + 1]
    empty = np.empty((0, n_agents, dim))
    return Trajectory(times=times, x=x, v=v,
                      hist_times=np.empty(0), hist_x=empty, hist_v=empty, scenario=None)
