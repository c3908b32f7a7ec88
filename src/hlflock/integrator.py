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
  kept as flat rows in a doubled ring of 2(m+1) rows, so each window is one
  contiguous slice, a coupling stage is a few flat numpy calls (weight,
  multiply, a sequential sum over the window, a scatter per follower) and
  the cache is O(m * edges * d) however long the run.
* :func:`simulate_oracle` - explicit Euler on a refined grid with
  left-rectangle quadrature; deliberately different discretization used to
  cross-validate the main one. For piecewise-linear kernels (uniform,
  triangular, table) running zeroth and first moment sums per linear piece
  make a substep cost O(pieces * edges * d) whatever the window length; the
  truncated bump pays the full window.

Any non-finite state aborts the run with a :class:`BlowUpError` naming the
time, the first non-finite agent and the last finite time.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import Potential, Scenario, ScenarioError


class BlowUpError(RuntimeError):
    """The integration produced non-finite values at time ``t``: ``agent``
    (1-based) is the first agent whose state is not finite there, and
    ``last_finite_t`` the last grid time at which every state was finite."""

    def __init__(self, t: float, agent: int, last_finite_t: float):
        super().__init__(f"blow-up detected at t={t}: agent {agent} is not finite "
                         f"(last finite state at t={last_finite_t})")
        self.t = t
        self.agent = agent
        self.last_finite_t = last_finite_t


def _blow_up(t: float, last_finite_t: float, x: np.ndarray, v: np.ndarray) -> BlowUpError:
    """The error for a non-finite state x, v (N, d) at time t."""
    bad = ~(np.isfinite(x).all(axis=1) & np.isfinite(v).all(axis=1))
    return BlowUpError(t, int(np.argmax(bad)) + 1, last_finite_t)


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
    Heun stages. Each node therefore gets one flat row per factor, filled once
    when the node is stored: ``psi`` holds psi on every edge repeated per
    coordinate, ``vl`` the gathered leader velocities, both edge-major with
    E*d+1 columns, column e*d+c for edge e and coordinate c. The last column
    of both is a spare that stays 0: it keeps every row at least two wide,
    which :func:`_coupling` relies on. Rows live in a doubled ring of 2L rows,
    L = m+1: node r sits in rows r % L and r % L + L, so the window of nodes
    r..r+m is the contiguous (L, E*d+1) slice starting at row r % L. Memory
    is O(m * E * d) whatever the horizon.

    ``weights`` holds the quadrature weight of each window position (L,)
    repeated across a row, so that weighting a window is one elementwise
    product (a broadcast column is slower). ``cols`` holds the flat index
    fol*d + c of the follower coordinate that each column but the spare acts
    on, and ``bins`` the same with the spare column sent to an extra bin N*d.
    ``vf``, ``rel`` and ``wpsi`` are the work buffers of :func:`_coupling`.
    """

    def __init__(self, xw: np.ndarray, vw: np.ndarray, fol: np.ndarray, led: np.ndarray,
                 potential: Potential, weights: np.ndarray):
        self.fol, self.led, self.potential = fol, led, potential
        self.size = size = xw.shape[0]
        n_agents, dim = xw.shape[1:]
        width = fol.size * dim + 1
        self.cols = (fol[:, None] * dim + np.arange(dim)).ravel()
        self.bins = np.append(self.cols, n_agents * dim)
        self.psi = np.zeros((2 * size, width))
        self.vl = np.zeros((2 * size, width))
        # (rows, E, d) views of every column but the spare
        self._psi3 = self.psi[:, :-1].reshape(2 * size, fol.size, dim)
        self._vl3 = self.vl[:, :-1].reshape(2 * size, fol.size, dim)
        self.weights = np.repeat(weights[:, None], width, axis=1)
        self.vf = np.zeros(width)
        self.vf_cols = self.vf[:-1]
        self.rel = np.empty((size, width))
        self.wpsi = np.empty((size, width))
        psi, vl = self._factors(xw, vw)
        self._psi3[:size] = self._psi3[size:] = psi[:, :, None]
        self._vl3[:size] = self._vl3[size:] = vl

    def _factors(self, xw: np.ndarray, vw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """psi per edge (k, E) and leader velocities (k, E, d) for nodes (k, N, d)."""
        dp = xw[:, self.fol, :] - xw[:, self.led, :]
        return self.potential(np.sqrt(np.einsum("kef,kef->ke", dp, dp))), vw[:, self.led, :]

    def store(self, node: int, x: np.ndarray, v: np.ndarray) -> None:
        """Fill the row of window node ``node`` from its state x, v (N, d)."""
        psi, vl = self._factors(x[None], v[None])
        rows = slice(node % self.size, None, self.size)
        self._psi3[rows] = psi[:, :, None]
        self._vl3[rows] = vl


def _coupling(ring: _NodeRing, first: int, v_now: np.ndarray) -> np.ndarray:
    """Delay-coupling acceleration for every agent at once, over the window of
    nodes first..first+m held in ``ring``; v_now is the current-time velocity
    entering the integrand. Positions inside the potential are both delayed,
    velocities of the leaders are delayed, the follower's velocity is current.

    Each term is (w_k * psi_k) * (v_L,k - v_F) for window row k. The terms
    are added over the window in node order, then per follower in edge order
    starting from +0.0: the arithmetic of a direct sum over the window, so
    the output is bit-identical to recomputing it. The sum must stay
    sequential for that; a reassociated form such as sum(w psi v_L) -
    sum(w psi) v_F, a BLAS dot or a pairwise sum rounds differently. An
    axis-0 reduce over the C-contiguous (L, E*d+1) window adds whole rows in
    order, but numpy turns a reduce over a single column into a pairwise sum;
    the spare column rules that out. ``bincount`` adds in input order; the
    spare column goes to a spare bin, so its input is never empty (on an
    empty input it returns integers).
    """
    lo = first % ring.size
    window = slice(lo, lo + ring.size)
    # in-range indices by construction; "clip" writes straight into the buffer
    v_now.take(ring.cols, out=ring.vf_cols, mode="clip")
    rel = np.subtract(ring.vl[window], ring.vf, out=ring.rel)
    np.multiply(ring.weights, ring.psi[window], out=ring.wpsi)
    rel *= ring.wpsi
    sums = np.add.reduce(rel, axis=0)
    return np.bincount(ring.bins, weights=sums)[:-1].reshape(v_now.shape)


# ---------------------------------------------------------------------------
# Heun stepping
# ---------------------------------------------------------------------------

def _heun_step(x_cur: np.ndarray, v_cur: np.ndarray, t: float, first: int,
               ring: _NodeRing, scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
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

    # agent 1 has no leaders: its coupling row is already the +0.0 a zero forcing sets
    a0 = _coupling(ring, first, v_cur)
    if not forcing.is_zero:
        a0[0] = forcing.eval(t, dim)
    vp = v_cur + h * a0
    xp = x_cur + h * v_cur

    ring.store(new_node, xp, vp)
    a1 = _coupling(ring, first + 1, vp)
    if not forcing.is_zero:
        a1[0] = forcing.eval(t + h, dim)

    v_new = v_cur + 0.5 * h * (a0 + a1)
    x_new = x_cur + 0.5 * h * (v_cur + vp)
    if not (np.all(np.isfinite(v_new)) and np.all(np.isfinite(x_new))):
        raise _blow_up(t + h, t, x_new, v_new)
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


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


def simulate(scenario: Scenario,
             on_step: Callable[[FlockState], None] | None = None) -> Trajectory:
    """Integrate the scenario from t=0 to t_end with the Heun stepper.

    A state that stops being finite raises :class:`BlowUpError`; overflow on
    the way there raises no numpy warning, in ``on_step`` either.
    """
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
    ring = _NodeRing(X[: m + 1], V[: m + 1], fol, led, scenario.potential,
                     _trapezoid_mu_weights(scenario))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            x_new, v_new = _heun_step(X[k + m], V[k + m], k * h, k, ring, scenario)
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
    no array machinery with the Heun path. Each window node holds one row: the
    potential-weighted leader velocities psi*v_L on every edge, then psi.

    For a piecewise-linear kernel (uniform, triangular, table) the window's
    m2 nodes fall into runs, one per linear piece of the kernel that holds a
    node, inside which the rectangle weight of node j is a + b*(j - lo). Each
    run keeps running zeroth and first moments of its rows, sum(row) and
    sum((j - lo) * row), so its share of the window sum is a*s0 + b*s1. A
    substep moves one node out of and one into every run, and the first
    moment shifts by the zeroth: O(runs * edges * d) per substep, whatever
    m2. A run with zero slope (the uniform kernel's only run) keeps no first
    moment and runs the plain sliding sum. The first moment would integrate
    the zeroth's rounding drift, so sloped runs are summed afresh once every
    m2+1 substeps, which adds O(edges * d) per substep on average. Other
    kernels (the truncated bump) pay the full window per substep.
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
    pbase = n_edges * dim                     # offset of psi in a node row
    nq = pbase + n_edges

    hist_s = (np.arange(m2 + 1) - m2) * h2
    xs0, vs0 = scenario.history.sample(hist_s)

    # ring of the m2+1 live rows (window nodes plus current state)
    ring = m2 + 1
    x_ring = [list(map(float, xs0[r].ravel())) for r in range(m2 + 1)]
    v_ring = [list(map(float, vs0[r].ravel())) for r in range(m2 + 1)]

    rect_w = [h2 * float(scenario.kernel((m2 - j) * h2)) for j in range(m2)]

    def node_row(xr: list, vr: list) -> list:
        # per-edge potential-weighted leader velocity, then per-edge potential
        row = [0.0] * nq
        for e in range(n_edges):
            fi, li = fol[e], led[e]
            d2 = 0.0
            for c in range(dim):
                dx = xr[fi + c] - xr[li + c]
                d2 += dx * dx
            p = psi_sq(d2)
            row[pbase + e] = p
            for c in range(dim):
                row[e * dim + c] = p * vr[li + c]
        return row

    q_ring: list = [None] * ring
    if n_edges:
        for r in range(m2 + 1):
            q_ring[r] = node_row(x_ring[r], v_ring[r])

    def run_sums(first: int, lo: int, cnt: int, sloped: bool) -> tuple[list, list | None]:
        # sum(row) and, if sloped, sum((j - lo) * row) over the window nodes
        # j = lo..lo+cnt-1 of the window whose oldest node is ``first``
        s0 = [0.0] * nq
        s1 = [0.0] * nq if sloped else None
        for j in range(lo, lo + cnt):
            row = q_ring[(first + j) % ring]
            for k in range(nq):
                s0[k] += row[k]
                if sloped:
                    s1[k] += (j - lo) * row[k]
        return s0, s1

    # one entry per run of window nodes lo..lo+cnt-1 on one linear piece of
    # the kernel: (lo, cnt, a, b, zeroth moment, first moment or None)
    moments = None
    breaks = scenario.kernel.breakpoints
    if breaks is not None and n_edges:
        # the piece holding each node's delay (m2 - j) * h2; the kernel is
        # continuous, so a node on a breakpoint may join either neighbour
        last = len(breaks) - 2
        piece = [min(max(bisect.bisect_right(breaks, (m2 - j) * h2) - 1, 0), last)
                 for j in range(m2)]
        moments = []
        lo = 0
        for _, run in itertools.groupby(piece):
            cnt = len(list(run))
            a = rect_w[lo]
            b = (rect_w[lo + cnt - 1] - a) / (cnt - 1) if cnt > 1 else 0.0
            moments.append((lo, cnt, a, b, *run_sums(0, lo, cnt, bool(b))))
            lo += cnt

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
        if moments is not None:
            # sum over a run's nodes of (a + b*(j - lo)) * row = a*s0 + b*s1
            for lo, cnt, a, b, s0, s1 in moments:
                for e in range(n_edges):
                    fi, pe = fol[e], pbase + e
                    wp = a * s0[pe] + b * s1[pe] if b else a * s0[pe]
                    for c in range(dim):
                        k = e * dim + c
                        wu = a * s0[k] + b * s1[k] if b else a * s0[k]
                        acc[fi + c] += wu - wp * vv[fi + c]
        elif n_edges:
            for e in range(n_edges):
                fi, li, pe = fol[e], led[e], pbase + e
                for j in range(m2):
                    slot = (sub + j) % ring
                    wp = rect_w[j] * q_ring[slot][pe]
                    row_v = v_ring[slot]
                    for c in range(dim):
                        acc[fi + c] += wp * (row_v[li + c] - vv[fi + c])
        if forced:
            fvec = forcing.eval(sub * h2, dim)
            for c in range(dim):
                acc[c] = float(fvec[c])

        v_new = [v + h2 * a for v, a in zip(vv, acc)]
        x_new = [x + h2 * v for x, v in zip(xv, vv)]

        if n_edges:
            if moments is not None:
                # node lo leaves each run and node lo+cnt enters it. The first
                # moment integrates the zeroth's rounding drift, so sloped runs
                # are summed afresh once per window length.
                for lo, cnt, a, b, s0, s1 in moments:
                    if b and (sub + 1) % ring == 0:
                        s0[:], s1[:] = run_sums(sub + 1, lo, cnt, True)
                        continue
                    q_out = q_ring[(sub + lo) % ring]
                    q_in = q_ring[(sub + lo + cnt) % ring]
                    if b:
                        for k in range(nq):
                            s1[k] += (cnt - 1) * q_in[k] + q_out[k] - s0[k]
                    for k in range(nq):
                        s0[k] += q_in[k] - q_out[k]
            q_ring[slot_old] = node_row(x_new, v_new)
        x_ring[slot_old] = x_new
        v_ring[slot_old] = v_new

        if (sub + 1) % k_ref == 0:
            i = (sub + 1) // k_ref
            if not (all(map(math.isfinite, v_new)) and all(map(math.isfinite, x_new))):
                raise _blow_up((sub + 1) * h2, (i - 1) * h,
                               np.reshape(x_new, (n_agents, dim)),
                               np.reshape(v_new, (n_agents, dim)))
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
