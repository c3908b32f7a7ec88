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
  kept in a ring of m+1 rows, one row per node: psi once per edge, the
  velocities once per edge and coordinate. A coupling stage is a few numpy
  calls (a difference, a multiply fused into a sequential sum over the
  window, a scatter per follower; the window is weighted once per step), and
  the ring with its work buffers holds (m+1)(E+1)(2d+3) doubles for E edges
  in d dimensions, however long the run.
  :func:`simulate_many` steps each run of consecutive scenarios with one
  (delay_steps, dim) as one disjoint flock: the same numpy calls advance all
  of them, each with its own step size, quadrature weights, potential and
  forcing, so a step of many small scenarios costs about as much as a step
  of one. Every operation acts per agent or per edge column, so each
  trajectory is bit-identical to :func:`simulate`'s. :func:`simulate` is a
  batch of one on the same path: every batch steps in a state buffer of 64
  rows, copied into the scenarios' trajectory arrays each time it fills.
* :func:`simulate_oracle` - explicit Euler on a refined grid with
  left-rectangle quadrature; deliberately different discretization used to
  cross-validate the main one. For piecewise-linear kernels (uniform,
  triangular, table) running zeroth and first moment sums per linear piece
  make a substep cost O(pieces * edges * d) whatever the window length; the
  truncated bump pays the full window.

Any non-finite state aborts the run with a :class:`BlowUpError` naming the
time, the first non-finite agent and the last finite time. In a batch the
error names the scenario's own agent and times and takes that scenario's
place in the results; the other scenarios run on.

Trajectories go to CSV with every number in C's ``%.17g``, the bytes
``np.savetxt(fmt="%.17g")`` writes, so a read gives back the same doubles.
:func:`write_csv` formats about 4k values per pass with numpy calls, exactly
(a double-double product with 10**(16-e), rounded half to even), straight
from the trajectory arrays. The few values it cannot prove correctly rounded
(non-finite, |x| outside 1e-275..1e291, too near a rounding tie) go through
Python's formatter. :func:`read_trajectory_csv` parses as many values per
pass into arrays allocated once, so a read holds one copy of the trajectory;
it raises :class:`ScenarioError` naming the file for anything that is not
such a CSV.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import os
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .model import Potential, Scenario, ScenarioError, _integer


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

    def __reduce__(self):
        # rebuilt from its fields, so that it crosses a process boundary
        return type(self), (self.t, self.agent, self.last_finite_t)


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
    Heun stages. Each node therefore gets one row per factor, filled once when
    the node is stored: ``psi`` (L, E+1) holds psi on every edge, ``vl``
    (L, d, E+1) the gathered leader velocities, coordinate-major, so entry
    [r, c, e] is coordinate c of edge e's leader. Column E is a spare that
    belongs to no edge: its psi and weight stay 0, so whatever velocity it
    gathers (coordinate 0 of the first agent) it only adds to a bin that is
    dropped. It keeps every row at least two wide, which :func:`_coupling`
    relies on, and lets each gather fill whole rows. The ring holds L = m+1
    rows: node r sits in row r % L, so the window of nodes r..r+m is rows
    r % L..L-1 followed by rows 0..r % L - 1.

    ``potential`` is a list of (potential, stop) pairs: the edges from the
    previous pair's stop up to ``stop`` use that potential, which is called
    once per node on those edges only. ``weights`` (L, E+1) holds the
    quadrature weight of each window position per edge. ``pair_cols`` holds
    the flat indices fol*d + c and led*d + c of each edge's two agents,
    edge-major, for the distances; ``fol_cols`` and ``lead_cols`` (d, E+1)
    hold fol*d + c and led*d + c coordinate-major, for the gathers, and
    ``bins`` is ``fol_cols`` flat with the spare column sent to an extra bin
    N*d. ``dp``, ``vf``, ``rel`` and ``wpsi`` are work buffers. ``vl_rows``, ``rel_rows`` and ``vf_row`` view
    ``vl``, ``rel`` and ``vf`` as one flat row per node for the elementwise
    difference, ``wpsi_rows`` views ``wpsi`` as (L, E+1), and ``psi_edges``
    is ``psi`` without its spare column.

    ``wpsi`` (L, 1, E+1) holds the weighted window w * psi of the window that
    starts at node ``wpsi_first`` (see :meth:`weighted_psi`). A step's
    corrector and the next step's predictor read the same window, in which
    only the newest node is stored again (the predicted state, then the
    corrected one), so each Heun step weights one whole window and one row.
    Each entry is the same single product whenever it is computed, so reusing
    it changes no bit.

    No buffer that holds psi repeats it per coordinate, and no row is stored
    twice: the ring and its work buffers take (m+1)(E+1)(2d+3) doubles
    (``psi``, ``weights``, ``wpsi``, then ``vl`` and ``rel``) whatever the
    horizon, besides arrays of O(E * d) per edge.
    """

    def __init__(self, xw: np.ndarray, vw: np.ndarray, fol: np.ndarray, led: np.ndarray,
                 potential: list[tuple[Potential, int]], weights: np.ndarray):
        self.size = size = xw.shape[0]
        n_agents, dim = xw.shape[1:]
        stops = [stop for _, stop in potential]
        self.pieces = [(p, slice(start, stop)) for (p, stop), start in zip(potential, [0] + stops)]
        coords = np.arange(dim)
        self.pair_cols = np.stack([(fol[:, None] * dim + coords).ravel(),
                                   (led[:, None] * dim + coords).ravel()])
        self.pair_x = np.empty(self.pair_cols.shape)
        # explicit, since a lone agent has E = 0 edges
        self.dp = np.empty((fol.size, dim))
        self.pair_fol, self.pair_led = self.pair_x
        self.dp_flat = self.dp.ravel()
        spare = np.zeros((dim, 1), np.intp)
        self.fol_cols = np.append(fol * dim + coords[:, None], spare, axis=1)
        self.lead_cols = np.append(led * dim + coords[:, None], spare, axis=1)
        self.bins = np.append(self.fol_cols[:, :-1], spare + n_agents * dim, axis=1).ravel()
        self.weights = weights
        self.psi = np.zeros((size, fol.size + 1))
        self.psi_edges = self.psi[:, :-1]
        self.vl = np.zeros((size, dim, fol.size + 1))
        self.vf = np.zeros((dim, fol.size + 1))
        self.rel = np.empty(self.vl.shape)
        self.wpsi = np.empty((size, 1, fol.size + 1))
        self.vl_rows, self.rel_rows = self.vl.reshape(size, -1), self.rel.reshape(size, -1)
        self.vf_row, self.wpsi_rows = self.vf.reshape(-1), self.wpsi[:, 0]
        self.wpsi_first: int | None = None
        for node in range(size):
            self.store(node, xw[node], vw[node])

    def store(self, node: int, x: np.ndarray, v: np.ndarray) -> None:
        """Fill the row of window node ``node`` from its state x, v (N, d)."""
        row = node % self.size
        # in-range indices by construction; "clip" writes straight into the buffer
        x.take(self.pair_cols, out=self.pair_x, mode="clip")
        np.subtract(self.pair_fol, self.pair_led, out=self.dp_flat)
        dist = np.sqrt(np.einsum("ef,ef->e", self.dp, self.dp))
        psi = self.psi_edges[row]
        for potential, edges in self.pieces:
            psi[edges] = potential(dist[edges])
        v.take(self.lead_cols, out=self.vl[row], mode="clip")

    def clear(self, edges: slice) -> None:
        """Zero the edges ``edges`` of every stored node, in every coordinate:
        they add 0. The weighted window is dropped, since it may hold them
        non-finite."""
        self.psi[:, edges] = 0.0
        self.vl[:, :, edges] = 0.0
        self.wpsi_first = None

    def weighted_psi(self, first: int) -> np.ndarray:
        """``wpsi`` filled with weights * psi over the window of nodes
        first..first+m. A call with the previous call's ``first`` recomputes
        only the newest row: between two such calls the stepper stores no
        node but the newest again."""
        lo = first % self.size
        wpsi = self.wpsi_rows
        if first == self.wpsi_first:
            # the newest node, first+m, is in the row before lo
            np.multiply(self.weights[-1], self.psi[lo - 1], out=wpsi[-1])
        else:
            n = self.size - lo
            np.multiply(self.weights[:n], self.psi[lo:], out=wpsi[:n])
            if lo:
                np.multiply(self.weights[n:], self.psi[:lo], out=wpsi[n:])
            self.wpsi_first = first
        return self.wpsi


def _explicit_window_sum(rel: np.ndarray, wpsi: np.ndarray) -> np.ndarray:
    """The window sum of ``rel * wpsi`` over axis 0, written out: the products
    in place in ``rel`` (L, ...), ``wpsi`` broadcast against it, then an
    axis-0 reduce, which over a C-contiguous array whose rows hold at least two
    values adds whole rows in order to +0.0."""
    rel *= wpsi
    return np.add.reduce(rel, axis=0)


def _fused_window_sum(rel: np.ndarray, wpsi: np.ndarray) -> np.ndarray:
    """The window sum of ``rel * wpsi`` over axis 0 in one pass: einsum steps
    over the rows in order and, at every entry, adds the rounded product to
    the running sum, which starts at +0.0 (when built without FMA
    contraction)."""
    return np.einsum("i...,i...->...", rel, wpsi)


def _window_sum_probes() -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(rel, wpsi) windows whose sums tell the row-ordered sum of rounded
    products apart from a fused multiply-add, a reversed order and a blocked
    (pairwise or several-accumulator) order, at widths 2 to 259: (L, W)
    windows, then the stepper's (L, d, W) by (L, 1, W) windows for d = 1..3."""
    e = 2.0 ** -30
    rel, wpsi = np.zeros((33, 3)), np.ones((33, 3))
    # (1+e)^2 rounds to 1+2e, so the sum is 0; a fused multiply-add keeps e^2
    rel[:2, 0] = -(1 + 2 * e), 1 + e
    wpsi[1, 0] = 1 + e
    # 1e16 - 1e16 + 1 is 1 in order; reversed, the 1 is lost against -1e16
    rel[:3, 1] = 1e16, -1e16, 1.0
    # in order each 1 is lost against 1e16, so the sum is 0; blocks keep them
    rel[:, 2] = 1.0
    rel[0, 2], rel[-1, 2] = 1e16, -1e16
    windows = [(np.ascontiguousarray(np.tile(rel, -(-width // 3))[:, :width]),
                np.ascontiguousarray(np.tile(wpsi, -(-width // 3))[:, :width]))
               for width in (2, 3, 8, 65, 259)]
    yield from windows
    for dim in (1, 2, 3):
        for r, w in windows:
            yield np.repeat(r[:, None], dim, axis=1), w[:, None]


def _checked_window_sum(candidate: Callable[[np.ndarray, np.ndarray], np.ndarray]):
    """``candidate`` if it sums every probe window of :func:`_window_sum_probes`
    bit for bit as :func:`_explicit_window_sum`, else the explicit form: a
    numpy built to contract einsum's multiply-add to FMA, or to reorder it,
    must not change the last bits of a run."""
    for rel, wpsi in _window_sum_probes():
        want = _explicit_window_sum(rel.copy(), wpsi)
        if candidate(rel.copy(), wpsi).tobytes() != want.tobytes():
            return _explicit_window_sum
    return candidate


_window_sum = _checked_window_sum(_fused_window_sum)


def _coupling(ring: _NodeRing, first: int, v_now: np.ndarray) -> np.ndarray:
    """Delay-coupling acceleration for every agent at once, over the window of
    nodes first..first+m held in ``ring``; v_now is the current-time velocity
    entering the integrand. Positions inside the potential are both delayed,
    velocities of the leaders are delayed, the follower's velocity is current.

    Each term is (w_k * psi_k) * (v_L,k - v_F) for window row k. The terms
    are added over the window in node order, then per follower in edge order
    starting from +0.0: the arithmetic of a direct sum over the window, so
    the output is bit-identical to recomputing it. A stage makes two passes
    over the (L, d, E+1) window: the difference to the follower's velocity,
    into ``rel`` in node order (two slices when the window wraps round the
    ring), then the multiply by the (L, 1, E+1) weighted window, broadcast
    over the coordinates and fused into the row-ordered sum
    (:func:`_window_sum`); the weights w_k * psi_k come from
    :meth:`_NodeRing.weighted_psi`, one whole window per step. Every rounding
    stays where it was: each product is rounded, then added to its entry's
    running sum, row by row.

    The sum must stay sequential for that; a reassociated form such as
    sum(w psi v_L) - sum(w psi) v_F, a BLAS dot or a pairwise sum rounds
    differently. Over a C-contiguous window both the einsum and an axis-0
    reduce step through whole rows in order, but over a single column numpy
    iterates down the column and sums it pairwise (the reduce) or in several
    accumulators (the einsum); the spare column rules that out. A numpy
    whose einsum contracts the multiply-add to one FMA rounds once instead of
    twice, so :func:`_checked_window_sum` falls back to the explicit form
    there. ``bincount`` adds in input order, and each coordinate's edges are
    in edge order, so each follower's terms are too; the spare columns go to
    a spare bin, so its input is never empty (on an empty input it returns
    integers).
    """
    lo = first % ring.size
    n = ring.size - lo
    # in-range indices by construction; "clip" writes straight into the buffer
    v_now.take(ring.fol_cols, out=ring.vf, mode="clip")
    np.subtract(ring.vl_rows[lo:], ring.vf_row, out=ring.rel_rows[:n])
    if lo:
        np.subtract(ring.vl_rows[:lo], ring.vf_row, out=ring.rel_rows[n:])
    sums = _window_sum(ring.rel, ring.weighted_psi(first))
    return np.bincount(ring.bins, weights=sums.ravel())[:-1].reshape(v_now.shape)


# ---------------------------------------------------------------------------
# Heun stepping
# ---------------------------------------------------------------------------

def _heun_step(x_cur: np.ndarray, v_cur: np.ndarray, x_new: np.ndarray, v_new: np.ndarray,
               k: int, ring: _NodeRing, group: _Group) -> None:
    """Step k of every scenario in ``group``, from the window of nodes
    k..k+m, whose newest node x_cur, v_cur is the state after k steps; writes
    the new state into x_new, v_new and stores it in ``ring`` as node k+m+1.

    The predictor is an Euler step; the corrector re-evaluates the coupling at
    t+h against the window extended by the predictor, whose row holds node
    k+m+1 until the corrected state overwrites it. Both positions and
    velocities advance with the average of the two stage derivatives. The
    stages run in place in x_new, v_new and the coupling outputs, with the
    operands of v_cur + h*a0, x_cur + h*v_cur, v_cur + 0.5*h*(a0 + a1) and
    x_cur + 0.5*h*(v_cur + vp) (sum and product commute bitwise); h holds
    each agent's own step. A forced root takes its forcing at its
    scenario's own times k*h and k*h + h.
    """
    h = group.h
    dim = group.dim

    # a root has no leaders: its coupling row is already the +0.0 a zero forcing sets
    a0 = _coupling(ring, k, v_cur)
    for root, forcing, h_s in group.forced:
        a0[root] = forcing.eval(k * h_s, dim)
    vp = np.multiply(h, a0, out=v_new)
    vp += v_cur
    xp = np.multiply(h, v_cur, out=x_new)
    xp += x_cur

    ring.store(k + ring.size, xp, vp)
    a1 = _coupling(ring, k + 1, vp)
    for root, forcing, h_s in group.forced:
        a1[root] = forcing.eval(k * h_s + h_s, dim)

    half_h = group.half_h
    np.add(v_cur, vp, out=x_new)
    x_new *= half_h
    x_new += x_cur
    a1 += a0
    a1 *= half_h
    np.add(v_cur, a1, out=v_new)
    if not (np.isfinite(v_new).all() and np.isfinite(x_new).all()):
        group.blow_up(k, x_new, v_new, ring)
    ring.store(k + ring.size, x_new, v_new)


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


# A group of scenarios stepped together holds at most this many agent-rows:
# agents times stored rows m+n+1, summed over its scenarios. Their trajectories
# are 16*d bytes per agent-row, so a group's arrays stay under 4 MB per dimension.
_GROUP_AGENT_ROWS = 1 << 18
# Rows of the state buffer a group steps in; every _BUFFER_ROWS - 1 steps
# they are copied into the scenarios' own arrays.
_BUFFER_ROWS = 64


@functools.cache
def _physical_memory() -> float:
    """Bytes of physical memory, or inf where the platform does not tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


def _state_arrays(shape: tuple[int, int, int], cause: str) -> tuple[np.ndarray, np.ndarray]:
    """Empty position and velocity arrays of ``shape`` (states, agents, d). A
    shape larger than the machine's memory, which a system that overcommits
    would still allocate, or too large to allocate, is a
    :class:`ScenarioError` that names its ``cause``."""
    need = 16 * math.prod(shape)
    if need <= _physical_memory():
        try:
            x = np.empty(shape)
            return x, np.empty_like(x)
        except (MemoryError, ValueError):   # ValueError: more elements than an array can index
            pass
    raise ScenarioError(f"{cause}: its trajectory needs {need} bytes, more than can be allocated")


def _run_arrays(scenario: Scenario, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_state_arrays` for ``rows`` states of the scenario's flock,
    named by its step count."""
    return _state_arrays((rows, scenario.n_agents, scenario.dim),
                         f"t_end / dt = {scenario.t_end!r} / {scenario.dt!r} is "
                         f"{scenario.n_steps} steps")


def step_groups(scenarios: Iterable[Scenario]) -> Iterator[list[Scenario]]:
    """Split ``scenarios``, in order, into the groups :func:`simulate_many`
    steps as one system: runs of consecutive scenarios with the same
    (delay_steps, dim) and at most ``_GROUP_AGENT_ROWS`` agent-rows together.
    A scenario larger than that is a group of its own."""
    group, key, size = [], None, 0
    for scenario in scenarios:
        m = scenario.delay_steps
        rows = scenario.n_agents * (m + scenario.n_steps + 1)
        if group and ((m, scenario.dim) != key or size + rows > _GROUP_AGENT_ROWS):
            yield group
            group, size = [], 0
        group.append(scenario)
        key = (m, scenario.dim)
        size += rows
    if group:
        yield group


class _Group:
    """Scenarios of one (delay_steps, dim), stepped as one disjoint flock.

    Scenario i owns the agents ``bounds[i]`` of the union and, since edges
    follow agents, the edges ``edge_bounds[i]``. The scenarios are kept
    ordered by potential, so that each distinct potential's edges are one
    run. ``h`` (agents, d) holds each agent's step in every coordinate.
    ``forced`` lists (union row of the root, forcing, step) per forced
    scenario. ``results[i]`` is scenario i's :class:`BlowUpError` once it has
    failed; ``n_live`` is the longest horizon of the scenarios still running.
    """

    def __init__(self, scenarios: list[Scenario]):
        self.m, self.dim = scenarios[0].delay_steps, scenarios[0].dim
        potentials, rank = [], []
        for s in scenarios:
            rank.append(next((j for j, p in enumerate(potentials) if p == s.potential),
                             len(potentials)))
            if rank[-1] == len(potentials):
                potentials.append(s.potential)
        self.order = sorted(range(len(scenarios)), key=rank.__getitem__)
        self.scenarios = [scenarios[i] for i in self.order]
        self.steps = [s.n_steps for s in self.scenarios]
        self.dts = [s.dt for s in self.scenarios]
        sizes = [s.n_agents for s in self.scenarios]
        starts = list(itertools.accumulate(sizes, initial=0))
        self.bounds = list(itertools.pairwise(starts))
        # full rows, not a column: broadcast over rows of only d values, a
        # column product runs about 4x slower at N = 200, d = 2
        self.h = np.repeat(self.dts, sizes)[:, None].repeat(self.dim, axis=1)
        self.half_h = 0.5 * self.h
        self.forced = [(lo, s.forcing, s.dt) for s, (lo, _) in zip(self.scenarios, self.bounds)
                       if not s.forcing.is_zero]
        self.results: list[BlowUpError | None] = [None] * len(scenarios)
        self.n_live = max(self.steps)

    def ring(self, xw: np.ndarray, vw: np.ndarray) -> _NodeRing:
        """The union's :class:`_NodeRing` over the window states xw, vw
        (m+1, agents, d): one run of edges per distinct potential, and each
        edge weighted by its own scenario's quadrature weights."""
        edges = [s.dag.edge_arrays() for s in self.scenarios]
        counts = [f.size for f, _ in edges]
        stops = list(itertools.accumulate(counts))
        self.edge_bounds = list(zip([0] + stops, stops))
        fol = np.concatenate([f + lo for (f, _), (lo, _) in zip(edges, self.bounds)])
        led = np.concatenate([l + lo for (_, l), (lo, _) in zip(edges, self.bounds)])
        pieces = []
        for s, stop, count in zip(self.scenarios, stops, counts):
            if count and pieces and pieces[-1][0] == s.potential:
                pieces[-1] = (s.potential, stop)
            elif count:
                pieces.append((s.potential, stop))
        weights = np.zeros((self.m + 1, fol.size + 1))
        for s, (lo, hi) in zip(self.scenarios, self.edge_bounds):
            weights[:, lo:hi] = _trapezoid_mu_weights(s)[:, None]
        return _NodeRing(xw, vw, fol, led, pieces, weights)

    def blow_up(self, k: int, x_new: np.ndarray, v_new: np.ndarray, ring: _NodeRing) -> None:
        """Handle a non-finite state after step k. A scenario inside its
        horizon fails with its own agent and times. It, and any scenario past
        its horizon, restarts from rest on edges that add 0, so the union is
        finite again and the other scenarios step on unchanged."""
        bad = ~(np.isfinite(x_new).all(axis=1) & np.isfinite(v_new).all(axis=1))
        for i, (lo, hi) in enumerate(self.bounds):
            if not bad[lo:hi].any():
                continue
            if self.results[i] is None and k < self.steps[i]:
                t = k * self.dts[i]
                self.results[i] = _blow_up(t + self.dts[i], t, x_new[lo:hi], v_new[lo:hi])
            x_new[lo:hi] = 0.0
            v_new[lo:hi] = 0.0
            ring.clear(slice(*self.edge_bounds[i]))
        self.n_live = max((n for n, err in zip(self.steps, self.results) if err is None),
                          default=0)

    def run(self, on_step: Callable[[FlockState], None] | None = None) -> list:
        """Step every scenario to its horizon; returns each one's
        :class:`Trajectory` or :class:`BlowUpError`, in the input order.

        The union steps in a buffer of ``_BUFFER_ROWS`` states; each time it
        fills, and at the end, :meth:`_flush` copies the new states into the
        scenarios' own arrays. ``on_step`` is called after every step with
        read-only copies of the union's new state, at the first scenario's
        time."""
        m = self.m
        hist_s, xs, vs = [], [], []
        for s, n in zip(self.scenarios, self.steps):
            hist_s.append((np.arange(m + 1) - m) * s.dt)
            x, v = _run_arrays(s, m + n + 1)
            x[: m + 1], v[: m + 1] = s.history.sample(hist_s[-1])
            xs.append(x)
            vs.append(v)
        # the ring evaluates psi on the prehistory, which may overflow too
        with np.errstate(over="ignore", invalid="ignore"):
            xw = np.concatenate([x[: m + 1] for x in xs], axis=1)
            vw = np.concatenate([v[: m + 1] for v in vs], axis=1)
            ring = self.ring(xw, vw)
            X = np.empty((_BUFFER_ROWS,) + xw.shape[1:])
            V = np.empty_like(X)
            X[0], V[0] = xw[m], vw[m]
            del xw, vw
            base = 0
            for k in range(self.n_live):
                j = k - base        # buffer row of the state after k steps
                _heun_step(X[j], V[j], X[j + 1], V[j + 1], k, ring, self)
                if self.n_live <= k:
                    break
                if on_step is not None:
                    # copies: a later step overwrites the buffer row
                    x_new, v_new = X[j + 1].copy(), V[j + 1].copy()
                    _freeze(x_new, v_new)
                    on_step(FlockState((k + 1) * self.dts[0], x_new, v_new))
                if j + 2 == _BUFFER_ROWS:
                    self._flush(X, V, base, k + 1, xs, vs)
                    X[0], V[0] = X[j + 1], V[j + 1]
                    base = k + 1
            self._flush(X, V, base, k + 1, xs, vs)

        out: list = [None] * len(self.order)
        for i, s in enumerate(self.scenarios):
            result = self.results[i]
            if result is None:
                x, v = xs[i], vs[i]
                result = Trajectory(times=np.arange(self.steps[i] + 1) * s.dt,
                                    x=x[m:], v=v[m:], hist_times=hist_s[i],
                                    hist_x=x[: m + 1], hist_v=v[: m + 1], scenario=s)
                _freeze(result.times, result.x, result.v, result.hist_times,
                        result.hist_x, result.hist_v)
            out[self.order[i]] = result
        return out

    def _flush(self, X: np.ndarray, V: np.ndarray, base: int, last: int,
               xs: list, vs: list) -> None:
        """Copy the buffered states after steps base+1..last (buffer rows
        1..last-base) into the arrays of the scenarios still running, up to
        each one's horizon."""
        m = self.m
        for i, (lo, hi) in enumerate(self.bounds):
            stop = min(last, self.steps[i])
            if self.results[i] is None and stop > base:
                xs[i][m + base + 1: m + stop + 1] = X[1: stop - base + 1, lo:hi]
                vs[i][m + base + 1: m + stop + 1] = V[1: stop - base + 1, lo:hi]


def simulate(scenario: Scenario,
             on_step: Callable[[FlockState], None] | None = None) -> Trajectory:
    """Integrate the scenario from t=0 to t_end with the Heun stepper.

    ``on_step``, if given, is called after every step with read-only copies
    of the new state, which it may keep; without it no state is copied. A
    state that stops being finite raises :class:`BlowUpError`; overflow on
    the way there raises no numpy warning, in ``on_step`` either.
    """
    scenario.validate()
    result, = _Group([scenario]).run(on_step)
    if isinstance(result, BlowUpError):
        raise result
    return result


def simulate_many(scenarios: Sequence[Scenario]) -> list[Trajectory | BlowUpError]:
    """Integrate several scenarios, each exactly as :func:`simulate` would:
    its trajectory is bit-identical, or its :class:`BlowUpError` is returned
    in its place, in the input order.

    Each run of consecutive scenarios with one (delay_steps, dim) is stepped
    together as one disjoint flock, in input order and in the groups of
    :func:`step_groups`: one Heun step advances every scenario of a group
    with the numpy calls of one, which is what makes many small scenarios
    cheap. A batch that mixes keys is not reordered, so it steps in as many
    groups as it has runs. Every operation of a step acts per agent or per
    edge column, and different scenarios share neither, so each scenario's
    numbers are the ones it gets alone. A scenario past its horizon steps on
    until the group's longest one ends, but can no longer fail.
    """
    for scenario in scenarios:
        scenario.validate()
    return [r for group in step_groups(scenarios) for r in _Group(group).run()]


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
    k_ref = _integer(refinement, "refinement", least=1)
    m, n = scenario.delay_steps, scenario.n_steps
    h = scenario.dt
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
    # the ring's m2+1 rows of x, v and node values as Python floats, each an
    # 8-byte list slot and a 24-byte float; checked before anything is sampled
    need = 32 * (m2 + 1) * (2 * nd + nq)
    if need > _physical_memory():
        raise ScenarioError(f"refinement = {refinement!r}: the oracle's window ring of {m2 + 1} "
                            f"rows needs {need} bytes, more than can be allocated")

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

    x_out, v_out = _run_arrays(scenario, n + 1)
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

# _format_rows writes C's "%.17g" for a whole block with numpy calls: each value
# is rounded to an exact 17-digit integer D with x = +-D * 10**(e-16), its text
# is laid out in six little-endian words with NUL in every unused byte, and the
# NULs are deleted at the end.

_CSV_CHUNK_VALUES = 4096      # values formatted or parsed per pass; bounds the temporaries
_SCAN_BYTES = 1 << 18         # bytes per pass of the CSV reader's row count
_E_MIN, _E_MAX = -275, 290    # exponents of the fast path: no split overflows, no lo underflows
# The double-double x * 10**(16-e) is within 2**-104 * 1e17 < 5e-15 of the exact
# product; a fractional part this close to 1/2 (or to 0 at D = 1e16) is left to Python.
_HALF_TOL = 1e-12


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split: a == hi + lo exactly, each with at most 26 significant bits."""
    c = 134217729.0 * a       # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _word(text: str) -> int:
    """Up to 8 ASCII characters, NUL padded, as one little-endian word."""
    return int.from_bytes(text.encode().ljust(8, b"\0"), "little")


@functools.cache
def _pow10_table() -> tuple[np.ndarray, ...]:
    """Row i, for the decimal exponent e = _E_MAX - i: 10**(16-e) as the
    double-double hi + lo (hi correctly rounded, lo the correctly rounded
    remainder), hi's split, and the half-way tolerance (0 where 10**(16-e) is
    a double, so the product is exact). Built on the first write."""
    hi, lo = [], []
    for e in range(_E_MAX, _E_MIN - 1, -1):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi, lo = np.array(hi), np.array(lo)
    return (hi, *_split(hi), lo, np.where(lo == 0.0, 0.0, _HALF_TOL))


@functools.cache
def _text_table() -> tuple[np.ndarray, ...]:
    """Text words: the digits of 0000..9999 (one in every even byte), the sign
    and leading "0.000" of fixed notation by (negative, -e), and the exponent
    suffix by e - _E_MIN (empty in fixed notation)."""
    g = np.arange(10000, dtype=np.uint64)
    quads = sum((g // 10 ** (3 - j) % 10 + ord("0")) << (16 * j) for j in range(4))
    prefixes = np.array([_word(sign + ("0." + "0" * (z - 1) if z else ""))
                         for sign in ("", "-") for z in range(5)], np.uint64)
    suffixes = np.array([0 if -4 <= e <= 16 else _word(f"e{e:+03d}")
                         for e in range(_E_MIN, _E_MAX + 1)], np.uint64)
    return quads, prefixes, suffixes


def _decimal17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, e, ok): |x| rounded half to even to D * 10**(e-16), D in [1e16, 1e17),
    where ok; +-0 gives D = 0, e = 0. Elsewhere (non-finite, outside the table,
    an exponent estimate one off, an ambiguous rounding) ok is False."""
    hi, hi_h, hi_l, lo, tols = _pow10_table()
    ax = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(ax))
        ok = (e >= _E_MIN) & (e <= _E_MAX)
        i = np.where(ok, _E_MAX - e, 0).astype(np.intp)
    a = np.where(ok, ax, 0.0)
    # v = a * 10**(16-e) as ph + pl: Dekker's exact product a * hi, plus a * lo
    a_h, a_l = _split(a)
    b_h, b_l = hi_h[i], hi_l[i]
    ph = a * hi[i]
    pl = ((a_h * b_h - ph) + a_h * b_l + a_l * b_h) + a_l * b_l + a * lo[i]
    s = ph + pl
    pl -= s - ph            # now s + pl == ph + pl exactly
    # any s near [1e16, 1e17) is above 2**53, an integer, so floor(v) = s + floor(pl)
    r = np.floor(pl)
    frac = pl - r
    d = s.astype(np.int64) + r.astype(np.int64)
    tol = tols[i]
    ok &= (d >= 10**16) & ~((d == 10**16) & (frac < tol)) & ~(np.abs(frac - 0.5) < tol)
    d += (frac > 0.5) | ((frac == 0.5) & (d % 2 == 1))
    ok &= d < 10**17
    zero = ax == 0.0
    ok |= zero
    d[~ok | zero] = 0
    e[~ok | zero] = 0
    return d, e.astype(np.int64), ok


def _format_rows(block: np.ndarray) -> bytes:
    """The rows of a C-contiguous 2-D float64 block as CSV lines, every value
    in C's "%.17g": the bytes np.savetxt(fmt="%.17g", delimiter=",") writes.

    A value's text words: 0 holds the sign, fixed notation's leading "0.000",
    the first digit and a point slot; 1-4 the other 16 digits, each followed
    by a point slot; 5 the exponent ("e+dd", "e-ddd") and the separator.
    """
    quads, prefixes, suffixes = _text_table()
    x = block.reshape(-1)
    d, e, ok = _decimal17(x)
    d = d.view(np.uint64)
    hi9 = d // 100000000
    lo8 = d - hi9 * 100000000
    d0 = hi9 // 100000000
    mid = hi9 - d0 * 100000000
    g1, g3 = mid // 10000, lo8 // 10000
    g4 = lo8 - g3 * 10000
    fixed = (e >= -4) & (e <= 16)         # %g at 17 digits: exponent form below 1e-4 and from 1e17
    words = np.empty((x.size, 6), np.uint64)
    lead = np.signbit(x) * 5 + np.where(fixed & (e < 0), -e, 0)
    words[:, 0] = prefixes[lead] + ((d0 + ord("0")) << 48)
    words[:, 1] = quads[g1]
    words[:, 2] = quads[mid - g1 * 10000]
    words[:, 3] = quads[g3]
    words[:, 4] = quads[g4]
    words[:, 5] = suffixes[e - _E_MIN] + (ord(",") << 40)
    words[block.shape[1] - 1::block.shape[1], 5] -= (ord(",") - ord("\n")) << 40
    text = words.view(np.uint8)
    # drop trailing zeros after the point, and the point when no digit follows it
    point = np.where(fixed, e, 0)                   # the digit it follows; < 0: in the prefix
    last = np.full(x.size, 16)                      # the last digit kept
    z = np.flatnonzero(g4 % 10 == 0)
    tail = text[z, 8:40:2]                          # digits 1..16
    nonzero = tail != ord("0")
    last[z] = np.where(nonzero.any(axis=1), 16 - nonzero[:, ::-1].argmax(axis=1), 0)
    keep = np.maximum(last[z], point[z])
    text[z, 8:40:2] = np.where(np.arange(1, 17) <= keep[:, None], tail, 0)
    p = np.flatnonzero((last > point) & (point >= 0))
    text.reshape(-1)[p * text.shape[1] + 7 + 2 * point[p]] = ord(".")
    for k in np.flatnonzero(~ok):
        s = b"%.17g" % x[k]
        text[k, :45] = 0                            # all but the separator
        text[k, :len(s)] = np.frombuffer(s, np.uint8)
    return words.tobytes().translate(None, b"\0")


def _chunk_rows(n_cols: int) -> int:
    return max(1, _CSV_CHUNK_VALUES // n_cols)


def write_csv(path, names: Sequence[str], blocks: Iterable[np.ndarray]) -> None:
    """Write a header line of column names, then the rows of each 2-D block,
    every number in C's "%.17g" (17 significant digits, trailing zeros
    dropped), as np.savetxt(fmt="%.17g", delimiter=",") would."""
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode())
        for block in blocks:
            block = np.ascontiguousarray(block, dtype=np.float64)
            step = _chunk_rows(block.shape[1])
            for r in range(0, block.shape[0], step):
                fh.write(_format_rows(block[r:r + step]))


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
    """One row per stored step, full double precision (17 significant digits),
    formatted a chunk of rows at a time straight from the trajectory arrays."""
    n_agents, dim = traj.n_agents, traj.dim
    n_cols = 1 + 2 * n_agents * dim
    step = _chunk_rows(n_cols)

    def blocks():
        for r in range(0, traj.times.size, step):
            times = traj.times[r:r + step]
            block = np.empty((times.size, n_cols))
            block[:, 0] = times
            # x then v for each agent and coordinate, the order of trajectory_columns
            pairs = block[:, 1:].reshape(times.size, n_agents, dim, 2)
            pairs[..., 0] = traj.x[r:r + step]
            pairs[..., 1] = traj.v[r:r + step]
            yield block
    write_csv(path, trajectory_columns(n_agents, dim), blocks())


def _is_data_line(line: bytes) -> bool:
    """Whether np.loadtxt reads a row from this line: it is neither a '#'
    comment nor empty. A line of spaces is a row, and a malformed one."""
    return line[:1] != b"#" and line not in (b"\n", b"\r\n", b"\r")


def _count_data_lines(fh) -> int:
    """How many lines from ``fh``'s position to its end :func:`_is_data_line`
    accepts, found ``_SCAN_BYTES`` at a time. Each newline starts a line (the
    header's starts the first, and a sentinel newline ends the file, so a
    last line "\\r" reads as "\\r\\n"). The line is not data if the byte after
    its newline is '#' or a newline, or the two bytes after it are "\\r\\n". A
    pass decides the newlines whose two bytes it holds and carries the rest.
    """
    count, carry = 0, b"\n"
    while True:
        block = fh.read(_SCAN_BYTES)
        buf = np.frombuffer(carry + (block or b"\n"), np.uint8)
        end = buf.size - 2                # the newlines before end are decided here
        at = np.flatnonzero(buf[:end] == 10)
        first, second = buf[at + 1], buf[at + 2]
        count += at.size - np.count_nonzero((first == 35) | (first == 10)
                                            | ((first == 13) & (second == 10)))
        if not block:
            return count
        carry = buf[end:].tobytes()


def read_trajectory_csv(path) -> Trajectory:
    """Load a trajectory CSV written by :func:`write_trajectory_csv`.

    Only the step grid is recoverable from the file, so the returned
    trajectory has an empty prehistory and no scenario attached. A file that
    is not such a CSV raises :class:`ScenarioError` naming it (and the file
    line of the first malformed data row). The data rows are counted first,
    from the bytes, so ``times``, ``x`` and ``v`` are allocated once and filled
    a chunk of rows at a time: the read holds one copy of the trajectory.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode("latin-1")
        if not header:
            raise ScenarioError(f"{path}: empty file, not a trajectory CSV")
        names = [s.strip() for s in header.split(",")]
        last = re.fullmatch(r"v(\d+)_(\d+)", names[-1])    # v{N}_{d}
        n_agents, dim = (int(last[1]), int(last[2])) if last else (0, 0)
        if (n_agents < 1 or dim < 1 or len(names) != 1 + 2 * n_agents * dim
                or trajectory_columns(n_agents, dim) != names):
            raise ScenarioError(f"{path}: not a trajectory CSV (header starts {names[:2]})")
        start = fh.tell()
        n_rows = _count_data_lines(fh)
        if n_rows == 0:
            raise ScenarioError(f"{path}: trajectory CSV has no data rows")
        fh.seek(start)
        times = np.empty(n_rows)
        x = np.empty((n_rows, n_agents, dim))
        v = np.empty_like(x)
        lines = filter(_is_data_line, fh)
        step = _chunk_rows(len(names))
        for r in range(0, n_rows, step):
            rows = min(step, n_rows - r)
            try:
                block = np.loadtxt(itertools.islice(lines, rows), delimiter=",", ndmin=2)
                if block.shape != (rows, len(names)):
                    raise ValueError(f"expected rows of {len(names)} values, "
                                     f"read {block.shape[0]} rows of {block.shape[1]}")
            except ValueError as err:
                raise ScenarioError(f"{path}: malformed trajectory data: "
                                    f"{_first_bad_row(path, len(names)) or err}") from None
            times[r:r + rows] = block[:, 0]
            # x then v for each agent and coordinate, the order of trajectory_columns
            pairs = block[:, 1:].reshape(rows, n_agents, dim, 2)
            x[r:r + rows] = pairs[..., 0]
            v[r:r + rows] = pairs[..., 1]
    empty = np.empty((0, n_agents, dim))
    return Trajectory(times=times, x=x, v=v,
                      hist_times=np.empty(0), hist_x=empty, hist_v=empty, scenario=None)


def _first_bad_row(path, n_values: int) -> str | None:
    """Describe the first data row that is not ``n_values`` numbers, by its
    1-based line in the file (the header is line 1). Empty and '#' comment
    lines are skipped, as np.loadtxt skips them."""
    with open(path, "rb") as fh:
        next(fh)
        for lineno, line in enumerate(fh, start=2):
            if not _is_data_line(line):
                continue
            cells = line.decode("latin-1").split("#", 1)[0].split(",")
            if len(cells) != n_values:
                return f"row at line {lineno} has {len(cells)} values, expected {n_values}"
            for col, cell in enumerate(cells, start=1):
                try:
                    float(cell)
                except ValueError:
                    return f"row at line {lineno}, column {col}: {cell.strip()!r} is not a number"
    return None
