"""Fixed-step Heun integration of the delayed hierarchical flocking dynamics.

Velocities follow a memory term: each follower accelerates toward its
leaders' past velocities, weighted by the delay kernel over the sliding
window [t - tau, t] and by the interaction potential evaluated at the
*delayed* inter-agent distance (both positions inside the potential are
taken at the past time, the follower's velocity at the current time). The
root agent feels only its exogenous forcing, which is identically zero in
the unforced model.

:func:`simulate` steps Heun's predictor-corrector with composite-trapezoid
quadrature of the delay integral on the step grid (the delay span must be an
integer number of steps, so quadrature nodes coincide with stored samples).
The integrand's history-only factors, the potential on every edge and the
leaders' velocities, are evaluated once per stored node and kept in a ring
of m+1 rows, one row per node: psi once per edge, the velocities once per
edge and coordinate. A coupling stage is a few numpy calls (a difference, a
multiply fused into a sequential sum over the window, a scatter per
follower; the window is weighted once per step), and the ring with its work
buffers holds (m+1)(E+1)(2d+3) doubles for E edges in d dimensions, however
long the run.

:func:`simulate_many` steps each run of consecutive scenarios with one
(delay_steps, dim) as one disjoint flock: the same numpy calls advance all of
them, each with its own step size, quadrature weights, potential and
forcing, so a step of many small scenarios costs about as much as a step of
one. Every operation acts per agent or per edge column, so each trajectory
is bit-identical to :func:`simulate`'s. :func:`simulate` is a batch of one
on the same path: every group steps in place in one run array of all its
agents, and each trajectory is a read-only view of its scenario's rows and
columns there, so a lone run returns the arrays it stepped in. The results
of :func:`simulate_many` stream, one group stepped at a time, and a caller
that keeps none of them holds one group's array.

Any non-finite state aborts the run with a :class:`BlowUpError` naming the
time, the first non-finite agent and the last finite time. In a batch the
error names the scenario's own agent and times and takes that scenario's
place in the results; the other scenarios run on. Every run returns through
:meth:`Trajectory.of_run`. The :class:`Trajectory` type, read-only whoever
builds it, and the allocation, memory-size and blow-up helpers are the four
names the oracle (:mod:`hlflock.oracle`) imports; the CSV files
(:mod:`hlflock.csvio`) share the type and the allocation helper.
"""
from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

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

    No buffer that holds psi repeats it per coordinate: the ring and its work
    buffers take (m+1)(E+1)(2d+3) doubles (``psi``, ``weights``, ``wpsi``,
    then ``vl`` and ``rel``) whatever the horizon, besides arrays of O(E * d)
    per edge.
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
    prehistory on [-tau, 0] (whose final sample repeats the t=0 state).

    A trajectory takes its arrays: whoever builds it, the six arrays handed
    in become read-only, so no caller can change a run another reads."""
    times: np.ndarray        # (T,)
    x: np.ndarray            # (T, N, d)
    v: np.ndarray            # (T, N, d)
    hist_times: np.ndarray   # (m+1,)
    hist_x: np.ndarray
    hist_v: np.ndarray
    scenario: Scenario | None = None

    def __post_init__(self):
        for a in (self.times, self.x, self.v, self.hist_times, self.hist_x, self.hist_v):
            a.flags.writeable = False

    @classmethod
    def of_run(cls, scenario: Scenario, x: np.ndarray, v: np.ndarray) -> Trajectory:
        """The trajectory of a run of ``scenario`` from its (m+n+1, N, d)
        states x, v: rows 0..m hold the sampled prehistory, row m+k the state
        after k steps. Its arrays are views of x and v."""
        m, h = scenario.delay_steps, scenario.dt
        return cls(times=np.arange(x.shape[0] - m) * h, x=x[m:], v=v[m:],
                   hist_times=(np.arange(m + 1) - m) * h, hist_x=x[: m + 1],
                   hist_v=v[: m + 1], scenario=scenario)

    @property
    def n_agents(self) -> int:
        return self.x.shape[1]

    @property
    def dim(self) -> int:
        return self.x.shape[2]


# A group of scenarios stepped together holds at most this many agent-rows:
# its agents times the m + n_max + 1 rows of its longest run. Its arrays are
# 16*d bytes per agent-row, so they stay under 4 MB per dimension.
_GROUP_AGENT_ROWS = 1 << 18


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


def _run_arrays(scenario: Scenario, n_agents: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_state_arrays` for the m+n+1 states of a run of ``scenario``,
    of its own flock or of ``n_agents`` agents, named by its step count."""
    rows = scenario.delay_steps + scenario.n_steps + 1
    return _state_arrays((rows, n_agents or scenario.n_agents, scenario.dim),
                         f"t_end / dt = {scenario.t_end!r} / {scenario.dt!r} is "
                         f"{scenario.n_steps} steps")


def _step_groups(scenarios: Iterable[Scenario]) -> Iterator[list[Scenario]]:
    """Split ``scenarios``, in order, into the groups :func:`simulate_many`
    steps as one system: runs of consecutive scenarios with the same
    (delay_steps, dim) whose agents times the rows m + n_max + 1 of the
    longest run are at most ``_GROUP_AGENT_ROWS``. A scenario larger than that
    is a group of its own."""
    group, key, agents, rows = [], None, 0, 0
    for scenario in scenarios:
        m = scenario.delay_steps
        own = m + scenario.n_steps + 1
        if group and ((m, scenario.dim) != key
                      or (agents + scenario.n_agents) * max(rows, own) > _GROUP_AGENT_ROWS):
            yield group
            group, agents, rows = [], 0, 0
        group.append(scenario)
        key = (m, scenario.dim)
        agents += scenario.n_agents
        rows = max(rows, own)
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

        The union steps in place in one pair of (m + n_max + 1, agents, d)
        arrays, n_max the longest horizon: rows 0..m hold each scenario's
        prehistory in its agent columns, row m+k the state after k steps.
        Each trajectory is a read-only view of its rows and columns, so the
        arrays live as long as any of the group's trajectories. ``on_step`` is
        called after every step with read-only views of the union's new state,
        at the first scenario's time."""
        m = self.m
        longest = self.scenarios[self.steps.index(max(self.steps))]
        X, V = _run_arrays(longest, self.bounds[-1][1])
        for s, (lo, hi) in zip(self.scenarios, self.bounds):
            X[: m + 1, lo:hi], V[: m + 1, lo:hi] = s.history.sample((np.arange(m + 1) - m) * s.dt)
        # the ring evaluates psi on the prehistory, which may overflow too
        with np.errstate(over="ignore", invalid="ignore"):
            ring = self.ring(X[: m + 1], V[: m + 1])
            for k in range(self.n_live):
                _heun_step(X[m + k], V[m + k], X[m + k + 1], V[m + k + 1], k, ring, self)
                if self.n_live <= k:
                    break
                if on_step is not None:
                    # a row is final once stepped: no later step writes it again
                    x_new, v_new = X[m + k + 1], V[m + k + 1]
                    x_new.flags.writeable = v_new.flags.writeable = False
                    on_step(FlockState((k + 1) * self.dts[0], x_new, v_new))

        out: list = [None] * len(self.order)
        for i, (s, n, (lo, hi)) in enumerate(zip(self.scenarios, self.steps, self.bounds)):
            out[self.order[i]] = self.results[i] or Trajectory.of_run(
                s, X[: m + n + 1, lo:hi], V[: m + n + 1, lo:hi])
        return out


def simulate(scenario: Scenario,
             on_step: Callable[[FlockState], None] | None = None) -> Trajectory:
    """Integrate the scenario from t=0 to t_end with the Heun stepper.

    ``on_step``, if given, is called after every step with read-only views
    of the new state in the trajectory's arrays, which it may keep. A
    state that stops being finite raises :class:`BlowUpError`; overflow on
    the way there raises no numpy warning, in ``on_step`` either.
    """
    scenario.validate()
    result, = _Group([scenario]).run(on_step)
    if isinstance(result, BlowUpError):
        raise result
    return result


def simulate_many(scenarios: Iterable[Scenario]) -> Iterator[Trajectory | BlowUpError]:
    """Integrate several scenarios, each exactly as :func:`simulate` would,
    and yield their results in the input order: each one's trajectory,
    bit-identical, or in its place its :class:`BlowUpError`.

    Each run of consecutive scenarios with one (delay_steps, dim) is stepped
    together as one disjoint flock, in the groups of :func:`_step_groups`:
    one Heun step advances every scenario of a group with the numpy calls of
    one, which is what makes many small scenarios cheap. A batch that mixes
    keys is not reordered, so it steps in as many groups as it has runs.
    Every operation of a step acts per agent or per edge column, and
    different scenarios share neither, so each scenario's numbers are the
    ones it gets alone. A scenario past its horizon steps on until the
    group's longest one ends, but can no longer fail.

    The results stream: ``scenarios``, any iterable, is read as they are
    requested, each scenario validated before it joins a group, and a group
    steps when its first result is requested. Each trajectory is a read-only
    view of its group's run array, which lives as long as any of its
    trajectories; the stream keeps no result it has yielded, so a caller
    that keeps none holds one group's array at a time.
    """
    for group in _step_groups(scenario.validate() for scenario in scenarios):
        results = _Group(group).run()[::-1]
        while results:
            yield results.pop()     # popped: no reference is left here once yielded
