"""The Euler oracle: explicit Euler on a refined grid with left-rectangle
quadrature of the delay integral, in plain-float loops, a deliberately
different discretization that cross-validates the Heun stepper of
:mod:`hlflock.integrator`.

The cross-check is independent only if no Heun code runs in it, so this
module takes four names from the stepping module: the :class:`Trajectory`
it returns (through :meth:`Trajectory.of_run`, read-only like every
trajectory) and the allocation, memory-size and blow-up helpers. Its memory
is the refined prehistory sample and a ring of node rows, psi*v_L and psi
per edge, for the window's nodes and the current state: no past position or
velocity is kept.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

from .integrator import Trajectory, _blow_up, _physical_memory, _run_arrays
from .model import Potential, Scenario, ScenarioError, _integer


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
    no array machinery with the Heun path. The ring holds one row per node of
    the window and of the current state: the potential-weighted leader
    velocities psi*v_L on every edge, then psi. Every window sum reads these
    rows only, so besides them the oracle keeps just the current state.

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
    # the refined prehistory sample, two arrays of m2+1 states, and the ring's
    # m2+1 node rows as Python floats, each an 8-byte list slot and a 24-byte
    # float; checked before anything is sampled
    need = (m2 + 1) * (16 * nd + 32 * nq)
    if need > _physical_memory():
        raise ScenarioError(f"refinement = {refinement!r}: the oracle's window ring of {m2 + 1} "
                            f"rows needs {need} bytes, more than can be allocated")

    ring = m2 + 1
    xs0, vs0 = scenario.history.sample((np.arange(ring) - m2) * h2)

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

    # the node rows of the window and the current state, node r in slot r % ring
    q_ring = [node_row(xs0[r].ravel().tolist(), vs0[r].ravel().tolist()) for r in range(ring)]

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

    x_out, v_out = _run_arrays(scenario)
    x_out[: m + 1], v_out[: m + 1] = xs0[::k_ref], vs0[::k_ref]
    # one flat row per state, which takes the state's list of floats whole
    x_rows, v_rows = x_out.reshape(m + n + 1, nd), v_out.reshape(m + n + 1, nd)
    x, v = xs0[m2].ravel().tolist(), vs0[m2].ravel().tolist()

    for sub in range(n2):
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
                        acc[fi + c] += wu - wp * v[fi + c]
        elif n_edges:
            # node j's share a*row - (a*psi)*v_F, the moment sums' form with a one-node run
            for e in range(n_edges):
                fi, pe = fol[e], pbase + e
                for j in range(m2):
                    a = rect_w[j]
                    row = q_ring[(sub + j) % ring]
                    wp = a * row[pe]
                    for c in range(dim):
                        acc[fi + c] += a * row[e * dim + c] - wp * v[fi + c]
        if forced:
            fvec = forcing.eval(sub * h2, dim)
            for c in range(dim):
                acc[c] = float(fvec[c])

        x, v = [xc + h2 * vc for xc, vc in zip(x, v)], [vc + h2 * ac for vc, ac in zip(v, acc)]

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
        # node sub+m2+1 takes the slot of node sub, which has left the window
        q_ring[sub % ring] = node_row(x, v)

        if (sub + 1) % k_ref == 0:
            i = (sub + 1) // k_ref
            x_rows[m + i], v_rows[m + i] = x, v
            if not (all(map(math.isfinite, v)) and all(map(math.isfinite, x))):
                raise _blow_up((sub + 1) * h2, (i - 1) * h, x_out[m + i], v_out[m + i])

    return Trajectory.of_run(scenario, x_out, v_out)
