"""The Euler oracle: explicit Euler on a refined grid with left-rectangle
quadrature of the delay integral, in plain-float loops, a deliberately
different discretization that cross-validates the Heun stepper of
:mod:`hlflock.integrator`.

The cross-check is independent only if no Heun code runs in it, so this
module takes from the stepping module only the :class:`Trajectory` it
returns and the allocation, freezing and blow-up helpers.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

from .integrator import Trajectory, _blow_up, _freeze, _physical_memory, _run_arrays
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
