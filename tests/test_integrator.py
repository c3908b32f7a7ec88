import ast
import inspect
import io
import math
import pickle
import textwrap
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hlflock.integrator
from hlflock.integrator import (BlowUpError, Trajectory, _checked_window_sum,
                                _count_data_lines, _coupling, _decimal17,
                                _explicit_window_sum, _format_rows, _Group, _heun_step,
                                _is_data_line, _window_sum_probes,
                                read_trajectory_csv, simulate, simulate_many,
                                simulate_oracle, step_groups, trajectory_columns,
                                write_trajectory_csv)
from hlflock.model import (DelayKernel, HistoryFn, HistorySpec, LeaderForcing,
                           LeadershipDag, Potential, Scenario, ScenarioError)
from hlflock.scenarios import GeneratorSpec, generate, load_scenario


def two_agent(dim=1, x0=((0.0,), (1.0,)), v0=((1.0,), (0.0,)), beta=0.0,
              tau=0.1, dt=0.01, t_end=0.5, kernel=None, forcing=None):
    return Scenario(dag=LeadershipDag.chain(2), dim=dim,
                    potential=Potential.cucker_smale(beta),
                    kernel=kernel or DelayKernel.uniform(tau),
                    history=HistorySpec.constant(np.asarray(x0), np.asarray(v0)),
                    forcing=forcing or LeaderForcing.zero(),
                    t_end=t_end, dt=dt)


def window_coupling(scen, xw, vw, v_now):
    """The delay coupling simulate applies to every agent over the window of
    stored states xw, vw (m+1, N, d), oldest first; v_now (N, d) is current."""
    ring = _Group([scen]).ring(xw, vw)
    return _coupling(ring, 0, v_now)


# ---------------------------------------------------------------------------
# History sampling
# ---------------------------------------------------------------------------

class TestHistorySampling:
    def test_constant_history_fills_window(self):
        traj = simulate(two_agent())
        assert traj.hist_times.size == 11
        assert np.all(traj.hist_x[:, 1, 0] == 1.0)
        assert np.all(traj.hist_v[:, 0, 0] == 1.0)

    def test_affine_samples(self):
        hist = HistorySpec(
            [HistoryFn("constant", value=np.array([0.0]))] * 2,
            [HistoryFn("affine", value=np.array([3.0]), slope=np.array([2.0]))] * 2)
        scen = Scenario(dag=LeadershipDag.chain(2), dim=1,
                        potential=Potential.cucker_smale(0.0),
                        kernel=DelayKernel.uniform(0.2), history=hist,
                        t_end=0.2, dt=0.1)
        traj = simulate(scen)
        np.testing.assert_allclose(traj.hist_v[:, 0, 0], [3.0 - 0.4, 3.0 - 0.2, 3.0], atol=1e-14)

    def test_table_nodes_on_grid_are_exact(self):
        times = np.array([-0.2, -0.1, 0.0])
        values = np.array([[5.0], [7.0], [9.0]])
        hist = HistorySpec(
            [HistoryFn("constant", value=np.array([0.0]))] * 2,
            [HistoryFn("table", times=times, values=values)] * 2)
        scen = Scenario(dag=LeadershipDag.chain(2), dim=1,
                        potential=Potential.cucker_smale(0.0),
                        kernel=DelayKernel.uniform(0.2), history=hist,
                        t_end=0.2, dt=0.1)
        traj = simulate(scen)
        np.testing.assert_array_equal(traj.hist_v[:, 0, 0], [5.0, 7.0, 9.0])

    def test_undefined_grid_node_is_an_error(self):
        short = HistoryFn("table", times=np.array([-0.05, 0.0]), values=np.array([[1.0], [1.0]]))
        hist = HistorySpec([HistoryFn("constant", value=np.array([0.0]))] * 2, [short] * 2)
        scen = Scenario(dag=LeadershipDag.chain(2), dim=1,
                        potential=Potential.cucker_smale(0.0),
                        kernel=DelayKernel.uniform(0.1), history=hist,
                        t_end=0.1, dt=0.01)
        with pytest.raises(ScenarioError, match="undefined"):
            simulate(scen)


# ---------------------------------------------------------------------------
# Delay coupling
# ---------------------------------------------------------------------------

class TestDelayCoupling:
    def test_root_has_empty_sum(self):
        scen = two_agent()
        traj = simulate(scen)
        acc = window_coupling(scen, traj.hist_x, traj.hist_v, np.array([[1.0], [0.0]]))
        np.testing.assert_array_equal(acc[0], [0.0])

    def test_consensus_velocities_vanish(self):
        scen = two_agent(v0=((0.7,), (0.7,)))
        traj = simulate(scen)
        acc = window_coupling(scen, traj.hist_x, traj.hist_v, np.array([[0.7], [0.7]]))
        np.testing.assert_array_equal(acc[1], [0.0])

    def test_hand_quadrature_constant_integrand(self):
        # psi == 1, unit kernel mass, unit velocity gap -> coupling is exactly 1
        scen = two_agent()
        traj = simulate(scen)
        acc = window_coupling(scen, traj.hist_x, traj.hist_v, np.array([[1.0], [0.0]]))
        assert acc[1, 0] == pytest.approx(1.0, abs=1e-15)

    def test_uses_delayed_positions_not_current(self):
        # Distances inside the potential must come from the past window. Build
        # a moving pair whose current distance is far while the whole stored
        # window sits at distance 0, and compare against a brute-force sum.
        tau, h = 0.2, 0.05
        x = np.zeros((5, 2, 1))
        x[:, 1, 0] = [0.0, 0.0, 0.0, 0.0, 50.0]   # leaps away only at t=0
        v = np.zeros((5, 2, 1))
        v[:, 0, 0] = [1.0, 2.0, 3.0, 4.0, 5.0]
        scen = Scenario(dag=LeadershipDag.chain(2), dim=1,
                        potential=Potential.cucker_smale(0.5),
                        kernel=DelayKernel.uniform(tau),
                        history=HistorySpec.constant([[0.0], [0.0]], [[0.0], [0.0]]),
                        t_end=0.2, dt=h)
        got = window_coupling(scen, x, v, np.zeros((2, 1)))[1, 0]
        psi = lambda s: (1.0 + s * s) ** -0.5
        mu = 1.0 / tau
        weights = np.array([0.5, 1, 1, 1, 0.5]) * h * mu
        expected = sum(w * psi(abs(x[k, 1, 0] - x[k, 0, 0])) * (v[k, 0, 0] - 0.0)
                       for k, w in enumerate(weights))
        assert got == pytest.approx(expected, rel=1e-12)
        # sanity: had the positions been taken at the current time instead,
        # psi(50) would shrink the answer by ~50x
        assert got > 10 * weights.sum() * psi(50.0) * 5.0


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------

class TestSimulate:
    def test_consensus_is_velocity_fixed_point(self):
        traj = simulate(two_agent(v0=((0.3,), (0.3,))))
        np.testing.assert_array_equal(traj.v[1], [[0.3], [0.3]])
        np.testing.assert_allclose(traj.x[1][:, 0], [0.3 * 0.01, 1.0 + 0.3 * 0.01], rtol=1e-15)

    def test_horizon_equal_to_delay_gives_window_many_states(self):
        scen = two_agent(t_end=0.1)
        traj = simulate(scen)
        assert traj.times.size == scen.delay_steps + 1

    def test_single_agent_free_particle(self):
        scen = Scenario(dag=LeadershipDag(1), dim=2,
                        potential=Potential.cucker_smale(0.5),
                        kernel=DelayKernel.uniform(0.1),
                        history=HistorySpec.constant([[1.0, -1.0]], [[0.5, 2.0]]),
                        t_end=2.0, dt=0.01)
        traj = simulate(scen)
        np.testing.assert_array_equal(traj.v, np.broadcast_to([0.5, 2.0], traj.v.shape))
        expected = np.array([1.0, -1.0]) + traj.times[:, None] * np.array([0.5, 2.0])
        np.testing.assert_allclose(traj.x[:, 0, :], expected, atol=1e-12)

    def test_two_flock_gap_strictly_decreasing_after_delay(self):
        scen = two_agent(dim=2, x0=((0, 0), (1, 0)), v0=((0, 0), (0, 1)),
                         beta=0.5, t_end=20.0)
        traj = simulate(scen)
        gap = np.linalg.norm(traj.v[:, 1, :] - traj.v[:, 0, :], axis=1)
        m = scen.delay_steps
        live = gap[m:] > 1e-12
        assert np.all(np.diff(gap[m:])[live[:-1]] < 0)

    def test_consensus_diameter_stays_at_zero(self):
        v_star = [0.4, -0.2]
        scen = two_agent(dim=2, x0=((0, 0), (2, 1)), v0=(v_star, v_star),
                         beta=0.5, t_end=2.0)
        traj = simulate(scen)
        assert np.abs(traj.v - np.array(v_star)).max() == 0.0

    def test_root_constancy_whole_run(self):
        scen = two_agent(t_end=5.0)
        traj = simulate(scen)
        assert np.abs(traj.v[:, 0, :] - traj.v[0, 0, :]).max() == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_blow_up_reports_time(self):
        # the root keeps its velocity; only the follower (agent 2) diverges
        scen = two_agent(beta=0.0, kernel=DelayKernel.uniform(0.1, height=1e5), t_end=2.0)
        for run in (simulate, lambda s: simulate_oracle(s, 1), lambda s: simulate_oracle(s, 3)):
            with pytest.raises(BlowUpError) as err:
                run(scen)
            assert 0.0 < err.value.t <= 2.0
            assert err.value.agent == 2
            assert err.value.last_finite_t == pytest.approx(err.value.t - scen.dt)
            assert "agent 2" in str(err.value)

    @pytest.mark.parametrize("buffer_rows", [2, 64])
    def test_per_step_callback(self, buffer_rows):
        # 150 steps outrun the state buffer: a hook handed views of its rows
        # would find the kept states overwritten by later steps
        scen = two_agent(t_end=1.5)
        seen = []
        with mock.patch.object(hlflock.integrator, "_BUFFER_ROWS", buffer_rows):
            traj = simulate(scen, on_step=seen.append)
        assert len(seen) == scen.n_steps > buffer_rows
        assert seen[0].t == pytest.approx(0.01)
        assert seen[-1].t == pytest.approx(1.5)
        for k, state in enumerate(seen, start=1):
            np.testing.assert_array_equal(state.x, traj.x[k])
            np.testing.assert_array_equal(state.v, traj.v[k])
            assert not (state.x.flags.writeable or state.v.flags.writeable)

    def test_trajectory_arrays_are_frozen(self):
        traj = simulate(two_agent(t_end=0.2))
        with pytest.raises(ValueError):
            traj.v[0, 0, 0] = 7.0


# ---------------------------------------------------------------------------
# Oracle scheme
# ---------------------------------------------------------------------------

class TestOracle:
    def test_euler_oracle_single_step_hand_value(self):
        scen = two_agent(tau=0.1, dt=0.1, t_end=0.1)
        traj = simulate_oracle(scen, 1)
        assert traj.v[1, 1, 0] == pytest.approx(0.1, abs=1e-15)

    def test_consensus_matches_simulate(self):
        v_star = [0.4, -0.2]
        scen = two_agent(dim=2, x0=((0, 0), (2, 1)), v0=(v_star, v_star),
                         beta=0.5, t_end=2.0)
        traj = simulate(scen)
        oracle = simulate_oracle(scen, 7)
        np.testing.assert_allclose(oracle.v, traj.v, atol=1e-12)
        np.testing.assert_allclose(oracle.x, traj.x, atol=1e-12)

    def test_cross_validates_heun(self):
        scen = two_agent(dim=2, x0=((0, 0), (1, 0)), v0=((0, 0), (0, 1)),
                         beta=0.5, t_end=5.0)
        disc = np.abs(simulate(scen).v - simulate_oracle(scen, 50).v).max()
        assert disc <= 5e-3

    def test_halving_step_shrinks_discrepancy(self):
        kwargs = dict(dim=2, x0=((0, 0), (1, 0)), v0=((0, 0), (0, 1)), beta=0.5, t_end=5.0)
        d = {}
        for h in (0.02, 0.01):
            scen = two_agent(dt=h, **kwargs)
            d[h] = np.abs(simulate(scen).v - simulate_oracle(scen, 10).v).max()
        assert d[0.02] / d[0.01] >= 1.5

    def test_general_kernel_path_agrees_with_sliding_path(self):
        # a table kernel numerically identical to the uniform one must give
        # the same oracle trajectory through its two constant pieces' moment
        # sums as the uniform kernel through its one
        kwargs = dict(dim=2, x0=((0, 0), (1, 0)), v0=((0.2, 0), (0, 1)), beta=0.5, t_end=1.0)
        uni = two_agent(kernel=DelayKernel.uniform(0.1), **kwargs)
        tab = two_agent(kernel=DelayKernel.table([0.0, 0.05, 0.1], [10.0, 10.0, 10.0]), **kwargs)
        np.testing.assert_allclose(simulate_oracle(tab, 5).v, simulate_oracle(uni, 5).v,
                                   atol=1e-12)

    def test_refinement_validation(self):
        with pytest.raises(ScenarioError):
            simulate_oracle(two_agent(), 0)

    @pytest.mark.parametrize("refinement", [10**9, 10**15])
    def test_oversized_refinement_fails_fast_naming_it(self, refinement):
        # a window ring of m * refinement + 1 rows, larger than physical memory, is
        # refused before the history is sampled
        scen = load_scenario(Path(__file__).resolve().parents[1]
                             / "perfbench" / "specs" / "sweep_chain.json")
        tracemalloc.start()
        try:
            with pytest.raises(ScenarioError, match=rf"^refinement = {refinement}:"):
                simulate_oracle(scen, refinement)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("t_end", [1e14, 1e20])
    def test_trajectory_too_large_to_allocate_names_t_end(self, t_end):
        scen = two_agent(t_end=t_end)
        with pytest.raises(ScenarioError, match=rf"t_end / dt = .* is {scen.n_steps} steps"):
            simulate_oracle(scen, 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("refinement", [1, 3])
    def test_position_overflow_is_blow_up(self, refinement):
        # Both agents start at the largest float and move together, so the
        # velocities stay at consensus (and finite) while the positions
        # overflow to inf on the first step.
        big = np.finfo(float).max
        scen = two_agent(x0=((big,), (big,)), v0=((1e300,), (1e300,)), t_end=0.5)
        with pytest.raises(BlowUpError) as err:
            simulate_oracle(scen, refinement)
        with pytest.raises(BlowUpError) as heun_err:
            simulate(scen)
        assert err.value.t == pytest.approx(scen.dt)
        for e in (err.value, heun_err.value):
            assert e.agent == 1
            assert e.last_finite_t == 0.0

    def test_forced_root_integrates_forcing(self):
        forcing = LeaderForcing.power_law(1.0, 2.0, dim=1)
        scen = two_agent(t_end=1.0, forcing=forcing)
        oracle = simulate_oracle(scen, 4)
        # v1(t) = 1 + integral of (1+s)^-2 = 1 + t/(1+t)
        expected = 1.0 + oracle.times / (1.0 + oracle.times)
        np.testing.assert_allclose(oracle.v[:, 0, 0], expected, atol=2e-3)

    def test_shares_no_code_with_the_heun_path(self):
        # the cross-check is independent only if no Heun code runs in it: walk
        # simulate_oracle, its nested functions and every integrator function
        # it reaches, and collect every name they use
        heun = {"_NodeRing", "_coupling", "_heun_step", "_Group", "_window_sum",
                "_checked_window_sum", "_trapezoid_mu_weights", "simulate", "simulate_many",
                "step_groups"}
        module = hlflock.integrator

        def own_function(name):
            # defined in the integrator, looked at through functools wrappers
            f = inspect.unwrap(getattr(module, name, None))
            return inspect.isfunction(f) and f.__module__ == module.__name__

        names, seen, todo = set(), set(), {"simulate_oracle"}
        while todo:
            name = todo.pop()
            seen.add(name)
            tree = ast.parse(textwrap.dedent(inspect.getsource(getattr(module, name))))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.asname or node.name)
            todo |= {n for n in names - seen if own_function(n)}
        assert {"_scalar_potential", "_blow_up", "_run_arrays"} <= seen
        assert not names & heun


# ---------------------------------------------------------------------------
# Scheme accuracy against closed-form and brute-force references
# ---------------------------------------------------------------------------

class TestSchemeAccuracy:
    @pytest.mark.parametrize("make_kernel", [DelayKernel.uniform, DelayKernel.triangular])
    def test_analytic_exponential_solution(self, make_kernel):
        # With a flat potential and constant histories the follower solves
        # v2' = mu0 * (v1 - v2) exactly, so the run can be checked against the
        # closed form; the (even-width) trapezoid mass of both kernels is exact.
        kernel = make_kernel(0.1)
        v1 = np.array([0.5, -0.2])
        w0 = np.array([0.0, 1.0])
        scen = two_agent(dim=2, x0=((0, 0), (1, 0)), v0=(v1, v1 + w0),
                         beta=0.0, kernel=kernel, t_end=10.0)
        traj = simulate(scen)
        decay = np.exp(-kernel.mu0 * traj.times)[:, None]
        exact_v2 = v1 + w0 * decay
        exact_x2 = (np.array([1.0, 0.0]) + v1 * traj.times[:, None]
                    + w0 * (1.0 - decay) / kernel.mu0)
        assert np.abs(traj.v[:, 1, :] - exact_v2).max() <= 1e-5
        assert np.abs(traj.x[:, 1, :] - exact_x2).max() <= 1e-5
        oracle = simulate_oracle(scen, 50)
        assert np.abs(oracle.v[:, 1, :] - exact_v2).max() <= 1e-4

    def test_heun_self_convergence_is_second_order(self):
        def run(h):
            scen = Scenario(dag=LeadershipDag(4, {2: {1}, 3: {1}, 4: {2, 3}}), dim=2,
                            potential=Potential.cucker_smale(0.5),
                            kernel=DelayKernel.triangular(0.2),
                            history=HistorySpec.constant(
                                [[0, 0], [1, 0.3], [0.2, 1], [1.5, 1.5]],
                                [[0.4, -0.1], [0.0, 0.5], [0.7, 0.2], [-0.2, 0.6]]),
                            t_end=4.0, dt=h)
            return simulate(scen)
        coarse = run(0.02).v
        mid = run(0.01).v[::2]
        fine = run(0.005).v[::4]
        gap1 = np.abs(coarse - mid).max()
        gap2 = np.abs(mid - fine).max()
        assert np.log2(gap1 / gap2) >= 1.8

    @pytest.mark.parametrize("seed", range(8))
    def test_coupling_matches_brute_force_quadrature(self, seed):
        # independent reference: plain loops over window nodes and leaders
        rng = np.random.default_rng(seed)
        n_agents, dim, m = 5, int(rng.integers(1, 4)), 6
        tau, h = 0.3, 0.05
        leaders = {i: set(int(j) for j in
                          rng.choice(i - 1, size=int(rng.integers(1, i)), replace=False) + 1)
                   for i in range(2, n_agents + 1)}
        dag = LeadershipDag(n_agents, leaders)
        beta = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
        kernel = (DelayKernel.uniform(tau) if seed % 2 == 0
                  else DelayKernel.triangular(tau))
        scen = Scenario(dag=dag, dim=dim, potential=Potential.cucker_smale(beta),
                        kernel=kernel,
                        history=HistorySpec.constant(rng.normal(size=(n_agents, dim)),
                                                     rng.normal(size=(n_agents, dim))),
                        t_end=tau, dt=h)
        times = (np.arange(m + 1) - m) * h
        xw = rng.normal(size=(m + 1, n_agents, dim))
        vw = rng.normal(size=(m + 1, n_agents, dim))
        v_now = rng.normal(size=(n_agents, dim))
        got = window_coupling(scen, xw, vw, v_now)
        for agent in range(2, n_agents + 1):
            expected = np.zeros(dim)
            for j in sorted(dag.leaders_of(agent)):
                for k in range(m + 1):
                    weight = h * (0.5 if k in (0, m) else 1.0) * kernel(0.0 - times[k])
                    dist = np.linalg.norm(xw[k, agent - 1] - xw[k, j - 1])
                    expected += weight * (1 + dist ** 2) ** (-beta) * (vw[k, j - 1] - v_now[agent - 1])
            np.testing.assert_allclose(got[agent - 1], expected, atol=1e-12)


def _reference_simulate(scen):
    """The Heun stepper written the direct way: distances, potential and
    leader velocities recomputed at every window node in every stage, with
    the predictor appended to a copied window. Returns (x, v) on the grid."""
    m, n, h, dim = scen.delay_steps, scen.n_steps, scen.dt, scen.dim
    fol, led = scen.dag.edge_arrays()
    trap = np.full(m + 1, h)
    trap[0] = trap[-1] = 0.5 * h
    weights = trap * scen.kernel((m - np.arange(m + 1)) * h)

    def coupling(xw, vw, v_now):
        acc = np.zeros(v_now.shape)
        if fol.size:
            dp = xw[:, fol, :] - xw[:, led, :]
            psi = scen.potential(np.sqrt(np.einsum("kef,kef->ke", dp, dp)))
            rel = vw[:, led, :] - v_now[fol][None, :, :]
            np.add.at(acc, fol, np.einsum("k,ke,kef->ef", weights, psi, rel))
        return acc

    X = np.empty((m + n + 1, scen.n_agents, dim))
    V = np.empty_like(X)
    X[: m + 1], V[: m + 1] = scen.history.sample((np.arange(m + 1) - m) * h)
    for k in range(n):
        xw, vw = X[k:k + m + 1], V[k:k + m + 1]
        x_cur, v_cur = xw[-1], vw[-1]
        a0 = coupling(xw, vw, v_cur)
        a0[0] = scen.forcing.eval(k * h, dim)
        vp = v_cur + h * a0
        xp = x_cur + h * v_cur
        a1 = coupling(np.concatenate([xw[1:], xp[None]]), np.concatenate([vw[1:], vp[None]]), vp)
        a1[0] = scen.forcing.eval((k + 1) * h, dim)
        V[k + m + 1] = v_cur + 0.5 * h * (a0 + a1)
        X[k + m + 1] = x_cur + 0.5 * h * (v_cur + vp)
    return X[m:], V[m:]


def _random_scenario(seed, dim, m, kernel_shape, potential, forced, n_agents=None):
    rng = np.random.default_rng(seed)
    if n_agents is None:
        n_agents = int(rng.integers(3, 7))
    h = 0.05
    tau = m * h
    leaders = {i: set(int(j) for j in
                      rng.choice(i - 1, size=int(rng.integers(1, i)), replace=False) + 1)
               for i in range(2, n_agents + 1)}
    kernel = {"uniform": lambda: DelayKernel.uniform(tau),
              "triangular": lambda: DelayKernel.triangular(tau),
              "table": lambda: DelayKernel.table([0.0, 0.4 * tau, tau], [3.0, 1.0, 0.5])
              }[kernel_shape]()
    x0, xs, v0, vs = rng.normal(size=(4, n_agents, dim))
    history = HistorySpec([HistoryFn("affine", value=a, slope=b) for a, b in zip(x0, xs)],
                          [HistoryFn("affine", value=a, slope=b) for a, b in zip(v0, vs)])
    return Scenario(dag=LeadershipDag(n_agents, leaders), dim=dim, potential=potential,
                    kernel=kernel, history=history,
                    forcing=(LeaderForcing.power_law(0.7, 1.5, dim=dim) if forced
                             else LeaderForcing.zero()),
                    t_end=2.0, dt=h)


_TABLE_POTENTIAL = Potential.table([0.0, 0.5, 2.0], [1.0, 0.6, 0.2])
_CUSTOM_POTENTIAL = Potential.custom(lambda s: np.exp(-s))


class TestNodeCacheMatchesWindowRecompute:
    @pytest.mark.parametrize("seed,dim,m,kernel_shape,potential,forced,n_agents", [
        (0, 1, 1, "uniform", Potential.cucker_smale(0.0), False, None),
        (1, 2, 3, "triangular", Potential.cucker_smale(0.25), True, None),
        (2, 3, 10, "table", Potential.cucker_smale(0.5), False, None),
        (3, 1, 3, "uniform", Potential.cucker_smale(1.0), True, None),
        (4, 2, 10, "triangular", _TABLE_POTENTIAL, False, None),
        (5, 3, 1, "table", _CUSTOM_POTENTIAL, True, None),
        (6, 2, 1, "triangular", Potential.cucker_smale(0.5), False, None),
        (7, 1, 10, "table", Potential.cucker_smale(1.0), True, None),
        # one edge in one dimension: a window sum over a single column
        (8, 1, 10, "uniform", Potential.cucker_smale(0.5), False, 2),
        (9, 1, 40, "triangular", Potential.cucker_smale(0.25), True, 2),
        # a lone agent: no edges at all
        (10, 2, 3, "uniform", Potential.cucker_smale(0.5), False, 1),
        (11, 1, 10, "table", Potential.cucker_smale(1.0), True, 1),
    ])
    @pytest.mark.parametrize("buffer_rows", [2, 64])
    def test_simulate_is_bitwise_equal(self, seed, dim, m, kernel_shape, potential, forced,
                                       n_agents, buffer_rows):
        scen = _random_scenario(seed, dim, m, kernel_shape, potential, forced, n_agents)
        # a lone scenario steps in the state buffer too, flushed every
        # buffer_rows - 1 steps
        with mock.patch.object(hlflock.integrator, "_BUFFER_ROWS", buffer_rows):
            traj = simulate(scen)
        x_ref, v_ref = _reference_simulate(scen)
        np.testing.assert_array_equal(traj.x, x_ref)
        np.testing.assert_array_equal(traj.v, v_ref)

    def test_window_holds_one_psi_column_per_edge_and_one_row_per_node(self):
        # 64 agents, each led by all before it: E = 2016 edges in d = 2, m = 100.
        # Filling the window and one Heun step allocate the (m+1)(E+1)(2d+3)
        # doubles of the ring and its work buffers, plus O(E * d) arrays of
        # indices, distances and one stage's sums; a psi repeated per
        # coordinate, or a ring that holds each node twice, takes twice that.
        n_agents, dim, m, dt = 64, 2, 100, 0.01
        rng = np.random.default_rng(17)
        scen = Scenario(dag=LeadershipDag(n_agents, {i: set(range(1, i))
                                                     for i in range(2, n_agents + 1)}),
                        dim=dim, potential=Potential.cucker_smale(0.5),
                        kernel=DelayKernel.triangular(m * dt),
                        history=HistorySpec.constant(rng.normal(size=(n_agents, dim)),
                                                     rng.normal(size=(n_agents, dim))),
                        t_end=m * dt, dt=dt)
        n_edges = scen.dag.edge_arrays()[0].size
        assert n_edges == 2016
        group = _Group([scen])
        x = np.empty((m + 2, n_agents, dim))
        v = np.empty_like(x)
        x[: m + 1], v[: m + 1] = scen.history.sample((np.arange(m + 1) - m) * dt)
        tracemalloc.start()
        try:
            ring = group.ring(x[: m + 1], v[: m + 1])
            _heun_step(x[m], v[m], x[m + 1], v[m + 1], 0, ring, group)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        window = (m + 1) * (n_edges + 1) * (2 * dim + 3) * 8
        per_edge = 24 * (n_edges + 1) * dim * 8
        assert peak <= window + per_edge
        np.testing.assert_array_equal(x[m + 1], simulate(scen).x[1])

    @pytest.mark.parametrize("m", [1, 4])
    def test_potential_evaluated_once_per_edge_and_node(self, m):
        seen = []

        def psi(s):
            seen.append(np.size(s))
            return 1.0 / (1.0 + s * s)

        scen = _random_scenario(11, 2, m, "uniform", Potential.custom(psi), False)
        seen.clear()
        simulate(scen)
        n_edges = scen.dag.edge_arrays()[0].size
        assert sum(seen) == n_edges * (m + 1 + 2 * scen.n_steps)


# ---------------------------------------------------------------------------
# The window sum: rounded products added row by row
# ---------------------------------------------------------------------------

def _rows_added_in_order(rel, wpsi):
    """The window sum written out: every product rounded, then the rows added
    one at a time to a running sum that starts at +0.0."""
    products = rel * wpsi
    acc = np.zeros(products.shape[1:])
    for row in products:
        acc += row
    return acc


def _fused_multiply_add(rel, wpsi):
    """The rows added in order with one rounding per row, as an FMA does."""
    acc = [0.0] * rel.shape[1]
    for rel_row, wpsi_row in zip(rel.tolist(), wpsi.tolist()):
        acc = [float(Fraction(a) + Fraction(r) * Fraction(w))
               for a, r, w in zip(acc, rel_row, wpsi_row)]
    return np.array(acc)


def _rows_added_in_reverse(rel, wpsi):
    return _rows_added_in_order(rel[::-1], wpsi[::-1])


def _pairwise_per_column(rel, wpsi):
    return np.ascontiguousarray((rel * wpsi).T).sum(axis=1)


def _per_entry(window_sum):
    """``window_sum`` of (L, W) windows, lifted to windows that broadcast
    against each other: every entry of the sum is one column."""
    def lifted(rel, wpsi):
        rel, wpsi = np.broadcast_arrays(rel, wpsi)
        rows = len(rel)
        return window_sum(rel.reshape(rows, -1), wpsi.reshape(rows, -1)).reshape(rel.shape[1:])
    return lifted


def assert_same_bits(got, want):
    """Bitwise equal, except that a NaN matches any NaN: which operand's
    payload NaN + NaN keeps is not fixed, and a NaN ends its scenario."""
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


_SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e-300,
                   1e300, -1.7976931348623157e308, math.inf, -math.inf, math.nan,
                   1e16, -1e16, 1.0]


def _drawn_windows(draw, rel_shape, wpsi_shape):
    """A (rel, wpsi) pair of windows of these shapes: normals scaled by
    1e-20..1e20, a drawn share of them replaced by drawn floats, the special
    values included."""
    pool = np.array(draw(st.lists(st.one_of(st.sampled_from(_SPECIAL_VALUES), st.floats()),
                                  min_size=1, max_size=8)))
    share = draw(st.sampled_from([0.0, 0.01, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def window(shape):
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 21, size=shape)
        picked = rng.random(shape) < share
        values[picked] = rng.choice(pool, size=int(picked.sum()))
        return values

    return window(rel_shape), window(wpsi_shape)


@st.composite
def windows(draw):
    """A (rel, wpsi) pair of windows, 1..60 rows by 2..300 columns."""
    shape = (draw(st.integers(1, 60)), draw(st.integers(2, 300)))
    return _drawn_windows(draw, shape, shape)


@st.composite
def stepper_windows(draw):
    """The stepper's window shapes: rel (L, d, W) for d = 1..3, and wpsi
    (L, 1, W), broadcast over the coordinates; 1..60 rows, 2..300 columns."""
    rows, dim, width = draw(st.integers(1, 60)), draw(st.integers(1, 3)), draw(st.integers(2, 300))
    return _drawn_windows(draw, (rows, dim, width), (rows, 1, width))


class TestWindowSum:
    # _reference_simulate sums with einsum too, so it cannot tell whether this
    # numpy's einsum rounds each product before adding it, row by row
    @settings(max_examples=150, deadline=None)
    @given(window=windows())
    def test_is_the_rounded_products_added_row_by_row(self, window):
        rel, wpsi = window
        with np.errstate(all="ignore"):
            want = _rows_added_in_order(rel, wpsi)
            for window_sum in (hlflock.integrator._window_sum, _explicit_window_sum):
                assert_same_bits(window_sum(rel.copy(), wpsi), want)

    @settings(max_examples=150, deadline=None)
    @given(window=stepper_windows())
    def test_a_broadcast_window_is_the_rounded_products_added_row_by_row(self, window):
        rel, wpsi = window
        with np.errstate(all="ignore"):
            want = _rows_added_in_order(rel, wpsi)
            for window_sum in (hlflock.integrator._window_sum, _explicit_window_sum):
                assert_same_bits(window_sum(rel.copy(), wpsi), want)

    @pytest.mark.parametrize("other", [_fused_multiply_add, _rows_added_in_reverse,
                                       _pairwise_per_column])
    def test_a_sum_that_rounds_otherwise_falls_back_to_the_explicit_form(self, other):
        assert _checked_window_sum(other) is _explicit_window_sum

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("other", [_fused_multiply_add, _rows_added_in_reverse,
                                       _pairwise_per_column])
    def test_the_stepper_shaped_probes_alone_tell_each_order_apart(self, dim, other):
        probes = [(rel, wpsi) for rel, wpsi in _window_sum_probes()
                  if rel.ndim == 3 and rel.shape[1] == dim]
        assert probes and all(wpsi.shape == (len(rel), 1, rel.shape[2]) for rel, wpsi in probes)
        assert any(_per_entry(other)(rel.copy(), wpsi).tobytes()
                   != _explicit_window_sum(rel.copy(), wpsi).tobytes() for rel, wpsi in probes)

    def test_the_rows_added_in_order_pass_the_probes(self):
        assert _checked_window_sum(_rows_added_in_order) is _rows_added_in_order

    @pytest.mark.parametrize("seed,dim,m,kernel_shape", [(2, 3, 10, "table"),
                                                         (9, 1, 40, "triangular")])
    def test_the_explicit_form_steps_the_same_run(self, seed, dim, m, kernel_shape):
        # the fallback is what a numpy with a contracting einsum steps with
        scen = _random_scenario(seed, dim, m, kernel_shape, Potential.cucker_smale(0.5), True)
        with mock.patch.object(hlflock.integrator, "_window_sum", _explicit_window_sum):
            explicit = simulate(scen)
        assert_same_trajectory(explicit, simulate(scen))


# ---------------------------------------------------------------------------
# Batches: simulate_many
# ---------------------------------------------------------------------------

_TRAJECTORY_FIELDS = ("times", "x", "v", "hist_times", "hist_x", "hist_v")


def assert_same_trajectory(got, want):
    assert got.scenario is want.scenario
    for name in _TRAJECTORY_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert not a.flags.writeable


_BATCH_POTENTIALS = (Potential.cucker_smale(0.0), Potential.cucker_smale(0.25),
                     Potential.cucker_smale(0.5), Potential.cucker_smale(1.0),
                     _TABLE_POTENTIAL, _CUSTOM_POTENTIAL)


def _batch_scenario(seed, dim, m, dt, n_steps, kernel_shape, potential, forced, n_agents):
    """``_random_scenario`` on a grid of step dt with n_steps >= m steps, any
    built-in or table kernel, and a table forcing for even seeds."""
    scen = _random_scenario(seed, dim, m, "uniform", potential, forced, n_agents)
    tau = m * dt
    kernel = {"uniform": lambda: DelayKernel.uniform(tau),
              "triangular": lambda: DelayKernel.triangular(tau),
              "truncated_bump": lambda: DelayKernel.truncated_bump(tau),
              "table": lambda: DelayKernel.table([0.0, 0.4 * tau, tau], [3.0, 1.0, 0.5])
              }[kernel_shape]()
    if forced and seed % 2 == 0:
        scen = replace(scen, forcing=LeaderForcing.table([0.0, 0.3, 1.0], [0.5, -0.2, 0.1],
                                                         dim=dim))
    return replace(scen, kernel=kernel, t_end=n_steps * dt, dt=dt, rng_seed=seed)


@st.composite
def scenario_batches(draw):
    keys = draw(st.lists(st.tuples(st.sampled_from([1, 2, 5]), st.integers(1, 3)),
                         min_size=1, max_size=2))
    batch = []
    for k in range(draw(st.integers(1, 7))):
        m, dim = draw(st.sampled_from(keys))
        batch.append(_batch_scenario(
            seed=draw(st.integers(0, 2**16)), dim=dim, m=m,
            dt=draw(st.sampled_from([0.05, 0.04, 0.1, 0.0625])),
            n_steps=m + draw(st.integers(0, 40)),
            kernel_shape=draw(st.sampled_from(["uniform", "triangular", "truncated_bump",
                                               "table"])),
            potential=draw(st.sampled_from(_BATCH_POTENTIALS)),
            forced=draw(st.booleans()), n_agents=draw(st.integers(1, 5))))
    return batch


class TestSimulateMany:
    @settings(max_examples=40, deadline=None)
    @given(batch=scenario_batches(), buffer_rows=st.sampled_from([2, 3, 7, 64]),
           group_rows=st.sampled_from([1, 200, 1 << 18]))
    def test_each_trajectory_is_bitwise_equal_to_simulate(self, batch, buffer_rows,
                                                          group_rows):
        # small buffers and group caps make the batch flush often and split
        with mock.patch.object(hlflock.integrator, "_BUFFER_ROWS", buffer_rows), \
                mock.patch.object(hlflock.integrator, "_GROUP_AGENT_ROWS", group_rows):
            got = simulate_many(batch)
        assert len(got) == len(batch)
        for traj, scen in zip(got, batch):
            assert_same_trajectory(traj, simulate(scen))

    def test_a_blow_up_is_returned_in_its_place(self):
        hot = two_agent(beta=0.0, kernel=DelayKernel.uniform(0.1, height=1e5), t_end=2.0)
        with pytest.raises(BlowUpError) as alone:
            simulate(hot)
        # the same scenario with a horizon that ends before it blows up
        brief = replace(hot, t_end=round(alone.value.last_finite_t - 0.05, 2))
        calm = _batch_scenario(3, 1, 10, 0.01, 300, "triangular",
                               Potential.cucker_smale(0.5), True, 4)
        # one group (m = 10, d = 1): three step sizes, three potentials
        other = _batch_scenario(4, 1, 10, 0.02, 150, "uniform", Potential.cucker_smale(0.25),
                                False, 3)
        batch = [calm, hot, brief, other]
        assert len(list(step_groups(batch))) == 1
        with np.errstate(all="raise"):
            got = simulate_many(batch)
        err = got[1]
        assert isinstance(err, BlowUpError)
        assert str(err) == str(alone.value)
        assert (err.t, err.agent, err.last_finite_t) == (
            alone.value.t, alone.value.agent, alone.value.last_finite_t)
        for k in (0, 2, 3):
            assert_same_trajectory(got[k], simulate(batch[k]))

    def test_a_blown_up_scenario_adds_exactly_zero_afterwards(self):
        # Positions 1e200 apart are finite, but their distance overflows to inf,
        # where psi(s) = 1 - s/(1 + s) is NaN: the hot scenario blows up on its
        # first step with NaN in every row of its weighted window. Cleared, its
        # columns must add +0.0 from then on; weights cached from before the
        # clear would add NaN * 0 and blow it up again at every step.
        hot = replace(two_agent(x0=((0.0,), (1e200,)), t_end=1.0),
                      potential=Potential.custom(lambda s: 1.0 - s / (1.0 + s)))
        calm = _batch_scenario(3, 1, 10, 0.01, 300, "triangular",
                               Potential.cucker_smale(0.5), True, 4)
        other = _batch_scenario(4, 1, 10, 0.02, 150, "uniform", Potential.cucker_smale(0.25),
                                False, 3)
        batch = [calm, hot, other]
        assert len(list(step_groups(batch))) == 1
        # the window's first rows are filled before stepping starts, where
        # inf / inf still warns
        with np.errstate(invalid="ignore"):
            with pytest.raises(BlowUpError) as alone:
                simulate(hot)
            with mock.patch.object(_Group, "blow_up", autospec=True,
                                   side_effect=_Group.blow_up) as blow_up:
                got = simulate_many(batch)
        assert blow_up.call_count == 1
        assert isinstance(got[1], BlowUpError) and str(got[1]) == str(alone.value)
        for k in (0, 2):
            assert_same_trajectory(got[k], simulate(batch[k]))

    def test_a_potential_invalid_on_the_prehistory_warns_nothing(self):
        # psi(s) = 1 - s/(1 + s) is inf/inf at the prehistory's overflowing
        # distance: the run blows up on its first step, and neither filling the
        # window nor stepping emits a numpy warning
        hot = replace(two_agent(x0=((0.0,), (1e200,)), t_end=1.0),
                      potential=Potential.custom(lambda s: 1.0 - s / (1.0 + s)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(BlowUpError):
                simulate(hot)
        assert [str(w.message) for w in caught] == []

    def test_blow_up_pickles(self):
        err = pickle.loads(pickle.dumps(BlowUpError(0.5, 3, 0.25)))
        assert (err.t, err.agent, err.last_finite_t) == (0.5, 3, 0.25)
        assert str(err) == str(BlowUpError(0.5, 3, 0.25))

    def test_groups_are_consecutive_runs_of_one_window_and_dimension(self):
        a = two_agent(dim=1, tau=0.1, dt=0.01)      # m = 10, 2 agents x 61 rows
        b = two_agent(dim=2, x0=((0.0, 0.0), (1.0, 0.0)), v0=((1.0, 0.0), (0.0, 0.0)))
        c = two_agent(dim=1, tau=0.2, dt=0.02)      # m = 10 again, 2 agents x 36 rows
        assert list(step_groups([a, c, b, a])) == [[a, c], [b], [a]]
        with mock.patch.object(hlflock.integrator, "_GROUP_AGENT_ROWS", 2 * 61 + 2 * 36):
            assert list(step_groups([a, c, a])) == [[a, c], [a]]
        with mock.patch.object(hlflock.integrator, "_GROUP_AGENT_ROWS", 1):
            assert list(step_groups([a, c])) == [[a], [c]]


def _reference_oracle(scen, refinement):
    """The Euler oracle written the direct way: at every substep the
    left-rectangle sum runs over the whole window, with distances, potential
    and leader velocities recomputed at each node. Returns (x, v) on the
    coarse grid."""
    m2, n2 = scen.delay_steps * refinement, scen.n_steps * refinement
    h2, dim = scen.dt / refinement, scen.dim
    fol, led = scen.dag.edge_arrays()
    weights = h2 * scen.kernel((m2 - np.arange(m2)) * h2)
    X = np.empty((m2 + n2 + 1, scen.n_agents, dim))
    V = np.empty_like(X)
    X[: m2 + 1], V[: m2 + 1] = scen.history.sample((np.arange(m2 + 1) - m2) * h2)
    for k in range(n2):
        xw, vw = X[k:k + m2], V[k:k + m2]
        x_cur, v_cur = X[k + m2], V[k + m2]
        acc = np.zeros(v_cur.shape)
        if fol.size:
            dp = xw[:, fol, :] - xw[:, led, :]
            psi = scen.potential(np.sqrt(np.einsum("kef,kef->ke", dp, dp)))
            rel = vw[:, led, :] - v_cur[fol][None, :, :]
            np.add.at(acc, fol, np.einsum("k,ke,kef->ef", weights, psi, rel))
        acc[0] = scen.forcing.eval(k * h2, dim)      # the root feels only its forcing
        V[k + m2 + 1] = v_cur + h2 * acc
        X[k + m2 + 1] = x_cur + h2 * v_cur
    return X[m2::refinement], V[m2::refinement]


def assert_oracle_matches_reference(scen, refinement, atol):
    traj = simulate_oracle(scen, refinement)
    x_ref, v_ref = _reference_oracle(scen, refinement)
    np.testing.assert_allclose(traj.x, x_ref, rtol=0, atol=atol)
    np.testing.assert_allclose(traj.v, v_ref, rtol=0, atol=atol)


@st.composite
def oracle_cases(draw):
    """Small random flocks over every kernel family; table breakpoints are
    drawn anywhere in (0, tau), so they fall off the node grid."""
    shape = draw(st.sampled_from(["uniform", "triangular", "table", "truncated_bump"]))
    m, refinement = draw(st.integers(1, 7)), draw(st.integers(1, 4))
    dim, seed = draw(st.integers(1, 3)), draw(st.integers(0, 2**32 - 1))
    forced, beta = draw(st.booleans()), draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    rng = np.random.default_rng(seed)
    n_agents, h = int(rng.integers(2, 6)), 0.05
    tau = m * h
    if shape == "table":
        inner = np.unique(rng.uniform(0.01, 0.99, size=int(rng.integers(0, 5))))
        times = np.concatenate([[0.0], inner * tau, [tau]])
        kernel = DelayKernel.table(times, rng.uniform(0.0, 5.0, size=times.size) + 0.1)
    else:
        kernel = DelayKernel.from_dict({"shape": shape, "tau": tau}, "test")
    leaders = {i: set(int(j) for j in
                      rng.choice(i - 1, size=int(rng.integers(1, i)), replace=False) + 1)
               for i in range(2, n_agents + 1)}
    x0, xs, v0, vs = rng.normal(size=(4, n_agents, dim))
    history = HistorySpec([HistoryFn("affine", value=a, slope=b) for a, b in zip(x0, xs)],
                          [HistoryFn("affine", value=a, slope=b) for a, b in zip(v0, vs)])
    scen = Scenario(dag=LeadershipDag(n_agents, leaders), dim=dim,
                    potential=Potential.cucker_smale(beta), kernel=kernel, history=history,
                    forcing=(LeaderForcing.power_law(0.7, 1.5, dim=dim) if forced
                             else LeaderForcing.zero()),
                    t_end=1.0, dt=h)
    return scen, refinement


GOLDEN = Path(__file__).resolve().parent / "golden"


class TestOracleMomentSums:
    # odd m2 = m * refinement: the triangle's peak at tau/2 falls between nodes
    @example((_random_scenario(21, 2, 5, "triangular", Potential.cucker_smale(0.5), True), 1))
    @example((_random_scenario(22, 1, 3, "triangular", Potential.cucker_smale(0.25), False), 3))
    @settings(max_examples=200, deadline=None)
    @given(oracle_cases())
    def test_matches_full_window_loop(self, case):
        assert_oracle_matches_reference(*case, atol=1e-12)

    @pytest.mark.parametrize("kernel", [DelayKernel.triangular(0.1),
                                        DelayKernel.table([0.0, 0.013, 0.05, 0.0711, 0.1],
                                                          [0.5, 9.0, 14.0, 3.0, 1.0])])
    def test_long_run_has_no_drift(self, kernel):
        # 14000 substeps: the running moments must not drift from the sums
        scen = Scenario(dag=LeadershipDag(4, {2: {1}, 3: {1, 2}, 4: {3}}), dim=2,
                        potential=Potential.cucker_smale(0.5), kernel=kernel,
                        history=HistorySpec.constant([[0, 0], [1, 0], [0.3, 2], [3, 1]],
                                                     [[0, 0], [0, 1], [1, 0.2], [-1, 0.5]]),
                        t_end=20.0, dt=0.01)
        assert_oracle_matches_reference(scen, 7, atol=1e-13)

    @pytest.mark.parametrize("name,refinement", [("oracle_uniform_forced", 3),
                                                 ("oracle_uniform_beta", 2)])
    def test_uniform_kernel_matches_stored_trajectory_bitwise(self, name, refinement):
        # stored from the sliding-sum oracle that preceded the moment sums
        scen = load_scenario(GOLDEN / f"{name}.json")
        stored = read_trajectory_csv(GOLDEN / f"{name}_r{refinement}.csv")
        traj = simulate_oracle(scen, refinement)
        np.testing.assert_array_equal(traj.x, stored.x)
        np.testing.assert_array_equal(traj.v, stored.v)


# ---------------------------------------------------------------------------
# Invariance on randomized scenarios (small smoke suite; the acceptance
# module runs the full-sized ones)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(10))
def test_randomized_hull_and_ball_invariance(seed):
    spec = GeneratorSpec(topology="random_hl", n_agents=5, dim=2, rng_seed=seed,
                         kernel_shapes=("uniform", "triangular"))
    scen = generate(spec)
    traj = simulate(scen)
    speeds = np.sqrt(np.einsum("knd,knd->kn", traj.v, traj.v))
    d0 = np.sqrt(np.einsum("knd,knd->kn", traj.hist_v, traj.hist_v)).max()
    assert speeds.max() <= d0 + 1e-8
    for c in range(scen.dim):
        assert traj.v[..., c].max() <= traj.hist_v[..., c].max() + 1e-8
        assert traj.v[..., c].min() >= traj.hist_v[..., c].min() - 1e-8


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

class TestTrajectoryCsv:
    def test_header_layout(self):
        assert trajectory_columns(2, 2) == ["t", "x1_1", "v1_1", "x1_2", "v1_2",
                                            "x2_1", "v2_1", "x2_2", "v2_2"]

    def test_round_trip_bit_exact(self, tmp_path):
        scen = two_agent(dim=2, x0=((0, 0), (1, 0.5)), v0=((0.1, 0.2), (0.9, -0.3)),
                         beta=0.5, t_end=0.5)
        traj = simulate(scen)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        back = read_trajectory_csv(path)
        np.testing.assert_array_equal(back.times, traj.times)
        np.testing.assert_array_equal(back.x, traj.x)
        np.testing.assert_array_equal(back.v, traj.v)

    @pytest.mark.parametrize("golden", sorted(GOLDEN.glob("oracle_uniform_*_r*.csv")),
                             ids=lambda p: p.stem)
    def test_writer_reproduces_golden_bytes(self, tmp_path, golden):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(read_trajectory_csv(golden), path)
        assert path.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_files_equal_savetxt(self, tmp_path, dim):
        # 25 agents: 1 + 50 * dim columns, so the file spans several chunks
        traj = simulate(generate(GeneratorSpec(topology="random_hl", n_agents=25, dim=dim,
                                               rng_seed=1000 + dim, sim_span=8.0)))
        n_rows = traj.times.size
        cols = np.column_stack([traj.times,
                                np.stack([traj.x, traj.v], axis=-1).reshape(n_rows, -1)])
        ref = tmp_path / "ref.csv"
        np.savetxt(ref, cols, fmt="%.17g", delimiter=",",
                   header=",".join(trajectory_columns(25, dim)), comments="")
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        assert path.read_bytes() == ref.read_bytes()

    def test_write_memory_is_bounded(self, tmp_path):
        # formatted a chunk at a time: no copy of the whole table
        rng = np.random.default_rng(5)
        x, v = rng.normal(size=(1001, 200, 2)), rng.normal(size=(1001, 200, 2))
        empty = np.empty((0, 200, 2))
        traj = Trajectory(times=np.arange(1001) * 0.01, x=x, v=v,
                          hist_times=np.empty(0), hist_x=empty, hist_v=empty)
        tracemalloc.start()
        try:
            write_trajectory_csv(traj, tmp_path / "big.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * (x.nbytes + v.nbytes)

    @staticmethod
    def wide_trajectory():
        """200 agents in the plane over 1001 steps: 6.4 MB of states."""
        rng = np.random.default_rng(5)
        empty = np.empty((0, 200, 2))
        return Trajectory(times=np.arange(1001) * 0.01, x=rng.normal(size=(1001, 200, 2)),
                          v=rng.normal(size=(1001, 200, 2)),
                          hist_times=np.empty(0), hist_x=empty, hist_v=empty)

    def test_write_peak_is_under_a_quarter_of_the_states(self, tmp_path):
        traj = self.wide_trajectory()
        tracemalloc.start()
        try:
            write_trajectory_csv(traj, tmp_path / "big.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * (traj.x.nbytes + traj.v.nbytes)

    def test_read_holds_one_copy_of_the_trajectory(self, tmp_path):
        path = tmp_path / "big.csv"
        write_trajectory_csv(self.wide_trajectory(), path)
        tracemalloc.start()
        try:
            back = read_trajectory_csv(path)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        arrays = (back.times, back.x, back.v)
        assert all(a.flags.owndata for a in arrays)
        assert retained <= 1.05 * sum(a.nbytes for a in arrays)

    @pytest.mark.parametrize("rows,message", [
        (["0.3,0,0,1,1", "0.4,0,0,1", "0.5,0,0,1,1"], "row at line 6 has 4 values, expected 5"),
        (["0.3,0,0,1", "0.4,0,0,1", "0.5,0,0,1"], "row at line 5 has 4 values, expected 5"),
        (["0.3,0,0,1,1,1", "0.4,0,0,1,1,1"], "row at line 5 has 6 values, expected 5"),
        (["0.3,0,0,1,1", "0.4,0,a,1,1", "0.5,0,0,1,1"],
         "row at line 6, column 3: 'a' is not a number"),
    ], ids=["ragged-row", "block-all-short", "last-block-all-long", "non-numeric-cell"])
    def test_bad_row_after_the_first_block_names_its_line(self, tmp_path, rows, message):
        # three rows per block: the first block (lines 2-4) is good
        path = tmp_path / "bad.csv"
        good = ["0,0,0,1,1", "0.1,0,0,1,1", "0.2,0,0,1,1"]
        path.write_text("\n".join(["t,x1_1,v1_1,x2_1,v2_1", *good, *rows]) + "\n")
        with mock.patch.object(hlflock.integrator, "_CSV_CHUNK_VALUES", 15), \
                pytest.raises(ScenarioError) as exc:
            read_trajectory_csv(path)
        assert str(exc.value) == f"{path}: malformed trajectory data: {message}"

    def test_a_line_of_spaces_is_a_malformed_row(self, tmp_path):
        # np.loadtxt skips only empty and '#' lines
        path = tmp_path / "bad.csv"
        path.write_text("t,x1_1,v1_1,x2_1,v2_1\n0,0,0,1,1\n\n   \n0.1,0,0,1,1\n")
        with pytest.raises(ValueError):
            np.loadtxt(path, delimiter=",", skiprows=1)
        with pytest.raises(ScenarioError, match="row at line 4 has 1 values, expected 5"):
            read_trajectory_csv(path)

    @pytest.mark.parametrize("chunk_values", [10, 4096])
    @pytest.mark.parametrize("body", [
        "0,0,0,1,1\n0.1,0.5,0,1,1\n0.2,1,2,3,4",
        "\n# comment\n0,0,0,1,1\n\r\n#  # indented\n0.1,0.5,0,1,1 # inline\n"
        "\t0.2,1,2,3,4\r\n 0.3,1,2,3,5\n\n",
    ], ids=["no-trailing-newline", "blank-and-comment-lines"])
    def test_reads_what_loadtxt_reads(self, tmp_path, chunk_values, body):
        path = tmp_path / "traj.csv"
        path.write_text("t,x1_1,v1_1,x2_1,v2_1\n" + body)
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        with mock.patch.object(hlflock.integrator, "_CSV_CHUNK_VALUES", chunk_values):
            back = read_trajectory_csv(path)
        np.testing.assert_array_equal(back.times, table[:, 0])
        np.testing.assert_array_equal(back.x[..., 0], table[:, 1::2])
        np.testing.assert_array_equal(back.v[..., 0], table[:, 2::2])

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=40).map(lambda b: bytes(b"\n\r# 1,"[c % 6] for c in b)),
           st.sampled_from([1, 2, 3, 7, hlflock.integrator._SCAN_BYTES]))
    @example(b"\r", 1)
    @example(b"1\n\r", 2)
    @example(b"\n\n\r\n#\r\r\n", 3)
    def test_row_count_is_the_lines_loadtxt_reads(self, body, scan_bytes):
        with mock.patch.object(hlflock.integrator, "_SCAN_BYTES", scan_bytes):
            count = _count_data_lines(io.BytesIO(body))
        assert count == sum(map(_is_data_line, io.BytesIO(body)))

    def test_rows_split_across_scan_blocks_read_as_one_pass(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("t,x1_1,v1_1,x2_1,v2_1\n\n# c\n0,0,0,1,1\r\n\r\n0.1,0.5,0,1,1\n\r")
        whole = read_trajectory_csv(path)
        for scan_bytes in (1, 2, 5):
            with mock.patch.object(hlflock.integrator, "_SCAN_BYTES", scan_bytes):
                back = read_trajectory_csv(path)
            assert back.times.tolist() == whole.times.tolist() == [0.0, 0.1]
            np.testing.assert_array_equal(back.v, whole.v)

    def test_reader_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ScenarioError):
            read_trajectory_csv(path)


# ---------------------------------------------------------------------------
# The CSV number formatter against Python's own "%.17g"
# ---------------------------------------------------------------------------

def formatted(values) -> list[str]:
    block = np.ascontiguousarray(values, dtype=np.float64).reshape(-1, 1)
    return _format_rows(block).decode().split("\n")[:-1]


def assert_percent_g(values):
    values = np.asarray(values, dtype=np.float64)
    assert formatted(values) == ["%.17g" % v for v in values]


class TestPercentG:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=40))
    def test_hypothesis_floats(self, values):
        assert_percent_g(values)

    def test_raw_bit_patterns(self):
        bits = np.random.default_rng(17).integers(0, 2**64, size=50000, dtype=np.uint64)
        assert_percent_g(bits.view(np.float64))

    def test_powers_of_ten_and_neighbours(self):
        p = np.array([float(f"1e{k}") for k in range(-320, 309)])
        values = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
        assert_percent_g(np.concatenate([values, -values]))

    @pytest.mark.parametrize("e", [-5, -4, 16, 17])
    def test_layout_boundaries(self, e):
        # %g switches between fixed and exponent notation at e = -4 and e = 17
        base = np.array([10.0 ** e, 1.2345 * 10.0 ** e, 9.87654321 * 10.0 ** e])
        values, below, above = [base], base, base
        for _ in range(4):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            values += [below, above]
        values = np.concatenate(values)
        assert_percent_g(np.concatenate([values, -values]))

    def test_exact_half_way_cases(self):
        # 1 + odd * 2**-17 has 18 significant digits ending in 5: round half to even.
        # odd * 2**-24 and 2**-25 times 10**23 or 10**24, which are not doubles,
        # are ties that the inexact product cannot settle.
        odd = np.arange(1, 2**13, 2)
        values = np.concatenate([1.0 + odd * 2.0**-17, 2.0**40 + odd * 2.0**-13,
                                 (1.0 + odd * 2.0**-17) * 2.0**-30,
                                 np.arange(3, 16, 2) * 2.0**-24, [2.0**-25, 3 * 2.0**-25]])
        assert_percent_g(np.concatenate([values, -values]))

    def test_zeros_stay_on_the_fast_path(self):
        values = np.array([0.0, -0.0, 0.0])
        assert formatted(values) == ["0", "-0", "0"]
        assert _decimal17(values)[2].all()
