import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid

import hlflock.diagnostics
from hlflock.diagnostics import (ConsensusSeries, InsufficientDataError,
                                 PreconditionError, _pairwise_diameter,
                                 _potential_primitive,
                                 ball_invariance_probe, calibrate_step_slack,
                                 check_two_flock_bound, consensus_series,
                                 fit_decay_rate, free_will_consensus_probe,
                                 hat_leader_series, history_speed_bound,
                                 lyapunov_probe, max_speed, positivity_probe,
                                 run_probes)
from hlflock.integrator import Trajectory, simulate
from hlflock.model import (DelayKernel, HistorySpec, LeaderForcing,
                           LeadershipDag, Potential, Scenario)
from hlflock.scenarios import GeneratorSpec, generate


def make_scenario(n_agents=2, dim=1, x0=None, v0=None, beta=0.5, tau=0.1,
                  dt=0.01, t_end=5.0, forcing=None, kernel_height=None):
    if x0 is None:
        x0 = np.arange(n_agents, dtype=float)[:, None] * np.ones(dim)
    if v0 is None:
        v0 = np.zeros((n_agents, dim))
        v0[-1, -1] = 1.0
    return Scenario(dag=LeadershipDag.chain(n_agents), dim=dim,
                    potential=Potential.cucker_smale(beta),
                    kernel=DelayKernel.uniform(tau, height=kernel_height),
                    history=HistorySpec.constant(np.asarray(x0, dtype=float),
                                                 np.asarray(v0, dtype=float)),
                    forcing=forcing or LeaderForcing.zero(),
                    t_end=t_end, dt=dt)


def synthetic_traj(times, x, v, scenario=None, hist_x=None, hist_v=None):
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if hist_x is None:
        hist_x = x[:1]
        hist_v = v[:1]
    return Trajectory(times=np.asarray(times, dtype=float), x=x, v=v,
                      hist_times=np.zeros(hist_x.shape[0]),
                      hist_x=np.asarray(hist_x, dtype=float),
                      hist_v=np.asarray(hist_v, dtype=float), scenario=scenario)


# ---------------------------------------------------------------------------
# Consensus series
# ---------------------------------------------------------------------------

class TestConsensusSeries:
    def test_position_diameter_is_computed_when_first_read(self, monkeypatch):
        calls = []
        monkeypatch.setattr(hlflock.diagnostics, "_pairwise_diameter",
                            lambda arr: calls.append(arr) or _pairwise_diameter(arr))
        traj = simulate(make_scenario(n_agents=3, dim=2, t_end=1.0))
        ser = consensus_series(traj)
        assert len(calls) == 1
        np.testing.assert_array_equal(ser.position_diameter, _pairwise_diameter(traj.x))
        np.testing.assert_array_equal(ser.position_diameter, _pairwise_diameter(traj.x))
        assert len(calls) == 2

    def test_position_diameter_without_positions_is_a_precondition_error(self):
        t = np.linspace(0.0, 1.0, 5)
        ser = ConsensusSeries(times=t, velocity_diameter=np.ones_like(t))
        np.testing.assert_array_equal(ser.velocity_diameter, np.ones_like(t))
        with pytest.raises(PreconditionError, match="no positions"):
            ser.position_diameter

    def test_consensus_data_has_zero_diameter(self):
        v = np.full((5, 3, 2), 1.5)
        ser = consensus_series(synthetic_traj(np.arange(5.0), np.zeros((5, 3, 2)), v))
        assert np.all(ser.velocity_diameter == 0.0)

    def test_two_point_diameter(self):
        v = np.array([[[0.0], [3.0]]])
        ser = consensus_series(synthetic_traj([0.0], np.zeros((1, 2, 1)), v))
        assert ser.velocity_diameter[0] == 3.0

    def test_max_pairwise_gap(self):
        v = np.array([[[0.0], [1.0], [5.0]]])
        ser = consensus_series(synthetic_traj([0.0], np.zeros((1, 3, 1)), v))
        assert ser.velocity_diameter[0] == 5.0

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            consensus_series(synthetic_traj(np.empty(0), np.empty((0, 2, 1)), np.empty((0, 2, 1))))

    def test_working_memory_is_linear_in_the_trajectory(self):
        # The all-pairs form allocates a (T, N, N, d) array: over 600 MB here.
        rng = np.random.default_rng(0)
        traj = synthetic_traj(np.arange(1001.0), rng.normal(size=(1001, 200, 2)),
                              rng.normal(size=(1001, 200, 2)))
        tracemalloc.start()
        try:
            consensus_series(traj)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * traj.v.nbytes


def broadcast_diameter(arr):
    """The all-pairs form: a (T, N, N, d) difference array, reduced at once."""
    diff = arr[:, :, None, :] - arr[:, None, :, :]
    return np.sqrt(np.einsum("tijd,tijd->tij", diff, diff)).max(axis=(1, 2))


@st.composite
def diameter_inputs(draw):
    """Uniform draws over many magnitudes, and flock-like ones that the
    diameter prunes: a tight cluster with a few outliers, agents on a sphere
    round the centroid (every centroid distance ties), two distant clusters,
    and a cluster scaled near 1e+-150 or into the subnormals. Then some agents
    are made to coincide, and one value may be NaN or +-inf."""
    t, d = draw(st.integers(1, 30)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["uniform", "outliers", "sphere", "two_clusters", "extreme"]))
    n = draw(st.integers(1, 40) if kind == "uniform" else st.integers(10, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # agents drift slowly from step to step, as a flock's states do
    drift = 1e-3 * rng.normal(size=(t, n, d)).cumsum(axis=0)
    if kind == "uniform":
        lo, hi = sorted((draw(st.integers(-8, 8)), draw(st.integers(-8, 8))))
        arr = rng.uniform(-1.0, 1.0, (t, n, d)) * 10.0 ** rng.integers(lo, hi + 1, (t, n, d))
    elif kind == "sphere":
        directions = rng.normal(size=(n, d))
        arr = 3.0 + directions / np.linalg.norm(directions, axis=1, keepdims=True)
    elif kind == "two_clusters":
        arr = 1e-2 * rng.normal(size=(n, d)) + drift
        arr[: n // 2] += 10.0
    else:
        arr = 1e-3 * rng.normal(size=(n, d)) + drift
        arr[:draw(st.integers(1, 3))] += rng.normal(size=d)
        if kind == "extreme":
            arr *= 10.0 ** draw(st.sampled_from([-320, -310, -160, -150, -147, 147, 150, 153]))
    arr = np.array(np.broadcast_to(arr, (t, n, d)))
    for _ in range(draw(st.integers(0, 3))):          # coincident agents
        arr[:, rng.integers(n)] = arr[:, rng.integers(n)]
    if draw(st.integers(0, 3)) == 0:
        arr[rng.integers(t), rng.integers(n), rng.integers(d)] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    return arr


def block_edge(t, n, d):
    """A (t, n, d) input with a NaN in its last step, for the time-block edges."""
    arr = np.random.default_rng(t * 100 + n * 10 + d).normal(size=(t, n, d))
    arr[-1, n // 2, 0] = np.nan
    return arr


class TestPairwiseDiameterMatchesAllPairs:
    # With 24 values per block, three agents in the plane make blocks of four
    # steps; five agents in three dimensions make blocks of one step.
    @settings(max_examples=300, deadline=None)
    @given(diameter_inputs(), st.sampled_from([1, 24, 100, hlflock.diagnostics._BLOCK_VALUES]))
    @example(block_edge(5, 3, 2), 24)
    @example(block_edge(4, 3, 2), 24)
    @example(block_edge(3, 3, 2), 24)
    @example(block_edge(1, 3, 2), 24)
    @example(block_edge(4, 5, 3), 12)
    def test_matches_broadcast_reference(self, arr, block_values):
        with mock.patch.object(hlflock.diagnostics, "_BLOCK_VALUES", block_values), \
                np.errstate(invalid="ignore"):
            got, ref = _pairwise_diameter(arr), broadcast_diameter(arr)
        nan = np.isnan(ref)
        assert np.array_equal(np.isnan(got), nan)
        if arr.shape[2] <= 2:
            assert got[~nan].tobytes() == ref[~nan].tobytes()
        else:
            np.testing.assert_allclose(got[~nan], ref[~nan], rtol=1e-15, atol=0.0)
        if arr.shape[1] == 1:
            assert np.all(got[~nan] == 0.0)

    @settings(max_examples=300, deadline=None)
    @given(diameter_inputs(), st.sampled_from([1, 24, 100, hlflock.diagnostics._BLOCK_VALUES]))
    def test_pruned_sweep_equals_the_full_sweep(self, arr, block_values):
        with mock.patch.object(hlflock.diagnostics, "_BLOCK_VALUES", block_values), \
                np.errstate(invalid="ignore", over="ignore"):
            got = _pairwise_diameter(arr)
            with mock.patch.object(hlflock.diagnostics, "_kept_agents", lambda planes, best: None):
                full = _pairwise_diameter(arr)
        assert got.tobytes() == full.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_a_cluster_with_outliers_is_pruned_to_a_few_agents(self, d):
        rng = np.random.default_rng(d)
        arr = 1e-3 * rng.normal(size=(40, d)) + 1e-3 * rng.normal(size=(50, 40, d)).cumsum(axis=0)
        arr[:, :3] += rng.normal(size=(3, d))
        planes = np.ascontiguousarray(arr.transpose(2, 1, 0))
        lower = np.zeros(50)
        kept = hlflock.diagnostics._kept_agents(planes, lower)
        assert kept is not None and kept.size <= 3
        # the bound it keeps is a true pair distance at every step
        diff = arr[:, :, None, :] - arr[:, None, :, :]
        sq = np.einsum("tijd,tijd->tij", diff, diff).reshape(50, -1)
        assert np.all((lower > 0) & (lower <= sq.max(axis=1) * (1 + 1e-15)))
        with mock.patch.object(hlflock.diagnostics, "_kept_agents", lambda planes, best: None):
            full = _pairwise_diameter(arr)
        assert _pairwise_diameter(arr).tobytes() == full.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e151, 1e-151])
    def test_blocks_that_cannot_be_pruned_safely_are_swept_whole(self, bad):
        arr = np.random.default_rng(0).normal(size=(3, 20, 2))
        arr[:, 0] += 5.0
        planes = np.ascontiguousarray(arr.transpose(2, 1, 0))
        kept_agents = hlflock.diagnostics._kept_agents
        assert kept_agents(planes, np.zeros(3)) is not None
        if abs(bad) < 1.0:          # a flock within 1e-150: squares could underflow
            planes *= bad
        else:
            planes[0, 3, 1] = bad
        assert kept_agents(planes, np.zeros(3)) is None
        assert kept_agents(planes[:, :9], np.zeros(3)) is None     # too few agents

    @pytest.mark.parametrize("shape", ["outliers", "polygon"])
    def test_pruned_working_memory_is_within_the_whole_sweeps(self, shape):
        # 2001 steps of a 200-agent flock in the plane: three outliers, which
        # prune to a few agents, or a regular polygon, whose agents all tie
        rng = np.random.default_rng(1)
        arr = 1e-3 * rng.normal(size=(2001, 200, 2)).cumsum(axis=0) / 40
        if shape == "outliers":
            arr[:, :3] += [[1.0, 0.0], [-1.0, 0.5], [0.2, -1.0]]
        else:
            angles = 2 * np.pi * np.arange(200) / 200
            arr = np.broadcast_to(np.column_stack([np.cos(angles), np.sin(angles)]),
                                  arr.shape).copy()
        kept = []
        real = hlflock.diagnostics._kept_agents
        peaks = {}
        for name, prune in (("full", lambda planes, best: None),
                            ("pruned", lambda *args: kept.append(real(*args)) or kept[-1])):
            with mock.patch.object(hlflock.diagnostics, "_kept_agents", prune):
                tracemalloc.start()
                try:
                    _pairwise_diameter(arr)
                    peaks[name] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        if shape == "outliers":
            assert kept and all(k is not None and k.size < 20 for k in kept)
        else:
            assert kept and all(k is None for k in kept)
        # one block's planes and two (N, steps) buffers, whatever T
        block_bytes = 8 * hlflock.diagnostics._BLOCK_VALUES
        assert peaks["pruned"] <= 1.01 * peaks["full"] < 3 * block_bytes

    @pytest.mark.parametrize("seed", range(8))
    def test_a_pair_just_above_the_pruning_bound_is_kept(self, seed):
        # A cluster at the origin, an exact antipodal pair on the y axis, and
        # the agent farthest from the centroid at (1 + eta, 0): its own pairs
        # fall short of 2 by about eta, so the y-axis pair, whose bound
        # r_i + r_rest exceeds LB by only about eta, must be kept.
        rng = np.random.default_rng(seed)
        eta = 10.0 ** rng.uniform(-9, -6)
        cluster = 1e-3 * rng.normal(size=(4, 2))
        pts = np.vstack([[[0.0, 1.0], [0.0, -1.0], [1.0 + eta, 0.0], [-1.0 + 2 * eta, 0.0]],
                         cluster, -cluster])
        turn = rng.uniform(0.0, 2 * np.pi)
        arr = (pts @ np.array([[np.cos(turn), np.sin(turn)],
                               [-np.sin(turn), np.cos(turn)]]))[None]
        planes = np.ascontiguousarray(arr.transpose(2, 1, 0))
        kept = hlflock.diagnostics._kept_agents(planes, np.zeros(1))
        assert kept is not None and {0, 1} <= set(kept.tolist())
        with mock.patch.object(hlflock.diagnostics, "_kept_agents", lambda planes, best: None):
            full = _pairwise_diameter(arr)
        assert _pairwise_diameter(arr).tobytes() == full.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_non_finite_state_gives_nan_at_that_step(self, bad, n):
        arr = np.zeros((3, n, 2))
        arr[1, n - 1, 0] = bad
        with np.errstate(invalid="ignore"):
            got, ref = _pairwise_diameter(arr), broadcast_diameter(arr)
        assert np.array_equal(np.isnan(got), [False, True, False])
        assert np.array_equal(np.isnan(ref), [False, True, False])


# ---------------------------------------------------------------------------
# Decay fitting
# ---------------------------------------------------------------------------

class TestFitDecayRate:
    def planted(self, rate, scale=1.0, t_end=3.0, n=301):
        t = np.linspace(0.0, t_end, n)
        dv = scale * np.exp(-rate * t)
        return ConsensusSeries(times=t, velocity_diameter=dv, position_diameter=np.ones_like(t))

    def test_recovers_planted_rate(self):
        fit = fit_decay_rate(self.planted(2.0), window=(0.0, 3.0))
        assert abs(fit.rate - 2.0) <= 1e-6
        assert fit.residual_rms <= 1e-9

    def test_recovers_scale_as_intercept(self):
        fit = fit_decay_rate(self.planted(0.5, scale=3.0), window=(0.0, 3.0))
        assert abs(fit.rate - 0.5) <= 1e-6
        assert abs(fit.intercept - math.log(3.0)) <= 1e-6

    def test_default_window_is_latter_half(self):
        fit = fit_decay_rate(self.planted(1.0, t_end=4.0))
        assert fit.window == (2.0, 4.0)
        assert abs(fit.rate - 1.0) <= 1e-6

    def test_floor_censoring_counted(self):
        ser = self.planted(10.0, t_end=4.0, n=401)   # drops below 1e-12 near t=2.8
        fit = fit_decay_rate(ser, window=(0.0, 4.0))
        assert fit.n_censored > 0
        assert abs(fit.rate - 10.0) <= 1e-6

    def test_insufficient_data(self):
        ser = self.planted(1.0, n=31)
        with pytest.raises(InsufficientDataError):
            fit_decay_rate(ser, window=(2.9, 3.0))

    def test_all_censored(self):
        t = np.linspace(0, 1, 50)
        ser = ConsensusSeries(times=t, velocity_diameter=np.full(50, 1e-15),
                              position_diameter=np.ones(50))
        with pytest.raises(InsufficientDataError):
            fit_decay_rate(ser, window=(0.0, 1.0))

    def test_simulated_two_flock_has_positive_rate(self):
        traj = simulate(make_scenario(dim=2, x0=[[0, 0], [1, 0]], v0=[[0, 0], [0, 1]], t_end=20.0))
        fit = fit_decay_rate(consensus_series(traj), window=(10.0, 20.0))
        assert fit.rate > 0


# ---------------------------------------------------------------------------
# Two-flock envelope
# ---------------------------------------------------------------------------

class TestTwoFlockBound:
    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5])
    @pytest.mark.parametrize("kernel_factory", [DelayKernel.uniform, DelayKernel.triangular])
    def test_holds_across_potentials_and_kernels(self, beta, kernel_factory):
        scen = Scenario(dag=LeadershipDag.chain(2), dim=2,
                        potential=Potential.cucker_smale(beta),
                        kernel=kernel_factory(0.1),
                        history=HistorySpec.constant([[0.0, 0.0], [1.0, 0.5]],
                                                     [[0.1, 0.0], [0.4, 0.8]]),
                        t_end=20.0, dt=0.01)
        report = check_two_flock_bound(simulate(scen))
        assert report.passed, report.to_text()

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("kernel_factory", [DelayKernel.uniform, DelayKernel.triangular])
    def test_fitted_rate_is_at_least_envelope_rate(self, beta, kernel_factory):
        # the paper's decay rate: the gap shrinks at least as fast as
        # mu0 * psi(y_M), up to the discretization slack
        scen = Scenario(dag=LeadershipDag.chain(2), dim=2,
                        potential=Potential.cucker_smale(beta),
                        kernel=kernel_factory(0.1),
                        history=HistorySpec.constant([[0.0, 0.0], [1.0, 0.5]],
                                                     [[0.1, 0.0], [0.4, 0.8]]),
                        t_end=20.0, dt=0.01)
        traj = simulate(scen)
        slack = calibrate_step_slack(traj)
        report = check_two_flock_bound(traj, slack=slack)
        fit = fit_decay_rate(consensus_series(traj), window=(scen.tau, scen.t_end))
        assert fit.n_censored == 0
        assert fit.rate >= report.details["rate"] - slack

    def test_holds_on_simulated_run(self):
        traj = simulate(make_scenario(dim=2, x0=[[0, 0], [1, 0]], v0=[[0, 0], [0, 1]], t_end=20.0))
        report = check_two_flock_bound(traj)
        assert report.passed
        assert report.details["max_excess"] <= 0

    def test_consensus_data_trivially_holds(self):
        v_star = [[0.5], [0.5]]
        traj = simulate(make_scenario(v0=v_star, t_end=2.0))
        report = check_two_flock_bound(traj, slack=0.0)
        assert report.passed
        assert report.details["gap_at_tau"] == 0.0

    def test_inflated_gap_flagged(self):
        scen = make_scenario(dim=2, x0=[[0, 0], [1, 0]], v0=[[0, 0], [0, 1]], t_end=10.0)
        traj = simulate(scen)
        v = traj.v.copy()
        v[-100:, 1, :] += 0.5    # pump the follower's late velocity back up
        fake = synthetic_traj(traj.times, traj.x.copy(), v, scenario=scen,
                              hist_x=traj.hist_x.copy(), hist_v=traj.hist_v.copy())
        report = check_two_flock_bound(fake, slack=1e-3)
        assert not report.passed
        assert report.details["max_excess"] > 0

    def test_requires_two_agents(self):
        traj = simulate(make_scenario(n_agents=3, t_end=1.0))
        with pytest.raises(PreconditionError):
            check_two_flock_bound(traj, slack=0.0)

    def test_requires_constant_velocity_root(self):
        scen = make_scenario(t_end=1.0, forcing=LeaderForcing.power_law(1.0, 3.0, dim=1))
        with pytest.raises(PreconditionError):
            check_two_flock_bound(simulate(scen), slack=0.0)


# ---------------------------------------------------------------------------
# Positivity
# ---------------------------------------------------------------------------

class TestPositivityProbe:
    def test_all_zero_histories(self):
        report = positivity_probe(simulate(make_scenario(v0=[[0.0], [0.0]], t_end=1.0)))
        assert report.passed
        assert report.details["min_value"] == 0.0

    def test_follower_pulled_up_toward_leader(self):
        scen = make_scenario(v0=[[1.0], [0.0]], t_end=10.0)
        traj = simulate(scen)
        report = positivity_probe(traj)
        assert report.passed
        assert traj.v[-1, 1, 0] == pytest.approx(1.0, abs=1e-3)
        assert traj.v[:, 1, 0].min() >= -1e-8

    def test_negative_history_is_an_error(self):
        with pytest.raises(PreconditionError, match="negative"):
            positivity_probe(simulate(make_scenario(v0=[[0.5], [-0.1]], t_end=1.0)))

    def test_needs_one_dimension(self):
        with pytest.raises(PreconditionError):
            positivity_probe(simulate(make_scenario(dim=2, t_end=1.0)))

    def test_needs_zero_forcing(self):
        scen = make_scenario(v0=[[0.5], [0.5]], t_end=1.0,
                             forcing=LeaderForcing.power_law(1.0, 3.0, dim=1))
        with pytest.raises(PreconditionError):
            positivity_probe(simulate(scen))

    def test_needs_the_scenario(self):
        traj = simulate(make_scenario(v0=[[0.5], [0.5]], t_end=1.0))
        with pytest.raises(PreconditionError):
            positivity_probe(replace(traj, scenario=None))

    @pytest.mark.parametrize("seed", range(15))
    def test_randomized_nonnegative_histories(self, seed):
        spec = GeneratorSpec(topology="random_hl", n_agents=6, dim=1,
                             velocity_range=(0.0, 1.0), rng_seed=seed)
        report = positivity_probe(simulate(generate(spec)))
        assert report.passed, report.to_text()


# ---------------------------------------------------------------------------
# Ball and hull invariance
# ---------------------------------------------------------------------------

class TestBallInvarianceProbe:
    def test_consensus_passes(self):
        traj = simulate(make_scenario(v0=[[0.5], [0.5]], t_end=1.0))
        assert ball_invariance_probe(traj).passed

    def test_randomized_runs_pass(self):
        for seed in range(15):
            spec = GeneratorSpec(topology="binary_tree", n_agents=6, dim=3, rng_seed=seed)
            traj = simulate(generate(spec))
            report = ball_invariance_probe(traj)
            assert report.passed, report.to_text()

    def test_injected_spike_flagged(self):
        scen = make_scenario(dim=2, x0=[[0, 0], [1, 0]], v0=[[0, 0], [0, 1]], t_end=2.0)
        traj = simulate(scen)
        v = traj.v.copy()
        v[50, 1, 0] = 5.0
        fake = synthetic_traj(traj.times, traj.x.copy(), v, scenario=scen,
                              hist_x=traj.hist_x.copy(), hist_v=traj.hist_v.copy())
        report = ball_invariance_probe(fake)
        assert not report.passed
        assert report.details["speed_excess"] > 1.0

    def test_forced_run_rejected(self):
        scen = make_scenario(t_end=1.0, forcing=LeaderForcing.power_law(1.0, 3.0, dim=1))
        traj = simulate(scen)
        with pytest.raises(PreconditionError):
            ball_invariance_probe(traj)

    def test_history_speed_bound_requires_history(self):
        traj = synthetic_traj([0.0], np.zeros((1, 2, 1)), np.zeros((1, 2, 1)))
        bad = Trajectory(times=traj.times, x=traj.x, v=traj.v,
                         hist_times=np.empty(0), hist_x=np.empty((0, 2, 1)),
                         hist_v=np.empty((0, 2, 1)), scenario=None)
        with pytest.raises(PreconditionError):
            history_speed_bound(bad)

    # 6 values: blocks of two steps of three agents in 1-D, of one step in 2-D and 3-D
    @pytest.mark.parametrize("block_values", [1, 6, hlflock.diagnostics._BLOCK_VALUES])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_max_speed_is_the_largest_speed_bit_for_bit(self, block_values, dim):
        rng = np.random.default_rng(dim)
        v = rng.normal(size=(9, 3, dim)) * 10.0 ** rng.integers(-8, 9, (9, 3, dim))
        speeds = np.sqrt(np.einsum("knd,knd->kn", v, v))
        order = np.argsort(speeds.max(axis=1))      # each prefix's largest speed is in its last step
        v, speeds = v[order], speeds[order]
        with mock.patch.object(hlflock.diagnostics, "_BLOCK_VALUES", block_values):
            for k in range(1, v.shape[0] + 1):
                assert max_speed(v[:k]) == speeds[:k].max()
            v[-1, 1, 0] = np.nan
            assert np.isnan(max_speed(v))


# ---------------------------------------------------------------------------
# Leader averages
# ---------------------------------------------------------------------------

class TestHatLeaderSeries:
    def test_single_leader_average_is_the_leader(self):
        scen = make_scenario(t_end=1.0)
        traj = simulate(scen)
        series = hat_leader_series(traj, scen.dag, 2)
        np.testing.assert_array_equal(series.hat_x, traj.x[:, 0, :])
        np.testing.assert_array_equal(series.hat_v, traj.v[:, 0, :])

    def test_symmetric_pair_averages_to_zero(self):
        x = np.zeros((1, 3, 1))
        x[0, 0, 0], x[0, 1, 0] = -1.0, 1.0
        dag = LeadershipDag(3, {2: {1}, 3: {1, 2}})
        traj = synthetic_traj([0.0], x, np.zeros((1, 3, 1)))
        series = hat_leader_series(traj, dag, 3)
        assert series.hat_x[0, 0] == 0.0

    def test_hand_average_three_agents(self):
        dag = LeadershipDag(3, {2: {1}, 3: {1, 2}})
        x = np.array([[[1.0, 0.0], [3.0, 2.0], [10.0, 10.0]]])
        v = np.array([[[0.5, 0.0], [1.5, 1.0], [0.0, 0.0]]])
        traj = synthetic_traj([0.0], x, v)
        series = hat_leader_series(traj, dag, 3)
        np.testing.assert_allclose(series.hat_x[0], [2.0, 1.0])
        np.testing.assert_allclose(series.y[0], [8.0, 9.0])
        np.testing.assert_allclose(series.w[0], [-1.0, -0.5])

    def test_root_rejected(self):
        scen = make_scenario(t_end=1.0)
        with pytest.raises(PreconditionError):
            hat_leader_series(simulate(scen), scen.dag, 1)

    def test_shift_linearity(self):
        dag = LeadershipDag(3, {2: {1}, 3: {1, 2}})
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 3, 2))
        v = rng.normal(size=(4, 3, 2))
        shift = np.array([5.0, -2.0])
        base = hat_leader_series(synthetic_traj(np.arange(4.0), x, v), dag, 3)
        shifted = hat_leader_series(synthetic_traj(np.arange(4.0), x + shift, v), dag, 3)
        np.testing.assert_allclose(shifted.hat_x, base.hat_x + shift, atol=1e-12)
        np.testing.assert_allclose(shifted.y, base.y, atol=1e-12)


# ---------------------------------------------------------------------------
# Dissipation functionals
# ---------------------------------------------------------------------------

class TestLyapunovProbe:
    def test_frozen_pair_with_zero_gain_is_flat(self):
        scen = make_scenario(tau=0.2, dt=0.1, t_end=1.0)
        times = np.arange(11) * 0.1
        x = np.zeros((11, 2, 1))
        x[:, 1, 0] = 2.0
        v = np.zeros((11, 2, 1))
        v[:, 1, 0] = 1.0
        traj = synthetic_traj(times, x, v, scenario=scen)
        report = lyapunov_probe(traj, gain=0.0, offset=0.0, slack=0.0)
        assert report.details["max_forward_difference"] == 0.0
        assert report.passed

    def test_holds_on_simulated_two_flock(self):
        scen = make_scenario(dim=2, x0=[[0, 0], [1, 0]], v0=[[0, 0], [0, 1]], t_end=20.0)
        traj = simulate(scen)
        d0 = history_speed_bound(traj)
        report = lyapunov_probe(traj, gain=scen.kernel.mu0, offset=2 * scen.tau * d0)
        assert report.passed

    def test_growing_gap_flagged(self):
        scen = make_scenario(tau=0.2, dt=0.1, t_end=1.0)
        times = np.arange(11) * 0.1
        x = np.zeros((11, 2, 1))
        x[:, 1, 0] = 2.0
        v = np.zeros((11, 2, 1))
        v[:, 1, 0] = np.linspace(1.0, 2.0, 11)   # |w| grows, y frozen
        traj = synthetic_traj(times, x, v, scenario=scen)
        report = lyapunov_probe(traj, gain=1.0, offset=0.0, slack=0.0)
        assert not report.passed
        assert report.details["max_forward_difference"] > 0.5

    def test_functional_series_exposed(self):
        scen = make_scenario(dim=2, x0=[[0, 0], [1, 0]], v0=[[0, 0], [0, 1]], t_end=5.0)
        traj = simulate(scen)
        report = lyapunov_probe(traj, gain=1.0, offset=0.2, slack=0.0)
        assert set(report.series) == {"times", "upper", "lower"}
        # primitive is nonnegative and increasing, so upper >= gap >= lower
        assert np.all(report.series["upper"] >= report.series["lower"])

    def test_single_agent_is_precondition_error(self):
        traj = simulate(make_scenario(n_agents=1, t_end=1.0))
        with pytest.raises(PreconditionError, match="needs a follower to monitor"):
            lyapunov_probe(traj, gain=1.0, offset=0.0, slack=0.0)

    def test_forced_run_is_precondition_error(self):
        scen = make_scenario(n_agents=3, forcing=LeaderForcing.power_law(1.0, 3.0, dim=1),
                             v0=[[0.0], [0.1], [0.2]], t_end=1.0)
        with pytest.raises(PreconditionError,
                           match="dissipation bound assumes the unforced system"):
            lyapunov_probe(simulate(scen), gain=1.0, offset=0.0, slack=0.0)

    def test_defaults_are_the_paper_constants(self):
        scen = make_scenario(dim=2, x0=[[0, 0], [1, 0]], v0=[[0, 0], [0, 1]], t_end=5.0)
        traj = simulate(scen)
        slack = calibrate_step_slack(traj)
        default = lyapunov_probe(traj, slack=slack)
        explicit = lyapunov_probe(traj, gain=scen.kernel.mu0,
                                  offset=2 * scen.tau * history_speed_bound(traj), slack=slack)
        assert default.to_dict() == explicit.to_dict()
        for key, values in explicit.series.items():
            np.testing.assert_array_equal(default.series[key], values)


class TestPotentialPrimitive:
    @pytest.mark.parametrize("potential", [
        Potential.cucker_smale(0.0), Potential.cucker_smale(0.5), Potential.cucker_smale(1.0),
        Potential.table([0.0, 0.5, 2.0], [1.0, 0.6, 0.2]),
        Potential.custom(lambda s: np.exp(-s) / (1.0 + s)),
    ], ids=["cs0", "cs0.5", "cs1", "table", "custom"])
    @pytest.mark.parametrize("s_max", [0.0, 0.37, 25.0])
    def test_bitwise_equal_to_scipy_cumulative_trapezoid(self, potential, s_max):
        scen = replace(make_scenario(), potential=potential)
        s_grid, phi = _potential_primitive(scen, s_max)
        ref = cumulative_trapezoid(potential(s_grid), s_grid, initial=0.0)
        assert phi.dtype == ref.dtype and phi.shape == ref.shape
        assert phi.tobytes() == ref.tobytes()

    def test_working_memory_is_about_the_two_grids_it_returns(self):
        scen = make_scenario()
        _potential_primitive(scen, 3.0)         # warm up
        tracemalloc.start()
        s_grid, phi = _potential_primitive(scen, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # the grid and its primitive, plus temporaries of one 4096-interval chunk
        assert peak < 2.5 * s_grid.nbytes


# ---------------------------------------------------------------------------
# Free-will leader
# ---------------------------------------------------------------------------

class TestFreeWillProbe:
    def test_admissible_forcing_converges(self):
        scen = make_scenario(n_agents=3, dim=2,
                             x0=[[0, 0], [1, 0], [2, 0]],
                             v0=[[0, 0.3], [0.2, 0.1], [-0.1, 0.2]],
                             forcing=LeaderForcing.power_law(0.5, 3.0, dim=2),
                             t_end=60.0)
        report = free_will_consensus_probe(simulate(scen), target=1e-2)
        assert report.passed, report.details

    def test_zero_forcing_reduces_to_plain_decay(self):
        scen = make_scenario(dim=2, x0=[[0, 0], [1, 0]], v0=[[0, 0], [0, 1]], t_end=30.0)
        report = free_will_consensus_probe(simulate(scen))
        assert report.passed
        assert report.details["root_speed_cap"] == pytest.approx(0.0, abs=1e-15)

    def test_inadmissible_forcing_reports_hypotheses_unmet(self):
        scen = make_scenario(n_agents=3, forcing=LeaderForcing.power_law(1.0, 0.5, dim=1),
                             v0=[[0.0], [0.1], [0.2]], t_end=2.0)
        report = free_will_consensus_probe(simulate(scen))
        assert report.skipped
        assert report.details["status"] == "hypotheses unmet"
        assert report.details["integrable"] is False

    def test_long_table_forcing_is_checked(self):
        # a table forcing is 0 beyond its last sample, however late that is
        forcing = LeaderForcing.table([0.0, 2e5, 3e5], [1.0, 1.0, 0.0], dim=1)
        scen = make_scenario(n_agents=3, forcing=forcing, v0=[[0.0], [0.1], [0.2]], t_end=2.0)
        report = free_will_consensus_probe(simulate(scen))
        assert not report.skipped
        assert "status" not in report.details

    def test_root_speed_bound_reported(self):
        scen = make_scenario(n_agents=3, dim=2,
                             x0=[[0, 0], [1, 0], [2, 0]],
                             v0=[[0, 0.3], [0.2, 0.1], [-0.1, 0.2]],
                             forcing=LeaderForcing.power_law(0.5, 3.0, dim=2),
                             t_end=20.0)
        report = free_will_consensus_probe(simulate(scen), target=1.0)
        cap = 0.3 + 0.25    # |v1(0)| + L1 mass of the forcing
        assert report.details["root_speed_cap"] == pytest.approx(cap, abs=1e-12)
        assert report.details["max_root_speed"] <= cap + 1e-8

    def test_root_speed_may_reach_the_steps_own_forcing_sum(self):
        # At q = 1074 the forcing is a spike narrower than dt. Heun's first step
        # adds dt/2 (f(0) + f(dt)), about 1.0e-2, against an L1 mass of 1.9e-3,
        # so the root exceeds |v0| + mass while the run converges.
        forcing = LeaderForcing("log_damped", amplitude=1.0, decay_power=1074.0,
                                direction=[1.0, 0.0])
        scen = make_scenario(dim=2, x0=[[0, 0], [1, 0]], v0=[[1.0, 0.5], [0, 0]],
                             forcing=forcing, t_end=20.0)
        report = free_will_consensus_probe(simulate(scen))
        details = report.details
        assert details["final_diameter"] <= details["target"]
        assert details["tail_max_increment"] <= 1e-8
        assert details["max_root_speed"] > details["root_speed_cap"] + 1e-3
        assert report.passed, details
        assert details["forcing_step_l1"] == pytest.approx(0.0104073, rel=1e-5)
        assert details["max_root_speed"] <= math.hypot(1.0, 0.5) + details["forcing_step_l1"]


# ---------------------------------------------------------------------------
# Slack calibration
# ---------------------------------------------------------------------------

class TestSlack:
    def test_slack_shrinks_with_step(self):
        kwargs = dict(dim=2, x0=[[0, 0], [1, 0]], v0=[[0, 0], [0, 1]], t_end=5.0)
        slacks = {}
        for dt in (0.02, 0.01):
            traj = simulate(make_scenario(dt=dt, **kwargs))
            slacks[dt] = calibrate_step_slack(traj)
        assert 0 < slacks[0.01] < slacks[0.02]

    def test_requires_scenario(self):
        traj = synthetic_traj([0.0, 1.0], np.zeros((2, 2, 1)), np.zeros((2, 2, 1)))
        with pytest.raises(PreconditionError):
            calibrate_step_slack(traj)


# ---------------------------------------------------------------------------
# Probe sets
# ---------------------------------------------------------------------------

class TestRunProbes:
    def test_slack_is_calibrated_once(self, monkeypatch):
        calls = []
        real = hlflock.diagnostics.calibrate_step_slack
        monkeypatch.setattr(hlflock.diagnostics, "calibrate_step_slack",
                            lambda traj: calls.append(traj) or real(traj))
        scen = make_scenario(dim=2, x0=[[0, 0], [1, 0]], v0=[[0, 0], [0, 1]], t_end=5.0)
        reports = {r.name: r for r in run_probes(simulate(scen))}
        assert len(calls) == 1
        assert reports["two_flock_bound"].passed
        assert reports["lyapunov_dissipation"].passed
        assert (reports["lyapunov_dissipation"].details["slack"]
                == reports["two_flock_bound"].details["slack"])

    def test_skipped_probes_do_not_calibrate(self, monkeypatch):
        calls = []
        monkeypatch.setattr(hlflock.diagnostics, "calibrate_step_slack",
                            lambda traj: calls.append(traj))
        scen = make_scenario(n_agents=3, forcing=LeaderForcing.power_law(1.0, 3.0, dim=1),
                             v0=[[0.0], [0.1], [0.2]], t_end=1.0)
        reports = {r.name: r for r in run_probes(simulate(scen))}
        assert calls == []
        assert reports["lyapunov_dissipation"].details == {
            "status": "skipped: dissipation bound assumes the unforced system"}
        assert reports["two_flock_bound"].skipped

    def test_free_will_skipped_without_forcing(self):
        reports = run_probes(simulate(make_scenario(t_end=1.0)), probes=("free-will",))
        assert [r.to_dict() for r in reports] == [{
            "name": "free_will_consensus", "passed": None,
            "details": {"status": "skipped: no forcing present"}}]

    def test_probes_are_looked_up_per_call(self, monkeypatch):
        # a wrapper set on the module attribute sees the call
        seen = []
        real = hlflock.diagnostics.ball_invariance_probe
        monkeypatch.setattr(hlflock.diagnostics, "ball_invariance_probe",
                            lambda traj: seen.append(traj) or real(traj))
        traj = simulate(make_scenario(t_end=1.0))
        assert [r.name for r in run_probes(traj, probes=("ball",))] == ["ball_invariance"]
        assert seen == [traj]
