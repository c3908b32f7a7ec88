import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid

import hlflock.model
from hlflock.model import (DelayKernel, HistoryFn, HistorySpec, LeaderForcing,
                           LeadershipDag, Potential, Scenario, ScenarioError,
                           check_divergent_tail, check_forcing_conditions,
                           eval_potential, leader_levels,
                           validate_hierarchy)
from hlflock.scenarios import GeneratorSpec


# ---------------------------------------------------------------------------
# Leadership structure
# ---------------------------------------------------------------------------

class TestValidateHierarchy:
    def test_single_agent_ok(self):
        assert validate_hierarchy(LeadershipDag(1)).ok

    def test_triangle_ok(self):
        dag = LeadershipDag(3, {2: {1}, 3: {1, 2}})
        report = validate_hierarchy(dag)
        assert report.ok and not report.violations

    def test_leaderless_follower_flagged(self):
        report = validate_hierarchy(LeadershipDag(2))
        assert not report.ok
        assert any("agent 2 has no leaders" in v for v in report.violations)

    def test_backward_edge_flagged(self):
        report = validate_hierarchy(LeadershipDag(3, {2: {3}, 3: {1}}))
        assert not report.ok
        assert any("3 -> 2" in v for v in report.violations)

    def test_root_with_leaders_flagged(self):
        # construct a structurally valid dict that breaks the root rule
        report = validate_hierarchy(LeadershipDag(2, {1: {2}, 2: {1}}))
        assert not report.ok

    def test_out_of_range_leader_rejected_at_construction(self):
        with pytest.raises(ScenarioError):
            LeadershipDag(2, {2: {5}})


class TestLeaderLevels:
    def test_chain(self):
        levels, closure = leader_levels(LeadershipDag.chain(3), 3)
        assert levels == [frozenset({3}), frozenset({2}), frozenset({1})]
        assert closure == {1, 2, 3}

    def test_root(self):
        levels, closure = leader_levels(LeadershipDag.chain(3), 1)
        assert levels == [frozenset({1})]
        assert closure == {1}

    def test_diamond_hand_expansion(self):
        dag = LeadershipDag(4, {2: {1}, 3: {1}, 4: {2, 3}})
        levels, closure = leader_levels(dag, 4)
        assert levels[1] == {2, 3}
        assert levels[2] == {1}
        assert closure == {1, 2, 3, 4}

    def test_invalid_dag_rejected(self):
        with pytest.raises(ScenarioError):
            leader_levels(LeadershipDag(2), 2)

    def test_terminates_within_n_levels(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            leaders = {i: set(int(j) for j in rng.choice(i - 1, size=rng.integers(1, i), replace=False) + 1)
                       for i in range(2, n + 1)}
            dag = LeadershipDag(n, leaders)
            for i in range(1, n + 1):
                levels, closure = leader_levels(dag, i)
                assert len(levels) <= n
                assert closure <= set(range(1, i + 1))


# ---------------------------------------------------------------------------
# Potential
# ---------------------------------------------------------------------------

class TestPotential:
    def test_flat_family(self):
        assert eval_potential(Potential.cucker_smale(0.0), 7.0) == 1.0

    def test_value_at_zero(self):
        assert eval_potential(Potential.cucker_smale(0.5), 0.0) == 1.0

    def test_half_power_hand_value(self):
        # (1 + 3)^(-1/2) = 0.5
        assert eval_potential(Potential.cucker_smale(0.5), math.sqrt(3.0)) == pytest.approx(0.5, abs=1e-15)

    def test_negative_distance_rejected(self):
        with pytest.raises(ScenarioError):
            eval_potential(Potential.cucker_smale(0.5), -1.0)

    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 1.0, 2.5])
    def test_non_increasing_on_sorted_samples(self, beta):
        s = np.sort(np.random.default_rng(0).uniform(0, 50, size=200))
        vals = eval_potential(Potential.cucker_smale(beta), s)
        assert np.all(np.diff(vals) <= 0)
        assert np.all(vals > 0)

    def test_table_interpolation_and_flat_extrapolation(self):
        p = Potential.table([0.0, 1.0, 2.0], [1.0, 0.5, 0.25])
        assert p(0.5) == pytest.approx(0.75)
        assert p(10.0) == 0.25    # flat beyond the last sample

    def test_table_must_be_non_increasing(self):
        with pytest.raises(ScenarioError):
            Potential.table([0.0, 1.0], [0.5, 1.0])

    def test_custom_positivity_enforced(self):
        with pytest.raises(ScenarioError):
            Potential.custom(lambda s: 1.0 - s)


class TestDivergentTail:
    def test_below_half_diverges(self):
        assert check_divergent_tail(Potential.cucker_smale(0.4)).verdict == "yes"

    def test_above_half_converges(self):
        assert check_divergent_tail(Potential.cucker_smale(0.6)).verdict == "no"

    def test_boundary_half_diverges(self):
        assert check_divergent_tail(Potential.cucker_smale(0.5)).verdict == "yes"

    @pytest.mark.parametrize("values,verdict", [
        ([1.0, 0.6, 0.3], "yes"),       # flat at 0.3 beyond the last sample
        ([1.0, 0.6, 0.0], "no"),        # 0 beyond the last sample
    ])
    def test_table_is_decided_by_its_last_value(self, values, verdict):
        report = check_divergent_tail(Potential.table([0.0, 1.0, 10.0], values))
        assert report == hlflock.model.TailReport(verdict=verdict)

    @given(values=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=6),
           gaps=st.lists(st.floats(1e-3, 50.0), min_size=6, max_size=6),
           beyond=st.floats(1.0, 1e3))
    @settings(max_examples=60, deadline=None)
    def test_table_verdict_is_whether_its_last_value_is_positive(self, values, gaps, beyond):
        values = sorted(values, reverse=True)
        distances = np.cumsum([0.0, *gaps[:len(values) - 1]])
        p = Potential.table(distances, values)
        assert check_divergent_tail(p).verdict == ("yes" if values[-1] > 0 else "no")
        if values[-1] > 0:
            # the same table as an arbitrary callable: its partial integral at
            # S is at least the flat tail's share, values[-1] * (S - distances[-1])
            s_end = distances[-1] + beyond
            report = check_divergent_tail(Potential.custom(p), horizon=s_end)
            s_mark, total = report.partial_integrals[-1]
            assert s_mark == s_end
            assert total >= values[-1] * (s_end - distances[-1])

    @pytest.mark.parametrize("horizon", [0, math.nan, 0.5, 1.0, True],
                             ids=["zero", "nan", "half", "one", "bool"])
    def test_bad_horizon_is_named(self, horizon):
        with pytest.raises(ScenarioError, match="horizon"):
            check_divergent_tail(Potential.custom(lambda s: 1.0 / (1.0 + s)), horizon)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@pytest.fixture(params=[1, 7, None], ids=["chunk1", "chunk7", "default-chunk"])
def trapezoid_chunk(request, monkeypatch):
    """The shared trapezoid rule, run with chunks of 1 and 7 intervals and its own."""
    if request.param is not None:
        monkeypatch.setattr(hlflock.model, "_TRAPEZOID_CHUNK", request.param)


_SUBNORMAL_POTENTIAL = Potential.table([0.0, 2.0, 3.0], [1e-309, 3e-310, 0.0])
_SUBNORMAL_FORCING = LeaderForcing.table([0.0, 0.5, 3.0, 40.0], [1e-310, -3e-310, 2e-310, 0.0],
                                         dim=1)


class TestEvidenceIsScipysTrapezoid:
    # the evidence grid as check_divergent_tail builds it
    @staticmethod
    def tail_grid(horizon):
        decades = math.ceil(math.log10(horizon))
        return np.concatenate([[0.0], np.geomspace(1e-3, horizon, decades * 64)])

    @pytest.mark.parametrize("horizon", [1e4, 1e6])
    def test_divergent_tail_partial_integrals(self, trapezoid_chunk, horizon):
        potential = Potential.custom(lambda s: np.exp(-s) / (1.0 + s))
        grid = self.tail_grid(horizon)
        ref = cumulative_trapezoid(potential(grid), grid, initial=0.0)
        marks = check_divergent_tail(potential, horizon).partial_integrals
        at = np.searchsorted(grid, [s for s, _ in marks])
        assert _bits([s for s, _ in marks]) == _bits(grid[at])
        assert _bits([total for _, total in marks]) == _bits(ref[at])

    # subnormal integrands, where scipy's order dx * (y_lo + y_hi) / 2 rounds
    # differently from 0.5 * (y_lo + y_hi) * dx
    FORCING_GRID = np.concatenate([[0.0], np.geomspace(1e-3, 1e6, 400)])

    @pytest.mark.parametrize("integrand,grid", [
        (_SUBNORMAL_POTENTIAL, tail_grid(1e4)),
        (_SUBNORMAL_POTENTIAL, tail_grid(1e6)),
        (lambda t: np.abs(_SUBNORMAL_FORCING.magnitude(t)), FORCING_GRID),
        (lambda t: t ** 4 * np.abs(_SUBNORMAL_FORCING.magnitude(t)), FORCING_GRID),
    ], ids=["potential-1e4", "potential-1e6", "forcing", "weighted-forcing"])
    def test_subnormal_integrands(self, trapezoid_chunk, integrand, grid):
        ref = cumulative_trapezoid(integrand(grid), grid, initial=0.0)
        assert _bits(hlflock.model._cumulative_trapezoid(integrand, grid)) == _bits(ref)


# ---------------------------------------------------------------------------
# Delay kernel
# ---------------------------------------------------------------------------

class TestDelayKernel:
    def test_normalized_uniform_mass_is_one(self):
        assert abs(DelayKernel.uniform(0.37).mu0 - 1.0) < 1e-12

    def test_uniform_height_times_span(self):
        assert DelayKernel.uniform(0.5, height=2.0).mu0 == pytest.approx(1.0, abs=1e-12)

    def test_triangle_area(self):
        k = DelayKernel.triangular(0.3, peak=4.0)
        assert k.mu0 == pytest.approx(4.0 * 0.3 / 2.0, rel=1e-12)

    @pytest.mark.parametrize("make", [
        lambda: DelayKernel.uniform(0.2, height=3.0),
        lambda: DelayKernel.triangular(0.25, peak=1.7),
        lambda: DelayKernel.truncated_bump(0.15),
        lambda: DelayKernel.truncated_bump(0.4, height=2.2),
    ])
    def test_numeric_mass_matches_analytic(self, make):
        k = make()
        assert abs(k.mu0 - k.analytic_mass) <= 1e-10 * k.analytic_mass

    @pytest.mark.parametrize("kernel,breaks", [
        (DelayKernel.uniform(0.2), (0.0, 0.2)),
        (DelayKernel.triangular(0.3), (0.0, 0.15, 0.3)),
        (DelayKernel.table([0.0, 0.04, 0.1], [1.0, 3.0, 0.5]), (0.0, 0.04, 0.1)),
        (DelayKernel.truncated_bump(0.2), None),
    ])
    def test_breakpoints_bound_linear_pieces(self, kernel, breaks):
        assert kernel.breakpoints == breaks
        if breaks is not None:
            # linear between consecutive breakpoints: midpoint value is the mean
            for lo, hi in zip(breaks, breaks[1:]):
                mid = kernel(0.5 * (lo + hi))
                assert mid == pytest.approx(0.5 * (kernel(lo) + kernel(hi)), rel=1e-12)

    def test_values_nonnegative_and_bounded(self):
        for k in (DelayKernel.uniform(0.2), DelayKernel.triangular(0.2),
                  DelayKernel.truncated_bump(0.2)):
            s = np.linspace(0, 0.2, 401)
            vals = k(s)
            assert np.all(vals >= 0) and np.all(np.isfinite(vals))

    def test_zero_mass_rejected(self):
        with pytest.raises(ScenarioError, match="mass must be positive"):
            DelayKernel.table([0.0, 0.1], [0.0, 0.0])

    def test_table_kernel_must_cover_window(self):
        with pytest.raises(ScenarioError):
            DelayKernel("table", 0.2, times=np.array([0.05, 0.2]),
                        values=np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# Histories
# ---------------------------------------------------------------------------

class TestHistory:
    def test_constant(self):
        fn = HistoryFn("constant", value=np.array([1.0, 2.0]))
        assert np.array_equal(fn.eval(-0.3), [1.0, 2.0])

    def test_affine(self):
        fn = HistoryFn("affine", value=np.array([1.0]), slope=np.array([2.0]))
        assert fn.eval(-0.25)[0] == pytest.approx(0.5)

    def test_table_bounds_enforced(self):
        fn = HistoryFn("table", times=np.array([-0.1, 0.0]), values=np.array([[1.0], [2.0]]))
        assert fn.eval(-0.05)[0] == pytest.approx(1.5)
        with pytest.raises(ScenarioError, match="undefined"):
            fn.eval(-0.2)
        with pytest.raises(ScenarioError, match=r"undefined at s=-0\.2 "):
            HistorySpec([fn], [fn]).sample(np.array([-0.1, -0.2, -0.3]))

    @pytest.mark.parametrize("fn", [
        HistoryFn("constant", value=np.array([1.0, -2.0])),
        HistoryFn("affine", value=np.array([0.3, 1.0]), slope=np.array([-1.7, 0.1])),
        HistoryFn("table", times=np.array([-0.53, -0.2, 0.0]),
                  values=np.array([[1.0, 0.1], [2.3, -0.7], [0.4, 0.9]])),
    ], ids=["constant", "affine", "table"])
    def test_grid_sample_equals_per_node_eval(self, fn):
        s = (np.arange(54) - 53) * 0.01
        other = HistoryFn("constant", value=np.array([5.0, 6.0]))
        xs, vs = HistorySpec([other, fn], [fn, other]).sample(s)
        per_node = np.array([fn.eval(float(t)) for t in s])
        assert xs.shape == vs.shape == (54, 2, 2)
        np.testing.assert_array_equal(xs[:, 1], per_node)
        np.testing.assert_array_equal(vs[:, 0], per_node)
        np.testing.assert_array_equal(xs[:, 0], np.broadcast_to([5.0, 6.0], (54, 2)))

    def test_spec_dimension_consistency(self):
        with pytest.raises(ScenarioError):
            HistorySpec([HistoryFn("constant", value=np.array([1.0]))],
                        [HistoryFn("constant", value=np.array([1.0, 2.0]))])

    def test_non_finite_rejected(self):
        with pytest.raises(ScenarioError):
            HistoryFn("constant", value=np.array([np.nan]))


# ---------------------------------------------------------------------------
# Forcing conditions
# ---------------------------------------------------------------------------

class TestForcingConditions:
    def test_power_law_exponent_equal_to_flock_size(self):
        f = LeaderForcing.power_law(1.0, 4.0, dim=2)
        assert check_forcing_conditions(f, 4).all_satisfied

    def test_log_damped_paper_family(self):
        f = LeaderForcing.log_damped(1.0, 5, dim=2)
        cond = check_forcing_conditions(f, 5)
        assert cond.integrable and cond.little_o_condition and cond.weighted_L1

    def test_shallow_power_law_not_integrable(self):
        f = LeaderForcing.power_law(1.0, 0.5, dim=2)
        cond = check_forcing_conditions(f, 3)
        assert not cond.integrable
        assert not cond.little_o_condition and not cond.weighted_L1

    @pytest.mark.parametrize("n_agents", [2, 3, 4, 6])
    def test_flags_flip_at_analytic_thresholds(self, n_agents):
        for p, expect in ((0.9, False), (1.1, True)):
            f = LeaderForcing.power_law(1.0, p, dim=1)
            assert check_forcing_conditions(f, n_agents).integrable is expect
        thresh = n_agents - 1
        for p, expect in ((thresh - 0.1, False), (thresh + 0.1, True)):
            f = LeaderForcing.power_law(1.0, p, dim=1)
            cond = check_forcing_conditions(f, n_agents)
            assert cond.little_o_condition is expect
            assert cond.weighted_L1 is expect

    def test_boundary_exponent_fails_strict_conditions(self):
        f = LeaderForcing.power_law(1.0, 2.0, dim=1)   # p = N - 1 exactly
        cond = check_forcing_conditions(f, 3)
        assert cond.integrable
        assert not cond.little_o_condition and not cond.weighted_L1

    def test_zero_forcing_trivially_admissible(self):
        assert check_forcing_conditions(LeaderForcing.zero(), 3).all_satisfied

    @pytest.mark.parametrize("times,magnitudes", [
        ([0.0, 1.0, 2.0], [1.0, 0.5, 0.0]),
        ([0.0, 2e4, 3e4], [1.0, 1.0, 0.0]),
        ([0.0, 2e5, 3e5], [1.0, 1.0, 0.0]),
        ([5.0, 6.0], [-2.0, 3.0]),
    ])
    @pytest.mark.parametrize("n_agents", [2, 3, 6])
    def test_table_forcing_has_compact_support(self, times, magnitudes, n_agents):
        f = LeaderForcing.table(times, magnitudes, dim=1)
        assert check_forcing_conditions(f, n_agents) == hlflock.model.ForcingConditions(
            True, True, True)

    @pytest.mark.parametrize("f", [
        LeaderForcing.zero(), LeaderForcing.power_law(1.0, 2.5, dim=1),
        LeaderForcing.log_damped(1.0, 3, dim=1), LeaderForcing.table([0.0, 1.0], [1.0, 0.0], dim=1),
    ], ids=["zero", "power_law", "log_damped", "table"])
    @pytest.mark.parametrize("n_agents", [3, np.int64(3)], ids=["int", "numpy-int"])
    def test_every_flag_is_a_bool(self, f, n_agents):
        cond = check_forcing_conditions(f, n_agents)
        for flag in (cond.integrable, cond.little_o_condition, cond.weighted_L1):
            assert type(flag) is bool

    def test_l1_norms(self):
        assert LeaderForcing.zero().l1_norm() == 0.0
        assert LeaderForcing.power_law(0.5, 3.0, dim=1).l1_norm() == pytest.approx(0.25)
        assert LeaderForcing.power_law(1.0, 0.5, dim=1).l1_norm() == math.inf
        log_mass = LeaderForcing.log_damped(1.0, 2, dim=1).l1_norm()
        assert 0 < log_mass < math.inf

    @pytest.mark.parametrize("times, magnitudes, mass", [
        ([0.0, 1.0, 2.0], [1.0, 2.0, 0.0], 2.5),
        # |f| is two triangles where f changes sign: 1/4 + 1/4 on [0, 1], 1/2 on [1, 2]
        ([0.0, 1.0, 2.0], [1.0, -1.0, 0.0], 1.0),
        ([0.0, 4.0], [-3.0, 1.0], 4.0 * (9.0 + 1.0) / (2.0 * 4.0)),
    ])
    def test_table_l1_norm_is_exact_for_the_interpolant(self, times, magnitudes, mass):
        assert LeaderForcing.table(times, magnitudes, dim=1).l1_norm() == pytest.approx(
            mass, rel=1e-15)

    # the integral of 1 / ((1+t)^q ln^2(2+t)) over t >= 0, to 25 digits, by
    # mpmath's tanh-sinh quadrature at 60 digits on u = ln(2+t)
    LOG_DAMPED_MASS = {
        1.0: "1.993559680665363847864607",
        1.001: "1.985987879810453907319846",
        2.0: "0.9082808308357639102671767",
        5.0: "0.3867762541210850560098923",
        100.0: "0.02072261191132470423249031",
        999.0: "0.002082530250966222126043649",
        1000.0: "0.002080448640903788197711669",
        1074.0: "0.001937161997061068195880056",
        2000.0: "0.00104045427158290841882043",
        1e4: "0.0002081276850557678255322617",
        1e6: "0.000002081368059594954208098514",
    }

    @pytest.mark.parametrize("q", sorted(LOG_DAMPED_MASS))
    def test_log_damped_l1_norm_matches_reference(self, q):
        forcing = LeaderForcing("log_damped", amplitude=-2.0, decay_power=q, direction=[1.0])
        reference = 2.0 * float(self.LOG_DAMPED_MASS[q])
        assert abs(forcing.l1_norm() - reference) <= 1e-13 * reference

    def test_direction_must_be_nonzero(self):
        with pytest.raises(ScenarioError):
            LeaderForcing.power_law(1.0, 2.0, direction=[0.0, 0.0])


# ---------------------------------------------------------------------------
# Scenario invariants
# ---------------------------------------------------------------------------

def _tiny_scenario(**overrides):
    fields = dict(dag=LeadershipDag.chain(2), dim=1,
                  potential=Potential.cucker_smale(0.5),
                  kernel=DelayKernel.uniform(0.1),
                  history=HistorySpec.constant([[0.0], [1.0]], [[0.0], [1.0]]),
                  t_end=1.0, dt=0.01)
    fields.update(overrides)
    return Scenario(**fields)


class TestScenario:
    def test_valid(self):
        scen = _tiny_scenario().validate()
        assert scen.delay_steps == 10
        assert scen.n_steps == 100

    def test_misaligned_delay_rejected(self):
        with pytest.raises(ScenarioError, match="tau"):
            _tiny_scenario(dt=0.03).validate()

    def test_horizon_shorter_than_delay_rejected(self):
        with pytest.raises(ScenarioError, match="t_end"):
            _tiny_scenario(t_end=0.05).validate()

    def test_history_agent_count_must_match(self):
        bad = HistorySpec.constant([[0.0]], [[0.0]])
        with pytest.raises(ScenarioError, match="agents"):
            _tiny_scenario(history=bad).validate()

    def test_forcing_dimension_must_match(self):
        with pytest.raises(ScenarioError, match="direction"):
            _tiny_scenario(forcing=LeaderForcing.power_law(1.0, 3.0, dim=2)).validate()

    def test_problems_collects_hierarchy_violations(self):
        scen = _tiny_scenario(dag=LeadershipDag(2))
        assert any("no leaders" in p for p in scen.problems())


# ---------------------------------------------------------------------------
# Numbers from Python callers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build,field", [
    (lambda: Potential.cucker_smale("0.5"), "beta"),
    (lambda: Potential.cucker_smale(True), "beta"),
    (lambda: Potential.cucker_smale(-0.5), "beta"),
    (lambda: Potential.table([0.0, math.nan], [1.0, 0.5]), "distances"),
    (lambda: DelayKernel.uniform(0.1, height="10"), "height"),
    (lambda: DelayKernel.triangular(None), "tau"),
    (lambda: DelayKernel.table([0.0, 0.1], [1.0, True]), "values"),
    (lambda: HistoryFn("constant", value=[1.0, "2"]), "value"),
    (lambda: HistoryFn("affine", value=[1.0], slope=[1.0, 2.0]), "slope"),
    (lambda: HistoryFn("table", times=[-0.1, 0.0], values=[1.0, 2.0]), "values"),
    (lambda: LeaderForcing.power_law(1.0, None, dim=1), "exponent"),
    (lambda: LeaderForcing.table([0.0, 1.0], [1.0, 0.0], direction=[True]), "direction"),
    (lambda: LeadershipDag(2.0), "n_agents"),
    (lambda: LeadershipDag(3, {2: [1.5]}), "leaders"),
    (lambda: _tiny_scenario(dim=1.0), "dim"),
    (lambda: _tiny_scenario(dim=True), "dim"),
    (lambda: _tiny_scenario(dt="0.01"), "dt"),
    (lambda: _tiny_scenario(t_end=None), "t_end"),
    (lambda: _tiny_scenario(rng_seed=-1), "rng_seed"),
    (lambda: _tiny_scenario(rng_seed=1.5), "rng_seed"),
    (lambda: Potential("custom"), "func"),
    (lambda: HistoryFn("table", times=np.empty(0), values=np.empty((0, 2))), "times"),
    (lambda: Potential("foo"), "Potential: unknown family 'foo'"),
    (lambda: DelayKernel("foo", 0.1), "DelayKernel: unknown shape 'foo'"),
    (lambda: HistoryFn("foo", value=[1.0]), "HistoryFn: unknown kind 'foo'"),
    (lambda: LeaderForcing("foo", direction=[1.0]), "LeaderForcing: unknown family 'foo'"),
], ids=["string", "bool", "negative-beta", "nan-sample", "string-height", "none-tau",
        "bool-sample", "string-entry", "slope-shape", "table-shape", "none-exponent",
        "bool-direction", "float-count", "float-leader", "float-dim", "bool-dim",
        "string-dt", "none-t_end", "negative-seed", "float-seed", "custom-without-func",
        "empty-history-table", "unknown-potential", "unknown-kernel", "unknown-history",
        "unknown-forcing"])
def test_constructors_read_numbers_strictly(build, field):
    with pytest.raises(ScenarioError, match=field):
        build()


def test_constructors_accept_numpy_numbers():
    kernel = DelayKernel.uniform(np.float32(0.5), height=np.int64(2))
    assert (kernel.tau, kernel.height) == (0.5, 2.0)
    assert LeadershipDag(np.int64(2), {np.int64(2): [np.int64(1)]}) == LeadershipDag.chain(2)
    assert HistoryFn("constant", value=np.array([1, 2])).to_dict()["value"] == [1.0, 2.0]


def _valid_arguments():
    """Each public constructor with keyword arguments it accepts, built afresh."""
    return [
        (Potential, {"family": "cucker_smale", "beta": 0.5}),
        (Potential, {"family": "table", "distances": [0.0, 1.0], "values": [1.0, 0.5]}),
        (Potential, {"family": "custom", "func": lambda s: 1.0 / (1.0 + s)}),
        (DelayKernel, {"shape": "uniform", "tau": 0.1, "height": 2.0}),
        (DelayKernel, {"shape": "triangular", "tau": 0.1, "peak": 20.0}),
        (DelayKernel, {"shape": "truncated_bump", "tau": 0.1}),
        (DelayKernel, {"shape": "table", "times": [0.0, 0.1], "values": [1.0, 2.0]}),
        (HistoryFn, {"kind": "constant", "value": [0.0, 1.0]}),
        (HistoryFn, {"kind": "affine", "value": [0.0, 1.0], "slope": [1.0, -1.0]}),
        (HistoryFn, {"kind": "table", "times": [-0.1, 0.0],
                     "values": [[0.0, 1.0], [0.5, 1.0]]}),
        (HistorySpec.constant, {"x0": [[0.0, 1.0], [1.0, 0.0]], "v0": [[0.0, 0.5], [1.0, 0.0]]}),
        (LeaderForcing, {"family": "zero"}),
        (LeaderForcing, {"family": "power_law", "amplitude": 1.0, "exponent": 3.0,
                         "direction": [1.0, 0.0]}),
        (LeaderForcing, {"family": "log_damped", "amplitude": 1.0, "decay_power": 2.0,
                         "direction": [0.0, 1.0]}),
        (LeaderForcing, {"family": "table", "times": [0.0, 1.0], "magnitudes": [1.0, 0.0],
                         "direction": [1.0, 1.0]}),
        (LeadershipDag, {"n_agents": 3, "leaders": {2: [1], 3: [1, 2]}}),
        (Scenario, {"dag": LeadershipDag.chain(2), "dim": 1,
                    "potential": Potential.cucker_smale(0.5), "kernel": DelayKernel.uniform(0.1),
                    "history": HistorySpec.constant([[0.0], [1.0]], [[0.0], [1.0]]),
                    "forcing": LeaderForcing.zero(), "t_end": 1.0, "dt": 0.01, "rng_seed": 0}),
        (GeneratorSpec, {"topology": "random_hl", "n_agents": 3, "dim": 2,
                         "position_range": [-1.0, 1.0], "velocity_range": [-1.0, 1.0],
                         "rng_seed": 0, "edge_prob": 0.5, "tau_range": [0.05, 0.5],
                         "delay_steps": 8, "sim_span": 1.0, "beta_choices": [0.0, 0.5],
                         "kernel_shapes": ["uniform", "triangular"]}),
    ]


def _places(node):
    """The container and key of every dict value and list item below ``node``."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield node, key
        yield from _places(child)


# a junk leaf, or a nested list of leaves, numbers and lists, as ragged as it comes
_JUNK = st.recursive(st.sampled_from(["a", "", None, True, False, math.nan, math.inf, -math.inf])
                     | st.floats(-2.0, 2.0),
                     lambda inner: st.lists(inner, max_size=3), max_leaves=6)


@settings(max_examples=400, deadline=None)
@given(case=st.integers(0, len(_valid_arguments()) - 1), data=st.data())
def test_junk_from_python_raises_only_scenario_error(case, data):
    build, kwargs = _valid_arguments()[case]
    node, key = data.draw(st.sampled_from(list(_places(kwargs))))
    node[key] = data.draw(_JUNK)
    try:
        built = build(**kwargs)
    except ScenarioError:
        return
    if isinstance(built, Scenario):
        built.problems()        # a scenario that constructs can be checked


# ---------------------------------------------------------------------------
# Family equality through the JSON form
# ---------------------------------------------------------------------------

_NUMBERS = st.floats(-100.0, 100.0, allow_nan=False)
_STEPS = st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6)


def _vector(dim):
    return st.lists(_NUMBERS, min_size=dim, max_size=dim)


def _direction(dim):
    return _vector(dim).filter(lambda v: np.linalg.norm(v) > 1e-3)


@st.composite
def _potentials(draw):
    if draw(st.booleans()):
        return Potential.cucker_smale(draw(st.floats(0.0, 5.0)))
    steps = draw(_STEPS)
    values = sorted(draw(st.lists(st.floats(0.0, 10.0), min_size=len(steps),
                                  max_size=len(steps))), reverse=True)
    return Potential.table(np.cumsum(steps) - steps[0], values)


@st.composite
def _kernels(draw):
    shape = draw(st.sampled_from(DelayKernel.BUILTIN_SHAPES + ("table",)))
    if shape == "table":
        steps = draw(_STEPS)
        values = draw(st.lists(st.floats(0.01, 10.0), min_size=len(steps) + 1,
                               max_size=len(steps) + 1))
        return DelayKernel.table(np.concatenate([[0.0], np.cumsum(steps)]), values)
    make = getattr(DelayKernel, shape)
    return make(draw(st.floats(0.01, 10.0)), draw(st.floats(0.01, 10.0)))


@st.composite
def _histories(draw):
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["constant", "affine", "table"]))
    if kind == "constant":
        return HistoryFn("constant", value=draw(_vector(dim)))
    if kind == "affine":
        return HistoryFn("affine", value=draw(_vector(dim)), slope=draw(_vector(dim)))
    steps = draw(_STEPS)
    values = [draw(_vector(dim)) for _ in steps]
    return HistoryFn("table", times=-np.cumsum(steps)[::-1], values=values)


@st.composite
def _forcings(draw):
    family = draw(st.sampled_from(["zero", "power_law", "log_damped", "table"]))
    if family == "zero":
        return LeaderForcing.zero()
    direction = draw(_direction(draw(st.integers(1, 3))))
    if family == "power_law":
        return LeaderForcing.power_law(draw(_NUMBERS), draw(st.floats(0.1, 5.0)),
                                       direction=direction)
    if family == "log_damped":
        return LeaderForcing.log_damped(draw(_NUMBERS), draw(st.integers(2, 6)),
                                        direction=direction)
    steps = draw(_STEPS)
    magnitudes = draw(st.lists(_NUMBERS, min_size=len(steps), max_size=len(steps)))
    return LeaderForcing.table(np.cumsum(steps), magnitudes, direction=direction)


_MEMBERS = st.one_of(_potentials(), _kernels(), _histories(), _forcings())
_TAGS = ("family", "shape", "kind")


def _changed(d: dict, key: str) -> dict:
    """``d`` with field ``key`` changed in a way its family still accepts."""
    value = np.asarray(d[key], dtype=float)
    if key == "direction":
        value = -value
    elif key in ("distances", "times"):     # strictly increasing grids
        value[-1] += 1.0
    else:                                   # raising the first sample keeps tables valid
        value.flat[0] += 1.0
    return {**d, key: value.tolist() if value.ndim else float(value)}


class TestFamilyEquality:
    @settings(max_examples=200, deadline=None)
    @given(_MEMBERS)
    def test_json_round_trip_is_equal(self, member):
        text = json.dumps(member.to_dict())
        assert type(member).from_dict(json.loads(text), "member") == member

    @settings(max_examples=200, deadline=None)
    @given(_MEMBERS)
    def test_any_changed_field_is_unequal(self, member):
        d = member.to_dict()
        for key in set(d) - set(_TAGS):
            other = type(member).from_dict(_changed(d, key), "member")
            assert other != member and member != other, key

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.01, 10.0), st.floats(0.01, 10.0))
    def test_builtin_shapes_with_equal_parameters_are_unequal(self, tau, height):
        uniform = DelayKernel.uniform(tau, height)
        assert uniform != DelayKernel.triangular(tau, height)
        assert uniform != DelayKernel.truncated_bump(tau, height)
        assert uniform == DelayKernel.uniform(tau, height)

    @settings(max_examples=50, deadline=None)
    @given(_potentials())
    def test_custom_potential_equals_only_itself(self, builtin):
        def psi(s):
            return 1.0 / (1.0 + s)
        custom = Potential.custom(psi)
        assert custom == custom
        assert custom != Potential.custom(psi)
        assert custom != builtin and builtin != custom

    def test_table_kernel_tau_is_its_last_sample(self):
        # the constructor accepts a tau within 1e-12 relative of the last sample
        kernel = DelayKernel("table", 0.2 * (1 + 1e-13), times=np.array([0.0, 0.2]),
                             values=np.array([1.0, 1.0]))
        assert kernel.tau == 0.2 == DelayKernel.from_dict(kernel.to_dict(), "kernel").tau
