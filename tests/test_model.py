import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlflock.model import (DelayKernel, HistoryFn, HistorySpec, LeaderForcing,
                           LeadershipDag, Potential, Scenario, ScenarioError,
                           check_divergent_tail, check_forcing_conditions,
                           eval_potential, leader_levels,
                           validate_hierarchy)


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

    def test_table_reports_unknown_with_evidence(self):
        p = Potential.table([0.0, 1.0, 5.0], [1.0, 0.8, 0.5])
        report = check_divergent_tail(p, horizon=1e4)
        assert report.verdict == "unknown"
        totals = [total for _, total in report.partial_integrals]
        assert len(totals) >= 3
        assert all(b >= a for a, b in zip(totals, totals[1:]))


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

    def test_table_forcing_numeric_evidence(self):
        f = LeaderForcing.table([0.0, 1.0, 2.0], [1.0, 0.5, 0.0], dim=1)
        cond = check_forcing_conditions(f, 3)
        assert cond.basis == "numeric-evidence"
        assert cond.all_satisfied          # compactly supported
        # evidence grid is heuristic, not an exact quadrature
        assert cond.evidence["partial_l1"] == pytest.approx(1.0, rel=1e-2)

    def test_l1_norms(self):
        assert LeaderForcing.zero().l1_norm() == 0.0
        assert LeaderForcing.power_law(0.5, 3.0, dim=1).l1_norm() == pytest.approx(0.25)
        assert LeaderForcing.power_law(1.0, 0.5, dim=1).l1_norm() == math.inf
        log_mass = LeaderForcing.log_damped(1.0, 2, dim=1).l1_norm()
        assert 0 < log_mass < math.inf

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
], ids=["string", "bool", "negative-beta", "nan-sample", "string-height", "none-tau",
        "bool-sample", "string-entry", "slope-shape", "table-shape", "none-exponent",
        "bool-direction", "float-count", "float-leader"])
def test_constructors_read_numbers_strictly(build, field):
    with pytest.raises(ScenarioError, match=field):
        build()


def test_constructors_accept_numpy_numbers():
    kernel = DelayKernel.uniform(np.float32(0.5), height=np.int64(2))
    assert (kernel.tau, kernel.height) == (0.5, 2.0)
    assert LeadershipDag(np.int64(2), {np.int64(2): [np.int64(1)]}) == LeadershipDag.chain(2)
    assert HistoryFn("constant", value=np.array([1, 2])).to_dict()["value"] == [1.0, 2.0]


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
