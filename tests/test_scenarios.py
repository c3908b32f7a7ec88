import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hlflock.scenarios

from hlflock.diagnostics import ProbeReport
from hlflock.integrator import simulate
from hlflock.model import (DelayKernel, HistoryFn, HistorySpec, LeaderForcing,
                           LeadershipDag, Potential, Scenario, ScenarioError,
                           validate_hierarchy)
from hlflock.scenarios import (GeneratorSpec, _Generator, generate, load_generator,
                               load_scenario, save_run, save_scenario, scenario_to_dict)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

class TestGenerate:
    def test_chain_topology(self):
        scen = generate(GeneratorSpec(topology="chain", n_agents=3, rng_seed=0))
        assert scen.dag.leaders_of(2) == {1}
        assert scen.dag.leaders_of(3) == {2}

    def test_binary_tree_topology(self):
        scen = generate(GeneratorSpec(topology="binary_tree", n_agents=5, rng_seed=0))
        assert scen.dag.leaders_of(4) == {2}
        assert scen.dag.leaders_of(5) == {2}
        assert scen.dag.leaders_of(3) == {1}

    def test_same_seed_reproduces(self):
        spec = GeneratorSpec(topology="random_hl", n_agents=6, dim=2, rng_seed=42)
        assert generate(spec) == generate(spec)

    def test_different_seeds_differ(self):
        a = generate(GeneratorSpec(topology="random_hl", n_agents=6, rng_seed=1))
        b = generate(GeneratorSpec(topology="random_hl", n_agents=6, rng_seed=2))
        assert a != b

    def test_thousand_draws_all_valid(self):
        for seed in range(1000):
            n = 1 + seed % 8
            scen = generate(GeneratorSpec(topology="random_hl", n_agents=n,
                                          rng_seed=seed, edge_prob=0.4))
            assert validate_hierarchy(scen.dag).ok
            assert not scen.problems()

    def test_zero_edge_probability_rejected(self):
        with pytest.raises(ScenarioError, match="edge_prob"):
            generate(GeneratorSpec(topology="random_hl", n_agents=3, edge_prob=0.0))

    def test_unknown_topology_rejected(self):
        with pytest.raises(ScenarioError, match="topology"):
            generate(GeneratorSpec(topology="ring", n_agents=3))

    @pytest.mark.parametrize("field,generator", [
        ("topology", {"topology": "ring"}),
        ("topology", {"topology": ["chain"]}),
        ("edge_prob", {"topology": "random_hl", "edge_prob": 1.5}),
        ("edge_prob", {"topology": "random_hl", "edge_prob": 0.0}),
    ])
    def test_load_names_a_bad_topology_or_edge_probability(self, tmp_path, field, generator):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"generator": {"n_agents": 3, **generator}}))
        named = re.escape(f"{path}.generator.{field} must be ")
        with pytest.raises(ScenarioError, match="^" + named):
            load_generator(path)

    @pytest.mark.parametrize("generator", [
        {"topology": "random_hl", "n_agents": 1, "edge_prob": 0.0},
        {"topology": "chain", "n_agents": 3, "edge_prob": 1.5},
        {"topology": "random_hl", "n_agents": 3, "edge_prob": 1.0},
    ])
    def test_edge_probability_is_read_only_where_it_draws(self, tmp_path, generator):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"generator": generator}))
        assert load_generator(path).edge_prob == generator["edge_prob"]

    def test_delay_grid_always_aligned(self):
        for seed in range(50):
            scen = generate(GeneratorSpec(topology="chain", n_agents=3, rng_seed=seed))
            assert scen.delay_steps == 8
            assert scen.t_end >= scen.tau


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------

def rich_scenario():
    history = HistorySpec(
        [HistoryFn("constant", value=np.array([0.125, -3.0])),
         HistoryFn("affine", value=np.array([1.0, 2.0]), slope=np.array([0.3, -0.4])),
         HistoryFn("table", times=np.array([-0.2, -0.07, 0.0]),
                   values=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))],
        [HistoryFn("constant", value=np.array([0.5, -0.25]))] * 3)
    return Scenario(dag=LeadershipDag(3, {2: {1}, 3: {1, 2}}), dim=2,
                    potential=Potential.cucker_smale(0.37),
                    kernel=DelayKernel.triangular(0.2, peak=7.3),
                    history=history,
                    forcing=LeaderForcing.power_law(0.5, 3.0, direction=[3.0, 4.0]),
                    t_end=1.0, dt=0.025, rng_seed=17)


def golden_scenarios():
    """Between them: every serializable potential, kernel, forcing and history."""
    rich = rich_scenario()
    single = Scenario(dag=LeadershipDag(1), dim=2, potential=Potential.cucker_smale(0.5),
                      kernel=DelayKernel.uniform(0.3),
                      history=HistorySpec.constant([[0.0, 1.5]], [[1.0, -0.5]]),
                      t_end=1.5, dt=0.025, rng_seed=4)
    table = Potential.table([0.0, 1.0, 4.0], [1.0, 0.5, 0.5])
    return {
        "rich": rich,
        "table-uniform-zero": replace(single, potential=table),
        "truncated_bump-log_damped": replace(
            single, kernel=DelayKernel.truncated_bump(0.3),
            forcing=LeaderForcing.log_damped(0.25, 3, dim=2)),
        "table-table-table": replace(
            single, potential=table,
            kernel=DelayKernel.table([0.0, 0.03, 0.3], [0.5, 2.0, 0.25]),
            forcing=LeaderForcing.table([0.0, 0.5, 2.0], [0.3, 0.1, 0.0], direction=[1.0, 2.0])),
    }


GOLDEN = Path(__file__).resolve().parent / "golden"


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(golden_scenarios()))
    def test_saved_text_matches_golden_file(self, tmp_path, name):
        # the expected files fix key order and number formatting byte for byte
        scen = golden_scenarios()[name]
        path = tmp_path / "scenario.json"
        save_scenario(scen, path)
        golden = GOLDEN / f"{name}.json"
        assert path.read_text() == golden.read_text()
        assert load_scenario(golden) == scen

    def test_rich_scenario_bit_exact(self, tmp_path):
        scen = rich_scenario()
        path = tmp_path / "scenario.json"
        save_scenario(scen, path)
        assert load_scenario(path) == scen

    def test_generated_scenario_round_trips(self, tmp_path):
        scen = generate(GeneratorSpec(topology="random_hl", n_agents=7, dim=3, rng_seed=9))
        path = tmp_path / "scenario.json"
        save_scenario(scen, path)
        assert load_scenario(path) == scen

    @pytest.mark.parametrize("kernel", [
        DelayKernel.uniform(0.1, height=3.0),
        DelayKernel.truncated_bump(0.1),
        DelayKernel.table([0.0, 0.03, 0.1], [0.5, 2.0, 0.25]),
    ])
    def test_kernel_variants(self, tmp_path, kernel):
        scen = Scenario(dag=LeadershipDag.chain(2), dim=1,
                        potential=Potential.table([0.0, 1.0, 4.0], [1.0, 0.5, 0.5]),
                        kernel=kernel,
                        history=HistorySpec.constant([[0.0], [1.0]], [[0.0], [1.0]]),
                        forcing=LeaderForcing.log_damped(0.25, 2, dim=1),
                        t_end=0.5, dt=0.01)
        path = tmp_path / "scenario.json"
        save_scenario(scen, path)
        assert load_scenario(path) == scen

    def test_table_forcing_round_trips(self, tmp_path):
        scen = Scenario(dag=LeadershipDag.chain(2), dim=2,
                        potential=Potential.cucker_smale(0.5),
                        kernel=DelayKernel.uniform(0.1),
                        history=HistorySpec.constant([[0.0, 0.0], [1.0, 0.0]],
                                                     [[0.0, 0.0], [0.0, 1.0]]),
                        forcing=LeaderForcing.table([0.0, 0.5, 2.0], [0.3, 0.1, 0.0],
                                                    direction=[1.0, 2.0]),
                        t_end=1.0, dt=0.01)
        path = tmp_path / "scenario.json"
        save_scenario(scen, path)
        assert load_scenario(path) == scen

    def test_minimal_single_agent_file(self, tmp_path):
        data = {"n_agents": 1, "dim": 1, "leaders": {},
                "potential": {"family": "cucker_smale", "beta": 0.5},
                "kernel": {"shape": "uniform", "tau": 0.1},
                "history": [{"position": {"kind": "constant", "value": [0.0]},
                             "velocity": {"kind": "constant", "value": [1.0]}}],
                "t_end": 1.0, "dt": 0.1}
        path = tmp_path / "one.json"
        path.write_text(json.dumps(data))
        scen = load_scenario(path)
        assert scen.n_agents == 1
        assert scen.forcing.is_zero

    def test_custom_potential_not_serializable(self, tmp_path):
        scen = rich_scenario()
        scen.potential = Potential.custom(lambda s: np.exp(-np.asarray(s)) + 0.5)
        with pytest.raises(ScenarioError, match="custom"):
            save_scenario(scen, tmp_path / "x.json")


class TestSchemaErrors:
    def test_misaligned_delay_reported(self, tmp_path):
        data = scenario_to_dict(rich_scenario())
        data["dt"] = 0.03
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match="tau"):
            load_scenario(path)

    def test_missing_field_identified(self, tmp_path):
        data = scenario_to_dict(rich_scenario())
        del data["kernel"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match="kernel"):
            load_scenario(path)

    def test_bad_history_entry_identified(self, tmp_path):
        data = scenario_to_dict(rich_scenario())
        data["history"][1]["velocity"] = {"kind": "affine", "value": [1.0, 2.0]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match=r"history\[1\]"):
            load_scenario(path)

    def test_json_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n "n_agents": 2,\n "dim": \n}\n')
        with pytest.raises(ScenarioError, match="line"):
            load_scenario(path)

    @pytest.mark.parametrize("family,message", [
        ("potential", "bad.json.potential: unknown family 'yukawa'"),
        ("kernel", "bad.json.kernel: unknown shape 'yukawa'"),
        ("forcing", "bad.json.forcing: unknown family 'yukawa'"),
    ])
    def test_unknown_family_names_its_field(self, tmp_path, family, message):
        data = scenario_to_dict(rich_scenario())
        data[family] = {"family": "yukawa", "shape": "yukawa"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match=message):
            load_scenario(path)

    def test_unknown_generator_field_rejected(self, tmp_path):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"generator": {"topology": "chain", "n_agents": 3,
                                                  "colour": "red"}}))
        with pytest.raises(ScenarioError, match="colour"):
            load_scenario(path)


def _draw(rng, op: int, arg: int):
    """One Generator call chosen by ``op``; ``arg`` picks its range."""
    if op == 0:
        return rng.random()
    if op == 1:
        return rng.uniform(-arg / 7.0, arg / 3.0)
    if op == 2:
        return rng.uniform(0.0, 1.5, size=(arg % 4 + 1, arg % 3 + 1)).tolist()
    if op == 3:
        return int(rng.integers(arg % 5, arg % 5 + arg))
    return float(rng.choice(np.asarray([0.0, 0.25, 0.5, 1.0][:arg % 4 + 1])))


class TestGeneratorPort:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.one_of(st.integers(0, 2**32), st.integers(0, 2**160)),
           calls=st.lists(st.tuples(st.integers(0, 4), st.sampled_from(
               [1, 2, 3, 7, 100, 2**31 + 5, 2**32])), max_size=40))
    def test_draws_equal_numpy_default_rng(self, seed, calls):
        port, ref = _Generator(seed), np.random.default_rng(seed)
        for op, arg in calls:
            assert _draw(port, op, arg) == _draw(ref, op, arg)

    @pytest.mark.parametrize("spec", [
        GeneratorSpec(topology="chain", n_agents=4, dim=1, velocity_range=(0.0, 1.0),
                      tau_range=(0.2, 0.5), delay_steps=40, sim_span=4.0),
        GeneratorSpec(topology="binary_tree", n_agents=9, dim=2,
                      beta_choices=(0.0, 0.1, 0.2, 0.3, 0.4)),
        GeneratorSpec(topology="random_hl", n_agents=12, dim=3, edge_prob=0.3,
                      kernel_shapes=("uniform", "triangular", "truncated_bump")),
        GeneratorSpec(topology="random_hl", n_agents=6, edge_prob=1.0, beta_choices=(0.5,),
                      kernel_shapes=("triangular",)),
    ], ids=["chain", "binary_tree", "random_hl", "random_hl-single-choices"])
    def test_scenarios_equal_those_drawn_with_numpy(self, monkeypatch, spec):
        for seed in range(60):
            drawn = json.dumps(scenario_to_dict(generate(replace(spec, rng_seed=seed))))
            with monkeypatch.context() as m:
                m.setattr(hlflock.scenarios, "_Generator", np.random.default_rng)
                ref = json.dumps(scenario_to_dict(generate(replace(spec, rng_seed=seed))))
            assert drawn == ref

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ScenarioError, match="rng_seed"):
            generate(GeneratorSpec(topology="chain", n_agents=3, rng_seed=seed))

    def test_range_of_infinite_width_is_rejected(self):
        with pytest.raises(ScenarioError, match="position_range"):
            generate(GeneratorSpec(topology="chain", n_agents=3,
                                   position_range=(-1e308, 1e308)))


class TestGeneratorFiles:
    def test_loads_and_draws(self, tmp_path):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"generator": {"topology": "random_hl",
                                                  "n_agents": 4, "rng_seed": 3}}))
        scen = load_scenario(path)
        assert scen.rng_seed == 3
        assert validate_hierarchy(scen.dag).ok

    def test_seed_override(self, tmp_path):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"generator": {"topology": "random_hl",
                                                  "n_agents": 4, "rng_seed": 3}}))
        a = load_scenario(path, seed=11)
        assert a.rng_seed == 11
        assert a == generate(GeneratorSpec(topology="random_hl", n_agents=4, rng_seed=11))


    def test_lists_are_read_as_tuples_of_floats(self, tmp_path):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"generator": {
            "topology": "chain", "n_agents": 3, "tau_range": [0.1, 1],
            "beta_choices": [0, 0.5], "kernel_shapes": ["uniform"]}}))
        spec = load_generator(path)
        assert spec == GeneratorSpec(topology="chain", n_agents=3, tau_range=(0.1, 1.0),
                                     beta_choices=(0.0, 0.5), kernel_shapes=("uniform",))
        assert hash(spec) == hash(replace(spec))


class TestSaveRun:
    def test_bundle_contents(self, tmp_path):
        scen = generate(GeneratorSpec(topology="chain", n_agents=3, dim=2, rng_seed=5))
        traj = simulate(scen)
        reports = [ProbeReport(name="demo", passed=True, details={"value": 1.0})]
        outdir = save_run(traj, reports, tmp_path / "bundle")
        assert (outdir / "scenario.json").exists()
        assert (outdir / "trajectory.csv").exists()
        assert (outdir / "report.json").exists()
        assert "demo: PASS" in (outdir / "report.txt").read_text()
        assert load_scenario(outdir / "scenario.json") == scen
