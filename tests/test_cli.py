import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hlflock.cli
import hlflock.diagnostics
import hlflock.integrator
import hlflock.model
import hlflock.scenarios
from hlflock.cli import main
from hlflock.csvio import write_trajectory_csv
from hlflock.integrator import BlowUpError, Trajectory, simulate, simulate_many
from hlflock.model import (DelayKernel, HistorySpec, LeaderForcing,
                           LeadershipDag, Potential, Scenario)
from hlflock.scenarios import GeneratorSpec, generate, load_scenario, save_scenario

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_import_loads_no_scipy():
    # no module imports scipy; tests/test_imports.py checks every import
    src = str(Path(hlflock.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, hlflock, hlflock.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_drawing_a_scenario_loads_neither_numpy_random_nor_concurrent_futures():
    # generate draws from its own PCG64 port; only sweep --workers > 1 needs a pool
    src = str(Path(hlflock.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, hlflock.cli; from hlflock.scenarios import GeneratorSpec, generate; "
            "generate(GeneratorSpec(topology='random_hl', n_agents=5, dim=2, rng_seed=3)); "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('numpy.random', 'concurrent.futures'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def hot_scenario(rng_seed=0):
    """A two-agent chain whose follower blows up: a window of 8 steps, as the
    generator's default ``delay_steps``, in one dimension."""
    return Scenario(dag=LeadershipDag.chain(2), dim=1,
                    potential=Potential.cucker_smale(0.0),
                    kernel=DelayKernel.uniform(0.08, height=1e5),
                    history=HistorySpec.constant([[0.0], [1.0]], [[0.0], [1.0]]),
                    t_end=2.0, dt=0.01, rng_seed=rng_seed)


@pytest.fixture
def simulate_calls(monkeypatch):
    """Count every scenario the CLI and the probes simulate, one at a time or
    through simulate_many."""
    calls = []

    def counted(scenario, on_step=None):
        calls.append(scenario.rng_seed)
        return simulate(scenario, on_step)

    def counted_many(scenarios):
        calls.extend(scenario.rng_seed for scenario in scenarios)
        return simulate_many(scenarios)
    for module in (hlflock.cli, hlflock.diagnostics):
        monkeypatch.setattr(module, "simulate", counted)
    monkeypatch.setattr(hlflock.cli, "simulate_many", counted_many)
    return calls


@pytest.fixture
def two_flock_file(tmp_path):
    scen = Scenario(dag=LeadershipDag.chain(2), dim=2,
                    potential=Potential.cucker_smale(0.5),
                    kernel=DelayKernel.uniform(0.1),
                    history=HistorySpec.constant([[0.0, 0.0], [1.0, 0.0]],
                                                 [[0.0, 0.0], [0.0, 1.0]]),
                    t_end=10.0, dt=0.01)
    path = tmp_path / "two.json"
    save_scenario(scen, path)
    return path


class TestSimulateCommand:
    def test_artifacts_and_exit(self, two_flock_file, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(two_flock_file), "--out", str(out)]) == 0
        assert (out / "trajectory.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_speed"] <= 1.0 + 1e-8
        assert summary["final_velocity_diameter"] < 0.1

    def test_bit_identical_to_library(self, two_flock_file, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--scenario", str(two_flock_file), "--out", str(out)])
        ref = tmp_path / "ref.csv"
        traj = simulate(load_scenario(two_flock_file))
        write_trajectory_csv(traj, ref)
        assert ref.read_bytes() == (out / "trajectory.csv").read_bytes()
        summary = json.loads((out / "summary.json").read_text())
        v_gap = traj.v[-1, 1, :] - traj.v[-1, 0, :]
        assert summary["final_velocity_diameter"] == float(np.linalg.norm(v_gap))

    def test_single_agent_csv_has_constant_velocity(self, tmp_path):
        scen = Scenario(dag=LeadershipDag(1), dim=1,
                        potential=Potential.cucker_smale(0.5),
                        kernel=DelayKernel.uniform(0.1),
                        history=HistorySpec.constant([[0.0]], [[0.7]]),
                        t_end=1.0, dt=0.1)
        path = tmp_path / "one.json"
        save_scenario(scen, path)
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text().strip().splitlines()
        assert rows[0] == "t,x1_1,v1_1"
        assert all(line.split(",")[2] == "0.69999999999999996" for line in rows[1:])

    def test_consensus_summary_diameter_is_zero(self, tmp_path):
        scen = Scenario(dag=LeadershipDag.chain(2), dim=1,
                        potential=Potential.cucker_smale(0.5),
                        kernel=DelayKernel.uniform(0.1),
                        history=HistorySpec.constant([[0.0], [1.0]], [[0.5], [0.5]]),
                        t_end=1.0, dt=0.01)
        path = tmp_path / "cons.json"
        save_scenario(scen, path)
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_velocity_diameter"] < 1e-12

    def test_summary_diameters_from_last_state_only(self, tmp_path, monkeypatch):
        scen = Scenario(dag=LeadershipDag(3, {2: {1}, 3: {1, 2}}), dim=2,
                        potential=Potential.cucker_smale(0.4),
                        kernel=DelayKernel.triangular(0.1),
                        history=HistorySpec.constant([[0.0, 0.0], [1.0, 0.5], [-0.5, 2.0]],
                                                     [[0.0, 0.3], [0.7, 0.0], [-0.2, 0.9]]),
                        t_end=2.0, dt=0.01)
        path = tmp_path / "three.json"
        save_scenario(scen, path)
        shapes = []
        real = hlflock.diagnostics._pairwise_diameter
        monkeypatch.setattr(hlflock.diagnostics, "_pairwise_diameter",
                            lambda arr: shapes.append(arr.shape) or real(arr))
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
        assert shapes and all(shape[0] == 1 for shape in shapes)
        monkeypatch.undo()
        series = hlflock.diagnostics.consensus_series(simulate(load_scenario(path)))
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_velocity_diameter"] == float(series.velocity_diameter[-1])
        assert summary["final_position_diameter"] == float(series.position_diameter[-1])
        assert summary["final_position_diameter"] > 0.0

    def test_overrides_revalidated(self, two_flock_file, tmp_path):
        code = main(["simulate", "--scenario", str(two_flock_file),
                     "--out", str(tmp_path / "x"), "--dt", "0.03"])
        assert code == 2

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["simulate", "--scenario", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_blow_up_exit_code(self, tmp_path):
        scen = Scenario(dag=LeadershipDag.chain(2), dim=1,
                        potential=Potential.cucker_smale(0.0),
                        kernel=DelayKernel.uniform(0.1, height=1e5),
                        history=HistorySpec.constant([[0.0], [1.0]], [[0.0], [1.0]]),
                        t_end=2.0, dt=0.01)
        path = tmp_path / "hot.json"
        save_scenario(scen, path)
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("field,value", [
        ("n_agents", "5"), ("delay_steps", 0), ("kernel_shapes", []),
        ("beta_choices", [0.0, "a"]), ("sim_span", "x"), ("edge_prob", "half"),
        ("position_range", [-1.0, "1"]), ("position_range", [1]),
        ("velocity_range", [0.0, 1.0, 2.0]), ("velocity_range", [1.0, 0.0]),
        ("position_range", [0.0, float("inf")]), ("tau_range", [0.0, 0.5])])
    def test_malformed_generator_spec_is_usage_error(self, tmp_path, capsys, field, value):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"generator": {"topology": "chain", "n_agents": 3,
                                                  field: value}}))
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("field,patch", [
        ("beta", {"potential": {"family": "cucker_smale", "beta": math.nan}}),
        ("amplitude", {"forcing": {"family": "power_law", "amplitude": math.inf,
                                   "exponent": 3.0, "direction": [1.0, 0.0]}}),
        ("exponent", {"forcing": {"family": "power_law", "amplitude": 1.0,
                                  "exponent": math.nan, "direction": [1.0, 0.0]}}),
        ("decay_power", {"forcing": {"family": "log_damped", "amplitude": 1.0,
                                     "decay_power": math.inf, "direction": [1.0, 0.0]}}),
        ("t_end", {"t_end": math.inf}),
        ("magnitudes", {"forcing": {"family": "table", "times": [0.0, 1.0],
                                    "magnitudes": [math.nan, 0.0], "direction": [1.0, 0.0]}}),
        ("times", {"forcing": {"family": "table", "times": [0.0, math.inf],
                               "magnitudes": [1.0, 0.0], "direction": [1.0, 0.0]}}),
    ])
    def test_non_finite_number_is_usage_error(self, two_flock_file, tmp_path, capsys,
                                              field, patch):
        # Python's json reads and writes NaN and Infinity
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**json.loads(two_flock_file.read_text()), **patch}))
        out = tmp_path / "o"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_out_defaults_to_env_root(self, two_flock_file, tmp_path, monkeypatch):
        root = tmp_path / "envroot"
        monkeypatch.setenv("HLFLOCK_OUT", str(root))
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--scenario", str(two_flock_file)]) == 0
        assert (root / "trajectory.csv").exists()


class TestCheckCommand:
    def test_clean_scenario_passes(self, two_flock_file, tmp_path, capsys):
        out = tmp_path / "chk"
        assert main(["check", "--scenario", str(two_flock_file), "--out", str(out),
                     "-v"]) == 0
        report = json.loads((out / "check_report.json").read_text())
        assert report["passed"] is True
        names = {p["name"]: p["passed"] for p in report["runs"][0]["probes"]}
        assert names["two_flock_bound"] is True
        assert names["ball_invariance"] is True
        assert names["positivity"] is None      # needs a 1-d scenario
        # -v appends each report's details dict to its line
        lines = capsys.readouterr().out.splitlines()
        for probe in report["runs"][0]["probes"]:
            line = next(ln for ln in lines if ln.startswith(probe["name"] + ":"))
            assert all(f"'{key}':" in line for key in probe["details"])

    def test_report_is_the_library_probe_run(self, two_flock_file, tmp_path):
        out = tmp_path / "chk"
        assert main(["check", "--scenario", str(two_flock_file), "--out", str(out)]) == 0
        report = json.loads((out / "check_report.json").read_text())
        library = hlflock.diagnostics.run_probes(simulate(load_scenario(two_flock_file)))
        assert [r.to_dict() for r in library] == report["runs"][0]["probes"]

    def test_one_simulation_per_scenario(self, tmp_path, simulate_calls):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"generator": {
            "topology": "chain", "n_agents": 3, "dim": 1, "rng_seed": 0}}))
        assert main(["check", "--scenario", str(path), "--out", str(tmp_path / "chk"),
                     "--count", "2", "--seed", "5"]) == 0
        assert simulate_calls == [5, 6]

    def test_loads_each_seed_once(self, tmp_path, monkeypatch):
        # the generator file is read once, and each seed drawn from it once
        reads, seeds = [], []
        read_json, draw = hlflock.scenarios._read_json, hlflock.cli.generate

        def counted_read(path):
            reads.append(path)
            return read_json(path)

        def counted_draw(spec):
            seeds.append(spec.rng_seed)
            return draw(spec)
        monkeypatch.setattr(hlflock.scenarios, "_read_json", counted_read)
        monkeypatch.setattr(hlflock.cli, "generate", counted_draw)
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"generator": {
            "topology": "chain", "n_agents": 2, "dim": 1, "rng_seed": 0}}))
        assert main(["check", "--scenario", str(path), "--out", str(tmp_path / "chk"),
                     "--count", "3", "--seed", "4", "--probes", "ball"]) == 0
        assert reads == [path]
        assert seeds == [4, 5, 6]

    @pytest.mark.parametrize("flag,message", [("--dt", "dt must be positive"),
                                              ("--t-end", "t_end")])
    def test_zero_override_is_usage_error(self, two_flock_file, tmp_path, capsys,
                                          flag, message):
        out = tmp_path / "chk"
        assert main(["check", "--scenario", str(two_flock_file), "--out", str(out),
                     flag, "0"]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "check_report.json").exists()

    def test_unstable_fixture_fails(self, tmp_path):
        # Heun is unstable at this kernel mass and step; the invariance
        # probes must catch the (finite) numerical explosion.
        scen = Scenario(dag=LeadershipDag.chain(2), dim=1,
                        potential=Potential.cucker_smale(0.0),
                        kernel=DelayKernel.uniform(0.1, height=2500.0),
                        history=HistorySpec.constant([[0.0], [1.0]], [[0.2], [0.8]]),
                        t_end=0.5, dt=0.01)
        path = tmp_path / "unstable.json"
        save_scenario(scen, path)
        out = tmp_path / "chk"
        assert main(["check", "--scenario", str(path), "--out", str(out)]) == 1
        report = json.loads((out / "check_report.json").read_text())
        assert report["n_failed_probes"] >= 1

    def test_inadmissible_forcing_reports_unmet_and_passes(self, tmp_path):
        scen = Scenario(dag=LeadershipDag.chain(3), dim=1,
                        potential=Potential.cucker_smale(0.5),
                        kernel=DelayKernel.uniform(0.1),
                        history=HistorySpec.constant([[0.0], [1.0], [2.0]],
                                                     [[0.0], [0.1], [0.2]]),
                        forcing=LeaderForcing.power_law(1.0, 0.5, dim=1),
                        t_end=2.0, dt=0.01)
        path = tmp_path / "forced.json"
        save_scenario(scen, path)
        out = tmp_path / "chk"
        assert main(["check", "--scenario", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "check_report.json").read_text())
        probes = {p["name"]: p for p in report["runs"][0]["probes"]}
        assert probes["free_will_consensus"]["passed"] is None
        assert probes["free_will_consensus"]["details"]["status"] == "hypotheses unmet"

    def test_single_agent_scenario_all_skipped_or_passing(self, tmp_path):
        scen = Scenario(dag=LeadershipDag(1), dim=1,
                        potential=Potential.cucker_smale(0.5),
                        kernel=DelayKernel.uniform(0.1),
                        history=HistorySpec.constant([[0.0]], [[0.7]]),
                        t_end=1.0, dt=0.1)
        path = tmp_path / "one.json"
        save_scenario(scen, path)
        assert main(["check", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("name", ["table-table-table", "truncated_bump-log_damped"])
    def test_single_forced_agent_skips_free_will(self, tmp_path, name):
        # the forcing conditions are defined for >= 2 agents; the other probes still run
        out = tmp_path / "chk"
        assert main(["check", "--scenario", str(GOLDEN / f"{name}.json"), "--out", str(out)]) == 0
        report = json.loads((out / "check_report.json").read_text())
        probes = {p["name"]: p for p in report["runs"][0]["probes"]}
        assert list(probes) == ["positivity", "ball_invariance", "two_flock_bound",
                                "lyapunov_dissipation", "free_will_consensus"]
        assert probes["free_will_consensus"]["passed"] is None
        assert probes["free_will_consensus"]["details"]["status"].startswith("skipped: ")

    @pytest.mark.parametrize("decay_power", [1074.0, 1100.0])
    def test_steep_log_damped_forcing_gets_its_l1_mass(self, tmp_path, decay_power):
        # (1 - e^-u)^q underflows at these q in a naive integrand
        forcing = LeaderForcing("log_damped", amplitude=1.0, decay_power=decay_power,
                                direction=[1.0, 0.0])
        scen = Scenario(dag=LeadershipDag.chain(2), dim=2,
                        potential=Potential.cucker_smale(0.5),
                        kernel=DelayKernel.uniform(0.1),
                        history=HistorySpec.constant([[0.0, 0.0], [1.0, 0.0]],
                                                     [[1.0, 0.5], [0.0, 0.0]]),
                        forcing=forcing, t_end=1.0, dt=0.01)
        path = tmp_path / "steep.json"
        save_scenario(scen, path)
        out = tmp_path / "chk"
        assert main(["check", "--scenario", str(path), "--out", str(out),
                     "--probes", "free-will"]) in (0, 1)
        report = json.loads((out / "check_report.json").read_text())
        details = report["runs"][0]["probes"][0]["details"]
        assert details["root_speed_cap"] == float(np.linalg.norm([1.0, 0.5])) + forcing.l1_norm()
        assert forcing.l1_norm() > 1e-3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_blow_up_after_earlier_reports(self, tmp_path, monkeypatch, capsys):
        with pytest.raises(BlowUpError) as alone:
            simulate(hot_scenario())
        real = hlflock.cli.generate
        monkeypatch.setattr(hlflock.cli, "generate", lambda spec: (
            hot_scenario(6) if spec.rng_seed == 6 else real(spec)))
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"generator": {
            "topology": "chain", "n_agents": 3, "dim": 1, "rng_seed": 0}}))
        out = tmp_path / "chk"
        assert main(["check", "--scenario", str(path), "--out", str(out),
                     "--count", "3", "--seed", "5", "--probes", "ball"]) == 3
        captured = capsys.readouterr()
        assert captured.out.count("ball_invariance: PASS") == 1
        assert captured.err == f"error: {alone.value}\n"
        assert not (out / "check_report.json").exists()

    def test_unknown_probe_name_is_usage_error(self, two_flock_file, tmp_path):
        assert main(["check", "--scenario", str(two_flock_file),
                     "--out", str(tmp_path), "--probes", "ball,telepathy"]) == 2

    def test_count_needs_a_generator_file(self, two_flock_file, tmp_path, capsys,
                                          simulate_calls):
        out = tmp_path / "chk"
        assert main(["check", "--scenario", str(two_flock_file), "--out", str(out),
                     "--count", "4"]) == 2
        assert "--count" in capsys.readouterr().err
        assert simulate_calls == []
        assert not out.exists()

    def test_generator_with_count(self, tmp_path):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"generator": {
            "topology": "random_hl", "n_agents": 4, "dim": 1,
            "velocity_range": [0.0, 1.0], "rng_seed": 0}}))
        out = tmp_path / "chk"
        assert main(["check", "--scenario", str(path), "--out", str(out),
                     "--count", "3", "--probes", "positivity,ball"]) == 0
        report = json.loads((out / "check_report.json").read_text())
        assert report["n_scenarios"] == 3
        assert {r["rng_seed"] for r in report["runs"]} == {0, 1, 2}


class TestFitDecayCommand:
    @staticmethod
    def planted_csv(path, times):
        """Two agents whose velocity gap is exp(-2 t), as a trajectory CSV."""
        v = np.zeros((times.size, 2, 1))
        v[:, 1, 0] = np.exp(-2.0 * times)
        write_trajectory_csv(Trajectory(times=times, x=np.zeros_like(v), v=v,
                                        hist_times=np.empty(0), hist_x=np.empty((0, 2, 1)),
                                        hist_v=np.empty((0, 2, 1))), path)
        return path

    def test_planted_rate_from_csv(self, tmp_path):
        csv_path = self.planted_csv(tmp_path / "planted.csv", np.linspace(0.0, 3.0, 301))
        out = tmp_path / "fit"
        assert main(["fit-decay", "--traj", str(csv_path), "--out", str(out),
                     "--window", "0", "3"]) == 0
        result = json.loads((out / "decay_fit.json").read_text())
        assert abs(result["rate"] - 2.0) <= 1e-6
        assert (out / "decay_fit.csv").exists()

    def test_csv_rows_are_the_samples_the_fit_used(self, tmp_path):
        # 7 * 0.01 rounds to just above 0.07, so an exact window test drops t = 0.07.
        csv_path = self.planted_csv(tmp_path / "grid.csv", np.arange(301) * 0.01)
        out = tmp_path / "fit"
        assert main(["fit-decay", "--traj", str(csv_path), "--out", str(out),
                     "--window", "0.07", "0.7"]) == 0
        result = json.loads((out / "decay_fit.json").read_text())
        table = np.loadtxt(out / "decay_fit.csv", delimiter=",", skiprows=1, ndmin=2)
        assert result["n_used"] == 64
        assert np.count_nonzero(table[:, 1] > 1e-12) == result["n_used"]

    def test_reads_only_the_velocity_diameter(self, two_flock_file, tmp_path, monkeypatch):
        calls = []
        real = hlflock.diagnostics._pairwise_diameter
        monkeypatch.setattr(hlflock.diagnostics, "_pairwise_diameter",
                            lambda arr: calls.append(arr) or real(arr))
        out = tmp_path / "fit"
        assert main(["fit-decay", "--scenario", str(two_flock_file), "--out", str(out)]) == 0
        assert len(calls) == 1

    def test_scenario_input_uses_tail_window(self, two_flock_file, tmp_path):
        out = tmp_path / "fit"
        assert main(["fit-decay", "--scenario", str(two_flock_file), "--out", str(out)]) == 0
        result = json.loads((out / "decay_fit.json").read_text())
        assert result["window"] == [5.0, 10.0]
        assert result["rate"] > 0

    def test_needs_scenario_or_traj(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["fit-decay", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_scenario_and_traj_are_exclusive(self, two_flock_file, tmp_path):
        csv_path = self.planted_csv(tmp_path / "planted.csv", np.linspace(0.0, 3.0, 301))
        with pytest.raises(SystemExit) as exc:
            main(["fit-decay", "--scenario", str(two_flock_file), "--traj", str(csv_path),
                  "--out", str(tmp_path / "fit")])
        assert exc.value.code == 2
        assert not (tmp_path / "fit").exists()

    # scenario overrides, and windows that are not finite with T_A < T_B
    @pytest.mark.parametrize("args", [("--dt", "0.5"), ("--t-end", "1"), ("--seed", "3"),
                                      ("--window", "5", "3"), ("--window", "2", "2"),
                                      ("--window", "nan", "3"), ("--window", "0", "inf"),
                                      ("--window", "1e400", "1e401")], ids=" ".join)
    def test_bad_options_with_traj_are_usage_error(self, tmp_path, capsys, args):
        csv_path = self.planted_csv(tmp_path / "planted.csv", np.linspace(0.0, 3.0, 301))
        out = tmp_path / "fit"
        assert main(["fit-decay", "--traj", str(csv_path), "--out", str(out), *args]) == 2
        assert args[0] in capsys.readouterr().err
        assert not out.exists()

    def test_decay_fit_csv_matches_savetxt(self, tmp_path):
        times = np.linspace(0.0, 3.0, 301)
        v = np.zeros((times.size, 2, 1))
        v[:, 1, 0] = np.exp(-2.0 * times)
        v[::7, 1, 0] = 0.0                      # censored samples: log diameter -inf
        csv_path = tmp_path / "censored.csv"
        write_trajectory_csv(Trajectory(times=times, x=np.zeros_like(v), v=v,
                                        hist_times=np.empty(0), hist_x=np.empty((0, 2, 1)),
                                        hist_v=np.empty((0, 2, 1))), csv_path)
        out = tmp_path / "fit"
        assert main(["fit-decay", "--traj", str(csv_path), "--out", str(out),
                     "--window", "0", "3"]) == 0
        written = (out / "decay_fit.csv").read_bytes()
        table = np.loadtxt(out / "decay_fit.csv", delimiter=",", skiprows=1, ndmin=2)
        assert np.isneginf(table[:, 2]).any()
        ref = tmp_path / "ref.csv"
        np.savetxt(ref, table, fmt="%.17g", delimiter=",",
                   header="t,velocity_diameter,log_diameter,fitted_log", comments="")
        assert written == ref.read_bytes()

    @pytest.mark.parametrize("content,needle", [
        ("t,x1_1,v1_1,x2_1,v2_1\n0,0,0,1,1\n0.1,0,0,1\n", "row"),
        ("t,x1_1,v1_1,x2_1,v2_1\n0,0,0,1,1\n0.1,0,a,1,1\n", "row"),
        ("t,xa_1,v1_1,x2_1,v2_1\n0,0,0,1,1\n", "not a trajectory CSV"),
        ("", "empty file"),
        ("t,x1_1,v1_1,x2_1,v2_1\n", "no data rows"),
    ], ids=["ragged-row", "non-numeric-cell", "bad-header-token", "empty-file",
            "header-only"])
    def test_malformed_csv_is_usage_error(self, tmp_path, capsys, content, needle):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        out = tmp_path / "fit"
        assert main(["fit-decay", "--traj", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and needle in err
        assert not out.exists()

    def test_csv_larger_than_memory_is_usage_error(self, tmp_path, capsys, monkeypatch):
        csv_path = self.planted_csv(tmp_path / "planted.csv", np.linspace(0.0, 3.0, 301))
        monkeypatch.setattr(hlflock.integrator, "_physical_memory", lambda: 1)
        out = tmp_path / "fit"
        assert main(["fit-decay", "--traj", str(csv_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{csv_path}: 301 data rows: its trajectory needs {16 * 301 * 2} bytes" in err
        assert not out.exists()

    @pytest.mark.parametrize("bad_row", ["0.1,0,0,1", "0.1,0,a,1,1"],
                             ids=["ragged-row", "non-numeric-cell"])
    def test_malformed_csv_names_the_file_line(self, tmp_path, capsys, bad_row):
        # the header is line 1, so the second data row is line 3
        path = tmp_path / "bad.csv"
        path.write_text(f"t,x1_1,v1_1,x2_1,v2_1\n0,0,0,1,1\n{bad_row}\n0.2,0,0,1,1\n")
        assert main(["fit-decay", "--traj", str(path), "--out", str(tmp_path / "fit")]) == 2
        assert "row at line 3" in capsys.readouterr().err

    def test_all_censored_input_fails(self, tmp_path):
        times = np.linspace(0.0, 1.0, 50)
        v = np.full((50, 2, 1), 0.5)    # consensus: diameter is exactly zero
        traj = Trajectory(times=times, x=np.zeros((50, 2, 1)), v=v,
                          hist_times=np.empty(0), hist_x=np.empty((0, 2, 1)),
                          hist_v=np.empty((0, 2, 1)))
        csv_path = tmp_path / "flat.csv"
        write_trajectory_csv(traj, csv_path)
        assert main(["fit-decay", "--traj", str(csv_path), "--out", str(tmp_path)]) == 1


class TestSweepCommand:
    def test_parallel_sweep(self, tmp_path):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"generator": {
            "topology": "random_hl", "n_agents": 4, "dim": 2, "rng_seed": 0}}))
        out = tmp_path / "sweep"
        assert main(["sweep", "--scenario", str(path), "--out", str(out),
                     "--count", "4", "--workers", "2", "--seed", "10"]) == 0
        for seed in range(10, 14):
            rundir = out / f"run_{seed:05d}"
            assert (rundir / "trajectory.csv").exists()
            assert load_scenario(rundir / "scenario.json").rng_seed == seed

    def test_one_simulation_per_seed(self, tmp_path, simulate_calls):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"generator": {
            "topology": "chain", "n_agents": 3, "dim": 1, "rng_seed": 0}}))
        assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "sweep"),
                     "--count", "3", "--seed", "7"]) == 0
        assert simulate_calls == [7, 8, 9]

    def test_requires_generator_file(self, two_flock_file, tmp_path):
        assert main(["sweep", "--scenario", str(two_flock_file),
                     "--out", str(tmp_path), "--count", "2"]) == 2

    def test_json_syntax_error_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "gen.json"
        path.write_text('{"generator": {\n "topology": "chain",\n}}\n')
        assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--dt", "--t-end"])
    def test_scenario_overrides_are_not_accepted(self, tmp_path, flag):
        # a sweep draws every scenario, step and horizon included, from the spec
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"generator": {"topology": "chain", "n_agents": 2}}))
        out = tmp_path / "sweep"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--scenario", str(path), "--out", str(out), flag, "0.5"])
        assert exc.value.code == 2
        assert not out.exists()

    def test_worker_count_does_not_change_results(self, tmp_path):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"generator": {
            "topology": "chain", "n_agents": 3, "dim": 1, "rng_seed": 0}}))
        outs = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            assert main(["sweep", "--scenario", str(path), "--out", str(out),
                         "--count", "3", "--workers", str(workers)]) == 0
            outs[workers] = out
        for seed in range(3):
            a = (outs[1] / f"run_{seed:05d}" / "trajectory.csv").read_bytes()
            b = (outs[2] / f"run_{seed:05d}" / "trajectory.csv").read_bytes()
            assert a == b

    def test_worker_processes_are_bounded_by_the_cpu_count(self, tmp_path, monkeypatch, capsys):
        import concurrent.futures
        sizes = []

        class SerialPool:       # records the pool size and starts no process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"generator": {
            "topology": "chain", "n_agents": 2, "dim": 1, "rng_seed": 0}}))
        printed = {}
        for workers in ("1", "64"):
            assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "sweep"),
                         "--count", "4", "--workers", workers]) == 0
            printed[workers] = capsys.readouterr().out
        assert sizes == [2]
        assert printed["64"] == printed["1"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_blow_up_keeps_earlier_bundles(self, tmp_path, monkeypatch, capsys):
        with pytest.raises(BlowUpError) as alone:
            simulate(hot_scenario())
        real = hlflock.cli.generate
        monkeypatch.setattr(hlflock.cli, "generate", lambda spec: (
            hot_scenario(2) if spec.rng_seed == 2 else real(spec)))
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"generator": {
            "topology": "chain", "n_agents": 3, "dim": 1, "rng_seed": 0}}))
        out = tmp_path / "sweep"
        assert main(["sweep", "--scenario", str(path), "--out", str(out),
                     "--count", "4", "--seed", "0"]) == 3
        assert capsys.readouterr().err == f"error: {alone.value}\n"
        assert sorted(p.name for p in out.iterdir()) == ["run_00000", "run_00001"]
        ref = tmp_path / "ref"
        assert main(["sweep", "--scenario", str(path), "--out", str(ref),
                     "--count", "2", "--seed", "0"]) == 0
        for name in ("run_00000", "run_00001"):
            for f in ("scenario.json", "trajectory.csv", "report.json"):
                assert (out / name / f).read_bytes() == (ref / name / f).read_bytes()


@pytest.mark.parametrize("command,flag", [("check", "--count"), ("sweep", "--count"),
                                          ("sweep", "--workers")])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_count_or_workers_below_one_is_usage_error(tmp_path, capsys, command, flag, value):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({"generator": {"topology": "chain", "n_agents": 2}}))
    out = tmp_path / "o"
    assert main([command, "--scenario", str(path), "--out", str(out), flag, value]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,seed", [("simulate", "-3"), ("check", "-2"), ("sweep", "-1")])
def test_negative_seed_is_usage_error(tmp_path, capsys, command, seed):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({"generator": {"topology": "chain", "n_agents": 2}}))
    out = tmp_path / "o"
    assert main([command, "--scenario", str(path), "--out", str(out), "--seed", seed]) == 2
    assert "rng_seed" in capsys.readouterr().err


def test_huge_agent_count_fails_fast(tmp_path, capsys):
    # the history length is checked before the hierarchy is built agent by agent
    data = json.loads((GOLDEN / "table-table-table.json").read_text())
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({**data, "n_agents": 10**9}))
    start = time.perf_counter()
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - start < 1.0
    assert "n_agents" in capsys.readouterr().err


@pytest.mark.parametrize("span", [1.0, 1e308])
@pytest.mark.parametrize("field", ["n_agents", "dim"])
@pytest.mark.parametrize("command", ["simulate", "check", "sweep"])
def test_huge_generator_size_fails_fast(tmp_path, capsys, command, field, span):
    # checked when the spec is read, before the hierarchy is built or a value is
    # drawn, also where the span has more steps than a float holds
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"generator": {"topology": "chain", "n_agents": 3,
                                              field: 10**9, "sim_span": span}}))
    start = time.perf_counter()
    assert main([command, "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - start < 1.0
    assert f"{field} = 1000000000" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("t_end", [1e14, 1e20])
@pytest.mark.parametrize("command", ["simulate", "check"])
def test_trajectory_too_large_to_allocate_is_usage_error(tmp_path, capsys, command, t_end):
    data = json.loads((GOLDEN / "rich.json").read_text())
    path = tmp_path / "long.json"
    path.write_text(json.dumps({**data, "t_end": t_end}))
    scen = load_scenario(path)
    rows = scen.delay_steps + scen.n_steps + 1
    assert main([command, "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"t_end / dt = {t_end!r} / {scen.dt!r} is {scen.n_steps} steps" in err
    assert f"needs {16 * rows * scen.n_agents * scen.dim} bytes" in err


def test_simulate_and_fit_decay_hold_one_copy_of_the_trajectory(tmp_path):
    # 200 agents on a binary tree in the plane over 1000 steps: x and v are 6.4 MB
    scen = generate(GeneratorSpec(topology="binary_tree", n_agents=200, dim=2, rng_seed=1,
                                  tau_range=(0.1, 0.1), delay_steps=10, sim_span=10.0))
    assert scen.n_steps == 1000
    path = tmp_path / "wide.json"
    save_scenario(scen, path)
    states = 2 * (scen.n_steps + 1) * scen.n_agents * scen.dim * 8
    for argv in (["simulate", "--scenario", str(path), "--out", str(tmp_path / "sim")],
                 ["fit-decay", "--traj", str(tmp_path / "sim" / "trajectory.csv"),
                  "--out", str(tmp_path / "fit")]):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * states, argv[0]


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b'{"n_agents": ' + b"1" * 5000 + b"}"],
                         ids=["not-utf8", "long-integer"])
def test_unreadable_json_is_usage_error(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "bad.json" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# One bad value in a scenario or generator file
# ---------------------------------------------------------------------------

_FUZZ_FILES = sorted(GOLDEN.glob("*.json")) + [REPO / "perfbench" / "specs" / "sweep_chain.json"]
_DELETE = "<delete the key>"
_FUZZ_VALUES = [math.nan, math.inf, -math.inf, -1, 0, 1.5, 1e308, "1", True, None, [], _DELETE]
_INTEGER_KEYS = {"n_agents", "dim", "rng_seed", "delay_steps"}
# keys a file may leave out: a generator field has a default, and so has a
# kernel's height; no forcing, or no forcing family, is zero forcing
_OPTIONAL_KEYS = {"why", "generator", "forcing", "rng_seed", "height", "peak"}
_OPTIONAL_GENERATOR_KEYS = set(hlflock.scenarios.GeneratorSpec.__dataclass_fields__) - {
    "topology", "n_agents"}


def _nodes(node, path=()):
    """The path and value of every dict value and list item below ``node``."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


_FUZZ_TARGETS = [(f, path) for f in _FUZZ_FILES
                 for path, _ in _nodes(json.loads(f.read_text()))]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _optional(path) -> bool:
    key = path[-1]
    return (key in _OPTIONAL_KEYS or path[0] == "leaders"
            or path == ("forcing", "family")
            or (path[0] == "generator" and key in _OPTIONAL_GENERATOR_KEYS))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")     # 1e308 overflows on purpose
@settings(max_examples=300, deadline=None)
@given(target=st.sampled_from(_FUZZ_TARGETS), new=st.sampled_from(_FUZZ_VALUES))
def test_one_bad_value_exits_cleanly_and_names_its_field(target, new):
    source, path = target
    data = json.loads(source.read_text())
    *parents, key = path
    node = data
    for step in parents:
        node = node[step]
    original = node[key]
    if new == _DELETE:
        assume(isinstance(node, dict))
        del node[key]
    else:
        node[key] = new
    field = next(step for step in reversed(path) if isinstance(step, str))
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / source.name
        scenario.write_text(json.dumps(data))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["simulate", "--scenario", str(scenario), "--out", str(Path(tmp) / "o")])
    err = err.getvalue()
    assert code in (0, 2, 3), err
    finite = _is_number(new) and math.isfinite(new)
    integer_field = field in _INTEGER_KEYS or path[0] == "leaders"
    if new == _DELETE:
        if not _optional(path):
            assert code == 2 and key in err, err
    elif _is_number(original) and (not finite or (new == 1.5 and integer_field)):
        assert code == 2 and field in err, err
    if code == 3:
        assert finite, err


def test_benchmark_tracer_patches_names_that_exist(tmp_path, monkeypatch):
    # perfbench/tracing.py wraps these module and class attributes by name
    monkeypatch.syspath_prepend(str(REPO))
    from perfbench.tracing import Tracer

    owners = (hlflock.cli, hlflock.diagnostics, hlflock.scenarios, hlflock.model,
              hlflock.model.HistorySpec, hlflock.model.Potential)
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer()
    tracer.install()
    try:
        # each of its 22 patches found its attribute and replaced it
        assert len(tracer._restore) == 22
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in tracer._restore)
        assert main(["simulate", "--scenario", str(REPO / "perfbench/specs/sweep_chain.json"),
                     "--seed", "3", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["integrator.heun_steps"] > 0
    assert metrics["model.potential.evals"] > 0
    for owner, attrs in zip(owners, before):
        after = vars(owner)
        assert all(after[name] is value for name, value in attrs.items()), owner


def test_each_command_calls_what_the_benchmark_tracer_wraps(tmp_path, monkeypatch):
    # a command routed around a wrapped name would read 0 in the per-layer metrics
    monkeypatch.syspath_prepend(str(REPO))
    from perfbench.tracing import Tracer

    spec = str(REPO / "perfbench/specs/sweep_chain.json")
    commands = [
        (["simulate", "--scenario", spec, "--seed", "3", "--out", str(tmp_path / "sim")],
         ("integrator.heun_steps", "integrator.write_csv.bytes", "model.history_sample.calls")),
        (["fit-decay", "--traj", str(tmp_path / "sim" / "trajectory.csv"),
          "--out", str(tmp_path / "fit")],
         ("integrator.read_csv.bytes", "diagnostics.consensus_series.calls")),
        (["check", "--scenario", spec, "--seed", "3", "--out", str(tmp_path / "chk")],
         ("integrator.simulate_oracle.calls", "diagnostics.probes_run",
          "model.history_sample.calls")),
        (["sweep", "--scenario", spec, "--count", "2", "--workers", "1",
          "--out", str(tmp_path / "sweep")],
         ("scenarios.bundle_bytes", "integrator.write_csv.bytes",
          "integrator.simulate_oracle.calls", "diagnostics.probes_run",
          "model.history_sample.calls")),
    ]
    for argv, counters in commands:
        tracer = Tracer()
        tracer.install()
        try:
            assert main(argv) == 0
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics()
        assert all(metrics[name] > 0 for name in counters), (argv[0], metrics)


def test_negative_seed_on_a_scenario_file_is_usage_error(two_flock_file, tmp_path, capsys):
    # the seed is saved with the scenario, which must load again
    assert main(["simulate", "--scenario", str(two_flock_file), "--out", str(tmp_path / "o"),
                 "--seed", "-5"]) == 2
    assert "rng_seed" in capsys.readouterr().err
