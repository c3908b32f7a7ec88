import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hlflock.cli
import hlflock.diagnostics
from hlflock.cli import main
from hlflock.integrator import Trajectory, simulate, write_trajectory_csv
from hlflock.model import (DelayKernel, HistorySpec, LeaderForcing,
                           LeadershipDag, Potential, Scenario)
from hlflock.scenarios import load_scenario, save_scenario


def test_import_loads_no_scipy():
    # scipy is imported only where it is used (log_damped forcing's l1_norm)
    src = str(Path(hlflock.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, hlflock, hlflock.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


@pytest.fixture
def simulate_calls(monkeypatch):
    """Count every simulate call the CLI and the probes make."""
    calls = []

    def counted(scenario, on_step=None):
        calls.append(scenario.rng_seed)
        return simulate(scenario, on_step)
    for module in (hlflock.cli, hlflock.diagnostics):
        monkeypatch.setattr(module, "simulate", counted)
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
        seeds = []

        def counted(path, seed=None):
            seeds.append(seed)
            return load_scenario(path, seed=seed)
        monkeypatch.setattr(hlflock.cli, "load_scenario", counted)
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"generator": {
            "topology": "chain", "n_agents": 2, "dim": 1, "rng_seed": 0}}))
        assert main(["check", "--scenario", str(path), "--out", str(tmp_path / "chk"),
                     "--count", "3", "--seed", "4", "--probes", "ball"]) == 0
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

    def test_unknown_probe_name_is_usage_error(self, two_flock_file, tmp_path):
        assert main(["check", "--scenario", str(two_flock_file),
                     "--out", str(tmp_path), "--probes", "ball,telepathy"]) == 2

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

    @pytest.mark.parametrize("flag,value", [("--dt", "0.5"), ("--t-end", "1"),
                                            ("--seed", "3")])
    def test_scenario_overrides_with_traj_are_usage_error(self, tmp_path, capsys,
                                                          flag, value):
        csv_path = self.planted_csv(tmp_path / "planted.csv", np.linspace(0.0, 3.0, 301))
        out = tmp_path / "fit"
        assert main(["fit-decay", "--traj", str(csv_path), "--out", str(out),
                     flag, value]) == 2
        assert flag in capsys.readouterr().err
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


@pytest.mark.parametrize("command", ["check", "sweep"])
@pytest.mark.parametrize("count", ["0", "-2"])
def test_count_below_one_is_usage_error(tmp_path, capsys, command, count):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({"generator": {"topology": "chain", "n_agents": 2}}))
    out = tmp_path / "o"
    assert main([command, "--scenario", str(path), "--out", str(out), "--count", count]) == 2
    assert "--count" in capsys.readouterr().err
    assert not out.exists()
