"""Command-line front end: simulate / check / fit-decay / sweep.

Exit codes: 0 all good, 1 a probe failed (or a fit had too little data),
2 usage or scenario-schema error, 3 numerical blow-up. Probe preconditions
that do not apply to the input are reported as skipped, never as failures.

The default output directory is the HLFLOCK_OUT environment variable, or the
current directory. All artifacts are plain CSV/JSON; results are produced by
the same library calls a Python caller would make, byte for byte.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .integrator import (BlowUpError, Trajectory, read_trajectory_csv, simulate,
                         write_trajectory_csv)
from .model import Scenario, ScenarioError
from .scenarios import (generate, load_generator, load_scenario,
                        save_run, save_scenario)

EXIT_OK = 0
EXIT_PROBE_FAILURE = 1
EXIT_USAGE = 2
EXIT_BLOWUP = 3

PROBE_NAMES = ("positivity", "ball", "two-flock", "lyapunov", "free-will")


@dataclass
class CliConfig:
    command: str
    scenario: Path | None = None
    traj: Path | None = None
    out: Path = Path(".")
    dt: float | None = None
    t_end: float | None = None
    seed: int | None = None
    probes: tuple[str, ...] = PROBE_NAMES
    workers: int = 1
    count: int = 1
    window: tuple[float, float] | None = None
    verbose: bool = False


def _default_out() -> Path:
    return Path(os.environ.get("HLFLOCK_OUT", "."))


def _with_overrides(scenario: Scenario, config: CliConfig) -> Scenario:
    """Apply the --dt / --t-end overrides and revalidate."""
    overrides = {name: value for name, value in (("dt", config.dt), ("t_end", config.t_end))
                 if value is not None}
    return replace(scenario, **overrides).validate()


def _load(config: CliConfig) -> Scenario:
    return _with_overrides(load_scenario(config.scenario, seed=config.seed), config)


def _summary(traj) -> dict:
    series = diag.consensus_series(traj)
    speeds = np.sqrt(np.einsum("knd,knd->kn", traj.v, traj.v))
    return {
        "final_velocity_diameter": float(series.velocity_diameter[-1]),
        "final_position_diameter": float(series.position_diameter[-1]),
        "max_speed": float(speeds.max()),
        "history_speed_bound": diag.history_speed_bound(traj),
        "t_end": float(traj.times[-1]),
        "n_steps": int(traj.times.size - 1),
        "rng_seed": traj.scenario.rng_seed if traj.scenario else None,
    }


def cmd_simulate(config: CliConfig) -> int:
    scenario = _load(config)
    traj = simulate(scenario)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    save_scenario(scenario, out / "scenario.json")
    write_trajectory_csv(traj, out / "trajectory.csv")
    summary = _summary(traj)
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {out / 'trajectory.csv'}")
    for key, val in summary.items():
        print(f"  {key}: {val}")
    return EXIT_OK


def run_probes(traj: Trajectory, probes=PROBE_NAMES) -> list[diag.ProbeReport]:
    """Run every selected probe on one simulated trajectory, mapping unmet
    preconditions to skipped reports."""
    scenario = traj.scenario
    slack = None
    reports = []

    def attempt(name, fn):
        try:
            reports.append(fn())
        except diag.PreconditionError as e:
            reports.append(diag.ProbeReport(name=name, passed=None,
                                            details={"status": f"skipped: {e}"}))

    if "positivity" in probes:
        attempt("positivity", lambda: diag.positivity_probe(traj))
    if "ball" in probes:
        attempt("ball_invariance", lambda: diag.ball_invariance_probe(traj))
    needs_slack = (("two-flock" in probes and scenario.n_agents == 2)
                   or ("lyapunov" in probes and scenario.n_agents >= 2))
    if needs_slack and scenario.forcing.is_zero:
        slack = diag.calibrate_step_slack(traj)
    if "two-flock" in probes:
        attempt("two_flock_bound",
                lambda: diag.check_two_flock_bound(traj, slack=slack))
    if "lyapunov" in probes:
        def lyap():
            if scenario.n_agents < 2:
                raise diag.PreconditionError("needs a follower to monitor")
            if not scenario.forcing.is_zero:
                raise diag.PreconditionError("dissipation bound assumes the unforced system")
            gain = scenario.kernel.mu0
            offset = 2.0 * scenario.tau * diag.history_speed_bound(traj)
            return diag.lyapunov_probe(traj, gain, offset, slack=slack)
        attempt("lyapunov_dissipation", lyap)
    if "free-will" in probes:
        def freewill():
            if scenario.forcing.is_zero:
                raise diag.PreconditionError("no forcing present")
            return diag.free_will_consensus_probe(traj)
        attempt("free_will_consensus", freewill)
    return reports


def cmd_check(config: CliConfig) -> int:
    # one scenario keeps the file's own seed unless --seed is given; several
    # are drawn from consecutive seeds starting at --seed (default 0)
    seeds = ([config.seed] if config.count == 1
             else [(config.seed or 0) + k for k in range(config.count)])
    scenarios = [load_scenario(config.scenario, seed=seed) for seed in seeds]
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    all_reports = []
    failed = 0
    for k, scenario in enumerate(scenarios):
        reports = run_probes(simulate(_with_overrides(scenario, config)), config.probes)
        for rep in reports:
            print(rep.to_text() if not config.verbose
                  else rep.to_text() + f"  {rep.details}")
            if rep.passed is False:
                failed += 1
        all_reports.append({"rng_seed": scenario.rng_seed,
                            "probes": [r.to_dict() for r in reports]})
    payload = {"passed": failed == 0, "n_scenarios": len(scenarios),
               "n_failed_probes": failed, "runs": all_reports}
    (out / "check_report.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(f"{'PASS' if failed == 0 else 'FAIL'}: {failed} failed probe(s) "
          f"over {len(scenarios)} scenario(s)")
    return EXIT_OK if failed == 0 else EXIT_PROBE_FAILURE


def cmd_fit_decay(config: CliConfig) -> int:
    if config.traj is not None:
        traj = read_trajectory_csv(config.traj)
        window = config.window
    else:
        scenario = _load(config)
        traj = simulate(scenario)
        window = config.window or (max(scenario.tau, scenario.t_end / 2.0), scenario.t_end)
    series = diag.consensus_series(traj)
    try:
        fit = diag.fit_decay_rate(series, window=window)
    except diag.InsufficientDataError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PROBE_FAILURE
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    mask = diag.window_mask(series.times, fit.window)
    t_w = series.times[mask]
    dv_w = series.velocity_diameter[mask]
    with np.errstate(divide="ignore"):
        log_dv = np.log(dv_w)
    fitted = fit.intercept - fit.rate * t_w
    np.savetxt(out / "decay_fit.csv",
               np.column_stack([t_w, dv_w, log_dv, fitted]),
               fmt="%.17g", delimiter=",",
               header="t,velocity_diameter,log_diameter,fitted_log", comments="")
    result = {"rate": fit.rate, "intercept": fit.intercept,
              "residual_rms": fit.residual_rms, "window": list(fit.window),
              "n_used": fit.n_used, "n_censored": fit.n_censored}
    (out / "decay_fit.json").write_text(json.dumps(result, indent=2) + "\n")
    print(f"decay rate: {fit.rate:.8g}  (intercept {fit.intercept:.6g}, "
          f"residual rms {fit.residual_rms:.3g}, window {fit.window}, "
          f"{fit.n_used} samples, {fit.n_censored} censored)")
    return EXIT_OK


def _sweep_worker(args: tuple) -> tuple[int, bool, str]:
    spec, seed, out_str, probes = args
    traj = simulate(generate(replace(spec, rng_seed=seed)))
    reports = run_probes(traj, probes)
    rundir = Path(out_str) / f"run_{seed:05d}"
    save_run(traj, reports, rundir)
    ok = all(r.passed is not False for r in reports)
    return seed, ok, str(rundir)


def cmd_sweep(config: CliConfig) -> int:
    spec = load_generator(config.scenario)
    base_seed = config.seed if config.seed is not None else 0
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    jobs = [(spec, base_seed + k, str(out), config.probes)
            for k in range(config.count)]
    results = []
    if config.workers <= 1:
        results = [_sweep_worker(job) for job in jobs]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_sweep_worker, jobs))
    n_bad = 0
    for seed, ok, rundir in sorted(results):
        print(f"seed {seed}: {'PASS' if ok else 'FAIL'}  ({rundir})")
        n_bad += 0 if ok else 1
    print(f"{'PASS' if n_bad == 0 else 'FAIL'}: {len(results) - n_bad}/{len(results)} runs clean")
    return EXIT_OK if n_bad == 0 else EXIT_PROBE_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hlflock",
        description="Simulate delayed hierarchical flocking and check its guarantees.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, include_traj=False):
        p.add_argument("--scenario", type=Path, required=not include_traj,
                       help="scenario or generator-spec JSON file")
        if include_traj:
            p.add_argument("--traj", type=Path, help="trajectory CSV to analyze instead")
        p.add_argument("--out", type=Path, default=_default_out(),
                       help="output directory (default: $HLFLOCK_OUT or .)")
        p.add_argument("--dt", type=float, help="override the step size")
        p.add_argument("--t-end", type=float, dest="t_end", help="override the horizon")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("-v", "--verbose", action="store_true")

    p_sim = sub.add_parser("simulate", help="run one scenario and export the trajectory")
    common(p_sim)

    p_check = sub.add_parser("check", help="run verification probes")
    common(p_check)
    p_check.add_argument("--probes", type=str, default=",".join(PROBE_NAMES),
                         help=f"comma-separated subset of {','.join(PROBE_NAMES)}")
    p_check.add_argument("--count", type=int, default=1,
                         help="number of seeds to draw from a generator file")

    p_fit = sub.add_parser("fit-decay", help="fit an exponential decay rate")
    common(p_fit, include_traj=True)
    p_fit.add_argument("--window", type=float, nargs=2, metavar=("T_A", "T_B"),
                       help="fit window (default: latter half / from tau)")

    p_sweep = sub.add_parser("sweep", help="run many seeded scenarios, optionally in parallel")
    common(p_sweep)
    p_sweep.add_argument("--probes", type=str, default=",".join(PROBE_NAMES))
    p_sweep.add_argument("--count", type=int, default=8)
    p_sweep.add_argument("--workers", type=int, default=1)
    return parser


def _config_from_args(args: argparse.Namespace) -> CliConfig:
    probes = tuple(s.strip() for s in getattr(args, "probes", ",".join(PROBE_NAMES)).split(",") if s.strip())
    unknown = set(probes) - set(PROBE_NAMES)
    if unknown:
        raise ScenarioError(f"unknown probe name(s) {sorted(unknown)}; choose from {PROBE_NAMES}")
    count = getattr(args, "count", 1)
    if count < 1:
        raise ScenarioError(f"--count must be >= 1, got {count}")
    return CliConfig(command=args.command, scenario=getattr(args, "scenario", None),
                     traj=getattr(args, "traj", None), out=args.out, dt=args.dt,
                     t_end=args.t_end, seed=args.seed, probes=probes,
                     workers=getattr(args, "workers", 1), count=count,
                     window=tuple(args.window) if getattr(args, "window", None) else None,
                     verbose=args.verbose)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        if config.command == "simulate":
            return cmd_simulate(config)
        if config.command == "check":
            return cmd_check(config)
        if config.command == "fit-decay":
            return cmd_fit_decay(config)
        return cmd_sweep(config)
    except (ScenarioError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BlowUpError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
