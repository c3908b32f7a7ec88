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
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .csvio import read_trajectory_csv, write_csv, write_trajectory_csv
from .diagnostics import PROBE_NAMES, check_probe_names, run_probes
from .integrator import BlowUpError, simulate, simulate_many
from .model import Scenario, ScenarioError
from .scenarios import (generate, load_generator, load_scenario,
                        save_run, save_scenario)

EXIT_OK = 0
EXIT_PROBE_FAILURE = 1
EXIT_USAGE = 2
EXIT_BLOWUP = 3


def _default_out() -> Path:
    return Path(os.environ.get("HLFLOCK_OUT", "."))


def _with_overrides(scenario: Scenario, args: argparse.Namespace) -> Scenario:
    """Apply the --dt / --t-end overrides and revalidate."""
    overrides = {name: value for name, value in (("dt", args.dt), ("t_end", args.t_end))
                 if value is not None}
    return replace(scenario, **overrides).validate()


def _load(args: argparse.Namespace) -> Scenario:
    return _with_overrides(load_scenario(args.scenario, seed=args.seed), args)


def _summary(traj) -> dict:
    return {
        "final_velocity_diameter": float(diag._pairwise_diameter(traj.v[-1:])[0]),
        "final_position_diameter": float(diag._pairwise_diameter(traj.x[-1:])[0]),
        "max_speed": diag.max_speed(traj.v),
        "history_speed_bound": diag.history_speed_bound(traj),
        "t_end": float(traj.times[-1]),
        "n_steps": int(traj.times.size - 1),
        "rng_seed": traj.scenario.rng_seed,
    }


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _load(args)
    traj = simulate(scenario)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    save_scenario(scenario, out / "scenario.json")
    write_trajectory_csv(traj, out / "trajectory.csv")
    summary = _summary(traj)
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {out / 'trajectory.csv'}")
    for key, val in summary.items():
        print(f"  {key}: {val}")
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    # one scenario keeps the file's own seed unless --seed is given; several
    # are drawn from a generator file, from consecutive seeds starting at
    # --seed (default 0), with the file read once and each seed drawn when
    # the stream reaches it
    if args.count == 1:
        scenarios = [_load(args)]
    else:
        try:
            spec = load_generator(args.scenario)
        except ScenarioError as e:
            raise ScenarioError(f"--count {args.count} draws seeds from a generator file: {e}") from None
        scenarios = (_with_overrides(generate(replace(spec, rng_seed=(args.seed or 0) + k)), args)
                     for k in range(args.count))
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    all_reports = []
    failed = 0
    for traj in simulate_many(scenarios):
        if isinstance(traj, BlowUpError):
            raise traj
        reports = run_probes(traj, args.probes)
        for rep in reports:
            print(rep.to_text() if not args.verbose
                  else rep.to_text() + f"  {rep.details}")
            if rep.passed is False:
                failed += 1
        all_reports.append({"rng_seed": traj.scenario.rng_seed,
                            "probes": [r.to_dict() for r in reports]})
        del traj    # its group's array goes before the next group steps
    payload = {"passed": failed == 0, "n_scenarios": len(all_reports),
               "n_failed_probes": failed, "runs": all_reports}
    (out / "check_report.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(f"{'PASS' if failed == 0 else 'FAIL'}: {failed} failed probe(s) "
          f"over {len(all_reports)} scenario(s)")
    return EXIT_OK if failed == 0 else EXIT_PROBE_FAILURE


def cmd_fit_decay(args: argparse.Namespace) -> int:
    window = tuple(args.window) if args.window else None
    if args.traj is not None:
        unused = [flag for flag, value in (("--dt", args.dt), ("--t-end", args.t_end),
                                           ("--seed", args.seed)) if value is not None]
        if unused:
            raise ScenarioError(f"{', '.join(unused)} cannot be used with --traj: "
                                f"they apply to --scenario only")
        traj = read_trajectory_csv(args.traj)
    else:
        scenario = _load(args)
        traj = simulate(scenario)
        window = window or (max(scenario.tau, scenario.t_end / 2.0), scenario.t_end)
    series = diag.consensus_series(traj)
    try:
        fit = diag.fit_decay_rate(series, window=window)
    except diag.InsufficientDataError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PROBE_FAILURE
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    mask = diag.window_mask(series.times, fit.window)
    t_w = series.times[mask]
    dv_w = series.velocity_diameter[mask]
    with np.errstate(divide="ignore"):
        log_dv = np.log(dv_w)
    fitted = fit.intercept - fit.rate * t_w
    write_csv(out / "decay_fit.csv", ["t", "velocity_diameter", "log_diameter", "fitted_log"],
              [np.column_stack([t_w, dv_w, log_dv, fitted])])
    result = {"rate": fit.rate, "intercept": fit.intercept,
              "residual_rms": fit.residual_rms, "window": list(fit.window),
              "n_used": fit.n_used, "n_censored": fit.n_censored}
    (out / "decay_fit.json").write_text(json.dumps(result, indent=2) + "\n")
    print(f"decay rate: {fit.rate:.8g}  (intercept {fit.intercept:.6g}, "
          f"residual rms {fit.residual_rms:.3g}, window {fit.window}, "
          f"{fit.n_used} samples, {fit.n_censored} censored)")
    return EXIT_OK


def _sweep_worker(job: tuple) -> list[tuple[int, bool, str]]:
    """Draw, step, probe and save the scenarios of a range of seeds, in order."""
    spec, seeds, out_str, probes = job
    results = []
    for traj in simulate_many(generate(replace(spec, rng_seed=seed)) for seed in seeds):
        if isinstance(traj, BlowUpError):
            raise traj
        reports = run_probes(traj, probes)
        seed = traj.scenario.rng_seed
        rundir = Path(out_str) / f"run_{seed:05d}"
        save_run(traj, reports, rundir)
        results.append((seed, all(r.passed is not False for r in reports), str(rundir)))
        del traj    # its group's array goes before the next group steps
    return results


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = load_generator(args.scenario)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    seeds = range(args.seed, args.seed + args.count)
    if args.workers == 1:
        results = _sweep_worker((spec, seeds, str(out), args.probes))
    else:
        # imported here, its only use: it pulls in logging, traceback and string
        import concurrent.futures

        # one block of consecutive seeds per process, stepped in groups there;
        # the pool forks all its processes at once, so no more than there are CPUs
        n_jobs = min(args.workers, args.count, os.cpu_count() or 1)
        jobs = [(spec, seeds[j * len(seeds) // n_jobs:(j + 1) * len(seeds) // n_jobs],
                 str(out), args.probes) for j in range(n_jobs)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=n_jobs) as pool:
            results = [r for block in pool.map(_sweep_worker, jobs) for r in block]
    n_bad = 0
    for seed, ok, rundir in results:
        print(f"seed {seed}: {'PASS' if ok else 'FAIL'}  ({rundir})")
        n_bad += 0 if ok else 1
    print(f"{'PASS' if n_bad == 0 else 'FAIL'}: {len(results) - n_bad}/{len(results)} runs clean")
    return EXIT_OK if n_bad == 0 else EXIT_PROBE_FAILURE


def build_parser() -> argparse.ArgumentParser:
    # every flag is spelt out in full: an abbreviation is a usage error
    parser = argparse.ArgumentParser(
        prog="hlflock", allow_abbrev=False,
        description="Simulate delayed hierarchical flocking and check its guarantees.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = []
    for name, run, help_text in (
            ("simulate", cmd_simulate, "run one scenario and export the trajectory"),
            ("check", cmd_check, "run verification probes"),
            ("fit-decay", cmd_fit_decay, "fit an exponential decay rate"),
            ("sweep", cmd_sweep, "run many seeded scenarios, optionally in parallel")):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(run=run)
        p.add_argument("--out", type=Path, default=_default_out(),
                       help="output directory (default: $HLFLOCK_OUT or .)")
        commands.append(p)
    p_sim, p_check, p_fit, p_sweep = commands

    fit_input = p_fit.add_mutually_exclusive_group(required=True)
    for p in (p_sim, p_check, fit_input, p_sweep):
        p.add_argument("--scenario", type=Path, required=p is not fit_input,
                       help="scenario or generator-spec JSON file")
    fit_input.add_argument("--traj", type=Path, help="trajectory CSV to analyze instead")
    for p in (p_sim, p_check, p_fit):
        p.add_argument("--dt", type=float, help="override the step size")
        p.add_argument("--t-end", type=float, dest="t_end", help="override the horizon")
        p.add_argument("--seed", type=int, help="override the scenario seed")
    p_sweep.add_argument("--seed", type=int, default=0, help="first scenario seed")
    for p, count in ((p_check, 1), (p_sweep, 8)):
        p.add_argument("--probes", type=str, default=",".join(PROBE_NAMES),
                       help=f"comma-separated subset of {','.join(PROBE_NAMES)}")
        p.add_argument("--count", type=int, default=count,
                       help="number of seeds to draw from a generator file")
    p_check.add_argument("-v", "--verbose", action="store_true",
                         help="print each probe's details")
    p_fit.add_argument("--window", type=float, nargs=2, metavar=("T_A", "T_B"),
                       help="fit window (default: latter half / from tau)")
    p_sweep.add_argument("--workers", type=int, default=1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "probes" in args:
            args.probes = tuple(s.strip() for s in args.probes.split(",") if s.strip())
            if not args.probes:
                raise ScenarioError(f"--probes names no probe; choose from {','.join(PROBE_NAMES)}")
            check_probe_names(args.probes)
        for name in ("count", "workers"):
            if getattr(args, name, 1) < 1:
                raise ScenarioError(f"--{name} must be >= 1, got {getattr(args, name)}")
        window = getattr(args, "window", None)
        if window and not -math.inf < window[0] < window[1] < math.inf:     # NaN fails too
            raise ScenarioError(f"--window T_A T_B must be finite with T_A < T_B, got {window}")
        return args.run(args)
    except (ScenarioError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BlowUpError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
