"""One benchmark workload, run as a closed loop through ``hlflock.cli.main``.

A single client in this one process runs the workload's commands back to
back; no command uses more than one worker. ``run.py`` starts this script in
a fresh interpreter with ``src`` on ``PYTHONPATH`` and reads the JSON object
it prints as its last line.

Untraced (``--trace 0``): a warm-up run of the first pass, then whole
sequences of passes while the time budget lasts (at least one); each
sequence reports its wall and CPU time. Traced (``--trace 1``): the first
pass runs four times, alternating untraced and traced; the two traced runs
must produce identical counts.

Every operation (one scenario handled by one command) goes through the
correctness gate in ``gate.py``.

``--write-reference`` runs the sequence once at the default seed and stores
its digest as the gate's reference; use it only when an output is meant to
change.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
SPECS = HERE / "specs"
REFERENCE = HERE / "reference"
DEFAULT_SEED = 1


class Command:
    """One CLI invocation and the operations (scenarios) it handles."""

    def __init__(self, argv: list[str], ops: list[gate.Op]):
        self.argv = argv
        self.ops = ops


# Scenario seeds are derived from the workload seed S: pass j of a sequence
# uses seeds starting at S * 1000 + j * seeds_per_pass, so different workload
# seeds never share a scenario. A sequence holds several passes because
# random topologies and delay spans change the cost of a single draw by more
# than the benchmark's bounds; the cost of a whole sequence varies far less.
SEED_BLOCK = 1000


class Workload:
    def __init__(self, name: str, why: str, specs: tuple[str, ...], passes: int,
                 seeds_per_pass: int, build):
        self.name = name
        self.why = why
        self.specs = specs
        self.passes = passes
        self.seeds_per_pass = seeds_per_pass
        self._build = build

    def pass_seed(self, seed: int, j: int) -> int:
        return seed * SEED_BLOCK + j * self.seeds_per_pass

    def commands(self, pass_seed: int, out: Path) -> list[Command]:
        return self._build(pass_seed, out)


def _spec(name: str) -> str:
    return str(SPECS / f"{name}.json")


def _simulate_deep(seed: int, out: Path) -> list[Command]:
    cmds = []
    for spec in ("deep_triangular", "deep_uniform"):
        where = out / spec
        cmds.append(Command(["simulate", "--scenario", _spec(spec), "--seed", str(seed),
                             "--out", str(where)],
                            [gate.SimulateOp(f"{seed}:{spec}", where)]))
    return cmds


def _roundtrip_wide(seed: int, out: Path) -> list[Command]:
    sim_dir, fit_dir = out / "simulate", out / "fit"
    sim = gate.SimulateOp(f"{seed}:wide_tree", sim_dir)
    return [
        Command(["simulate", "--scenario", _spec("wide_tree"), "--seed", str(seed),
                 "--out", str(sim_dir)], [sim]),
        Command(["fit-decay", "--traj", str(sim_dir / "trajectory.csv"),
                 "--out", str(fit_dir)], [gate.FitDecayOp(f"{seed}:fit-decay", fit_dir, sim)]),
    ]


SWEEP_COUNT = 16


def _sweep_probes(seed: int, out: Path) -> list[Command]:
    ops = [gate.SweepOp(f"{s}:sweep", out / f"run_{s:05d}")
           for s in range(seed, seed + SWEEP_COUNT)]
    return [Command(["sweep", "--scenario", _spec("sweep_chain"), "--count", str(SWEEP_COUNT),
                     "--workers", "1", "--seed", str(seed), "--out", str(out)], ops)]


WORKLOADS = {w.name: w for w in (
    # The Heun window coupling takes most of the time here (O(edges * m * d)
    # per stage with m = 100 delay steps). The uniform/triangular pair on the
    # same topology lets a uniform-only sliding-sum path show its effect next
    # to the generic path.
    Workload("simulate_deep", "deep memory: Heun window coupling dominates",
             ("deep_triangular", "deep_uniform"), passes=6,
             seeds_per_pass=1, build=_simulate_deep),
    # Short memory on a sparse 200-agent tree keeps Heun small; the two
    # consensus_series calls (a (T, N, N, d) temporary each) and the 16 MB
    # trajectory CSV write and read take the rest. This is the memory
    # workload, and it puts writes beside reads.
    Workload("roundtrip_wide", "wide flock: consensus post-processing, CSV write and read",
             ("wide_tree",), passes=3, seeds_per_pass=1, build=_roundtrip_wide),
    # Every seed runs positivity, ball, Lyapunov, the oracle slack and a bundle
    # write, and today simulates its scenario three times. Per-scenario
    # orchestration and the oracle dominate; neither runs in the other two.
    Workload("sweep_probes", "many small scenarios: probes, oracle, bundles",
             ("sweep_chain",), passes=8,
             seeds_per_pass=SWEEP_COUNT, build=_sweep_probes),
)}


def execute(commands: list[Command], cli_main, tracer=None) -> tuple[list, float, float]:
    """Run the commands back to back; returns exit codes, wall and CPU seconds."""
    codes = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for cmd in commands:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                if tracer is None:
                    codes.append(cli_main(cmd.argv))
                else:
                    tracer.scenario_id = cmd.ops[0].scenario if len(cmd.ops) == 1 else None
                    with tracer.span("cli"):
                        codes.append(cli_main(cmd.argv))
            except Exception as e:     # a crash fails the command's operations
                codes.append(f"{type(e).__name__}: {e}")
    return codes, time.perf_counter() - wall0, time.process_time() - cpu0


def check(commands: list[Command], codes: list) -> list[dict]:
    return [op.check(code) for cmd, code in zip(commands, codes) for op in cmd.ops]


def run_pass(workload: Workload, pass_seed: int, out: Path, cli_main, tracer=None) -> dict:
    """Run one pass; returns its timings and gate results."""
    commands = workload.commands(pass_seed, out)
    codes, wall, cpu = execute(commands, cli_main, tracer)
    return {"seed": pass_seed, "wall_s": wall, "cpu_s": cpu, "ops": check(commands, codes)}


def input_sizes(workload: Workload, seed: int) -> dict:
    from hlflock.scenarios import load_scenario
    seeds = []
    for j in range(workload.passes):
        first = workload.pass_seed(seed, j)
        seeds.extend(range(first, first + workload.seeds_per_pass))
    rows = [load_scenario(_spec(spec), seed=s) for spec in workload.specs for s in seeds]
    edges = [len(sc.dag.edge_arrays()[0]) for sc in rows]
    return {"scenarios_per_sequence": len(rows), "passes_per_sequence": workload.passes,
            "n_agents": sorted({sc.n_agents for sc in rows}),
            "dim": sorted({sc.dim for sc in rows}),
            "edges_min_median_max": [min(edges), statistics.median(edges), max(edges)],
            "delay_steps": sorted({sc.delay_steps for sc in rows}),
            "steps_total": sum(sc.n_steps for sc in rows),
            "kernels": sorted({sc.kernel.shape for sc in rows})}


def _versions() -> dict:
    import numpy
    import scipy
    import hlflock
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "hlflock": hlflock.__version__}


def untraced(workload: Workload, seed: int, seconds: float, out: Path, cli_main) -> dict:
    """A warm-up run of the first pass, then whole sequences of passes while
    the time budget lasts (at least one). Only the sequences are timed: the
    first commands in a fresh process run measurably slower."""
    start = time.perf_counter()
    warmup = run_pass(workload, workload.pass_seed(seed, 0), out / "p0", cli_main)
    passes, sequences = [], []
    while True:
        seq = [run_pass(workload, workload.pass_seed(seed, j), out / f"p{j}", cli_main)
               for j in range(workload.passes)]
        passes.extend(seq)
        sequences.append({"wall_s": sum(p["wall_s"] for p in seq),
                          "cpu_s": sum(p["cpu_s"] for p in seq)})
        elapsed = time.perf_counter() - start
        if elapsed + sequences[-1]["wall_s"] > seconds:
            break
    return {"passes": passes, "sequences": sequences, "warmup": warmup}


def traced(workload: Workload, seed: int, out: Path, cli_main) -> dict:
    """Untraced and traced runs of the sequence's first pass, interleaved; the
    first untraced run also warms the process up."""
    import tracing
    pass_seed = workload.pass_seed(seed, 0)
    plain, runs, tracers = [], [], []
    for _ in range(2):
        plain.append(run_pass(workload, pass_seed, out / "plain", cli_main))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            runs.append(run_pass(workload, pass_seed, out / "traced", cli_main, tracer))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    layers = [t.layer_metrics() for t in tracers]
    mismatched = [key for key in tracing.EXACT_COUNTS if layers[0][key] != layers[1][key]]
    metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    pooled = sorted(s * 1e6 for t in tracers for s in t.step_s)
    metrics["integrator.heun_step_us.p50"] = tracing.percentile(pooled, 50)
    metrics["integrator.heun_step_us.p99"] = tracing.percentile(pooled, 99)
    metrics["integrator.heun_step_us.samples"] = len(pooled)
    metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in runs)
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - statistics.median(p["wall_s"] for p in plain))
    spans = [{"name": n, "start": s, "end": e, "parent": p, "scenario": sid}
             for n, s, e, p, sid in tracers[0].spans]
    return {"passes": plain + runs, "metrics": metrics, "count_mismatches": mismatched,
            "counts": [{k: m[k] for k in tracing.EXACT_COUNTS} for m in layers],
            "spans": spans}


def reference_text(name: str, digest: dict) -> str:
    """The reference file, one operation per line."""
    ops = ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                      for k, v in sorted(digest.items()))
    head = json.dumps({"workload": name, "seed": DEFAULT_SEED, "tolerance": gate.TOL})
    return head[:-1] + ', "ops": {\n' + ops + "\n}}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True, help="scratch directory")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    from hlflock.cli import main as cli_main

    workload = WORKLOADS[args.workload]
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_reference:
            passes = [run_pass(workload, workload.pass_seed(DEFAULT_SEED, j),
                               args.out / f"p{j}", cli_main) for j in range(workload.passes)]
            digest = gate.reference_digest(passes)
            path = REFERENCE / f"{workload.name}.json"
            path.write_text(reference_text(workload.name, digest))
            print(f"wrote {path} ({len(digest)} operations, "
                  f"{sum(not r['ok'] for p in passes for r in p['ops'])} failed)", file=sys.stderr)
            return 0
        if args.trace:
            result = traced(workload, args.seed, args.out, cli_main)
        else:
            result = untraced(workload, args.seed, args.seconds, args.out, cli_main)
    finally:
        shutil.rmtree(args.out, ignore_errors=True)

    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads((REFERENCE / f"{workload.name}.json").read_text())["ops"]
    gated = [result["warmup"]] if "warmup" in result else []
    gate_report = gate.judge(gated + result["passes"], reference)
    result.update(gate_report)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = _versions()
    result["input_sizes"] = input_sizes(workload, args.seed)
    result["why"] = workload.why
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
