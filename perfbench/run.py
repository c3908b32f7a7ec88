"""hlflock benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload simulate_deep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
describe the run, and the full record goes to ``.bench_run/``. See README.md
in this directory for the workloads, the metrics and what is deliberately
left out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
WORKLOADS = ("simulate_deep", "roundtrip_wide", "sweep_probes")
SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 3
DEADLINE_S = 170.0
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import hlflock.cli; "
                "print(time.perf_counter() - t0)")

# The traced run confirms that each workload stresses the layer it was built
# for: the share of traced wall time these spans must reach.
STRESS = {
    "simulate_deep": (("integrator.simulate.s",), 0.70),
    "roundtrip_wide": (("diagnostics.consensus_series.s",), 0.60),
    "sweep_probes": (("integrator.simulate.s", "integrator.simulate_oracle.s"), 0.60),
}


class BenchError(RuntimeError):
    pass


def _python(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    try:
        return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout, check=True)
    except subprocess.CalledProcessError as e:
        raise BenchError(f"{args[:2]} exited {e.returncode}: {e.stderr.strip()[-2000:]}") from e
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{args[:2]} did not finish in {timeout:.0f} s") from e


def setup_seconds() -> list[float]:
    """Fresh-interpreter import times of hlflock.cli."""
    return [float(_python(["-c", IMPORT_PROBE], 60).stdout.split()[-1])
            for _ in range(SETUP_SAMPLES)]


def importtime_split(stderr: str) -> dict:
    """Split one ``python -X importtime -c 'import hlflock.cli'`` report into
    numpy, scipy and the rest of the hlflock import.

    Each module's self time is charged to the nearest enclosing numpy or
    scipy module, if any. The report prints children before their parent,
    so it is walked bottom-up, which visits parents first.
    """
    rows = []
    for line in stderr.splitlines():
        fields = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or len(fields) != 3 or "[us]" in line:
            continue
        name = fields[2]
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), int(fields[0]), int(fields[1])))
    parts = {"numpy": 0, "scipy": 0, "total": 0}
    stack: list[tuple[int, str | None]] = []
    for depth, name, self_us, cumulative_us in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        family = name.split(".")[0]
        owner = family if family in ("numpy", "scipy") else (stack[-1][1] if stack else None)
        if owner is not None:
            parts[owner] += self_us
        if depth == 0 and family == "hlflock":
            parts["total"] += cumulative_us
        stack.append((depth, owner))
    return parts


def import_layers() -> dict:
    samples = [importtime_split(_python(["-X", "importtime", "-c", "import hlflock.cli"],
                                        60).stderr)
               for _ in range(IMPORTTIME_SAMPLES)]
    med = {k: statistics.median(s[k] for s in samples) / 1e6 for k in samples[0]}
    return {"setup.import_numpy_s": med["numpy"], "setup.import_scipy_s": med["scipy"],
            "setup.import_hlflock_s": med["total"] - med["numpy"] - med["scipy"]}


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError:
        return ""


def host() -> dict:
    cpuinfo = _read(Path("/proc/cpuinfo"))
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size").strip()
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "caches": caches, "platform": platform.platform(),
            "git_commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    in an exported tree."""
    head = _read(ROOT / ".git" / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    value = _read(ROOT / ".git" / ref).strip()
    if not value:
        for line in _read(ROOT / ".git" / "packed-refs").splitlines():
            if line.endswith(" " + ref):
                value = line.split()[0]
    return value or "unknown"


def run_worker(args, timeout: float) -> dict:
    scratch = WORK / f"work_{args.workload}_{os.getpid()}"
    cmd = [str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(scratch)]
    out = _python(cmd, timeout).stdout.strip().splitlines()
    if not out:
        raise BenchError("worker printed no result")
    return json.loads(out[-1])


def end_to_end(worker: dict, setup: list[float]) -> dict:
    sequences = worker["sequences"]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.median(s["wall_s"] for s in sequences), "unit": "s"},
        "cpu_s": {"value": statistics.median(s["cpu_s"] for s in sequences), "unit": "s"},
        "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
    }


UNITS = {"evals": "count", "calls": "count", "heun_steps": "count", "oracle_substeps": "count",
         "samples": "count", "bytes": "bytes", "bundle_bytes": "bytes", "probes_run": "count",
         "probes_skipped": "count", "simulations_per_scenario": "sims/scenario",
         "p50": "us", "p99": "us"}


def per_layer(worker: dict, imports: dict) -> dict:
    metrics = {}
    for key, value in {**imports, **worker["metrics"]}.items():
        unit = UNITS.get(key.rsplit(".", 1)[-1], "s")
        metrics[key] = {"value": value, "unit": unit}
    return metrics


def stress_report(workload: str, metrics: dict) -> list[str]:
    wall = metrics["trace.wall_s"]
    spans, floor = STRESS[workload]
    share = sum(metrics[s] for s in spans) / wall
    lines = [f"stress: {' + '.join(spans)} = {share:.1%} of traced wall "
             f"({'meets' if share >= floor else 'BELOW'} {floor:.0%})"]
    if workload != "sweep_probes":
        calls = metrics["integrator.simulate_oracle.calls"]
        lines.append(f"stress: oracle {'absent' if calls == 0 else f'PRESENT ({calls} calls)'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hlflock benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "hlflock" / "cli.py").is_file():
        print(f"error: no hlflock sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        if args.trace:
            imports = import_layers()
        else:
            setup = setup_seconds()
        worker = run_worker(args, DEADLINE_S - (time.perf_counter() - started))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer(worker, imports)
        notes = stress_report(args.workload, worker["metrics"])
        if worker["count_mismatches"]:
            notes.append(f"counts differ between the two traced runs: "
                         f"{worker['count_mismatches']}")
    else:
        metrics = end_to_end(worker, setup)
        notes = [f"pass {p['seed']}: wall {p['wall_s']:.4f} s, cpu {p['cpu_s']:.4f} s"
                 for p in worker["passes"]]
        notes.append(f"setup samples: {', '.join(f'{s:.4f}' for s in setup)}")
    attempted, failed = worker["attempted"], worker["failed"]
    correct = failed == 0 and not worker.get("count_mismatches")
    record = {"workload": args.workload, "why": worker["why"], "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host(),
              "versions": worker["versions"], "input_sizes": worker["input_sizes"],
              "output_hash": worker["output_hash"], "error_rate": failed / max(attempted, 1),
              "failures": worker["failures"], "notes": notes, "metrics": metrics,
              "worker": {k: v for k, v in worker.items() if k != "spans"}}
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    (WORK / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (WORK / f"{stem}_spans.json").write_text(json.dumps(worker["spans"]) + "\n")

    print(f"workload {args.workload} (seed {args.seed}): {worker['why']}")
    print(f"provenance: {json.dumps({'host': record['host'], 'versions': record['versions']})}")
    print(f"input: {json.dumps(record['input_sizes'])}")
    for line in notes:
        print(line)
    print(f"operations: {attempted} attempted, {failed} failed, "
          f"error_rate {record['error_rate']:.6g}; "
          f"{worker['reference_checked']} checked against the stored reference")
    for line in worker["failures"]:
        print(f"  FAILED {line}")
    print(f"output hash: {worker['output_hash']}")
    print(f"record: {WORK / (stem + '.json')}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
