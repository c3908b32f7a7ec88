"""Correctness gate: what every operation must produce.

An operation is one scenario handled by one command. It fails when

* the command exits non-zero (or raises),
* one of its outputs is missing or breaks a property checked below
  (a probe reporting FAIL among them),
* at the default seed, a number differs from the stored reference digest by
  more than ``TOL`` (relative, or absolute below 1),
* the same input run again in this process gives a digest or file size that
  is not bit-identical to the first run.

The digest of an operation holds the final positions and velocities, the
``summary.json`` or ``decay_fit.json`` numbers, and each probe's verdict and
numeric details. ``output_hash`` hashes the digests of a whole run, so two
builds can be compared on any seed without a stored reference.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

TOL = 1e-14                 # ROADMAP tolerance for outputs
SPEED_TOL = 1e-8            # ball invariance slack, as in hlflock.diagnostics
FIT_TOL = 1e-9              # independent refit of the decay rate
DIAMETER_FLOOR = 1e-12      # samples at or below this are censored by the fit
# Probes the sweep scenarios are built to satisfy; each must run, not skip.
SWEEP_PROBES_RUN = ("positivity", "ball_invariance", "lyapunov_dissipation")


def close(a: float, b: float, tol: float = TOL) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def differences(got, want, path: str = "") -> list[str]:
    """Where ``got`` differs from ``want``: numbers by more than TOL, anything
    else exactly."""
    if isinstance(want, bool) or isinstance(got, bool) or want is None or got is None:
        return [] if got is want or got == want and type(got) is type(want) else \
            [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        return [] if close(float(got), float(want)) else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in want for d in differences(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in differences(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def fingerprint(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def final_state(path: Path) -> tuple[float, list, list]:
    """Time, positions (N x d) and velocities of the last row of a trajectory
    CSV, read from the end of the file."""
    with open(path, "rb") as fh:
        header = fh.readline().decode().strip().split(",")
        fh.seek(0, os.SEEK_END)
        size = fh.tell()
        fh.seek(max(0, size - (1 << 20)))
        last = fh.read().rstrip(b"\n").rsplit(b"\n", 1)[-1].decode().split(",")
    if len(last) != len(header) or last[0] == "t":
        raise ValueError(f"{path}: no complete data row")
    n_agents = max(int(name[1:].split("_")[0]) for name in header[1:])
    dim = max(int(name.split("_")[1]) for name in header[1:])
    x = [[0.0] * dim for _ in range(n_agents)]
    v = [[0.0] * dim for _ in range(n_agents)]
    for name, text in zip(header[1:], last[1:]):
        agent, coord = name[1:].split("_")
        (x if name[0] == "x" else v)[int(agent) - 1][int(coord) - 1] = float(text)
    return float(last[0]), x, v


def diameter(rows: list) -> float:
    arr = np.asarray(rows, dtype=float)
    diff = arr[:, None, :] - arr[None, :, :]
    return float(np.sqrt((diff * diff).sum(axis=-1)).max())


def _read_json(path: Path):
    return json.loads(path.read_text())


class Op:
    def __init__(self, op_id: str):
        self.op_id = op_id
        self.scenario = op_id       # traced runs group spans by scenario

    def check(self, code) -> dict:
        problems = [] if code == 0 else [f"command exit {code}"]
        digest, sizes = None, {}
        try:
            digest, sizes = self._inspect(problems)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
            problems.append(f"unreadable output: {type(e).__name__}: {e}")
        return {"id": self.op_id, "ok": not problems, "problems": problems,
                "digest": digest, "sizes": sizes}

    def _inspect(self, problems: list) -> tuple[dict, dict]:
        raise NotImplementedError


class SimulateOp(Op):
    """``hlflock simulate``: scenario.json, trajectory.csv and summary.json."""

    def __init__(self, op_id: str, outdir: Path):
        super().__init__(op_id)
        self.outdir = outdir
        self.summary = None

    def _inspect(self, problems):
        summary = _read_json(self.outdir / "summary.json")
        scenario = _read_json(self.outdir / "scenario.json")
        t_last, x, v = final_state(self.outdir / "trajectory.csv")
        self.summary = summary
        numbers = {k: summary[k] for k in ("final_velocity_diameter", "final_position_diameter",
                                           "max_speed", "history_speed_bound", "t_end")}
        if not all(math.isfinite(val) for val in numbers.values()):
            problems.append(f"non-finite summary {numbers}")
        if summary["n_steps"] != round(scenario["t_end"] / scenario["dt"]):
            problems.append(f"n_steps {summary['n_steps']} does not match the scenario")
        if len(x) != scenario["n_agents"] or t_last != summary["t_end"]:
            problems.append("trajectory does not end at t_end with every agent")
        if summary["max_speed"] > summary["history_speed_bound"] + SPEED_TOL:
            problems.append("speed left the prehistory ball")
        for key, rows in (("final_velocity_diameter", v), ("final_position_diameter", x)):
            if not close(diameter(rows), summary[key]):
                problems.append(f"{key} {summary[key]!r} disagrees with the last CSV row")
        digest = {"final_x": x, "final_v": v, "summary": summary}
        return digest, {"trajectory.csv": os.path.getsize(self.outdir / "trajectory.csv")}


class FitDecayOp(Op):
    """``hlflock fit-decay --traj``: decay_fit.json and decay_fit.csv, checked
    against an independent least-squares refit and against the diameter the
    simulate command reported before writing the CSV."""

    def __init__(self, op_id: str, outdir: Path, simulate: SimulateOp):
        super().__init__(op_id)
        self.outdir = outdir
        self.simulate = simulate
        self.scenario = simulate.scenario

    def _inspect(self, problems):
        fit = _read_json(self.outdir / "decay_fit.json")
        table = np.loadtxt(self.outdir / "decay_fit.csv", delimiter=",", skiprows=1, ndmin=2)
        t, dv = table[:, 0], table[:, 1]
        used = dv > DIAMETER_FLOOR
        tu, yu = t[used], np.log(dv[used])
        tc = tu - tu.mean()
        rate = -float((tc * (yu - yu.mean())).sum() / (tc * tc).sum()) if used.sum() > 1 else math.nan
        if fit["n_used"] != int(used.sum()) or fit["n_used"] < 10:
            problems.append(f"n_used {fit['n_used']} != {int(used.sum())} usable samples")
        if not close(rate, fit["rate"], FIT_TOL) or not fit["rate"] > 0:
            problems.append(f"rate {fit['rate']!r} disagrees with refit {rate!r}")
        if self.simulate.summary is not None and not close(
                float(dv[-1]), self.simulate.summary["final_velocity_diameter"]):
            problems.append("final diameter changed through the CSV round trip")
        return {"decay_fit": fit}, {"decay_fit.csv": os.path.getsize(self.outdir / "decay_fit.csv")}


class SweepOp(Op):
    """One seed of ``hlflock sweep``: its run bundle."""

    def __init__(self, op_id: str, rundir: Path):
        super().__init__(op_id)
        self.rundir = rundir

    def _inspect(self, problems):
        reports = _read_json(self.rundir / "report.json")
        scenario = _read_json(self.rundir / "scenario.json")
        t_last, x, v = final_state(self.rundir / "trajectory.csv")
        by_name = {r["name"]: r for r in reports}
        for r in reports:
            if r["passed"] is False:
                problems.append(f"probe {r['name']} FAIL {r['details']}")
        for name in SWEEP_PROBES_RUN:
            if by_name.get(name, {}).get("passed") is not True:
                problems.append(f"probe {name} did not run and pass")
        if not close(t_last, scenario["t_end"], 1e-12):
            problems.append("trajectory does not end at t_end")
        digest = {"final_x": x, "final_v": v,
                  "probes": [{"name": r["name"], "passed": r["passed"], "details": r["details"]}
                             for r in reports]}
        size = sum(p.stat().st_size for p in self.rundir.iterdir() if p.is_file())
        return digest, {"bundle": size}


def reference_digest(passes: list[dict]) -> dict:
    return {op["id"]: op["digest"] for p in passes for op in p["ops"]}


def judge(passes: list[dict], reference: dict | None) -> dict:
    """Apply the repeat and reference checks and count failed operations."""
    first: dict[str, dict] = {}
    checked = 0
    for p in passes:
        for op in p["ops"]:
            if op["digest"] is None:
                continue
            seen = first.setdefault(op["id"], op)
            if seen is not op and (fingerprint(seen["digest"]) != fingerprint(op["digest"])
                                   or seen["sizes"] != op["sizes"]):
                op["problems"].append("not bit-identical to an earlier run of the same input")
            if reference is not None:
                if op["id"] not in reference:
                    op["problems"].append("no reference digest for this operation")
                else:
                    checked += 1
                    op["problems"].extend(
                        f"reference mismatch {d}" for d in differences(op["digest"],
                                                                       reference[op["id"]]))
            op["ok"] = not op["problems"]
    ops = [op for p in passes for op in p["ops"]]
    failures = [f"{op['id']}: {msg}" for op in ops for msg in op["problems"]]
    return {"attempted": len(ops), "failed": sum(not op["ok"] for op in ops),
            "failures": failures[:20], "reference_checked": checked,
            "output_hash": fingerprint({k: v["digest"] for k, v in sorted(first.items())})}
