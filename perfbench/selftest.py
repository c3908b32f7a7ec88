"""Self-test of the correctness gate: it must pass real outputs and trip on
perturbed ones.

    python3 perfbench/selftest.py

Runs the first pass of each workload at the default seed through the real
CLI, checks that the gate accepts it against the stored reference, then
perturbs one output at a time on disk (or the exit code) and checks that the
gate counts the operation as failed. Exits 0 when every case behaves, 1
otherwise. Takes about 20 s.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gate      # noqa: E402
import worker    # noqa: E402


def _edit_last_row(path: Path, column: str, factor: float) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[-1].split(",")
    i = header.index(column)
    value = float(row[i])
    row[i] = repr(value * factor if value else factor - 1.0)
    lines[-1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _flip_probe(reports: list) -> None:
    next(r for r in reports if r["name"] == "ball_invariance")["passed"] = False


def _bump(key: str, factor: float):
    def edit(data: dict) -> None:
        data[key] *= factor
    return edit


def cases(name: str, out: Path) -> list[tuple[str, object, object]]:
    """(description, file edit or None, replacement exit codes or None)."""
    seed = worker.WORKLOADS[name].pass_seed(worker.DEFAULT_SEED, 0)
    if name == "sweep_probes":
        run = out / f"run_{seed:05d}"
        return [
            ("final velocity off by 1e-12", lambda: _edit_last_row(
                run / "trajectory.csv", "v2_1", 1 + 1e-12), None),
            ("probe verdict flipped to FAIL", lambda: _edit_json(
                run / "report.json", _flip_probe), None),
            ("bundle file missing", lambda: (run / "report.json").unlink(), None),
            ("sweep exit code 1", None, [1]),
        ]
    if name == "simulate_deep":
        sim = out / "deep_triangular"
        return [
            ("final position off by 1e-12", lambda: _edit_last_row(
                sim / "trajectory.csv", "x7_2", 1 + 1e-12), None),
            ("max speed outside the prehistory ball", lambda: _edit_json(
                sim / "summary.json", _bump("max_speed", 2.0)), None),
            ("simulate raised", None, ["RuntimeError: boom", 0]),
        ]
    return [
        ("decay rate off by 1e-12", lambda: _edit_json(
            out / "fit" / "decay_fit.json", _bump("rate", 1 + 1e-12)), None),
        ("velocity diameter column rewritten", lambda: _edit_last_row(
            out / "fit" / "decay_fit.csv", "velocity_diameter", 1 + 1e-9), None),
    ]


def main() -> int:
    from hlflock.cli import main as cli_main
    scratch = HERE.parent / ".bench_run" / "selftest"
    ok = True
    try:
        for name, wl in worker.WORKLOADS.items():
            reference = json.loads((worker.REFERENCE / f"{name}.json").read_text())["ops"]
            out = scratch / name
            commands = wl.commands(wl.pass_seed(worker.DEFAULT_SEED, 0), out)
            codes, _, _ = worker.execute(commands, cli_main)
            backup = out.with_name(name + ".clean")
            shutil.copytree(out, backup)

            def verdict(run_codes):
                return gate.judge([{"ops": worker.check(commands, run_codes)}], reference)

            base = verdict(codes)
            good = base["failed"] == 0 and base["reference_checked"] == base["attempted"]
            ok &= good
            print(f"{name}: clean outputs -> {base['failed']}/{base['attempted']} failed "
                  f"({'ok' if good else 'UNEXPECTED'})")
            for text, edit, new_codes in cases(name, out):
                if edit is not None:
                    edit()
                result = verdict(new_codes or codes)
                tripped = result["failed"] > 0
                ok &= tripped
                print(f"  {text}: {result['failed']}/{result['attempted']} failed "
                      f"({'gate tripped' if tripped else 'NOT DETECTED'})")
                for line in result["failures"][:2]:
                    print(f"    {line[:160]}")
                shutil.rmtree(out)
                shutil.copytree(backup, out)
            # a repeat that differs in the last bit is within TOL of the
            # reference but must still fail the bit-identity check
            first = worker.check(commands, codes)
            target = next(op for op in first if op["digest"] and "final_v" in op["digest"])
            target["digest"]["final_v"][0][0] *= 1 + 2 ** -52
            repeat = worker.check(commands, codes)
            result = gate.judge([{"ops": first}, {"ops": repeat}], None)
            tripped = result["failed"] == 1
            ok &= tripped
            print(f"  repeat differing in the last bit: {result['failed']} failed "
                  f"({'gate tripped' if tripped else 'NOT DETECTED'})")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
