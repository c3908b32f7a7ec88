"""Per-layer tracing of hlflock from outside the package.

The tracer replaces public functions with timing wrappers at every place a
caller looks them up (``cli`` and ``diagnostics`` import ``simulate`` and
friends by name, so those module attributes are wrapped too), and restores
the originals afterwards. Nothing under ``src/`` is edited.

Spans carry a name, start, end, parent span and a scenario id; they are kept
in memory and written out by the caller. Two hot leaves are recorded as
counters instead of spans to keep the overhead small: ``Potential.__call__``
(number of distances and total time) and Heun steps (durations between
successive calls of the public ``on_step`` hook of ``simulate``).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

import numpy as np

import hlflock.cli
import hlflock.diagnostics
import hlflock.model
import hlflock.scenarios

_DIAGNOSTICS = ("calibrate_step_slack", "positivity_probe", "ball_invariance_probe",
           "lyapunov_probe", "fit_decay_rate", "consensus_series")


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _tree_size(path) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(_size(os.path.join(dirpath, f)) for f in files)
    return total


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index, scenario id]
        self._stack: list[int] = []
        self.scenario_id = None
        self.counts: dict[str, int] = {}
        self.step_s: list[float] = []
        self.potential_s = 0.0
        self._restore: list[tuple] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.scenario_id]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    # -- wrappers ---------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _timed(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapper

    def _simulate(self, fn):
        def wrapper(scenario, on_step=None):
            if on_step is not None:
                with self.span("integrator.simulate"):
                    return fn(scenario, on_step)
            last = [None]

            def hook(state):
                now = time.perf_counter()
                if last[0] is not None:
                    self.step_s.append(now - last[0])
                last[0] = now
                self.count("integrator.heun_steps")

            with self.span("integrator.simulate"):
                return fn(scenario, hook)
        return wrapper

    def install(self) -> None:
        cli, diag, scen, model = (hlflock.cli, hlflock.diagnostics,
                                  hlflock.scenarios, hlflock.model)
        tracer = self

        def csv_written(_result, _traj, path):
            tracer.count("integrator.write_csv.bytes", _size(path))

        def bundle_written(outdir, *_args):     # save_run returns the bundle directory
            tracer.count("scenarios.bundle_bytes", _tree_size(outdir))

        def probes_done(reports, *_args):
            ran = sum(r.passed is not None for r in reports)
            tracer.count("diagnostics.probes_run", ran)
            tracer.count("diagnostics.probes_skipped", len(reports) - ran)

        def oracle_done(_traj, scenario, refinement):
            tracer.count("integrator.oracle_substeps", scenario.n_steps * refinement)

        read_csv = cli.read_trajectory_csv

        def traced_read(path):
            tracer.count("integrator.read_csv.bytes", _size(path))
            with tracer.span("integrator.read_csv"):
                return read_csv(path)

        sweep_worker = cli._sweep_worker

        def traced_sweep_worker(args):
            tracer.scenario_id = f"sweep:{args[1]}"
            return sweep_worker(args)

        for module in (cli, diag):
            self._patch(module, "simulate", self._simulate(module.simulate))
        for module in (cli, scen):
            self._patch(module, "write_trajectory_csv",
                        self._timed("integrator.write_csv", module.write_trajectory_csv,
                                    csv_written))
            self._patch(module, "save_scenario",
                        self._timed("scenarios.save_scenario", module.save_scenario))
            self._patch(module, "generate", self._timed("scenarios.generate", module.generate))
        self._patch(cli, "read_trajectory_csv", traced_read)
        self._patch(cli, "load_scenario",
                    self._timed("scenarios.load_scenario", cli.load_scenario))
        self._patch(cli, "save_run",
                    self._timed("scenarios.save_run", cli.save_run, bundle_written))
        self._patch(cli, "run_probes", self._timed("cli.run_probes", cli.run_probes,
                                                   probes_done))
        self._patch(cli, "_sweep_worker", traced_sweep_worker)
        self._patch(diag, "simulate_oracle",
                    self._timed("integrator.simulate_oracle", diag.simulate_oracle,
                                oracle_done))
        for name in _DIAGNOSTICS:
            self._patch(diag, name, self._timed(f"diagnostics.{name}", getattr(diag, name)))

        sample = model.HistorySpec.sample
        self._patch(model.HistorySpec, "sample", self._timed("model.history_sample", sample))
        call = model.Potential.__call__

        def traced_call(potential, s):
            t0 = time.perf_counter()
            out = call(potential, s)
            tracer.potential_s += time.perf_counter() - t0
            tracer.count("model.potential.evals", int(np.size(s)))
            return out
        self._patch(model.Potential, "__call__", traced_call)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- summaries --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover.
        Children of one span run one after another, so their durations add."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_metrics(self) -> dict[str, float]:
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, start, end, _, _), self_s in zip(self.spans, self.self_times()):
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + self_s
            calls[name] = calls.get(name, 0) + 1
        c = self.counts
        scenarios = {sid for *_, sid in self.spans if sid is not None}
        sims = calls.get("integrator.simulate", 0)
        steps_us = sorted(s * 1e6 for s in self.step_s)
        m = {
            "model.potential.evals": c.get("model.potential.evals", 0),
            "model.potential.s": self.potential_s,
            "model.history_sample.calls": calls.get("model.history_sample", 0),
            "model.history_sample.s": total.get("model.history_sample", 0.0),
            "integrator.simulate.calls": sims,
            "integrator.simulate.s": total.get("integrator.simulate", 0.0),
            "integrator.heun_steps": c.get("integrator.heun_steps", 0),
            "integrator.heun_step_us.p50": percentile(steps_us, 50),
            "integrator.heun_step_us.p99": percentile(steps_us, 99),
            "integrator.heun_step_us.samples": len(steps_us),
            "integrator.simulate_oracle.calls": calls.get("integrator.simulate_oracle", 0),
            "integrator.simulate_oracle.s": total.get("integrator.simulate_oracle", 0.0),
            "integrator.oracle_substeps": c.get("integrator.oracle_substeps", 0),
            "integrator.write_csv.s": total.get("integrator.write_csv", 0.0),
            "integrator.write_csv.bytes": c.get("integrator.write_csv.bytes", 0),
            "integrator.read_csv.s": total.get("integrator.read_csv", 0.0),
            "integrator.read_csv.bytes": c.get("integrator.read_csv.bytes", 0),
            "diagnostics.consensus_series.calls": calls.get("diagnostics.consensus_series", 0),
            "diagnostics.consensus_series.s": total.get("diagnostics.consensus_series", 0.0),
            "diagnostics.calibrate_step_slack.self_s":
                own.get("diagnostics.calibrate_step_slack", 0.0),
            "diagnostics.positivity_probe.self_s": own.get("diagnostics.positivity_probe", 0.0),
            "diagnostics.ball_invariance_probe.s":
                total.get("diagnostics.ball_invariance_probe", 0.0),
            "diagnostics.lyapunov_probe.s": total.get("diagnostics.lyapunov_probe", 0.0),
            "diagnostics.fit_decay_rate.s": total.get("diagnostics.fit_decay_rate", 0.0),
            "diagnostics.probes_run": c.get("diagnostics.probes_run", 0),
            "diagnostics.probes_skipped": c.get("diagnostics.probes_skipped", 0),
            "scenarios.load_scenario.s": total.get("scenarios.load_scenario", 0.0),
            "scenarios.generate.s": total.get("scenarios.generate", 0.0),
            "scenarios.save_scenario.s": total.get("scenarios.save_scenario", 0.0),
            "scenarios.save_run.self_s": own.get("scenarios.save_run", 0.0),
            "scenarios.bundle_bytes": c.get("scenarios.bundle_bytes", 0),
            "cli.run_probes.self_s": own.get("cli.run_probes", 0.0),
            "cli.self_s": own.get("cli", 0.0),
            "cli.simulations_per_scenario": sims / len(scenarios) if scenarios else 0.0,
        }
        return m


# Counts that must repeat exactly when the same inputs run twice.
EXACT_COUNTS = (
    "model.potential.evals", "model.history_sample.calls", "integrator.simulate.calls",
    "integrator.heun_steps", "integrator.heun_step_us.samples",
    "integrator.simulate_oracle.calls", "integrator.oracle_substeps",
    "integrator.write_csv.bytes", "integrator.read_csv.bytes",
    "diagnostics.consensus_series.calls", "diagnostics.probes_run",
    "diagnostics.probes_skipped", "scenarios.bundle_bytes", "cli.simulations_per_scenario",
)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]
