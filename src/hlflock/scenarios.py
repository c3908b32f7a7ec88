"""Scenario generation and persistence.

Scenario files are plain JSON with keys mirroring the :class:`Scenario`
fields (see the README for the schema). Saving and loading round-trips every
number bit-exactly, so a persisted run can be reproduced. Generator files,
recognized by a top-level ``"generator"`` key, describe a randomized family
instead of a single instance; loading one draws a concrete scenario from the
recorded seed.

Randomized scenarios come from numpy's seedable PCG64 generator, so the same
seed reproduces the same scenario on any platform, and the seed is recorded
in the scenario itself and in every saved run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from .integrator import Trajectory, write_trajectory_csv
from .model import (DelayKernel, HistoryFn, HistorySpec, LeaderForcing,
                    LeadershipDag, Potential, Scenario, ScenarioError)


# ---------------------------------------------------------------------------
# Randomized generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a randomized scenario.

    Topologies: "chain" (each agent led by its predecessor), "binary_tree"
    (agent i led by i//2), "random_hl" (each lower-indexed agent becomes a
    leader independently with ``edge_prob``; an empty draw is repaired with
    one uniformly chosen leader, so the ordering constraints hold by
    construction). Delay span, potential exponent, and kernel shape are
    drawn from the listed ranges; the step is tied to the delay span so the
    window is always ``delay_steps`` steps wide.
    """
    topology: str
    n_agents: int
    dim: int = 1
    position_range: tuple[float, float] = (-1.0, 1.0)
    velocity_range: tuple[float, float] = (-1.0, 1.0)
    rng_seed: int = 0
    edge_prob: float = 0.5
    tau_range: tuple[float, float] = (0.05, 0.5)
    delay_steps: int = 8
    sim_span: float = 1.0
    beta_choices: tuple[float, ...] = (0.0, 0.25, 0.5)
    kernel_shapes: tuple[str, ...] = ("uniform", "triangular")


def _topology_dag(spec: GeneratorSpec, rng: np.random.Generator) -> LeadershipDag:
    n = spec.n_agents
    if spec.topology == "chain":
        return LeadershipDag.chain(n)
    if spec.topology == "binary_tree":
        return LeadershipDag(n, {i: {i // 2} for i in range(2, n + 1)})
    if spec.topology == "random_hl":
        if n > 1 and not 0.0 < spec.edge_prob <= 1.0:
            raise ScenarioError(f"random_hl needs edge_prob in (0, 1], got {spec.edge_prob}")
        leaders = {}
        for i in range(2, n + 1):
            picks = {j for j in range(1, i) if rng.random() < spec.edge_prob}
            if not picks:
                picks = {int(rng.integers(1, i))}
            leaders[i] = picks
        return LeadershipDag(n, leaders)
    raise ScenarioError(f"unknown topology {spec.topology!r}")


def _is_finite_number(value) -> bool:
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and math.isfinite(value))


def generate(spec: GeneratorSpec) -> Scenario:
    """Draw a concrete scenario; deterministic for a given seed."""
    for name in ("n_agents", "dim", "delay_steps"):
        value = getattr(spec, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise ScenarioError(f"{name} must be an integer >= 1, got {value!r}")
    if not spec.beta_choices:
        raise ScenarioError("beta_choices must not be empty")
    if not all(_is_finite_number(b) for b in spec.beta_choices):
        raise ScenarioError(f"beta_choices must hold finite numbers, got {list(spec.beta_choices)}")
    for name in ("sim_span", "edge_prob"):
        if not _is_finite_number(getattr(spec, name)):
            raise ScenarioError(f"{name} must be a finite number, got {getattr(spec, name)!r}")
    for name in ("position_range", "velocity_range", "tau_range"):
        bounds = getattr(spec, name)
        try:
            lo, hi = bounds
        except (TypeError, ValueError):
            lo = hi = None
        if not (_is_finite_number(lo) and _is_finite_number(hi) and lo <= hi):
            raise ScenarioError(f"{name} must be two finite numbers [lo, hi] with lo <= hi, "
                                f"got {bounds!r}")
    if not spec.tau_range[0] > 0:
        raise ScenarioError(f"tau_range must have a lower bound > 0, got {spec.tau_range!r}")
    if not spec.kernel_shapes or not all(s in DelayKernel.BUILTIN_SHAPES for s in spec.kernel_shapes):
        raise ScenarioError(f"kernel_shapes must be a non-empty list of {DelayKernel.BUILTIN_SHAPES}, "
                            f"got {list(spec.kernel_shapes)}")
    rng = np.random.default_rng(spec.rng_seed)
    dag = _topology_dag(spec, rng)

    tau = float(rng.uniform(*spec.tau_range))
    dt = tau / spec.delay_steps
    n_steps = max(spec.delay_steps, int(math.ceil(spec.sim_span / dt)))
    beta = float(rng.choice(np.asarray(spec.beta_choices, dtype=float)))
    shape = spec.kernel_shapes[int(rng.integers(len(spec.kernel_shapes)))]
    kernel = DelayKernel.from_dict({"shape": shape, "tau": tau}, "generator spec")

    x0 = rng.uniform(*spec.position_range, size=(spec.n_agents, spec.dim))
    v0 = rng.uniform(*spec.velocity_range, size=(spec.n_agents, spec.dim))
    return Scenario(dag=dag, dim=spec.dim, potential=Potential.cucker_smale(beta),
                    kernel=kernel, history=HistorySpec.constant(x0, v0),
                    forcing=LeaderForcing.zero(), t_end=n_steps * dt, dt=dt,
                    rng_seed=spec.rng_seed).validate()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def scenario_to_dict(scenario: Scenario) -> dict:
    history = [{"position": p.to_dict(), "velocity": v.to_dict()}
               for p, v in zip(scenario.history.positions, scenario.history.velocities)]
    leaders = {str(i): sorted(scenario.dag.leaders_of(i))
               for i in range(1, scenario.n_agents + 1) if scenario.dag.leaders_of(i)}
    return {"n_agents": scenario.n_agents, "dim": scenario.dim, "leaders": leaders,
            "potential": scenario.potential.to_dict(), "kernel": scenario.kernel.to_dict(),
            "history": history, "forcing": scenario.forcing.to_dict(),
            "t_end": scenario.t_end, "dt": scenario.dt, "rng_seed": scenario.rng_seed}


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ScenarioError(f"{where}: missing required field {key!r}")
    return d[key]


def scenario_from_dict(data: dict, where: str = "scenario") -> Scenario:
    try:
        n_agents = int(_require(data, "n_agents", where))
        dim = int(_require(data, "dim", where))
        leaders = {int(i): [int(j) for j in js]
                   for i, js in _require(data, "leaders", where).items()}
        dag = LeadershipDag(n_agents, leaders)

        potential = Potential.from_dict(_require(data, "potential", where), f"{where}.potential")
        kernel = DelayKernel.from_dict(_require(data, "kernel", where), f"{where}.kernel")
        positions, velocities = [], []
        for k, entry in enumerate(_require(data, "history", where)):
            positions.append(HistoryFn.from_dict(entry["position"], f"{where}.history[{k}].position"))
            velocities.append(HistoryFn.from_dict(entry["velocity"], f"{where}.history[{k}].velocity"))
        history = HistorySpec(positions, velocities)
        forcing = LeaderForcing.from_dict(data.get("forcing", {}), f"{where}.forcing")

        scenario = Scenario(dag=dag, dim=dim, potential=potential, kernel=kernel,
                            history=history, forcing=forcing,
                            t_end=float(_require(data, "t_end", where)),
                            dt=float(_require(data, "dt", where)),
                            rng_seed=int(data.get("rng_seed", 0)))
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise ScenarioError(f"{where}: malformed scenario data ({e})") from e
    problems = scenario.problems()
    if problems:
        raise ScenarioError(f"{where}: " + "; ".join(problems))
    return scenario


def _generator_from_dict(data: dict, where: str) -> GeneratorSpec:
    known = {f for f in GeneratorSpec.__dataclass_fields__}
    extra = set(data) - known
    if extra:
        raise ScenarioError(f"{where}: unknown generator fields {sorted(extra)}")
    try:
        kwargs = dict(data)
        for key in ("position_range", "velocity_range", "tau_range",
                    "beta_choices", "kernel_shapes"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return GeneratorSpec(**kwargs)
    except TypeError as e:
        raise ScenarioError(f"{where}: malformed generator spec ({e})") from e


def _read_json(path: Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: expected a JSON object at the top level")
    return data


def load_generator(path) -> GeneratorSpec:
    """Load a generator-spec file: a JSON object with a top-level "generator" key."""
    path = Path(path)
    data = _read_json(path)
    if "generator" not in data:
        raise ScenarioError(f"{path}: not a generator-spec file (no top-level \"generator\" key)")
    return _generator_from_dict(data["generator"], f"{path}:generator")


def load_scenario(path, seed: int | None = None) -> Scenario:
    """Load a scenario file; a file with a top-level "generator" key is drawn
    from its recorded (or overridden) seed instead."""
    path = Path(path)
    data = _read_json(path)
    if "generator" in data:
        spec = _generator_from_dict(data["generator"], f"{path}:generator")
        if seed is not None:
            spec = replace(spec, rng_seed=seed)
        return generate(spec)
    scenario = scenario_from_dict(data, where=str(path))
    if seed is not None:
        scenario = replace(scenario, rng_seed=seed)
    return scenario


def save_scenario(scenario: Scenario, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")


def save_run(traj: Trajectory, reports: Iterable | None, outdir) -> Path:
    """Persist a run bundle: scenario copy, trajectory CSV, and probe report."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if traj.scenario is not None:
        save_scenario(traj.scenario, outdir / "scenario.json")
    write_trajectory_csv(traj, outdir / "trajectory.csv")
    if reports is not None:
        reports = list(reports)
        payload = [r.to_dict() for r in reports]
        (outdir / "report.json").write_text(json.dumps(payload, indent=2) + "\n")
        (outdir / "report.txt").write_text("\n".join(r.to_text() for r in reports) + "\n")
    return outdir
