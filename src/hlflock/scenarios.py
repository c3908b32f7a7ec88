"""Scenario generation and persistence.

Scenario files are plain JSON with keys mirroring the :class:`Scenario`
fields (see the README for the schema). Saving and loading round-trips every
number bit-exactly, so a persisted run can be reproduced. Generator files,
recognized by a top-level ``"generator"`` key, describe a randomized family
instead of a single instance; loading one draws a concrete scenario from the
recorded seed.

Randomized scenarios come from numpy's ``default_rng(seed)`` stream (PCG64
seeded through SeedSequence), computed by a pure-Python port of the few draws
:func:`generate` makes, so the same seed reproduces the same scenario on any
platform and numpy version without importing ``numpy.random``. The seed is
recorded in the scenario itself and in every saved run.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from .integrator import Trajectory, _state_arrays, write_trajectory_csv
from .model import (DelayKernel, HistoryFn, HistorySpec, LeaderForcing,
                    LeadershipDag, Potential, Scenario, ScenarioError,
                    _fields_of, _integer, _real, _reals)


# ---------------------------------------------------------------------------
# Randomized generation
# ---------------------------------------------------------------------------

_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _seed_words(seed: int) -> list[int]:
    """numpy's ``SeedSequence(seed).generate_state(4, np.uint64)``."""
    entropy = [seed & _MASK32]          # little-endian 32-bit words of the seed
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[4:]:
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    hash_const, words = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return [words[2 * k] | words[2 * k + 1] << 32 for k in range(4)]


class _Generator:
    """The draws :func:`generate` makes from numpy's ``default_rng(seed)``:
    PCG64 (128-bit LCG, XSL-RR output) seeded through SeedSequence, with the
    ``Generator`` methods of the same names and the same values. Its 32-bit
    draws halve a 64-bit output and keep the other half for the next one, as
    numpy does."""

    _MULT = 0x2360ED051FC65DA44385DF649FCCF645

    def __init__(self, seed: int):
        s_hi, s_lo, i_hi, i_lo = _seed_words(seed)
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        self._state = ((self._inc + (s_hi << 64 | s_lo)) * self._MULT + self._inc) & _MASK128
        self._half = None

    def _next64(self) -> int:
        self._state = state = (self._state * self._MULT + self._inc) & _MASK128
        rot, word = state >> 122, ((state >> 64) ^ state) & _MASK64
        return (word >> rot | word << (-rot & 63)) & _MASK64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _MASK32

    def random(self) -> float:
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, low: float, high: float, size: tuple[int, ...] | None = None):
        low, width = float(low), float(high) - float(low)
        if size is None:
            return low + width * self.random()
        return np.array([low + width * self.random()
                         for _ in range(math.prod(size))]).reshape(size)

    def integers(self, low: int, high: int | None = None) -> int:
        """Uniform on [low, high), or [0, low) without ``high``: Lemire's
        multiply-and-reject on 32-bit draws."""
        if high is None:
            low, high = 0, low
        span = high - 1 - low
        if span == 0:
            return low
        if not 0 < span <= _MASK32:
            raise ValueError(f"integers needs 1 <= high - low <= 2**32, got [{low}, {high})")
        if span == _MASK32:
            return low + self._next32()
        prod = self._next32() * (span + 1)
        if prod & _MASK32 < span + 1:
            threshold = (_MASK32 - span) % (span + 1)
            while prod & _MASK32 < threshold:
                prod = self._next32() * (span + 1)
        return low + (prod >> 32)

    def choice(self, a):
        return a[self.integers(len(a))]


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

    Every field is read on construction: a malformed one, or an ``n_agents``
    and ``dim`` whose shortest run cannot be allocated, is a
    :class:`ScenarioError` that names it, and the ranges and choices are kept
    as tuples.
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

    def __post_init__(self):
        def put(name: str, value):
            object.__setattr__(self, name, value)
            return value

        topologies = ("chain", "binary_tree", "random_hl")
        if not (isinstance(self.topology, str) and self.topology in topologies):
            raise ScenarioError(f"topology must be one of {topologies}, "
                                f"got {reprlib.repr(self.topology)}")
        for name, least in (("n_agents", 1), ("dim", 1), ("delay_steps", 1), ("rng_seed", 0)):
            put(name, _integer(getattr(self, name), name, least))
        for name in ("edge_prob", "sim_span"):
            put(name, _real(getattr(self, name), name))
        if self.topology == "random_hl" and self.n_agents > 1 and not 0.0 < self.edge_prob <= 1.0:
            raise ScenarioError(f"edge_prob must be in (0, 1] for random_hl, "
                                f"got {self.edge_prob}")
        for name in ("position_range", "velocity_range", "tau_range"):
            lo, hi = put(name, tuple(_reals(getattr(self, name), name, (2,)).tolist()))
            if not (lo <= hi and math.isfinite(hi - lo)) or (name == "tau_range" and not lo > 0):
                raise ScenarioError(f"{name} must be [lo, hi] with lo <= hi, a finite width "
                                    f"and, for tau_range, lo > 0; got {[lo, hi]}")
        betas = put("beta_choices", tuple(_reals(self.beta_choices, "beta_choices", (None,)).tolist()))
        if not betas or min(betas) < 0:
            raise ScenarioError(f"beta_choices must be a non-empty list of numbers >= 0, "
                                f"got {list(betas)}")
        shapes = self.kernel_shapes
        if not (isinstance(shapes, (list, tuple)) and shapes
                and all(s in DelayKernel.BUILTIN_SHAPES for s in shapes)):
            raise ScenarioError(f"kernel_shapes must be a non-empty list of "
                                f"{DelayKernel.BUILTIN_SHAPES}, got {shapes!r}")
        put("kernel_shapes", tuple(shapes))
        # The shortest run the spec draws (tau at tau_range[1]) must be
        # allocatable, so an absurd size fails here, not while `generate`
        # builds the hierarchy agent by agent. A span of more steps than a
        # float holds fails in `generate`, so it is checked at the fewest.
        fewest = self.sim_span / (self.tau_range[1] / self.delay_steps)
        steps = math.ceil(fewest) if math.isfinite(fewest) else self.delay_steps
        rows = self.delay_steps + max(self.delay_steps, steps) + 1
        _state_arrays((rows, self.n_agents, self.dim),
                      f"n_agents = {self.n_agents}, dim = {self.dim} and sim_span = "
                      f"{self.sim_span} give runs of at least {rows} states")


def _topology_dag(spec: GeneratorSpec, rng: _Generator) -> LeadershipDag:
    n = spec.n_agents
    if spec.topology == "chain":
        return LeadershipDag.chain(n)
    if spec.topology == "binary_tree":
        return LeadershipDag(n, {i: {i // 2} for i in range(2, n + 1)})
    leaders = {}        # random_hl, the last topology GeneratorSpec accepts
    for i in range(2, n + 1):
        picks = {j for j in range(1, i) if rng.random() < spec.edge_prob}
        if not picks:
            picks = {int(rng.integers(1, i))}
        leaders[i] = picks
    return LeadershipDag(n, leaders)


def generate(spec: GeneratorSpec) -> Scenario:
    """Draw a concrete scenario; deterministic for a given seed."""
    rng = _Generator(spec.rng_seed)
    dag = _topology_dag(spec, rng)

    tau = float(rng.uniform(*spec.tau_range))
    dt = tau / spec.delay_steps
    if not math.isfinite(spec.sim_span / dt):
        raise ScenarioError(f"sim_span ({spec.sim_span}) spans more steps of "
                            f"{dt} than a float holds")
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


def scenario_from_dict(data: dict, where: str = "scenario") -> Scenario:
    with _fields_of(data, where):
        n_agents = _integer(data["n_agents"], "n_agents", least=1)
        history = data["history"]
        # checked before the hierarchy, whose construction takes time in n_agents
        if not (isinstance(history, list) and len(history) == n_agents):
            raise ScenarioError(f"n_agents ({n_agents}) must equal the number of entries "
                                f"in the history list")
        leaders = data["leaders"]
        with _fields_of(leaders, "leaders"):
            for key, js in leaders.items():
                if not (isinstance(key, str) and key.isascii() and key.isdigit()):
                    raise ScenarioError(f"{key} must be a decimal agent index")
                if not isinstance(js, list):
                    raise ScenarioError(f"{key} must be a list of agent indices")
        dag = LeadershipDag(n_agents, {int(key): js for key, js in leaders.items()})
        positions, velocities = [], []
        for k, entry in enumerate(history):
            with _fields_of(entry, f"history[{k}]"):
                positions.append(HistoryFn.from_dict(entry["position"], "position"))
                velocities.append(HistoryFn.from_dict(entry["velocity"], "velocity"))
        scenario = Scenario(dag=dag, dim=_integer(data["dim"], "dim"),
                            potential=Potential.from_dict(data["potential"], "potential"),
                            kernel=DelayKernel.from_dict(data["kernel"], "kernel"),
                            history=HistorySpec(positions, velocities),
                            forcing=LeaderForcing.from_dict(data.get("forcing", {}), "forcing"),
                            t_end=_real(data["t_end"], "t_end"), dt=_real(data["dt"], "dt"),
                            rng_seed=_integer(data.get("rng_seed", 0), "rng_seed", least=0))
    problems = scenario.problems()
    if problems:
        raise ScenarioError(f"{where}: " + "; ".join(problems))
    return scenario


def _generator_from_dict(data: dict, where: str) -> GeneratorSpec:
    """The spec in the "generator" object of ``data``, the file ``where``."""
    with _fields_of(data, where):
        spec = data["generator"]
        with _fields_of(spec, "generator"):
            spec["topology"], spec["n_agents"]      # a missing one is named
            unknown = set(spec) - set(GeneratorSpec.__dataclass_fields__)
            if not unknown:
                return GeneratorSpec(**spec)
        raise ScenarioError(f"generator: unknown fields {sorted(unknown)}")


def _read_json(path: Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except (ValueError, RecursionError) as e:   # not UTF-8, an over-long integer, deep nesting
        raise ScenarioError(f"{path}: unreadable JSON ({e})") from e
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: expected a JSON object at the top level")
    return data


def load_generator(path) -> GeneratorSpec:
    """Load a generator-spec file: a JSON object with a top-level "generator" key."""
    return _generator_from_dict(_read_json(Path(path)), str(path))


def load_scenario(path, seed: int | None = None) -> Scenario:
    """Load a scenario file; a file with a top-level "generator" key is drawn
    from its recorded (or overridden) seed instead."""
    path = Path(path)
    data = _read_json(path)
    if "generator" in data:
        spec = _generator_from_dict(data, str(path))
        if seed is not None:
            spec = replace(spec, rng_seed=seed)
        return generate(spec)
    scenario = scenario_from_dict(data, where=str(path))
    if seed is not None:
        scenario = replace(scenario, rng_seed=_integer(seed, "rng_seed", least=0))
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
