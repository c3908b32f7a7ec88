"""Domain types for delayed flocking under hierarchical leadership.

The building blocks assembled here describe a problem instance before any
integration happens: the leadership DAG (who listens to whom), the interaction
potential (how influence falls off with distance), the delay kernel (how past
information is weighted over the memory window), per-agent initial histories,
and an optional exogenous acceleration applied to the root agent.

Agents are 1-indexed everywhere in the public API. The hierarchical-leadership
(HL) ordering is taken as given: every influence edge must point from a lower
index to a higher one, and every non-root agent needs at least one leader.
Validation reports violations as data instead of raising, so that malformed
inputs can be inspected.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np


class ScenarioError(ValueError):
    """A scenario (or one of its components) violates a structural invariant."""


class _JsonFamily:
    """A model family whose JSON form (``to_dict``) is all that defines it:
    two members are equal when they have the same type and the same form.
    Lists of floats compare like ``np.array_equal`` (0.0 == -0.0)."""

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.to_dict() == other.to_dict()


# ---------------------------------------------------------------------------
# Leadership structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


class LeadershipDag:
    """Directed leadership structure over agents 1..N.

    ``leaders[i]`` (1-indexed lookup via :meth:`leaders_of`) is the set of
    agents that directly influence agent ``i``. Construction only checks that
    indices are in range; the HL ordering constraints are checked by
    :func:`validate_hierarchy` so that invalid structures remain inspectable.
    """

    def __init__(self, n_agents: int, leaders: Mapping[int, Iterable[int]] | None = None):
        if not isinstance(n_agents, int) or n_agents < 1:
            raise ScenarioError(f"n_agents must be a positive integer, got {n_agents!r}")
        leaders = dict(leaders or {})
        sets: list[frozenset[int]] = []
        for i in range(1, n_agents + 1):
            l_i = frozenset(int(j) for j in leaders.get(i, ()))
            for j in l_i:
                if not 1 <= j <= n_agents:
                    raise ScenarioError(f"leader index {j} of agent {i} outside 1..{n_agents}")
            sets.append(l_i)
        for i in leaders:
            if not 1 <= int(i) <= n_agents:
                raise ScenarioError(f"agent index {i} outside 1..{n_agents}")
        self.n_agents = n_agents
        self._leaders = tuple(sets)

    def leaders_of(self, i: int) -> frozenset[int]:
        if not 1 <= i <= self.n_agents:
            raise ScenarioError(f"agent index {i} outside 1..{self.n_agents}")
        return self._leaders[i - 1]

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All influence edges as 0-based (follower, leader) index arrays."""
        fol, led = [], []
        for i, l_i in enumerate(self._leaders):
            for j in sorted(l_i):
                fol.append(i)
                led.append(j - 1)
        return np.asarray(fol, dtype=np.intp), np.asarray(led, dtype=np.intp)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LeadershipDag)
                and self.n_agents == other.n_agents
                and self._leaders == other._leaders)

    def __hash__(self) -> int:
        return hash((self.n_agents, self._leaders))

    def __repr__(self) -> str:
        edges = {i + 1: sorted(s) for i, s in enumerate(self._leaders) if s}
        return f"LeadershipDag(n_agents={self.n_agents}, leaders={edges})"

    @classmethod
    def chain(cls, n_agents: int) -> "LeadershipDag":
        """1 -> 2 -> ... -> N, each agent led by its predecessor."""
        return cls(n_agents, {i: {i - 1} for i in range(2, n_agents + 1)})


def validate_hierarchy(dag: LeadershipDag) -> ValidationReport:
    """Check the HL ordering constraints; violations are data, not faults."""
    violations = []
    for i in range(1, dag.n_agents + 1):
        l_i = dag.leaders_of(i)
        if i == 1:
            if l_i:
                violations.append(f"agent 1 must have no leaders, has {sorted(l_i)}")
            continue
        if not l_i:
            violations.append(f"agent {i} has no leaders")
        for j in sorted(l_i):
            if j >= i:
                violations.append(f"edge {j} -> {i} violates ordering (need leader < follower)")
    return ValidationReport(ok=not violations, violations=tuple(violations))


def leader_levels(dag: LeadershipDag, i: int) -> tuple[list[frozenset[int]], frozenset[int]]:
    """Expand the leader sets of agent ``i`` level by level.

    Level 0 is {i}, level m applies the direct-leader map to level m-1.
    Iteration stops once the running union stops growing, which takes at most
    N rounds on a valid hierarchy. Returns (levels, closure) where closure is
    the union of all levels (agent i plus all its direct and indirect leaders).
    """
    report = validate_hierarchy(dag)
    if not report.ok:
        raise ScenarioError("invalid hierarchy: " + "; ".join(report.violations))
    levels = [frozenset({i})]
    closure = set(levels[0])
    while True:
        nxt = frozenset().union(*(dag.leaders_of(j) for j in levels[-1])) if levels[-1] else frozenset()
        if not (nxt - closure):
            break
        levels.append(nxt)
        closure |= nxt
    return levels, frozenset(closure)


# ---------------------------------------------------------------------------
# Interaction potential
# ---------------------------------------------------------------------------

class Potential(_JsonFamily):
    """Non-increasing interaction strength as a function of distance.

    Built-in family ``cucker_smale(beta)`` is ``(1 + s^2) ** -beta``; a table
    family interpolates user samples linearly with flat extrapolation beyond
    the last sample (which keeps the extension non-increasing); a custom
    family wraps an arbitrary callable.
    """

    def __init__(self, family: str, *, beta: float | None = None,
                 distances: np.ndarray | None = None, values: np.ndarray | None = None,
                 func: Callable[[np.ndarray], np.ndarray] | None = None):
        self.family = family
        self.beta = beta
        self.distances = distances
        self.values = values
        self.func = func

    @classmethod
    def cucker_smale(cls, beta: float) -> "Potential":
        if not (math.isfinite(beta) and beta >= 0):
            raise ScenarioError(f"cucker_smale exponent beta must be finite and >= 0, got {beta}")
        return cls("cucker_smale", beta=float(beta))

    @classmethod
    def table(cls, distances: Sequence[float], values: Sequence[float]) -> "Potential":
        s = np.asarray(distances, dtype=float)
        v = np.asarray(values, dtype=float)
        if s.ndim != 1 or s.shape != v.shape or s.size < 2:
            raise ScenarioError("table potential needs matching 1-d sample arrays, >= 2 points")
        if np.any(np.diff(s) <= 0) or s[0] < 0:
            raise ScenarioError("table potential distances must be >= 0 and strictly increasing")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise ScenarioError("table potential values must be finite and >= 0")
        if np.any(np.diff(v) > 0):
            raise ScenarioError("table potential values must be non-increasing")
        return cls("table", distances=s, values=v)

    @classmethod
    def custom(cls, func: Callable[[np.ndarray], np.ndarray]) -> "Potential":
        p = cls("custom", func=func)
        # spot-check positivity and monotonicity on a coarse grid
        probe = np.concatenate([[0.0], np.geomspace(1e-3, 100.0, 40)])
        vals = np.asarray(func(probe), dtype=float)
        if vals.shape != probe.shape or not np.all(np.isfinite(vals)):
            raise ScenarioError("custom potential must return finite values elementwise")
        if np.any(vals <= 0):
            raise ScenarioError("custom potential must be strictly positive")
        if np.any(np.diff(vals) > 1e-12):
            raise ScenarioError("custom potential must be non-increasing")
        return p

    def _eval(self, s: np.ndarray) -> np.ndarray:
        if self.family == "cucker_smale":
            if self.beta == 0.0:
                return np.ones_like(s)
            return (1.0 + s * s) ** (-self.beta)
        if self.family == "table":
            return np.interp(s, self.distances, self.values)
        return np.asarray(self.func(s), dtype=float)

    def __call__(self, s):
        arr = np.asarray(s, dtype=float)
        out = self._eval(arr)
        return float(out) if arr.ndim == 0 else out

    def __eq__(self, other) -> bool:
        # a custom callable has no JSON form and equals only itself
        if self.family == "custom" or getattr(other, "family", None) == "custom":
            return self is other
        return super().__eq__(other)

    def to_dict(self) -> dict:
        """JSON form of a built-in family; a custom callable has none."""
        if self.family == "cucker_smale":
            return {"family": "cucker_smale", "beta": self.beta}
        if self.family == "table":
            return {"family": "table", "distances": self.distances.tolist(),
                    "values": self.values.tolist()}
        raise ScenarioError("custom potentials hold arbitrary callables and cannot be saved")

    @classmethod
    def from_dict(cls, d: dict, where: str) -> "Potential":
        """Inverse of :meth:`to_dict`; ``where`` names ``d`` in errors."""
        family = d.get("family")
        if family == "cucker_smale":
            return cls.cucker_smale(float(d["beta"]))
        if family == "table":
            return cls.table(d["distances"], d["values"])
        raise ScenarioError(f"{where}: unknown family {family!r}")

    def __repr__(self) -> str:
        if self.family == "cucker_smale":
            return f"Potential.cucker_smale({self.beta})"
        return f"Potential({self.family!r})"


def eval_potential(p: Potential, s):
    """Evaluate the potential at distance(s) ``s``; negative input is an error."""
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0):
        raise ScenarioError("potential is defined for nonnegative distances only")
    return p(s)


@dataclass(frozen=True)
class TailReport:
    verdict: str                                   # "yes" | "no" | "unknown"
    partial_integrals: tuple[tuple[float, float], ...] = ()


def check_divergent_tail(p: Potential, horizon: float = 1e6) -> TailReport:
    """Decide whether the potential's integral over [0, inf) diverges.

    For the cucker_smale family the answer is analytic (divergent iff the
    exponent is <= 1/2, by comparison with s**(-2*beta)). For anything else
    the verdict is "unknown" and partial integrals over [0, S] are reported
    for log-spaced horizons S as numeric evidence of the trend; no analytic
    certainty is claimed for table or custom inputs.
    """
    if p.family == "cucker_smale":
        return TailReport(verdict="yes" if p.beta <= 0.5 else "no")
    decades = int(math.ceil(math.log10(horizon)))
    grid = np.concatenate([[0.0], np.geomspace(1e-3, horizon, decades * 64)])
    vals = p(grid)
    increments = 0.5 * (vals[1:] + vals[:-1]) * np.diff(grid)
    cumulative = np.concatenate([[0.0], np.cumsum(increments)])
    marks = []
    for s_mark in np.geomspace(1.0, horizon, decades + 1):
        k = int(np.searchsorted(grid, s_mark))
        k = min(k, grid.size - 1)
        marks.append((float(grid[k]), float(cumulative[k])))
    return TailReport(verdict="unknown", partial_integrals=tuple(marks))


# ---------------------------------------------------------------------------
# Delay kernel
# ---------------------------------------------------------------------------

# integral of exp(-1/(1-u^2)) over [-1, 1], to double precision
_BUMP_INTEGRAL = 0.4439938161680794

_KERNEL_GRID_POINTS = 1025  # dense internal grid; trapezoid mass is exact for
                            # uniform/triangular and superconvergent for the bump


class DelayKernel(_JsonFamily):
    """Nonnegative bounded weight over the memory window [0, tau].

    ``mu0`` is the total mass, computed by composite trapezoid on the stored
    sample grid. Built-in shapes carry an analytic mass that the numeric one
    must reproduce to 1e-10 relative; tables are trapezoid-only.
    """

    BUILTIN_SHAPES = ("uniform", "triangular", "truncated_bump")

    def __init__(self, shape: str, tau: float, *, height: float | None = None,
                 times: np.ndarray | None = None, values: np.ndarray | None = None):
        if not (tau > 0 and math.isfinite(tau)):
            raise ScenarioError(f"delay span tau must be positive and finite, got {tau}")
        self.shape = shape
        self.tau = float(tau)
        self.height = height
        if shape == "table":
            t = np.asarray(times, dtype=float)
            v = np.asarray(values, dtype=float)
            if t.ndim != 1 or t.shape != v.shape or t.size < 2:
                raise ScenarioError("table kernel needs matching 1-d sample arrays, >= 2 points")
            if abs(t[0]) > 1e-12 * tau or abs(t[-1] - tau) > 1e-12 * tau or np.any(np.diff(t) <= 0):
                raise ScenarioError("table kernel samples must increase from 0 to tau")
            if np.any(v < 0) or not np.all(np.isfinite(v)):
                raise ScenarioError("kernel weights must be finite and >= 0")
            self._grid_t, self._grid_v = t, v
            self.tau = float(t[-1])     # a table is its samples, all that to_dict keeps
        else:
            if shape not in self.BUILTIN_SHAPES:
                raise ScenarioError(f"unknown kernel shape {shape!r}")
            self._grid_t = np.linspace(0.0, tau, _KERNEL_GRID_POINTS)
            self._grid_v = self._eval_builtin(self._grid_t)
        self.mu0 = float(np.trapezoid(self._grid_v, self._grid_t))
        if not self.mu0 > 0:
            raise ScenarioError("kernel mass must be positive")

    @classmethod
    def uniform(cls, tau: float, height: float | None = None) -> "DelayKernel":
        return cls("uniform", tau, height=float(height) if height is not None else 1.0 / tau)

    @classmethod
    def triangular(cls, tau: float, peak: float | None = None) -> "DelayKernel":
        """Symmetric triangle on [0, tau] peaking at tau/2; mass = peak * tau / 2."""
        return cls("triangular", tau, height=float(peak) if peak is not None else 2.0 / tau)

    @classmethod
    def truncated_bump(cls, tau: float, height: float | None = None) -> "DelayKernel":
        """Smooth bump exp(-1/(1-u^2)) rescaled to [0, tau]; vanishes at both ends."""
        if height is None:
            height = 1.0 / (0.5 * tau * _BUMP_INTEGRAL)   # normalize mass to 1
        return cls("truncated_bump", tau, height=float(height))

    @classmethod
    def table(cls, times: Sequence[float], values: Sequence[float]) -> "DelayKernel":
        t = np.asarray(times, dtype=float)
        return cls("table", float(t[-1]), times=t, values=np.asarray(values, dtype=float))

    def _eval_builtin(self, s: np.ndarray) -> np.ndarray:
        if self.shape == "uniform":
            return np.full_like(s, self.height)
        u = 2.0 * s / self.tau - 1.0
        if self.shape == "triangular":
            return self.height * np.maximum(0.0, 1.0 - np.abs(u))
        # truncated bump; endpoints map to 0
        inside = np.abs(u) < 1.0
        out = np.zeros_like(s)
        with np.errstate(divide="ignore", over="ignore"):
            out[inside] = self.height * np.exp(-1.0 / (1.0 - u[inside] ** 2))
        return out

    @property
    def analytic_mass(self) -> float | None:
        if self.shape == "uniform":
            return self.height * self.tau
        if self.shape == "triangular":
            return self.height * self.tau / 2.0
        if self.shape == "truncated_bump":
            return self.height * 0.5 * self.tau * _BUMP_INTEGRAL
        return None

    @property
    def breakpoints(self) -> tuple[float, ...] | None:
        """Delays, from 0 to tau, between which the kernel is linear; None
        for a kernel that is not piecewise linear (the truncated bump)."""
        if self.shape == "uniform":
            return (0.0, self.tau)
        if self.shape == "triangular":
            return (0.0, 0.5 * self.tau, self.tau)
        if self.shape == "table":
            return tuple(self._grid_t.tolist())
        return None

    def __call__(self, s):
        arr = np.asarray(s, dtype=float)
        if self.shape == "table":
            out = np.interp(arr, self._grid_t, self._grid_v)
        else:
            out = self._eval_builtin(arr)
        return float(out) if arr.ndim == 0 else out

    def to_dict(self) -> dict:
        """JSON form: the samples of a table, else tau and the height parameter."""
        if self.shape == "table":
            return {"shape": "table", "times": self._grid_t.tolist(),
                    "values": self._grid_v.tolist()}
        param = "peak" if self.shape == "triangular" else "height"
        return {"shape": self.shape, "tau": self.tau, param: self.height}

    @classmethod
    def from_dict(cls, d: dict, where: str) -> "DelayKernel":
        """Inverse of :meth:`to_dict`; a missing height parameter gives unit mass."""
        shape = d.get("shape")
        if shape == "uniform":
            return cls.uniform(float(d["tau"]), d.get("height"))
        if shape == "triangular":
            return cls.triangular(float(d["tau"]), d.get("peak"))
        if shape == "truncated_bump":
            return cls.truncated_bump(float(d["tau"]), d.get("height"))
        if shape == "table":
            return cls.table(d["times"], d["values"])
        raise ScenarioError(f"{where}: unknown shape {shape!r}")

    def __repr__(self) -> str:
        return f"DelayKernel({self.shape!r}, tau={self.tau}, mu0={self.mu0:.6g})"


# ---------------------------------------------------------------------------
# Initial histories
# ---------------------------------------------------------------------------

class HistoryFn(_JsonFamily):
    """One agent's position or velocity prehistory on the window [-tau, 0].

    Built-in forms are constant, affine in the time offset, and tabulated
    samples with linear interpolation. Tables must cover every lookup point;
    an out-of-range lookup is an error rather than an extrapolation.
    """

    def __init__(self, kind: str, *, value: np.ndarray | None = None,
                 slope: np.ndarray | None = None,
                 times: np.ndarray | None = None, values: np.ndarray | None = None):
        self.kind = kind
        self.value = None if value is None else np.asarray(value, dtype=float)
        self.slope = None if slope is None else np.asarray(slope, dtype=float)
        self.times = None if times is None else np.asarray(times, dtype=float)
        self.values = None if values is None else np.asarray(values, dtype=float)
        if kind == "constant":
            if self.value is None or self.value.ndim != 1:
                raise ScenarioError("constant history needs a 1-d value vector")
        elif kind == "affine":
            if self.value is None or self.slope is None or self.value.shape != self.slope.shape:
                raise ScenarioError("affine history needs matching value and slope vectors")
        elif kind == "table":
            if (self.times is None or self.values is None or self.times.ndim != 1
                    or self.values.ndim != 2 or self.values.shape[0] != self.times.size):
                raise ScenarioError("table history needs times (k,) and values (k, dim)")
            if np.any(np.diff(self.times) <= 0):
                raise ScenarioError("table history times must be strictly increasing")
        else:
            raise ScenarioError(f"unknown history kind {kind!r}")
        for arr in (self.value, self.slope, self.values):
            if arr is not None and not np.all(np.isfinite(arr)):
                raise ScenarioError("history values must be finite")

    @property
    def dim(self) -> int:
        if self.kind == "table":
            return self.values.shape[1]
        return self.value.size

    def eval(self, s) -> np.ndarray:
        """The value (d,) at window offset ``s``, or one row per offset
        (k, d) for an array ``s`` (k,). Each row is computed as for its offset
        alone, so a grid gives the per-offset values bit for bit."""
        s = np.asarray(s, dtype=float)
        if self.kind == "constant":
            return np.broadcast_to(self.value, s.shape + self.value.shape)
        if self.kind == "affine":
            return self.value + s[..., None] * self.slope
        tol = 1e-9 * max(1.0, abs(self.times[0]))
        outside = s[(s < self.times[0] - tol) | (s > self.times[-1] + tol)]
        if outside.size:
            raise ScenarioError(f"history table undefined at s={outside[0]} "
                                f"(covers [{self.times[0]}, {self.times[-1]}])")
        return np.stack([np.interp(s, self.times, self.values[:, k])
                         for k in range(self.values.shape[1])], axis=-1)

    def to_dict(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "value": self.value.tolist()}
        if self.kind == "affine":
            return {"kind": "affine", "value": self.value.tolist(), "slope": self.slope.tolist()}
        return {"kind": "table", "times": self.times.tolist(), "values": self.values.tolist()}

    @classmethod
    def from_dict(cls, d: dict, where: str) -> "HistoryFn":
        """Inverse of :meth:`to_dict`; ``where`` names ``d`` in errors."""
        kind = d.get("kind")
        try:
            if kind == "constant":
                return cls("constant", value=d["value"])
            if kind == "affine":
                return cls("affine", value=d["value"], slope=d["slope"])
            if kind == "table":
                return cls("table", times=d["times"], values=d["values"])
        except KeyError as e:
            raise ScenarioError(f"{where}: missing key {e.args[0]!r} for {kind} history") from None
        raise ScenarioError(f"{where}: unknown history kind {kind!r}")


class HistorySpec:
    """Initial position and velocity functions for every agent."""

    def __init__(self, positions: Sequence[HistoryFn], velocities: Sequence[HistoryFn]):
        if len(positions) != len(velocities) or not positions:
            raise ScenarioError("need one position and one velocity history per agent")
        dims = {fn.dim for fn in positions} | {fn.dim for fn in velocities}
        if len(dims) != 1:
            raise ScenarioError(f"history dimensions disagree: {sorted(dims)}")
        self.positions = tuple(positions)
        self.velocities = tuple(velocities)

    @property
    def n_agents(self) -> int:
        return len(self.positions)

    @property
    def dim(self) -> int:
        return self.positions[0].dim

    @classmethod
    def constant(cls, x0, v0) -> "HistorySpec":
        """Constant-in-time histories from (N, d) arrays of positions/velocities."""
        x0 = np.atleast_2d(np.asarray(x0, dtype=float))
        v0 = np.atleast_2d(np.asarray(v0, dtype=float))
        if x0.shape != v0.shape:
            raise ScenarioError("x0 and v0 must have the same (N, d) shape")
        return cls([HistoryFn("constant", value=row) for row in x0],
                   [HistoryFn("constant", value=row) for row in v0])

    def sample(self, s_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate all agents on a grid of window offsets; returns (x, v) with
        shape (len(s_values), N, d)."""
        s = np.asarray(s_values, dtype=float)
        xs = np.stack([fn.eval(s) for fn in self.positions], axis=1)
        vs = np.stack([fn.eval(s) for fn in self.velocities], axis=1)
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vs))):
            raise ScenarioError("history evaluates to non-finite values on the window")
        return xs, vs

    def __eq__(self, other) -> bool:
        return (isinstance(other, HistorySpec)
                and self.positions == other.positions
                and self.velocities == other.velocities)


# ---------------------------------------------------------------------------
# Free-will forcing of the root agent
# ---------------------------------------------------------------------------

class LeaderForcing(_JsonFamily):
    """Exogenous acceleration applied to agent 1.

    Built-in magnitude profiles act along a fixed unit direction (default
    first axis). ``power_law`` is amplitude / (1+t)**exponent; ``log_damped``
    is amplitude / ((1+t)**decay_power * ln^2(2+t)) with decay_power = N - 1
    for the flock size it was built for; ``table`` interpolates samples and
    is zero beyond the last one.
    """

    def __init__(self, family: str, *, amplitude: float = 0.0, exponent: float | None = None,
                 decay_power: float | None = None, times: np.ndarray | None = None,
                 magnitudes: np.ndarray | None = None, direction: np.ndarray | None = None):
        for name, value in (("amplitude", amplitude), ("exponent", exponent),
                            ("decay_power", decay_power)):
            if value is not None and not math.isfinite(value):
                raise ScenarioError(f"forcing {name} must be finite, got {value}")
        self.family = family
        self.amplitude = float(amplitude)
        self.exponent = exponent
        self.decay_power = decay_power
        self.times = None if times is None else np.asarray(times, dtype=float)
        self.magnitudes = None if magnitudes is None else np.asarray(magnitudes, dtype=float)
        self.direction = None if direction is None else np.asarray(direction, dtype=float)
        if self.direction is not None:
            norm = float(np.linalg.norm(self.direction))
            if not norm > 0:
                raise ScenarioError("forcing direction must be a nonzero vector")
            if abs(norm - 1.0) > 1e-12:   # keep already-unit vectors bit-stable
                self.direction = self.direction / norm

    @staticmethod
    def _resolve_direction(direction, dim: int | None) -> np.ndarray | None:
        if direction is not None:
            return np.asarray(direction, dtype=float)
        if dim is not None:
            e = np.zeros(dim)
            e[0] = 1.0
            return e
        raise ScenarioError("provide a direction vector or dim for a built-in forcing")

    @classmethod
    def zero(cls) -> "LeaderForcing":
        return cls("zero")

    @classmethod
    def power_law(cls, amplitude: float, exponent: float,
                  direction=None, dim: int | None = None) -> "LeaderForcing":
        return cls("power_law", amplitude=amplitude, exponent=float(exponent),
                   direction=cls._resolve_direction(direction, dim))

    @classmethod
    def log_damped(cls, amplitude: float, n_agents: int,
                   direction=None, dim: int | None = None) -> "LeaderForcing":
        if n_agents < 2:
            raise ScenarioError("log_damped forcing is defined for flocks of >= 2 agents")
        return cls("log_damped", amplitude=amplitude, decay_power=float(n_agents - 1),
                   direction=cls._resolve_direction(direction, dim))

    @classmethod
    def table(cls, times: Sequence[float], magnitudes: Sequence[float],
              direction=None, dim: int | None = None) -> "LeaderForcing":
        t = np.asarray(times, dtype=float)
        m = np.asarray(magnitudes, dtype=float)
        if t.ndim != 1 or t.shape != m.shape or t.size < 2 or np.any(np.diff(t) <= 0):
            raise ScenarioError("table forcing needs strictly increasing times and matching magnitudes")
        if t[0] < 0:
            raise ScenarioError("table forcing times must start at t >= 0")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(m))):
            raise ScenarioError("table forcing times and magnitudes must be finite")
        return cls("table", times=t, magnitudes=m,
                   direction=cls._resolve_direction(direction, dim))

    @property
    def is_zero(self) -> bool:
        return self.family == "zero"

    def magnitude(self, t):
        """Signed scalar profile; the force is magnitude(t) * direction."""
        arr = np.asarray(t, dtype=float)
        if self.family == "zero":
            out = np.zeros_like(arr)
        elif self.family == "power_law":
            out = self.amplitude * (1.0 + arr) ** (-self.exponent)
        elif self.family == "log_damped":
            out = self.amplitude / ((1.0 + arr) ** self.decay_power * np.log(2.0 + arr) ** 2)
        else:
            out = np.interp(arr, self.times, self.magnitudes, left=0.0, right=0.0)
        return float(out) if arr.ndim == 0 else out

    def eval(self, t: float, dim: int) -> np.ndarray:
        if self.family == "zero":
            return np.zeros(dim)
        if self.direction.size != dim:
            raise ScenarioError(f"forcing direction has dim {self.direction.size}, scenario has {dim}")
        return self.magnitude(t) * self.direction

    def l1_norm(self) -> float:
        """Integral of |f| over [0, inf); inf when the profile is not integrable."""
        if self.family == "zero":
            return 0.0
        if self.family == "power_law":
            if self.exponent <= 1.0:
                return math.inf if self.amplitude != 0 else 0.0
            return abs(self.amplitude) / (self.exponent - 1.0)
        if self.family == "log_damped":
            if self.decay_power < 1.0:
                return math.inf if self.amplitude != 0 else 0.0
            # substitute u = ln(2+t): dt/((1+t)^q ln^2(2+t)) becomes
            # e^{u(1-q)} du / ((1 - e^{-u})^q u^2), decaying like u^-2 (q = 1)
            # or exponentially (q > 1)
            # scipy is imported here, its only use, to keep it off the import path
            from scipy.integrate import quad

            q = self.decay_power
            val, _ = quad(lambda u: math.exp(u * (1.0 - q))
                          / ((1.0 - math.exp(-u)) ** q * u * u),
                          math.log(2.0), math.inf, limit=200)
            return float(abs(self.amplitude) * val)
        return float(np.trapezoid(np.abs(self.magnitudes), self.times))

    def to_dict(self) -> dict:
        if self.family == "zero":
            return {"family": "zero"}
        if self.family == "power_law":
            return {"family": "power_law", "amplitude": self.amplitude,
                    "exponent": self.exponent, "direction": self.direction.tolist()}
        if self.family == "log_damped":
            return {"family": "log_damped", "amplitude": self.amplitude,
                    "decay_power": self.decay_power, "direction": self.direction.tolist()}
        return {"family": "table", "times": self.times.tolist(),
                "magnitudes": self.magnitudes.tolist(), "direction": self.direction.tolist()}

    @classmethod
    def from_dict(cls, d: dict, where: str) -> "LeaderForcing":
        """Inverse of :meth:`to_dict`; a missing family means zero forcing."""
        family = d.get("family", "zero")
        if family == "zero":
            return cls.zero()
        if family == "power_law":
            return cls.power_law(float(d["amplitude"]), float(d["exponent"]),
                                 direction=d["direction"])
        if family == "log_damped":
            return cls("log_damped", amplitude=float(d["amplitude"]),
                       decay_power=float(d["decay_power"]),
                       direction=np.asarray(d["direction"], dtype=float))
        if family == "table":
            return cls.table(d["times"], d["magnitudes"], direction=d["direction"])
        raise ScenarioError(f"{where}: unknown family {family!r}")

    def __repr__(self) -> str:
        if self.family == "zero":
            return "LeaderForcing.zero()"
        return f"LeaderForcing({self.family!r}, amplitude={self.amplitude})"


@dataclass(frozen=True)
class ForcingConditions:
    """Flags for the hypotheses on the root agent's acceleration.

    integrable: |f| has finite integral over [0, inf).
    little_o_condition: |f(t)| = o((1+t)**(1-N)).
    weighted_L1: t**(N-2) |f(t)| is integrable over [0, inf).
    basis is "analytic" for built-in families and "numeric-evidence" for
    tables, where the flags are grid heuristics, not proofs.
    """
    integrable: bool
    little_o_condition: bool
    weighted_L1: bool
    basis: str = "analytic"
    evidence: dict | None = None

    @property
    def all_satisfied(self) -> bool:
        return self.integrable and self.little_o_condition and self.weighted_L1


def check_forcing_conditions(f: LeaderForcing, n_agents: int,
                             horizon: float = 1e6) -> ForcingConditions:
    """Evaluate the admissibility of a root forcing for a flock of N agents.

    Built-in families are decided analytically. power_law(p): integrable iff
    p > 1; the little-o and weighted conditions hold iff p > N-1 (strict: the
    boundary p = N-1 fails both). log_damped built for decay power q: the
    squared-log factor rescues the boundary, so all three hold iff q >= N-1
    (and q >= 1 for integrability). Table forcings get grid heuristics on
    [0, horizon], reported as evidence rather than proof.
    """
    if n_agents < 2:
        raise ScenarioError("forcing conditions are defined for flocks of >= 2 agents")
    if f.family == "zero":
        return ForcingConditions(True, True, True)
    if f.family == "power_law":
        p = f.exponent
        return ForcingConditions(integrable=p > 1.0,
                                 little_o_condition=p > n_agents - 1,
                                 weighted_L1=p > n_agents - 1)
    if f.family == "log_damped":
        q = f.decay_power
        return ForcingConditions(integrable=q >= 1.0,
                                 little_o_condition=q >= n_agents - 1,
                                 weighted_L1=q >= n_agents - 1)

    # table: numeric heuristics on a log-spaced grid with a declared horizon
    grid = np.concatenate([[0.0], np.geomspace(1e-3, horizon, 400)])
    mag = np.abs(f.magnitude(grid))
    inc = 0.5 * (mag[1:] + mag[:-1]) * np.diff(grid)
    total = np.concatenate([[0.0], np.cumsum(inc)])
    w_inc = 0.5 * ((grid[1:] ** max(0, n_agents - 2)) * mag[1:]
                   + (grid[:-1] ** max(0, n_agents - 2)) * mag[:-1]) * np.diff(grid)
    w_total = np.concatenate([[0.0], np.cumsum(w_inc)])
    ratio = mag * (1.0 + grid) ** (n_agents - 1)

    def settled(series) -> bool:
        # mass accumulated over the last decade is a negligible fraction
        last = series[-1]
        k = int(np.searchsorted(grid, horizon / 10.0))
        return last == 0.0 or (last - series[k]) <= 1e-6 * max(last, 1e-300)

    tail = ratio[grid > horizon / 100.0]
    little_o = bool(tail.size == 0 or np.max(tail) <= 1e-6 * max(np.max(ratio), 1e-300))
    evidence = {
        "horizon": horizon,
        "partial_l1": float(total[-1]),
        "partial_weighted_l1": float(w_total[-1]),
        "max_tail_ratio": float(np.max(tail)) if tail.size else 0.0,
    }
    return ForcingConditions(integrable=settled(total), little_o_condition=little_o,
                             weighted_L1=settled(w_total),
                             basis="numeric-evidence", evidence=evidence)


# ---------------------------------------------------------------------------
# Full problem instance
# ---------------------------------------------------------------------------

def _aligned_steps(span: float, dt: float, what: str) -> int:
    ratio = span / dt
    if not math.isfinite(ratio):
        raise ScenarioError(f"{what} ({span}) must be a finite multiple of dt ({dt})")
    n = round(ratio)
    if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, abs(ratio)):
        raise ScenarioError(f"{what} ({span}) must be a positive integer multiple of dt ({dt})")
    return int(n)


@dataclass(eq=True)
class Scenario:
    """Everything needed to run one simulation."""
    dag: LeadershipDag
    dim: int
    potential: Potential
    kernel: DelayKernel
    history: HistorySpec
    forcing: LeaderForcing = field(default_factory=LeaderForcing.zero)
    t_end: float = 1.0
    dt: float = 0.01
    rng_seed: int = 0

    @property
    def n_agents(self) -> int:
        return self.dag.n_agents

    @property
    def tau(self) -> float:
        return self.kernel.tau

    @property
    def delay_steps(self) -> int:
        """Number of grid steps spanning the memory window (tau / dt)."""
        return _aligned_steps(self.tau, self.dt, "delay span tau")

    @property
    def n_steps(self) -> int:
        return _aligned_steps(self.t_end, self.dt, "t_end")

    def problems(self) -> list[str]:
        out = list(validate_hierarchy(self.dag).violations)
        if self.dim < 1:
            out.append(f"dim must be >= 1, got {self.dim}")
        if not self.dt > 0:
            out.append(f"dt must be positive, got {self.dt}")
        else:
            for span, what in ((self.tau, "delay span tau"), (self.t_end, "t_end")):
                try:
                    _aligned_steps(span, self.dt, what)
                except ScenarioError as e:
                    out.append(str(e))
        if self.t_end < self.tau - 1e-12:
            out.append(f"t_end ({self.t_end}) must be >= tau ({self.tau})")
        if self.history.n_agents != self.n_agents:
            out.append(f"history covers {self.history.n_agents} agents, dag has {self.n_agents}")
        if self.history.dim != self.dim:
            out.append(f"history dimension {self.history.dim} != scenario dim {self.dim}")
        if not self.forcing.is_zero and self.forcing.direction.size != self.dim:
            out.append(f"forcing direction dim {self.forcing.direction.size} != scenario dim {self.dim}")
        return out

    def validate(self) -> "Scenario":
        problems = self.problems()
        if problems:
            raise ScenarioError("; ".join(problems))
        return self
