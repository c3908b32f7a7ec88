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
import reprlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np


class ScenarioError(ValueError):
    """A scenario (or one of its components) violates a structural invariant."""


# Typed readers: every number a scenario takes in, from JSON or from a Python
# caller, is read by one of these, and an error names the field's path.

def _reals(value, path: str, shape: tuple[int | None, ...]) -> np.ndarray:
    """``value`` as a float array of finite numbers with ``shape``, in which
    None admits any length: no bool, string, None or list in a number's place."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        cells = value
    else:       # as objects, so that a bool or a string is seen, not converted
        cells = np.array(value, dtype=object)
    if (cells.ndim == len(shape)
            and all(n is None or n == k for n, k in zip(shape, cells.shape))
            and (cells.dtype != object or all(
                isinstance(c, (int, float, np.integer, np.floating)) and not isinstance(c, bool)
                for c in cells.flat))):
        try:
            array = np.asarray(cells, dtype=float)
        except OverflowError:       # an int beyond the float range
            array = np.array(math.inf)
        if np.isfinite(array).all():
            return array
    dims = ", ".join("k" if n is None else str(n) for n in shape)
    what = f"an array of finite numbers of shape ({dims})" if shape else "a finite number"
    raise ScenarioError(f"{path} must be {what}, got {reprlib.repr(value)}")


def _real(value, path: str, least: float | None = None) -> float:
    """``value`` as a finite float, at least ``least`` when that is given."""
    number = float(_reals(value, path, ()))
    if least is not None and number < least:
        raise ScenarioError(f"{path} must be >= {least}, got {number}")
    return number


def _integer(value, path: str, least: int | None = None) -> int:
    """``value`` as an int: an integer that is neither a bool nor a float."""
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and (least is None or value >= least)):
        return int(value)
    bound = "" if least is None else f" >= {least}"
    raise ScenarioError(f"{path} must be an integer{bound}, got {reprlib.repr(value)}")


@contextmanager
def _fields_of(d, where: str):
    """Read the JSON object ``d``, named ``where``: a missing key, or a
    ScenarioError that starts with a field's name, names ``where.field``."""
    if not isinstance(d, dict):
        raise ScenarioError(f"{where} must be a JSON object, got {reprlib.repr(d)}")
    try:
        yield
    except KeyError as e:
        raise ScenarioError(f"{where}.{e.args[0]} is missing") from None
    except ScenarioError as e:
        raise ScenarioError(f"{where}.{e}") from None


class _JsonFamily:
    """A model family whose JSON form (``to_dict``) is all that defines it:
    two members are equal when they have the same type and the same form.
    Lists of floats compare like ``np.array_equal`` (0.0 == -0.0).

    The form of a member is ``{_TAG: name}`` and then, in order, the fields
    ``_FIELDS[name]`` of its family, each a number or an array. The
    constructor takes the family's name and its fields, and reads them."""

    _TAG = "family"
    _FIELDS: dict[str, tuple[str, ...]] = {}

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.to_dict() == other.to_dict()

    def to_dict(self) -> dict:
        name = getattr(self, self._TAG)
        return {self._TAG: name, **{k: np.asarray(getattr(self, k)).tolist()
                                    for k in self._FIELDS[name]}}

    @classmethod
    def from_dict(cls, d: dict, where: str):
        """Inverse of :meth:`to_dict`; ``where`` names ``d`` in errors."""
        with _fields_of(d, where):
            name = d.get(cls._TAG)
            if name in tuple(cls._FIELDS):      # a tuple: name need not be hashable
                return cls(name, **{k: d[k] for k in cls._FIELDS[name]})
        raise ScenarioError(f"{where}: unknown {cls._TAG} {name!r}")


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
        n_agents = _integer(n_agents, "n_agents", least=1)
        sets = [frozenset()] * n_agents
        for i, l_i in (leaders or {}).items():
            i = _integer(i, "leaders key")
            l_i = frozenset(_integer(j, f"leaders of agent {i}") for j in l_i)
            for j in (i, *l_i):
                if not 1 <= j <= n_agents:
                    raise ScenarioError(f"leaders of agent {i} name agent {j}, outside 1..{n_agents}")
            sets[i - 1] = l_i
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

    _FIELDS = {"cucker_smale": ("beta",), "table": ("distances", "values")}

    def __init__(self, family: str, *, beta: float | None = None,
                 distances: np.ndarray | None = None, values: np.ndarray | None = None,
                 func: Callable[[np.ndarray], np.ndarray] | None = None):
        self.family = family
        self.func = func
        self.beta = _real(beta, "beta", least=0.0) if family == "cucker_smale" else None
        self.distances = self.values = None
        if family == "table":
            self.distances = s = _reals(distances, "distances", (None,))
            self.values = v = _reals(values, "values", s.shape)
            if s.size < 2 or s[0] < 0 or np.any(np.diff(s) <= 0):
                raise ScenarioError("distances must be >= 0 and strictly increasing, "
                                    "with at least 2 samples")
            if np.any(v < 0) or np.any(np.diff(v) > 0):
                raise ScenarioError("values must be >= 0 and non-increasing")

    @classmethod
    def cucker_smale(cls, beta: float) -> "Potential":
        return cls("cucker_smale", beta=beta)

    @classmethod
    def table(cls, distances: Sequence[float], values: Sequence[float]) -> "Potential":
        return cls("table", distances=distances, values=values)

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
        if self.family == "custom":
            raise ScenarioError("custom potentials hold arbitrary callables and cannot be saved")
        return super().to_dict()

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
        self.shape = shape
        self.tau = _real(tau, "tau")
        if not self.tau > 0:
            raise ScenarioError(f"tau must be > 0, got {tau}")
        self.height = None
        if shape == "table":
            t = _reals(times, "times", (None,))
            v = _reals(values, "values", t.shape)
            if (t.size < 2 or abs(t[0]) > 1e-12 * self.tau or abs(t[-1] - self.tau) > 1e-12 * self.tau
                    or np.any(np.diff(t) <= 0)):
                raise ScenarioError("times must increase from 0 to tau, with at least 2 samples")
            if np.any(v < 0):
                raise ScenarioError("values must be >= 0")
            self._grid_t, self._grid_v = t, v
            self.tau = float(t[-1])     # a table is its samples, all that to_dict keeps
        else:
            if shape not in self.BUILTIN_SHAPES:
                raise ScenarioError(f"unknown kernel shape {shape!r}")
            self.height = 1.0       # for the mass of unit height, when none is given
            self.height = _real(1.0 / self.analytic_mass if height is None else height,
                                "peak" if shape == "triangular" else "height")
            self._grid_t = np.linspace(0.0, self.tau, _KERNEL_GRID_POINTS)
            self._grid_v = self._eval_builtin(self._grid_t)
        self.mu0 = float(np.trapezoid(self._grid_v, self._grid_t))
        if not self.mu0 > 0:
            raise ScenarioError(f"mass must be positive, got {self.mu0}")

    @classmethod
    def uniform(cls, tau: float, height: float | None = None) -> "DelayKernel":
        return cls("uniform", tau, height=height)

    @classmethod
    def triangular(cls, tau: float, peak: float | None = None) -> "DelayKernel":
        """Symmetric triangle on [0, tau] peaking at tau/2; mass = peak * tau / 2."""
        return cls("triangular", tau, height=peak)

    @classmethod
    def truncated_bump(cls, tau: float, height: float | None = None) -> "DelayKernel":
        """Smooth bump exp(-1/(1-u^2)) rescaled to [0, tau]; vanishes at both ends."""
        return cls("truncated_bump", tau, height=height)

    @classmethod
    def table(cls, times: Sequence[float], values: Sequence[float]) -> "DelayKernel":
        """Samples from delay 0 to tau, which is the last sample time."""
        t = _reals(times, "times", (None,))
        if not t.size:
            raise ScenarioError("times must not be empty")
        return cls("table", t[-1], times=t, values=values)

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
        with _fields_of(d, where):
            shape = d.get("shape")
            if shape == "table":
                return cls.table(d["times"], d["values"])
            if shape in cls.BUILTIN_SHAPES:
                param = "peak" if shape == "triangular" else "height"
                # read here, since the constructor takes None for unit mass
                height = _real(d[param], param) if param in d else None
                return cls(shape, d["tau"], height=height)
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

    _TAG = "kind"
    _FIELDS = {"constant": ("value",), "affine": ("value", "slope"), "table": ("times", "values")}

    def __init__(self, kind: str, *, value: np.ndarray | None = None,
                 slope: np.ndarray | None = None,
                 times: np.ndarray | None = None, values: np.ndarray | None = None):
        self.kind = kind
        self.value = self.slope = self.times = self.values = None
        if kind in ("constant", "affine"):
            self.value = _reals(value, "value", (None,))
            if kind == "affine":
                self.slope = _reals(slope, "slope", self.value.shape)
        elif kind == "table":
            self.times = _reals(times, "times", (None,))
            self.values = _reals(values, "values", (self.times.size, None))
            if np.any(np.diff(self.times) <= 0):
                raise ScenarioError("times must be strictly increasing")
        else:
            raise ScenarioError(f"unknown history kind {kind!r}")

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

    _FIELDS = {"zero": (), "power_law": ("amplitude", "exponent", "direction"),
               "log_damped": ("amplitude", "decay_power", "direction"),
               "table": ("times", "magnitudes", "direction")}

    def __init__(self, family: str, *, amplitude: float = 0.0, exponent: float | None = None,
                 decay_power: float | None = None, times: np.ndarray | None = None,
                 magnitudes: np.ndarray | None = None, direction: np.ndarray | None = None):
        self.family = family
        self.amplitude = _real(amplitude, "amplitude")
        self.exponent = _real(exponent, "exponent") if family == "power_law" else None
        self.decay_power = _real(decay_power, "decay_power") if family == "log_damped" else None
        self.times = self.magnitudes = self.direction = None
        if family == "table":
            self.times = _reals(times, "times", (None,))
            self.magnitudes = _reals(magnitudes, "magnitudes", self.times.shape)
            if self.times.size < 2 or self.times[0] < 0 or np.any(np.diff(self.times) <= 0):
                raise ScenarioError("times must increase strictly from t >= 0, "
                                    "with at least 2 samples")
        if family != "zero":
            self.direction = _reals(direction, "direction", (None,))
            norm = float(np.linalg.norm(self.direction))
            if not 0 < norm < math.inf:
                raise ScenarioError("direction must be a nonzero vector of finite length")
            if abs(norm - 1.0) > 1e-12:   # keep already-unit vectors bit-stable
                self.direction = self.direction / norm

    @staticmethod
    def _resolve_direction(direction, dim: int | None):
        """``direction``, or the first axis of ``dim`` dimensions without it."""
        if direction is None and dim is not None:
            return np.eye(1, _integer(dim, "dim", least=1))[0]
        return direction

    @classmethod
    def zero(cls) -> "LeaderForcing":
        return cls("zero")

    @classmethod
    def power_law(cls, amplitude: float, exponent: float,
                  direction=None, dim: int | None = None) -> "LeaderForcing":
        return cls("power_law", amplitude=amplitude, exponent=exponent,
                   direction=cls._resolve_direction(direction, dim))

    @classmethod
    def log_damped(cls, amplitude: float, n_agents: int,
                   direction=None, dim: int | None = None) -> "LeaderForcing":
        if _integer(n_agents, "n_agents") < 2:
            raise ScenarioError("log_damped forcing is defined for flocks of >= 2 agents")
        return cls("log_damped", amplitude=amplitude, decay_power=float(n_agents - 1),
                   direction=cls._resolve_direction(direction, dim))

    @classmethod
    def table(cls, times: Sequence[float], magnitudes: Sequence[float],
              direction=None, dim: int | None = None) -> "LeaderForcing":
        return cls("table", times=times, magnitudes=magnitudes,
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

    @classmethod
    def from_dict(cls, d: dict, where: str) -> "LeaderForcing":
        """Inverse of :meth:`to_dict`; a missing family means zero forcing."""
        return super().from_dict({"family": "zero", **d} if isinstance(d, dict) else d, where)

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
