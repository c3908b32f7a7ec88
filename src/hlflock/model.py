"""Domain types for delayed flocking under hierarchical leadership.

The building blocks assembled here describe a problem instance before any
integration happens: the leadership DAG (who listens to whom), the interaction
potential (how influence falls off with distance), the delay kernel (how past
information is weighted over the memory window), per-agent initial histories,
and an optional exogenous acceleration applied to the root agent.

Agents are 1-indexed everywhere in the public API. The hierarchical-leadership
(HL) ordering is taken as given: every influence edge must point from a lower
index to a higher one, and every non-root agent needs at least one leader.
Wrong types and unknown members raise at construction; hierarchy, grid and
dimension violations are data, so that malformed inputs can be inspected.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
import reprlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Container, Iterable, Mapping, Sequence

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


def _samples(times, t_name: str, values, v_name: str, row: tuple = ()):
    """A sampled table: 2 or more strictly increasing ``times``, a ``row``-shaped value each."""
    t = _reals(times, t_name, (None,))
    v = _reals(values, v_name, (t.size, *row))
    if t.size < 2 or np.any(np.diff(t) <= 0):
        raise ScenarioError(f"{t_name} must be strictly increasing, with at least 2 samples")
    return t, v


@contextmanager
def _fields_of(d, where: str, known: Container[str] | None = None):
    """Read the JSON object ``d``, named ``where``: a missing key, the first
    key outside ``known`` when that is given, or a ScenarioError that starts
    with a field's name, names ``where.field``."""
    if not isinstance(d, dict):
        raise ScenarioError(f"{where} must be a JSON object, got {reprlib.repr(d)}")
    try:
        if known is not None:
            for key in d:
                if key not in known:
                    raise ScenarioError(f"{key} is an unknown key")
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
    constructor takes a member's name and its fields, and reads them. A
    member whose fields are None (a custom potential's callable) has no JSON
    form: it is neither saved nor loaded, and equals only itself."""

    _TAG = "family"
    _DEFAULT: str | None = None     # the member of a form without a _TAG
    _FIELDS: dict[str, tuple[str, ...] | None] = {}

    @classmethod
    def _member(cls, name, where: str | None = None) -> str:
        """``name``, if it names a member: an unknown name, or in the file
        object ``where`` a member without a JSON form, is a ScenarioError."""
        if isinstance(name, str) and name in cls._FIELDS and not (
                where and cls._FIELDS[name] is None):
            return name
        raise ScenarioError(f"{where or cls.__name__}: unknown {cls._TAG} {name!r}")

    @property
    def _form(self) -> tuple[str, ...] | None:
        return self._FIELDS[getattr(self, self._TAG)]

    def __eq__(self, other) -> bool:
        return self is other or (type(other) is type(self) and None not in (self._form, other._form)
                                 and self.to_dict() == other.to_dict())

    def to_dict(self) -> dict:
        name = getattr(self, self._TAG)
        if self._form is None:
            raise ScenarioError(f"a {name} {type(self).__name__} has no JSON form and cannot be saved")
        return {self._TAG: name, **{k: np.asarray(getattr(self, k)).tolist() for k in self._form}}

    @classmethod
    def from_dict(cls, d: dict, where: str):
        """Inverse of :meth:`to_dict`; ``where`` names ``d`` in errors."""
        with _fields_of(d, where):      # d must be an object before its name is read
            name = d.get(cls._TAG, cls._DEFAULT)
        name = cls._member(name, where)
        with _fields_of(d, where, (cls._TAG, *cls._FIELDS[name])):
            return cls(name, **{k: d[k] for k in cls._FIELDS[name]})


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
        leaders = {} if leaders is None else leaders
        if not isinstance(leaders, Mapping):
            raise ScenarioError(f"leaders must be a mapping, got {reprlib.repr(leaders)}")
        for i, l_i in leaders.items():
            i = _integer(i, "leaders key")
            if not isinstance(l_i, Iterable):
                raise ScenarioError(f"leaders of agent {i} must be agent indices, "
                                    f"got {reprlib.repr(l_i)}")
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

    _FIELDS = {"cucker_smale": ("beta",), "table": ("distances", "values"), "custom": None}

    def __init__(self, family: str, *, beta: float | None = None,
                 distances: np.ndarray | None = None, values: np.ndarray | None = None,
                 func: Callable[[np.ndarray], np.ndarray] | None = None):
        self.family = self._member(family)
        self.func = func
        self.beta = _real(beta, "beta", least=0.0) if family == "cucker_smale" else None
        self.distances = self.values = None
        if family == "table":
            self.distances, self.values = s, v = _samples(distances, "distances", values, "values")
            if s[0] < 0:
                raise ScenarioError("distances must be >= 0")
            if np.any(v < 0) or np.any(np.diff(v) > 0):
                raise ScenarioError("values must be >= 0 and non-increasing")
        if family == "custom":
            if not callable(func):
                raise ScenarioError(f"func must be a callable, got {reprlib.repr(func)}")
            # spot-check positivity and monotonicity on a coarse grid
            probe = np.concatenate([[0.0], np.geomspace(1e-3, 100.0, 40)])
            vals = np.asarray(func(probe), dtype=float)
            if vals.shape != probe.shape or not np.all(np.isfinite(vals)):
                raise ScenarioError("custom potential must return finite values elementwise")
            if np.any(vals <= 0):
                raise ScenarioError("custom potential must be strictly positive")
            if np.any(np.diff(vals) > 1e-12):
                raise ScenarioError("custom potential must be non-increasing")

    @classmethod
    def cucker_smale(cls, beta: float) -> "Potential":
        return cls("cucker_smale", beta=beta)

    @classmethod
    def table(cls, distances: Sequence[float], values: Sequence[float]) -> "Potential":
        return cls("table", distances=distances, values=values)

    @classmethod
    def custom(cls, func: Callable[[np.ndarray], np.ndarray]) -> "Potential":
        return cls("custom", func=func)

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

    def scalar_of_squared(self) -> Callable[[float], float]:
        """The potential as a scalar function of the *squared* distance, for
        plain-float loops such as the Euler oracle's."""
        if self.family == "cucker_smale":
            beta = self.beta
            if beta == 0.0:
                return lambda d2: 1.0
            if beta == 0.5:
                return lambda d2: 1.0 / math.sqrt(1.0 + d2)
            return lambda d2: (1.0 + d2) ** (-beta)
        return lambda d2: float(self(math.sqrt(d2)))

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


_TRAPEZOID_CHUNK = 4096     # grid intervals summed per pass; bounds the temporaries


def _cumulative_trapezoid(f, x: np.ndarray) -> np.ndarray:
    """Trapezoid integrals of the integrand ``f`` from ``x[0]`` to each point of ``x``:
    scipy's ``cumulative_trapezoid(f(x), x, initial=0.0)`` operation for
    operation, so bitwise equal to it. ``f`` is called once per chunk of
    ``_TRAPEZOID_CHUNK`` intervals, on the points not yet evaluated, and the
    running sum carries across chunks, so the temporaries are bounded."""
    total = np.zeros(x.shape)
    y_lo = f(x[:1])
    for lo in range(0, x.size - 1, _TRAPEZOID_CHUNK):
        hi = min(lo + _TRAPEZOID_CHUNK, x.size - 1)
        y = f(x[lo + 1:hi + 1])
        area = np.concatenate((y_lo, y[:-1]))
        area += y
        area *= np.diff(x[lo:hi + 1])
        area /= 2.0
        if lo:
            area[0] += total[lo]
        np.cumsum(area, out=total[lo + 1:hi + 1])
        y_lo = y[-1:]
    return total


@dataclass(frozen=True)
class TailReport:
    verdict: str                                   # "yes" | "no" | "unknown"
    partial_integrals: tuple[tuple[float, float], ...] = ()


def check_divergent_tail(p: Potential, horizon: float = 1e6) -> TailReport:
    """Decide whether the potential's integral over [0, inf) diverges.

    cucker_smale diverges iff its exponent is <= 1/2, by comparison with
    s**(-2*beta). A table is flat beyond its last sample, so it diverges iff
    its last value is > 0. A custom potential is an arbitrary callable with no
    exact rule: its verdict is "unknown", and partial integrals over [0, S]
    for log-spaced S from 1 to ``horizon`` (a number > 1) are numeric
    evidence of the trend. Each is the cumulative trapezoid
    (``_cumulative_trapezoid``) of the potential on a log-spaced grid, read
    at the first grid point at or beyond S.
    """
    horizon = _real(horizon, "horizon")
    if not horizon > 1.0:
        raise ScenarioError(f"horizon must be > 1, got {horizon}")
    if p.family == "cucker_smale":
        return TailReport(verdict="yes" if p.beta <= 0.5 else "no")
    if p.family == "table":
        return TailReport(verdict="yes" if p.values[-1] > 0 else "no")
    decades = int(math.ceil(math.log10(horizon)))
    grid = np.concatenate([[0.0], np.geomspace(1e-3, horizon, decades * 64)])
    cumulative = _cumulative_trapezoid(p, grid)
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

    ``mu0`` is the total mass, computed by composite trapezoid: on a table's
    own samples ``times``/``values``, the last at tau, or for a built-in
    shape, whose ``height`` (``peak`` for the triangle) defaults to unit
    mass, on a dense grid that exists only to take ``mu0`` and is not kept
    (a built-in shape's ``times`` and ``values`` are None). Built-in shapes
    carry an analytic mass that the numeric one must reproduce to 1e-10
    relative; tables are trapezoid-only.
    """

    _TAG = "shape"
    _FIELDS = {"uniform": ("tau", "height"), "triangular": ("tau", "peak"),
               "truncated_bump": ("tau", "height"), "table": ("times", "values")}
    BUILTIN_SHAPES = tuple(shape for shape in _FIELDS if shape != "table")

    def __init__(self, shape: str, tau: float | None = None, *, height: float | None = None,
                 peak: float | None = None, times: np.ndarray | None = None,
                 values: np.ndarray | None = None):
        self.shape = self._member(shape)
        self.height = self.peak = self.times = self.values = None
        if shape == "table":
            self.times, self.values = t, v = _samples(times, "times", values, "values")
            tau = t[-1] if tau is None else tau
        self.tau = _real(tau, "tau")
        if not self.tau > 0:
            raise ScenarioError(f"tau must be > 0, got {tau}")
        if shape == "table":
            if abs(t[0]) > 1e-12 * self.tau or abs(t[-1] - self.tau) > 1e-12 * self.tau:
                raise ScenarioError("times must run from 0 to tau")
            if np.any(v < 0):
                raise ScenarioError("values must be >= 0")
            self.tau = float(t[-1])     # a table is its samples, all that to_dict keeps
        else:
            self.height = 1.0       # for the mass of unit height, when none is given
            height = peak if shape == "triangular" else height
            self.height = _real(1.0 / self.analytic_mass if height is None else height,
                                self._FIELDS[shape][1])
            self.peak = self.height if shape == "triangular" else None
            t = np.linspace(0.0, self.tau, _KERNEL_GRID_POINTS)
            v = self._eval_builtin(t)
        self.mu0 = float(np.trapezoid(v, t))
        if not self.mu0 > 0:
            raise ScenarioError(f"mass must be positive, got {self.mu0}")

    @classmethod
    def uniform(cls, tau: float, height: float | None = None) -> "DelayKernel":
        return cls("uniform", tau, height=height)

    @classmethod
    def triangular(cls, tau: float, peak: float | None = None) -> "DelayKernel":
        """Symmetric triangle on [0, tau] peaking at tau/2; mass = peak * tau / 2."""
        return cls("triangular", tau, peak=peak)

    @classmethod
    def truncated_bump(cls, tau: float, height: float | None = None) -> "DelayKernel":
        """Smooth bump exp(-1/(1-u^2)) rescaled to [0, tau]; vanishes at both ends."""
        return cls("truncated_bump", tau, height=height)

    @classmethod
    def table(cls, times: Sequence[float], values: Sequence[float]) -> "DelayKernel":
        """Samples from delay 0 to tau, which is the last sample time."""
        return cls("table", times=times, values=values)

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
            return tuple(self.times.tolist())
        return None

    def __call__(self, s):
        arr = np.asarray(s, dtype=float)
        if self.shape == "table":
            out = np.interp(arr, self.times, self.values)
        else:
            out = self._eval_builtin(arr)
        return float(out) if arr.ndim == 0 else out

    @classmethod
    def from_dict(cls, d: dict, where: str) -> "DelayKernel":
        """Inverse of :meth:`to_dict`; a missing (not a null) height gives unit mass."""
        if isinstance(d, dict) and d.get("shape") in cls.BUILTIN_SHAPES:
            param = cls._FIELDS[d["shape"]][1]
            if d.get(param, 0.0) is None:
                raise ScenarioError(f"{where}.{param} must be a finite number, got None")
            d = {param: None, **d}
        return super().from_dict(d, where)

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
        self.kind = self._member(kind)
        self.value = self.slope = self.times = self.values = None
        if kind == "table":
            self.times, self.values = _samples(times, "times", values, "values", (None,))
        else:
            self.value = _reals(value, "value", (None,))
            if kind == "affine":
                self.slope = _reals(slope, "slope", self.value.shape)

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
        """Constant-in-time histories from (N, d) arrays of positions/velocities;
        a single row (d,) is one agent."""
        def rows(value, name: str) -> np.ndarray:
            try:
                return _reals(value, name, (None, None))
            except ScenarioError as e:
                try:
                    return _reals(value, name, (None,))[None]
                except ScenarioError:
                    raise e from None

        x0, v0 = rows(x0, "x0"), rows(v0, "v0")
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

    _DEFAULT = "zero"
    _FIELDS = {"zero": (), "power_law": ("amplitude", "exponent", "direction"),
               "log_damped": ("amplitude", "decay_power", "direction"),
               "table": ("times", "magnitudes", "direction")}

    def __init__(self, family: str, *, amplitude: float = 0.0, exponent: float | None = None,
                 decay_power: float | None = None, times: np.ndarray | None = None,
                 magnitudes: np.ndarray | None = None, direction: np.ndarray | None = None):
        self.family = self._member(family)
        self.amplitude = _real(amplitude, "amplitude")
        self.exponent = _real(exponent, "exponent") if family == "power_law" else None
        self.decay_power = _real(decay_power, "decay_power") if family == "log_damped" else None
        self.times = self.magnitudes = self.direction = None
        if family == "table":
            self.times, self.magnitudes = _samples(times, "times", magnitudes, "magnitudes")
            if self.times[0] < 0:
                raise ScenarioError("times must start at t >= 0")
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
            with np.errstate(over="ignore"):    # (1+t)**q = inf where f is 0 to double precision
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
        """Integral of |f| over [0, inf); inf when the profile is not integrable.

        For ``log_damped`` with q = decay_power >= 1, u = ln(2+t) = ln 2 + s
        turns dt / ((1+t)^q ln^2(2+t)) into e^(u - q L) ds / u^2 on s > 0,
        with L = ln(e^u - 1) taken as log1p(2 expm1(s)) for small s, so that
        nothing cancels or underflows on its own. A fixed exp-sinh rule sums
        it (Takahasi & Mori 1974): s = exp(pi/2 sinh t) at the 641 nodes t
        in [-6, 4] spaced 1/64, added with ``math.fsum``. Against 40-digit
        references its relative error is at most 3.3e-16 over 198 values of
        q in [1, 1e6]; the tests hold it to 1e-13.
        """
        if self.family == "zero":
            return 0.0
        if self.family == "power_law":
            if self.exponent <= 1.0:
                return math.inf if self.amplitude != 0 else 0.0
            return abs(self.amplitude) / (self.exponent - 1.0)
        if self.family == "log_damped":
            if self.decay_power < 1.0:
                return math.inf if self.amplitude != 0 else 0.0
            t = np.arange(-384, 257) / 64.0
            s = np.exp(0.5 * np.pi * np.sinh(t))
            u = math.log(2.0) + s
            log_e_u_1 = np.where(s < 1.0, np.log1p(2.0 * np.expm1(np.minimum(s, 1.0))),
                                 u + np.log1p(-np.exp(-u)))
            ds = 0.5 * np.pi * np.cosh(t) * s / 64.0
            return abs(self.amplitude) * math.fsum(
                (np.exp(u - self.decay_power * log_e_u_1) / (u * u) * ds).tolist())
        # |f| is linear between samples of one sign; on a segment where f
        # changes sign it is two triangles, of area h*(f0^2 + f1^2)/(2|f0 - f1|)
        f0, f1 = self.magnitudes[:-1], self.magnitudes[1:]
        a, b, h = np.abs(f0), np.abs(f1), np.diff(self.times)
        area = h * (a + b) / 2.0
        cross = np.sign(f0) * np.sign(f1) < 0
        a, b = a[cross], b[cross]
        area[cross] = h[cross] * (a * a + b * b) / (2.0 * (a + b))
        return float(area.sum())

    def __repr__(self) -> str:
        if self.family == "zero":
            return "LeaderForcing.zero()"
        return f"LeaderForcing({self.family!r}, amplitude={self.amplitude})"


@dataclass(frozen=True)
class ForcingConditions:
    """Flags for the hypotheses on the root agent's acceleration, each decided
    exactly from the forcing's family.

    integrable: |f| has finite integral over [0, inf).
    little_o_condition: |f(t)| = o((1+t)**(1-N)).
    weighted_L1: t**(N-2) |f(t)| is integrable over [0, inf).
    """
    integrable: bool
    little_o_condition: bool
    weighted_L1: bool

    @property
    def all_satisfied(self) -> bool:
        return self.integrable and self.little_o_condition and self.weighted_L1


def check_forcing_conditions(f: LeaderForcing, n_agents: int) -> ForcingConditions:
    """Decide the admissibility of a root forcing for a flock of N agents.

    power_law(p): integrable iff p > 1; the little-o and weighted conditions
    hold iff p > N-1 (strict: the boundary p = N-1 fails both). log_damped
    built for decay power q: the squared-log factor rescues the boundary, so
    all three hold iff q >= N-1 (and q >= 1 for integrability). zero and
    table forcings satisfy all three: a table is bounded and 0 outside
    [times[0], times[-1]].
    """
    n_agents = _integer(n_agents, "n_agents")
    if n_agents < 2:
        raise ScenarioError("forcing conditions are defined for flocks of >= 2 agents")
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
    return ForcingConditions(True, True, True)      # compact support


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

    def __post_init__(self):
        for name, kind in (("dag", LeadershipDag), ("potential", Potential),
                           ("kernel", DelayKernel), ("history", HistorySpec),
                           ("forcing", LeaderForcing)):
            if not isinstance(getattr(self, name), kind):
                raise ScenarioError(f"{name} must be a {kind.__name__}, "
                                    f"got {reprlib.repr(getattr(self, name))}")
        self.dim = _integer(self.dim, "dim")
        self.t_end = _real(self.t_end, "t_end")
        self.dt = _real(self.dt, "dt")
        self.rng_seed = _integer(self.rng_seed, "rng_seed", least=0)

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
