"""Trajectory CSV files: every number in C's ``%.17g``, the bytes
``np.savetxt(fmt="%.17g")`` writes, so a read gives back the same doubles.

:func:`write_csv` formats about 4k values per pass with numpy calls, exactly
(a double-double product with 10**(16-e), rounded half to even), straight
from the trajectory arrays. The few values it cannot prove correctly rounded
(non-finite, |x| outside 1e-275..1e291, too near a rounding tie) go through
Python's formatter. :func:`read_trajectory_csv` parses as many values per
pass into arrays allocated once, so a read holds one copy of the trajectory;
it raises :class:`ScenarioError` naming the file for anything that is not
such a CSV.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from typing import Iterable, Sequence

import numpy as np

from .integrator import Trajectory, _state_arrays
from .model import ScenarioError

# _format_rows writes C's "%.17g" for a whole block with numpy calls: each value
# is rounded to an exact 17-digit integer D with x = +-D * 10**(e-16), its text
# is laid out in six little-endian words with NUL in every unused byte, and the
# NULs are deleted at the end.

_CSV_CHUNK_VALUES = 4096      # values formatted or parsed per pass; bounds the temporaries
_READ_BUFFER = 1 << 18        # bytes the CSV reader takes from the file at a time
_E_MIN, _E_MAX = -275, 290    # exponents of the fast path: no split overflows, no lo underflows
# The double-double x * 10**(16-e) is within 2**-104 * 1e17 < 5e-15 of the exact
# product; a fractional part this close to 1/2 (or to 0 at D = 1e16) is left to Python.
_HALF_TOL = 1e-12


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split: a == hi + lo exactly, each with at most 26 significant bits."""
    c = 134217729.0 * a       # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _word(text: str) -> int:
    """Up to 8 ASCII characters, NUL padded, as one little-endian word."""
    return int.from_bytes(text.encode().ljust(8, b"\0"), "little")


@functools.cache
def _pow10_table() -> tuple[np.ndarray, ...]:
    """Row i, for the decimal exponent e = _E_MAX - i: 10**(16-e) as the
    double-double hi + lo (hi correctly rounded, lo the correctly rounded
    remainder), hi's split, and the half-way tolerance (0 where 10**(16-e) is
    a double, so the product is exact). Built on the first write."""
    hi, lo = [], []
    for e in range(_E_MAX, _E_MIN - 1, -1):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi, lo = np.array(hi), np.array(lo)
    return (hi, *_split(hi), lo, np.where(lo == 0.0, 0.0, _HALF_TOL))


@functools.cache
def _text_table() -> tuple[np.ndarray, ...]:
    """Text words: the digits of 0000..9999 (one in every even byte), the sign
    and leading "0.000" of fixed notation by (negative, -e), and the exponent
    suffix by e - _E_MIN (empty in fixed notation)."""
    g = np.arange(10000, dtype=np.uint64)
    quads = sum((g // 10 ** (3 - j) % 10 + ord("0")) << (16 * j) for j in range(4))
    prefixes = np.array([_word(sign + ("0." + "0" * (z - 1) if z else ""))
                         for sign in ("", "-") for z in range(5)], np.uint64)
    suffixes = np.array([0 if -4 <= e <= 16 else _word(f"e{e:+03d}")
                         for e in range(_E_MIN, _E_MAX + 1)], np.uint64)
    return quads, prefixes, suffixes


def _decimal17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, e, ok): |x| rounded half to even to D * 10**(e-16), D in [1e16, 1e17),
    where ok; +-0 gives D = 0, e = 0. Elsewhere (non-finite, outside the table,
    an exponent estimate one off, an ambiguous rounding) ok is False."""
    hi, hi_h, hi_l, lo, tols = _pow10_table()
    ax = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(ax))
        ok = (e >= _E_MIN) & (e <= _E_MAX)
        i = np.where(ok, _E_MAX - e, 0).astype(np.intp)
    a = np.where(ok, ax, 0.0)
    # v = a * 10**(16-e) as ph + pl: Dekker's exact product a * hi, plus a * lo
    a_h, a_l = _split(a)
    b_h, b_l = hi_h[i], hi_l[i]
    ph = a * hi[i]
    pl = ((a_h * b_h - ph) + a_h * b_l + a_l * b_h) + a_l * b_l + a * lo[i]
    s = ph + pl
    pl -= s - ph            # now s + pl == ph + pl exactly
    # any s near [1e16, 1e17) is above 2**53, an integer, so floor(v) = s + floor(pl)
    r = np.floor(pl)
    frac = pl - r
    d = s.astype(np.int64) + r.astype(np.int64)
    tol = tols[i]
    ok &= (d >= 10**16) & ~((d == 10**16) & (frac < tol)) & ~(np.abs(frac - 0.5) < tol)
    d += (frac > 0.5) | ((frac == 0.5) & (d % 2 == 1))
    ok &= d < 10**17
    zero = ax == 0.0
    ok |= zero
    d[~ok | zero] = 0
    e[~ok | zero] = 0
    return d, e.astype(np.int64), ok


def _format_rows(block: np.ndarray) -> bytes:
    """The rows of a C-contiguous 2-D float64 block as CSV lines, every value
    in C's "%.17g": the bytes np.savetxt(fmt="%.17g", delimiter=",") writes.

    A value's text words: 0 holds the sign, fixed notation's leading "0.000",
    the first digit and a point slot; 1-4 the other 16 digits, each followed
    by a point slot; 5 the exponent ("e+dd", "e-ddd") and the separator.
    """
    quads, prefixes, suffixes = _text_table()
    x = block.reshape(-1)
    d, e, ok = _decimal17(x)
    d = d.view(np.uint64)
    hi9 = d // 100000000
    lo8 = d - hi9 * 100000000
    d0 = hi9 // 100000000
    mid = hi9 - d0 * 100000000
    g1, g3 = mid // 10000, lo8 // 10000
    g4 = lo8 - g3 * 10000
    fixed = (e >= -4) & (e <= 16)         # %g at 17 digits: exponent form below 1e-4 and from 1e17
    words = np.empty((x.size, 6), np.uint64)
    lead = np.signbit(x) * 5 + np.where(fixed & (e < 0), -e, 0)
    words[:, 0] = prefixes[lead] + ((d0 + ord("0")) << 48)
    words[:, 1] = quads[g1]
    words[:, 2] = quads[mid - g1 * 10000]
    words[:, 3] = quads[g3]
    words[:, 4] = quads[g4]
    words[:, 5] = suffixes[e - _E_MIN] + (ord(",") << 40)
    words[block.shape[1] - 1::block.shape[1], 5] -= (ord(",") - ord("\n")) << 40
    text = words.view(np.uint8)
    # drop trailing zeros after the point, and the point when no digit follows it
    point = np.where(fixed, e, 0)                   # the digit it follows; < 0: in the prefix
    last = np.full(x.size, 16)                      # the last digit kept
    z = np.flatnonzero(g4 % 10 == 0)
    tail = text[z, 8:40:2]                          # digits 1..16
    nonzero = tail != ord("0")
    last[z] = np.where(nonzero.any(axis=1), 16 - nonzero[:, ::-1].argmax(axis=1), 0)
    keep = np.maximum(last[z], point[z])
    text[z, 8:40:2] = np.where(np.arange(1, 17) <= keep[:, None], tail, 0)
    p = np.flatnonzero((last > point) & (point >= 0))
    text.reshape(-1)[p * text.shape[1] + 7 + 2 * point[p]] = ord(".")
    for k in np.flatnonzero(~ok):
        s = b"%.17g" % x[k]
        text[k, :45] = 0                            # all but the separator
        text[k, :len(s)] = np.frombuffer(s, np.uint8)
    return words.tobytes().translate(None, b"\0")


def _chunk_rows(n_cols: int) -> int:
    return max(1, _CSV_CHUNK_VALUES // n_cols)


def write_csv(path, names: Sequence[str], blocks: Iterable[np.ndarray]) -> None:
    """Write a header line of column names, then the rows of each 2-D block,
    every number in C's "%.17g" (17 significant digits, trailing zeros
    dropped), as np.savetxt(fmt="%.17g", delimiter=",") would."""
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode())
        for block in blocks:
            block = np.ascontiguousarray(block, dtype=np.float64)
            step = _chunk_rows(block.shape[1])
            for r in range(0, block.shape[0], step):
                fh.write(_format_rows(block[r:r + step]))


def trajectory_columns(n_agents: int, dim: int) -> list[str]:
    """Column names of the trajectory CSV: t, then x{i}_{k}, v{i}_{k} per
    agent i=1..N and coordinate k=1..d."""
    names = ["t"]
    for i in range(1, n_agents + 1):
        for k in range(1, dim + 1):
            names.append(f"x{i}_{k}")
            names.append(f"v{i}_{k}")
    return names


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """One row per stored step, full double precision (17 significant digits),
    formatted a chunk of rows at a time straight from the trajectory arrays."""
    n_agents, dim = traj.n_agents, traj.dim
    n_cols = 1 + 2 * n_agents * dim
    step = _chunk_rows(n_cols)

    def blocks():
        for r in range(0, traj.times.size, step):
            times = traj.times[r:r + step]
            block = np.empty((times.size, n_cols))
            block[:, 0] = times
            # x then v for each agent and coordinate, the order of trajectory_columns
            pairs = block[:, 1:].reshape(times.size, n_agents, dim, 2)
            pairs[..., 0] = traj.x[r:r + step]
            pairs[..., 1] = traj.v[r:r + step]
            yield block
    write_csv(path, trajectory_columns(n_agents, dim), blocks())


def _is_data_line(line: bytes) -> bool:
    """Whether np.loadtxt reads a row from this line: it is neither a '#'
    comment nor empty. A line of spaces is a row, and a malformed one."""
    return line[:1] != b"#" and line not in (b"\n", b"\r\n", b"\r")


def read_trajectory_csv(path) -> Trajectory:
    """Load a trajectory CSV written by :func:`write_trajectory_csv`.

    Only the step grid is recoverable from the file, so the returned
    trajectory has an empty prehistory and no scenario attached. A file that
    is not such a CSV raises :class:`ScenarioError` naming it (and the file
    line of the first malformed data row). A Heun run writes only finite
    values at increasing times, so a ``nan`` or ``inf`` cell, or a time that
    does not exceed the row before, is malformed. The data rows are counted first,
    so ``times``, ``x`` and ``v`` are allocated once and filled a chunk of
    rows at a time: the read holds one copy of the trajectory. A trajectory
    larger than can be allocated is a :class:`ScenarioError` naming the file.
    """
    with open(path, "rb", buffering=_READ_BUFFER) as fh:
        header = fh.readline().decode("latin-1")
        if not header:
            raise ScenarioError(f"{path}: empty file, not a trajectory CSV")
        names = [s.strip() for s in header.split(",")]
        last = re.fullmatch(r"v(\d+)_(\d+)", names[-1])    # v{N}_{d}
        n_agents, dim = (int(last[1]), int(last[2])) if last else (0, 0)
        if (n_agents < 1 or dim < 1 or len(names) != 1 + 2 * n_agents * dim
                or trajectory_columns(n_agents, dim) != names):
            raise ScenarioError(f"{path}: not a trajectory CSV (header starts {names[:2]})")
        start = fh.tell()
        n_rows = sum(map(_is_data_line, fh))
        if n_rows == 0:
            raise ScenarioError(f"{path}: trajectory CSV has no data rows")
        fh.seek(start)
        x, v = _state_arrays((n_rows, n_agents, dim), f"{path}: {n_rows} data rows")
        times = np.empty(n_rows)
        lines = filter(_is_data_line, fh)
        step = _chunk_rows(len(names))
        for r in range(0, n_rows, step):
            rows = min(step, n_rows - r)
            try:
                block = np.loadtxt(itertools.islice(lines, rows), delimiter=",", ndmin=2)
                if block.shape != (rows, len(names)):
                    raise ValueError(f"expected rows of {len(names)} values, "
                                     f"read {block.shape[0]} rows of {block.shape[1]}")
                t = block[:, 0]
                if not (np.isfinite(block).all() and (t[1:] > t[:-1]).all()
                        and (r == 0 or t[0] > times[r - 1])):
                    raise ValueError("a value is not finite, or a time does not increase")
            except ValueError as err:
                raise ScenarioError(f"{path}: malformed trajectory data: "
                                    f"{_first_bad_row(path, len(names)) or err}") from None
            times[r:r + rows] = block[:, 0]
            # x then v for each agent and coordinate, the order of trajectory_columns
            pairs = block[:, 1:].reshape(rows, n_agents, dim, 2)
            x[r:r + rows] = pairs[..., 0]
            v[r:r + rows] = pairs[..., 1]
    empty = np.empty((0, n_agents, dim))
    return Trajectory(times=times, x=x, v=v,
                      hist_times=np.empty(0), hist_x=empty, hist_v=empty, scenario=None)


def _first_bad_row(path, n_values: int) -> str | None:
    """Describe the first data row that is not ``n_values`` finite numbers,
    or whose time does not exceed the previous row's, by its 1-based line in
    the file (the header is line 1). Empty and '#' comment lines are skipped,
    as np.loadtxt skips them."""
    last_t = -math.inf
    with open(path, "rb") as fh:
        next(fh)
        for lineno, line in enumerate(fh, start=2):
            if not _is_data_line(line):
                continue
            cells = line.decode("latin-1").split("#", 1)[0].split(",")
            if len(cells) != n_values:
                return f"row at line {lineno} has {len(cells)} values, expected {n_values}"
            for col, cell in enumerate(cells, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    return f"row at line {lineno}, column {col}: {cell.strip()!r} is not a number"
                if not math.isfinite(value):
                    return f"row at line {lineno}, column {col}: {cell.strip()!r} is not finite"
            t = float(cells[0])
            if t <= last_t:
                return f"row at line {lineno}, column 1: time {t!r} does not exceed {last_t!r}"
            last_t = t
    return None
