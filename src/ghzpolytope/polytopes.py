"""Exact combinatorial descriptions of the three polytope families.

``GHZ`` is the ambient regular simplex of all GHZ-diagonal states,
``BISEP`` the biseparable polytope (half-scale hypersimplex) and ``FBI``
the fully-biseparable polytope (hull of a simplex and a cube).  Everything
here works in p-coordinates; the normalization sum(p) = 1 is treated as an
ambient constraint, not a facet. The block enumerators give each block of
rows as its nonzero entries (:class:`SparseRows`); ``iter_facets`` and
``iter_extreme_points`` densify one block at a time.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .classify import EPS_BOUNDARY, EPS_CLASS
from .errors import InvalidArgumentError, UnsupportedSizeError
from .indices import (
    DENSE_MAX_QUBITS,
    FBI_VERTEX_MAX_QUBITS,
    check_index,
    check_qubit_count,
    dimension,
    is_integer,
    to_bits,
)
from .states import GhzDiagonalState

FAMILIES = ("GHZ", "BISEP", "FBI")


@dataclass(frozen=True)
class Facet:
    """Affine condition coeffs . p >= offset in the ambient simplex."""

    family: str
    label: str
    coeffs: np.ndarray = field()
    offset: float = 0.0

    def __post_init__(self):
        try:
            c = np.asarray(self.coeffs, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"facet coefficients must be real numbers: {exc}") from None
        if c.ndim != 1 or not np.isfinite(c).all():
            raise InvalidArgumentError(f"facet coefficients must be a vector of finite numbers, "
                                       f"got {self.coeffs!r}")
        if isinstance(self.offset, (bool, np.bool_)) or not isinstance(self.offset, numbers.Real):
            raise InvalidArgumentError(f"facet offset must be a real number, got {self.offset!r}")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def value(self, state: GhzDiagonalState) -> float:
        """Slack coeffs . p - offset; nonnegative on the polytope."""
        return float(self.coeffs @ state.p) - self.offset

    def satisfies(self, state: GhzDiagonalState) -> bool:
        return self.value(state) >= -EPS_CLASS

    def saturates(self, state: GhzDiagonalState) -> bool:
        return abs(self.value(state)) <= EPS_BOUNDARY


@dataclass(frozen=True)
class Ball:
    center: GhzDiagonalState
    radius: float


# A densified block holds at most this many bytes (one row if a row alone is
# larger), so a listing keeps one block in memory however large d is
_BLOCK_BYTES = 1 << 20


class SparseRows(NamedTuple):
    """``size`` consecutive rows of width ``d``, +0.0 but for their entries:
    ``values[k]`` in row ``rows[k]`` (0 is the block's first) and column
    ``cols[k]``. Entries run in strictly increasing (row, column) order and
    leave out +0.0 only, so a -0.0 is kept."""

    size: int
    d: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def dense(self) -> np.ndarray:
        """The (size, d) float64 block."""
        block = np.zeros((self.size, self.d))
        block[self.rows, self.cols] = self.values
        return block


class FacetBlock(NamedTuple):
    """Consecutive facets ``coeffs[r] . p >= offsets[r]``, named ``labels[r]``."""

    labels: list[str]
    offsets: np.ndarray
    coeffs: SparseRows


def _row_ranges(total: int, d: int, stop: int | None) -> Iterator[tuple[int, int]]:
    """``(start, end)`` of each block of the first ``stop`` of ``total`` rows.

    Blocks hold a power of two rows, so every start is a multiple of the
    block size. Python ints, as F_n has 2^(d/2) cube vertices.
    """
    step = 1 << max(0, (_BLOCK_BYTES // (8 * d)).bit_length() - 1)
    end = total if stop is None else min(total, stop)
    for start in range(0, end, step):
        yield start, min(start + step, end)


def _labels(n: int, *parts) -> list[str]:
    """One label per row: str parts as they are, index arrays as n-bit strings."""
    m = next(len(part) for part in parts if not isinstance(part, str))
    shifts = np.arange(n - 1, -1, -1)
    columns = [
        np.broadcast_to(np.frombuffer(part.encode(), np.uint8), (m, len(part)))
        if isinstance(part, str)
        else (part[:, None] >> shifts & 1).astype(np.uint8) + ord("0")
        for part in parts
    ]
    # a newline ends each label, so one decode and one split make the list
    chars = np.hstack(columns + [np.full((m, 1), ord("\n"), np.uint8)])
    return chars.tobytes().decode("ascii").split("\n")[:m]


def _sparse(d: int, cols: np.ndarray, values) -> SparseRows:
    """The rows of width d whose row r sums ``values[t]`` (or the scalar
    ``values``) at column ``cols[r, t]`` over t, in t order."""
    m, k = cols.shape
    order = np.argsort(cols, axis=1, kind="stable")
    values = np.broadcast_to(np.asarray(values, dtype=float), (k,))[order].ravel()
    rows = np.arange(m).repeat(k)
    key = rows * d + cols.ravel()[(order + k * np.arange(m)[:, None]).ravel()]
    starts = np.flatnonzero(np.append(True, key[1:] != key[:-1]))  # a new (row, column)
    sums = np.add.reduceat(values, starts)
    nonzero = sums.view(np.uint64) != 0  # +0.0 is left out, -0.0 is not
    keep = starts[nonzero]
    return SparseRows(m, d, rows[keep], key[keep] % d, sums[nonzero])


def facet_blocks_ghz(n: int, stop: int | None = None) -> Iterator[FacetBlock]:
    """The d facets p_i >= 0 in blocks; only the first ``stop`` if given."""
    n = check_qubit_count(n)
    d = dimension(n)
    for start, end in _row_ranges(d, d, stop):
        i = np.arange(start, end)
        yield FacetBlock(_labels(n, "p_", i, ">=0"), np.zeros(end - start), _sparse(d, i[:, None], 1.0))


def facet_blocks_bisep(n: int, stop: int | None = None) -> Iterator[FacetBlock]:
    """The d facets p_i <= 1/2, then the d facets p_i >= 0, in blocks."""
    n = check_qubit_count(n)
    d = dimension(n)
    for start, end in _row_ranges(d, d, stop):
        i = np.arange(start, end)
        yield FacetBlock(_labels(n, "p_", i, "<=1/2"), np.full(end - start, -0.5),
                         _sparse(d, i[:, None], -1.0))
    yield from facet_blocks_ghz(n, None if stop is None else max(0, stop - d))


def facet_blocks_fbi(n: int, stop: int | None = None) -> Iterator[FacetBlock]:
    """The d^2/2 facets p_i + p_~i - p_j + p_~j >= 0 over (pair {i,~i}, index j).

    Each row adds the four unit vectors in that order, so its entries are
    small integers equal to the unit-vector sum, and none is -0.0.
    """
    n = check_qubit_count(n)
    d = dimension(n)
    for start, end in _row_ranges(d * d // 2, d, stop):
        k = np.arange(start, end)
        i, j = k // d, k % d
        coeffs = _sparse(d, np.stack([i, d - 1 - i, j, d - 1 - j], 1), [1.0, 1.0, -1.0, 1.0])
        labels = _labels(n, "p_", i, "+p_", d - 1 - i, ">=p_", j, "-p_", d - 1 - j)
        yield FacetBlock(labels, np.zeros(end - start), coeffs)


def vertex_blocks_ghz(n: int, stop: int | None = None) -> Iterator[SparseRows]:
    """The d pure GHZ projectors, unit rows, in blocks."""
    n = check_qubit_count(n)
    d = dimension(n)
    for start, end in _row_ranges(d, d, stop):
        yield _sparse(d, np.arange(start, end)[:, None], 1.0)


def vertex_blocks_bisep(n: int, stop: int | None = None) -> Iterator[SparseRows]:
    """The d(d-1)/2 edge midpoints, lexicographic pair order, in blocks."""
    n = check_qubit_count(n)
    d = dimension(n)
    first = np.arange(d)
    first = first * (d - 1) - first * (first - 1) // 2  # the row of pair (i, i + 1)
    for start, end in _row_ranges(d * (d - 1) // 2, d, stop):
        k = np.arange(start, end)
        i = np.searchsorted(first, k, side="right") - 1
        yield _sparse(d, np.stack([i, k - first[i] + i + 1], 1), 0.5)


def vertex_blocks_fbi(n: int, stop: int | None = None) -> Iterator[SparseRows]:
    """The d/2 diagonal midpoints, then the 2^(d/2) cube vertices, in blocks.

    Cube vertex s takes index ~i from pair i where bit i of s is set, and i
    where it is not, so the first is the selection 0, 1, ..., d/2 - 1.
    """
    n = check_qubit_count(n)
    d = dimension(n)
    half = d // 2
    pair = np.arange(half)
    for start, end in _row_ranges(half, d, stop):
        i = np.arange(start, end)
        yield _sparse(d, np.stack([i, d - 1 - i], 1), 0.5)
    cube_stop = None if stop is None else max(0, stop - half)
    for start, end in _row_ranges(1 << half, d, cube_stop):
        # start is a multiple of the block size 2^low, so the low bits of s
        # count through the block and the high bits are those of start
        low = min(half, (end - start - 1).bit_length())
        high = (start >> low).to_bytes((half - low + 7) // 8, "little")
        bits = np.empty((end - start, half), dtype=bool)
        bits[:, :low] = np.arange(end - start)[:, None] >> np.arange(low) & 1
        bits[:, low:] = np.unpackbits(np.frombuffer(high, np.uint8), bitorder="little")[: half - low]
        yield _sparse(d, np.where(bits, d - 1 - pair, pair), 2.0 / d)


# Each family's block enumerator, its row count as a function of d, and the
# largest n whose full list is built
_ENUMERATORS = {
    ("facets", "GHZ"): (facet_blocks_ghz, lambda d: d, DENSE_MAX_QUBITS),
    ("facets", "BISEP"): (facet_blocks_bisep, lambda d: 2 * d, DENSE_MAX_QUBITS),
    ("facets", "FBI"): (facet_blocks_fbi, lambda d: d * d // 2, DENSE_MAX_QUBITS),
    ("vertices", "GHZ"): (vertex_blocks_ghz, lambda d: d, DENSE_MAX_QUBITS),
    ("vertices", "BISEP"): (vertex_blocks_bisep, lambda d: d * (d - 1) // 2, DENSE_MAX_QUBITS),
    ("vertices", "FBI"): (vertex_blocks_fbi, lambda d: d // 2 + (1 << (d // 2)), FBI_VERTEX_MAX_QUBITS),
}


def _family(kind: str, family: str):
    if not isinstance(family, str) or (kind, family) not in _ENUMERATORS:
        raise InvalidArgumentError(f"unknown family {family!r}")
    return _ENUMERATORS[kind, family]


def _blocks(kind: str, family: str, n: int, stop: int | None):
    enumerator, _, cap = _family(kind, family)
    if stop is not None and not (is_integer(stop) and stop >= 0):
        raise InvalidArgumentError(f"stop must be None or an int >= 0, got {stop!r}")
    n = check_qubit_count(n)
    if stop is None and n > cap:
        raise UnsupportedSizeError(f"{family} {kind} are listed in full only up to n = {cap}")
    return enumerator(n, stop)


def vertex_count(family: str, n: int) -> int:
    d = dimension(check_qubit_count(n))
    return _family("vertices", family)[1](d)


def facet_count(family: str, n: int) -> int:
    d = dimension(check_qubit_count(n))
    return _family("facets", family)[1](d)


def facet_blocks(family: str, n: int, stop: int | None = None) -> Iterator[FacetBlock]:
    """``facet_blocks_<family>(n, stop)``. Without ``stop`` it raises
    :class:`UnsupportedSizeError` past the family's full-list cap, before
    it builds any row."""
    return _blocks("facets", family, n, stop)


def vertex_blocks(family: str, n: int, stop: int | None = None) -> Iterator[SparseRows]:
    """``vertex_blocks_<family>(n, stop)``. Without ``stop`` it raises
    :class:`UnsupportedSizeError` past the family's full-list cap, before
    it builds any row."""
    return _blocks("vertices", family, n, stop)


def iter_facets(family: str, n: int, stop: int | None = None) -> Iterator[Facet]:
    """The rows of ``facet_blocks(family, n, stop)`` as ``Facet`` objects, a block
    densified at a time; without ``stop`` it raises past the list cap, at the call."""
    blocks = facet_blocks(family, n, stop)
    return (Facet(family, label, coeffs, offset) for block in blocks
            for label, offset, coeffs in zip(block.labels, block.offsets.tolist(), block.coeffs.dense()))


def iter_extreme_points(family: str, n: int, stop: int | None = None) -> Iterator[GhzDiagonalState]:
    """The rows of ``vertex_blocks(family, n, stop)`` as states, a block densified
    at a time; without ``stop`` it raises past the list cap, at the call."""
    blocks = vertex_blocks(family, n, stop)
    return (GhzDiagonalState(n, p) for block in blocks for p in block.dense())


# The uncapped F_n rows, kept because perfbench/spans.py patches these two by
# name (ROADMAP item 3 retires them)
def iter_facets_fbi(n: int) -> Iterator[Facet]:
    return iter_facets("FBI", n, stop=facet_count("FBI", n))


def iter_extreme_points_fbi(n: int) -> Iterator[GhzDiagonalState]:
    return iter_extreme_points("FBI", n, stop=vertex_count("FBI", n))


def midpoint(n: int, i: int, j: int) -> GhzDiagonalState:
    """m_{i,j} = (v_i + v_j)/2, the midpoint of a simplex edge."""
    n = check_qubit_count(n)
    i, j = check_index(i, n), check_index(j, n)
    if i == j:
        raise InvalidArgumentError("midpoint needs two distinct indices")
    p = np.zeros(dimension(n))
    p[i] = 0.5
    p[j] = 0.5
    return GhzDiagonalState(n, p)


def cube_vertex(n: int, sigma) -> GhzDiagonalState:
    """v_sigma = (2/d) sum_{i in sigma} v_i for a selection of one index per pair."""
    n = check_qubit_count(n)
    d = dimension(n)
    try:
        sigma = list(sigma)
    except TypeError:
        raise InvalidArgumentError(f"selection must be an iterable of indices, got {sigma!r}") from None
    sigma = [check_index(i, n) for i in sigma]
    taken = set(sigma)
    if len(taken) != d // 2:
        raise InvalidArgumentError(
            f"selection has {len(taken)} indices, expected {d // 2}"
        )
    if len(sigma) != len(taken):
        raise InvalidArgumentError("selection names an index twice")
    for i in sorted(taken):
        if d - 1 - i in taken and i != d - 1 - i:
            raise InvalidArgumentError(
                f"selection contains both {to_bits(i, n)} and its flip"
            )
    p = np.zeros(d)
    p[sigma] = 2.0 / d
    return GhzDiagonalState(n, p)


def inscribed_ball(family: str, n: int) -> Ball:
    """The largest ball: centered at the maximally mixed state for all three
    families, radius sqrt(1/(d(d-1)))."""
    if not isinstance(family, str) or family not in FAMILIES:
        raise InvalidArgumentError(f"unknown family {family!r}")
    n = check_qubit_count(n)
    d = dimension(n)
    return Ball(GhzDiagonalState.uniform(n), float(np.sqrt(1.0 / (d * (d - 1)))))
