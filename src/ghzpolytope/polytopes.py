"""Exact combinatorial descriptions of the three polytope families.

``GHZ`` is the ambient regular simplex of all GHZ-diagonal states,
``BISEP`` the biseparable polytope (half-scale hypersimplex) and ``FBI``
the fully-biseparable polytope (hull of a simplex and a cube).  Everything
here works in p-coordinates; the normalization sum(p) = 1 is treated as an
ambient constraint, not a facet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .classify import EPS_BOUNDARY, EPS_CLASS
from .errors import InvalidArgumentError, UnsupportedSizeError
from .indices import (
    DENSE_MAX_QUBITS,
    FBI_VERTEX_MAX_QUBITS,
    check_qubit_count,
    dimension,
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
        c = np.asarray(self.coeffs, dtype=float)
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


# A block holds at most this many bytes of float64 rows (one row if a row
# alone is larger), so a listing keeps one block in memory however large d is
_BLOCK_BYTES = 1 << 20


class FacetBlock(NamedTuple):
    """Consecutive facets ``coeffs[r] . p >= offsets[r]``, named ``labels[r]``."""

    labels: list[str]
    offsets: np.ndarray
    coeffs: np.ndarray


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
    chars = np.ascontiguousarray(np.hstack(columns))
    return chars.view(f"S{chars.shape[1]}").ravel().astype(str).tolist()


def _rows_with(d: int, m: int, value: float, *columns: np.ndarray) -> np.ndarray:
    """An (m, d) block of +0.0 with ``value`` at ``columns[c][r]`` in row r."""
    rows = np.zeros((m, d))
    r = np.arange(m)
    for column in columns:
        rows[r, column] = value
    return rows


def facet_blocks_ghz(n: int, stop: int | None = None) -> Iterator[FacetBlock]:
    """The d facets p_i >= 0 in blocks; only the first ``stop`` if given."""
    n = check_qubit_count(n)
    d = dimension(n)
    for start, end in _row_ranges(d, d, stop):
        i = np.arange(start, end)
        labels = _labels(n, "p_", i, ">=0")
        yield FacetBlock(labels, np.zeros(end - start), _rows_with(d, end - start, 1.0, i))


def facet_blocks_bisep(n: int, stop: int | None = None) -> Iterator[FacetBlock]:
    """The d facets p_i <= 1/2, then the d facets p_i >= 0, in blocks."""
    n = check_qubit_count(n)
    d = dimension(n)
    for half, (sign, relation, offset) in enumerate(((-1.0, "<=1/2", -0.5), (1.0, ">=0", 0.0))):
        half_stop = None if stop is None else max(0, stop - half * d)
        for start, end in _row_ranges(d, d, half_stop):
            i = np.arange(start, end)
            yield FacetBlock(
                _labels(n, "p_", i, relation),
                np.full(end - start, offset),
                _rows_with(d, end - start, sign, i),
            )


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
        coeffs = np.zeros((end - start, d))
        r = np.arange(end - start)
        coeffs[r, i] += 1.0
        coeffs[r, d - 1 - i] += 1.0
        coeffs[r, j] -= 1.0
        coeffs[r, d - 1 - j] += 1.0
        labels = _labels(n, "p_", i, "+p_", d - 1 - i, ">=p_", j, "-p_", d - 1 - j)
        yield FacetBlock(labels, np.zeros(end - start), coeffs)


def _facet_rows(family: str, blocks: Iterator[FacetBlock]) -> Iterator[Facet]:
    for block in blocks:
        for label, offset, coeffs in zip(block.labels, block.offsets.tolist(), block.coeffs):
            yield Facet(family, label, coeffs, offset)


def iter_facets_ghz(n: int) -> Iterator[Facet]:
    return _facet_rows("GHZ", facet_blocks_ghz(n))


def facets_ghz(n: int) -> list[Facet]:
    """d facets p_i >= 0."""
    return list(_facet_rows("GHZ", facet_blocks("GHZ", n)))


def iter_facets_bisep(n: int) -> Iterator[Facet]:
    return _facet_rows("BISEP", facet_blocks_bisep(n))


def facets_bisep(n: int) -> list[Facet]:
    """2d facets: p_i <= 1/2 (truncation) and p_i >= 0 (inherited)."""
    return list(_facet_rows("BISEP", facet_blocks("BISEP", n)))


def iter_facets_fbi(n: int) -> Iterator[Facet]:
    """d^2/2 facets p_i + p_~i - p_j + p_~j >= 0 over (pair {i,~i}, index j)."""
    return _facet_rows("FBI", facet_blocks_fbi(n))


def facets_fbi(n: int) -> list[Facet]:
    return list(_facet_rows("FBI", facet_blocks("FBI", n)))


def vertex_blocks_ghz(n: int, stop: int | None = None) -> Iterator[np.ndarray]:
    """The d pure GHZ projectors, unit rows, in blocks."""
    n = check_qubit_count(n)
    d = dimension(n)
    for start, end in _row_ranges(d, d, stop):
        yield _rows_with(d, end - start, 1.0, np.arange(start, end))


def vertex_blocks_bisep(n: int, stop: int | None = None) -> Iterator[np.ndarray]:
    """The d(d-1)/2 edge midpoints, lexicographic pair order, in blocks."""
    n = check_qubit_count(n)
    d = dimension(n)
    first = np.arange(d)
    first = first * (d - 1) - first * (first - 1) // 2  # the row of pair (i, i + 1)
    for start, end in _row_ranges(d * (d - 1) // 2, d, stop):
        k = np.arange(start, end)
        i = np.searchsorted(first, k, side="right") - 1
        yield _rows_with(d, end - start, 0.5, i, k - first[i] + i + 1)


def vertex_blocks_fbi(n: int, stop: int | None = None) -> Iterator[np.ndarray]:
    """The d/2 diagonal midpoints, then the 2^(d/2) cube vertices, in blocks.

    Cube vertex s takes index ~i from pair i where bit i of s is set, and i
    where it is not (the order of :func:`iter_selections`).
    """
    n = check_qubit_count(n)
    d = dimension(n)
    half = d // 2
    pair = np.arange(half)
    for start, end in _row_ranges(half, d, stop):
        i = np.arange(start, end)
        yield _rows_with(d, end - start, 0.5, i, d - 1 - i)
    cube_stop = None if stop is None else max(0, stop - half)
    for start, end in _row_ranges(1 << half, d, cube_stop):
        # start is a multiple of the block size 2^low, so the low bits of s
        # count through the block and the high bits are those of start
        low = min(half, (end - start - 1).bit_length())
        high = (start >> low).to_bytes((half - low + 7) // 8, "little")
        bits = np.empty((end - start, half), dtype=bool)
        bits[:, :low] = np.arange(end - start)[:, None] >> np.arange(low) & 1
        bits[:, low:] = np.unpackbits(np.frombuffer(high, np.uint8), bitorder="little")[: half - low]
        rows = np.zeros((end - start, d))
        rows[np.arange(end - start)[:, None], np.where(bits, d - 1 - pair, pair)] = 2.0 / d
        yield rows


def _vertex_rows(n: int, blocks: Iterator[np.ndarray]) -> Iterator[GhzDiagonalState]:
    for block in blocks:
        for p in block:
            yield GhzDiagonalState(n, p)


# The block enumerator of each family's facets and vertices, and the largest
# n whose full list is built
_ENUMERATORS = {
    ("facets", "GHZ"): (facet_blocks_ghz, DENSE_MAX_QUBITS),
    ("facets", "BISEP"): (facet_blocks_bisep, DENSE_MAX_QUBITS),
    ("facets", "FBI"): (facet_blocks_fbi, DENSE_MAX_QUBITS),
    ("vertices", "GHZ"): (vertex_blocks_ghz, DENSE_MAX_QUBITS),
    ("vertices", "BISEP"): (vertex_blocks_bisep, DENSE_MAX_QUBITS),
    ("vertices", "FBI"): (vertex_blocks_fbi, FBI_VERTEX_MAX_QUBITS),
}


def _blocks(kind: str, family: str, n: int, stop: int | None):
    if (kind, family) not in _ENUMERATORS:
        raise InvalidArgumentError(f"unknown family {family!r}")
    enumerator, cap = _ENUMERATORS[kind, family]
    n = check_qubit_count(n)
    if stop is None and n > cap:
        raise UnsupportedSizeError(f"{family} {kind} are listed in full only up to n = {cap}")
    return enumerator(n, stop)


def facet_blocks(family: str, n: int, stop: int | None = None) -> Iterator[FacetBlock]:
    """``facet_blocks_<family>(n, stop)``. Without ``stop`` it raises
    :class:`UnsupportedSizeError` past the family's full-list cap, before
    it builds any row."""
    return _blocks("facets", family, n, stop)


def vertex_blocks(family: str, n: int, stop: int | None = None) -> Iterator[np.ndarray]:
    """``vertex_blocks_<family>(n, stop)``. Without ``stop`` it raises
    :class:`UnsupportedSizeError` past the family's full-list cap, before
    it builds any row."""
    return _blocks("vertices", family, n, stop)


def extreme_points_ghz(n: int) -> list[GhzDiagonalState]:
    """The d vertices: pure GHZ projectors."""
    return list(_vertex_rows(n, vertex_blocks("GHZ", n)))


def midpoint(n: int, i: int, j: int) -> GhzDiagonalState:
    """m_{i,j} = (v_i + v_j)/2, the midpoint of a simplex edge."""
    if i == j:
        raise InvalidArgumentError("midpoint needs two distinct indices")
    d = dimension(n)
    p = np.zeros(d)
    p[i] = 0.5
    p[j] = 0.5
    return GhzDiagonalState(n, p)


def iter_extreme_points_bisep(n: int) -> Iterator[GhzDiagonalState]:
    return _vertex_rows(n, vertex_blocks_bisep(n))


def extreme_points_bisep(n: int) -> list[GhzDiagonalState]:
    """All d(d-1)/2 edge midpoints, lexicographic pair order."""
    return list(_vertex_rows(n, vertex_blocks("BISEP", n)))


def cube_vertex(n: int, sigma) -> GhzDiagonalState:
    """v_sigma = (2/d) sum_{i in sigma} v_i for a selection of one index per pair."""
    d = dimension(n)
    sigma = sorted(set(sigma))
    if len(sigma) != d // 2:
        raise InvalidArgumentError(
            f"selection has {len(sigma)} indices, expected {d // 2}"
        )
    taken = set(sigma)
    for i in sigma:
        if d - 1 - i in taken and i != d - 1 - i:
            raise InvalidArgumentError(
                f"selection contains both {to_bits(i, n)} and its flip"
            )
    p = np.zeros(d)
    p[sigma] = 2.0 / d
    return GhzDiagonalState(n, p)


def iter_selections(n: int) -> Iterator[tuple[int, ...]]:
    """The 2^(d/2) selections sigma, one index from each pair {i, ~i}."""
    d = dimension(n)
    for bits in range(1 << (d // 2)):
        yield tuple(
            (d - 1 - i) if (bits >> i) & 1 else i for i in range(d // 2)
        )


def iter_extreme_points_fbi(n: int) -> Iterator[GhzDiagonalState]:
    return _vertex_rows(n, vertex_blocks_fbi(n))


def extreme_points_fbi(n: int) -> list[GhzDiagonalState]:
    """d/2 diagonal midpoints followed by the 2^(d/2) cube vertices."""
    return list(_vertex_rows(n, vertex_blocks("FBI", n)))


def vertex_count(family: str, n: int) -> int:
    d = dimension(n)
    if family == "GHZ":
        return d
    if family == "BISEP":
        return d * (d - 1) // 2
    if family == "FBI":
        return d // 2 + (1 << (d // 2))
    raise InvalidArgumentError(f"unknown family {family!r}")


def facet_count(family: str, n: int) -> int:
    d = dimension(n)
    if family == "GHZ":
        return d
    if family == "BISEP":
        return 2 * d
    if family == "FBI":
        return d * d // 2
    raise InvalidArgumentError(f"unknown family {family!r}")


def simplex_height(n: int) -> float:
    """Distance from a vertex to the opposite facet's center: sqrt(d/(d-1))."""
    d = dimension(n)
    return float(np.sqrt(d / (d - 1)))


def hs_distance(s1: GhzDiagonalState, s2: GhzDiagonalState) -> float:
    """Hilbert-Schmidt distance: exactly ||p - q||_2, as the GHZ basis is orthonormal."""
    if s1.n != s2.n:
        raise InvalidArgumentError("states have different qubit counts")
    return float(np.linalg.norm(s1.p - s2.p))


def facet_distance(state: GhzDiagonalState, facet: Facet) -> float:
    """HS distance from the state to the facet's hyperplane within sum(p)=1.

    Distance to the affine set {sum(q) = 1, coeffs . q = offset}: project
    the facet normal onto the sum(q) = 0 hyperplane and divide.
    """
    c = facet.coeffs
    if c.size != state.d:
        raise InvalidArgumentError("facet dimension does not match the state")
    t = c - c.mean()
    norm = np.linalg.norm(t)
    if norm == 0.0:
        raise InvalidArgumentError("facet normal is parallel to the simplex")
    return abs(facet.value(state)) / float(norm)


def inscribed_ball(family: str, n: int) -> Ball:
    """The largest ball: centered at the maximally mixed state for all three
    families, radius sqrt(1/(d(d-1)))."""
    if family not in FAMILIES:
        raise InvalidArgumentError(f"unknown family {family!r}")
    n = check_qubit_count(n)
    d = dimension(n)
    return Ball(GhzDiagonalState.uniform(n), float(np.sqrt(1.0 / (d * (d - 1)))))


def min_center_facet_distance(family: str, n: int) -> float:
    """Minimum distance from the maximally mixed state to the family's facets.

    Verification companion to :func:`inscribed_ball`.
    """
    center = GhzDiagonalState.uniform(n)
    # a stop streams every facet, past the full-list cap
    facets = _facet_rows(family, facet_blocks(family, n, stop=facet_count(family, n)))
    return min(facet_distance(center, f) for f in facets)
