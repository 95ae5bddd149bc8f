"""Exact combinatorial descriptions of the three polytope families.

``GHZ`` is the ambient regular simplex of all GHZ-diagonal states,
``BISEP`` the biseparable polytope (half-scale hypersimplex) and ``FBI``
the fully-biseparable polytope (hull of a simplex and a cube).  Everything
here works in p-coordinates; the normalization sum(p) = 1 is treated as an
ambient constraint, not a facet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator

import numpy as np

from .errors import InvalidArgumentError, UnsupportedSizeError
from .indices import check_qubit_count, dimension, to_bits
from .states import GhzDiagonalState

FAMILIES = ("GHZ", "BISEP", "FBI")

# full-list enumeration caps; streaming iterators work above them
BISEP_VERTEX_CAP = 8
FBI_VERTEX_CAP = 5
FBI_FACET_CAP = 8


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

    def satisfies(self, state: GhzDiagonalState, eps: float = 1e-12) -> bool:
        return self.value(state) >= -eps

    def saturates(self, state: GhzDiagonalState, eps: float = 1e-9) -> bool:
        return abs(self.value(state)) <= eps


@dataclass(frozen=True)
class Ball:
    center: GhzDiagonalState
    radius: float


def _unit(d: int, i: int, value: float = 1.0) -> np.ndarray:
    """``value`` times the i-th unit vector, with +0.0 (never -0.0) elsewhere."""
    e = np.zeros(d)
    e[i] = value
    return e


def iter_facets_ghz(n: int) -> Iterator[Facet]:
    check_qubit_count(n)
    d = dimension(n)
    for i in range(d):
        yield Facet("GHZ", f"p_{to_bits(i, n)}>=0", _unit(d, i))


def facets_ghz(n: int) -> list[Facet]:
    """d facets p_i >= 0."""
    return list(iter_facets_ghz(n))


def iter_facets_bisep(n: int) -> Iterator[Facet]:
    check_qubit_count(n)
    d = dimension(n)
    for i in range(d):
        yield Facet("BISEP", f"p_{to_bits(i, n)}<=1/2", _unit(d, i, -1.0), -0.5)
    for i in range(d):
        yield Facet("BISEP", f"p_{to_bits(i, n)}>=0", _unit(d, i))


def facets_bisep(n: int) -> list[Facet]:
    """2d facets: p_i <= 1/2 (truncation) and p_i >= 0 (inherited)."""
    return list(iter_facets_bisep(n))


def iter_facets_fbi(n: int) -> Iterator[Facet]:
    """d^2/2 facets p_i + p_~i - p_j + p_~j >= 0 over (pair {i,~i}, index j).

    Each row is built in place; its entries are small integers, so they
    equal the sum of unit vectors exactly and none is -0.0.
    """
    check_qubit_count(n)
    d = dimension(n)
    bits = [format(k, f"0{n}b") for k in range(d)]
    for i in range(d // 2):
        pair = f"p_{bits[i]}+p_{bits[d - 1 - i]}>=p_"
        for j in range(d):
            c = np.zeros(d)
            c[i] += 1.0
            c[d - 1 - i] += 1.0
            c[j] -= 1.0
            c[d - 1 - j] += 1.0
            yield Facet("FBI", f"{pair}{bits[j]}-p_{bits[d - 1 - j]}", c)


def facets_fbi(n: int) -> list[Facet]:
    check_qubit_count(n, FBI_FACET_CAP)
    return list(iter_facets_fbi(n))


def extreme_points_ghz(n: int) -> list[GhzDiagonalState]:
    """The d vertices: pure GHZ projectors."""
    check_qubit_count(n)
    d = dimension(n)
    if n > BISEP_VERTEX_CAP:
        raise UnsupportedSizeError(f"n={n} exceeds the vertex enumeration cap")
    return [GhzDiagonalState.vertex(n, i) for i in range(d)]


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
    check_qubit_count(n)
    d = dimension(n)
    for i, j in combinations(range(d), 2):
        yield midpoint(n, i, j)


def extreme_points_bisep(n: int) -> list[GhzDiagonalState]:
    """All d(d-1)/2 edge midpoints, lexicographic pair order."""
    check_qubit_count(n, BISEP_VERTEX_CAP)
    return list(iter_extreme_points_bisep(n))


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
    check_qubit_count(n)
    d = dimension(n)
    for i in range(d // 2):
        yield midpoint(n, i, d - 1 - i)
    for sigma in iter_selections(n):
        yield cube_vertex(n, sigma)


def extreme_points_fbi(n: int) -> list[GhzDiagonalState]:
    """d/2 diagonal midpoints followed by the 2^(d/2) cube vertices."""
    check_qubit_count(n, FBI_VERTEX_CAP)
    return list(iter_extreme_points_fbi(n))


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
    check_qubit_count(n)
    d = dimension(n)
    return Ball(GhzDiagonalState.uniform(n), float(np.sqrt(1.0 / (d * (d - 1)))))


def min_center_facet_distance(family: str, n: int) -> float:
    """Minimum distance from the maximally mixed state to the family's facets.

    Verification companion to :func:`inscribed_ball`.
    """
    center = GhzDiagonalState.uniform(n)
    if family == "GHZ":
        facets = iter_facets_ghz(n)
    elif family == "BISEP":
        facets = iter_facets_bisep(n)
    elif family == "FBI":
        facets = iter_facets_fbi(n)
    else:
        raise InvalidArgumentError(f"unknown family {family!r}")
    return min(facet_distance(center, f) for f in facets)
