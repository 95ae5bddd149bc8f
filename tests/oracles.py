"""Independent constructions that the tests compare the package against.

None of these is reached by the command line, the closed forms or the
Monte-Carlo estimator, so they live with the tests, not in the package.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ghzpolytope.errors import InvalidArgumentError, UnsupportedSizeError
from ghzpolytope.indices import (
    DENSE_MAX_QUBITS,
    check_index,
    check_qubit_count,
    dimension,
    positions_to_mask,
)
from ghzpolytope.mermin import mermin_threshold
from ghzpolytope.polytopes import Facet, facet_count, iter_facets
from ghzpolytope.states import GhzDiagonalState

# ---------------------------------------------------------------- indices


def flip_subset(i: int, n: int, positions) -> int:
    """Complement the bits at the given 1-based positions."""
    return check_index(i, n) ^ positions_to_mask(positions, n)


def iter_selections(n: int) -> Iterator[tuple[int, ...]]:
    """The 2^(d/2) selections sigma, one index from each pair {i, ~i}:
    selection s takes ~i from pair i where bit i of s is set."""
    d = dimension(check_qubit_count(n))
    return (tuple((d - 1 - i) if (bits >> i) & 1 else i for i in range(d // 2))
            for bits in range(1 << (d // 2)))


# ---------------------------------------------------------------- states


def ghz_basis_vector(i: int, n: int) -> np.ndarray:
    """The unit vector (|i> + (-1)^{i(1)} |~i>)/sqrt(2) in the computational basis."""
    n = check_qubit_count(n, DENSE_MAX_QUBITS)
    d = dimension(n)
    i = check_index(i, n)
    v = np.zeros(d)
    ibar = d - 1 - i
    sign = -1.0 if i >= d // 2 else 1.0  # top bit of i
    v[i] += 1.0 / np.sqrt(2.0)
    v[ibar] += sign / np.sqrt(2.0)
    return v


def density_from_mixture(state: GhzDiagonalState) -> np.ndarray:
    """Independent construction path: sum_i p_i |GHZ_i><GHZ_i|."""
    check_qubit_count(state.n, DENSE_MAX_QUBITS)
    mat = np.zeros((state.d, state.d))
    for i in range(state.d):
        if state.p[i] == 0.0:
            continue
        v = ghz_basis_vector(i, state.n)
        mat += state.p[i] * np.outer(v, v)
    return mat


# ---------------------------------------------------------------- metric


def simplex_height(n: int) -> float:
    """Distance from a vertex to the opposite facet's center: sqrt(d/(d-1))."""
    d = dimension(check_qubit_count(n))
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


def min_center_facet_distance(family: str, n: int) -> float:
    """Minimum distance from the maximally mixed state to the family's facets,
    the radius ``inscribed_ball`` gives; raises past ``DENSE_MAX_QUBITS``."""
    if check_qubit_count(n) > DENSE_MAX_QUBITS:
        raise UnsupportedSizeError(f"facet distances are streamed only up to n = {DENSE_MAX_QUBITS}")
    center = GhzDiagonalState.uniform(n)
    # a stop streams every facet, past the full-list cap
    facets = iter_facets(family, n, stop=facet_count(family, n))
    return min(facet_distance(center, f) for f in facets)


# ---------------------------------------------------------------- Mermin


def mermin_hyperplane_points(n: int) -> list[GhzDiagonalState]:
    """Points where the threshold hyperplane meets the edges from v_0.

    For i = 1...1 the edge midway point shifts to
    (1/2 + nu/2) v_0 + (1/2 - nu/2) v_1...1; for other i the point is
    nu v_0 + (1 - nu) v_i.  Emitted in index order i = 1, ..., d-1.
    """
    n = check_qubit_count(n)
    if n < 3:
        raise InvalidArgumentError("defined for n >= 3")
    d = dimension(n)
    nu = mermin_threshold(n)
    points = []
    for i in range(1, d):
        p = np.zeros(d)
        if i == d - 1:
            p[0] = 0.5 + 0.5 * nu
            p[d - 1] = 0.5 - 0.5 * nu
        else:
            p[0] = nu
            p[i] = 1.0 - nu
        points.append(GhzDiagonalState(n, p))
    return points
