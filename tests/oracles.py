"""Independent constructions that the tests compare the package against.

None of these is reached by the command line, the closed forms or the
Monte-Carlo estimator, so they live with the tests, not in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

import numpy as np

from ghzpolytope.errors import InvalidArgumentError, UnsupportedSizeError
from ghzpolytope.indices import (
    DENSE_MAX_QUBITS,
    check_index,
    check_qubit_count,
    dimension,
    is_integer,
    positions_to_mask,
)
from ghzpolytope.mermin import mermin_threshold
from ghzpolytope.polytopes import Facet, facet_count, iter_facets
from ghzpolytope.states import EPS_NORM, NORM_SLACK, GhzDiagonalState
from ghzpolytope.volume import BISEP_MINUS_FBI, FBI, GENUINE, GHZ, MERMIN

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


def prob_from_density(mat: np.ndarray) -> GhzDiagonalState:
    """Invert the matrix construction: p_i = a_i + (-1)^{i(1)} z_i.

    A matrix off the GHZ-diagonal pattern (a nonzero entry elsewhere, or
    a broken a_i = a_~i / z_i = z_~i symmetry) fails an assertion that
    names the entry.
    """
    mat = np.asarray(mat, dtype=float)
    d = mat.shape[0]
    assert mat.shape == (d, d) and d >= 2 and d & (d - 1) == 0, f"not a 2^n x 2^n matrix: {mat.shape}"
    n = check_qubit_count(d.bit_length() - 1, DENSE_MAX_QUBITS)
    idx = np.arange(d)
    allowed = np.zeros((d, d), dtype=bool)
    allowed[idx, idx] = allowed[idx, d - 1 - idx] = True
    for name, off in (("outside the GHZ-diagonal pattern", np.where(allowed, 0.0, mat)),
                      ("breaking the symmetry", mat - mat.T)):
        r, c = np.unravel_index(int(np.argmax(np.abs(off))), mat.shape)
        assert abs(off[r, c]) <= EPS_NORM, f"entry {mat[r, c]} at ({r}, {c}) {name}"
    a = mat[idx, idx]
    z = mat[idx, d - 1 - idx]
    for name, v, col in (("a", a, idx), ("z", z, d - 1 - idx)):
        i = int(np.argmax(np.abs(v - v[::-1])))
        assert abs(v[i] - v[d - 1 - i]) <= EPS_NORM, f"{name}_{i} != {name}_~{i} at ({i}, {col[i]})"
    signs = np.ones(d)
    signs[d // 2:] = -1.0
    return GhzDiagonalState(n, a + signs * z)


def checked_probs(n: int, p) -> np.ndarray:
    """``GhzDiagonalState(n, p).p`` by the check that searches every entry:
    the first negative or non-finite entry, then the sum with overflow
    allowed, then the vector clipped at 0 and divided by its sum.  It raises
    InvalidArgumentError with GhzDiagonalState's messages."""
    n = check_qubit_count(n)
    try:
        p = np.asarray(p)
        if p.dtype.kind == "c":
            raise TypeError("complex entries")
        p = p.astype(float, copy=False)  # no copy for float input
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"probability vector must be real numbers: {exc}") from None
    d = dimension(n)
    if p.shape != (d,):
        raise InvalidArgumentError(
            f"probability vector has length {p.size}, expected {d} for n={n}"
        )
    bad = np.flatnonzero(~np.isfinite(p) | (p < -EPS_NORM))
    if bad.size:
        raise InvalidArgumentError(
            f"probability {p[bad[0]]} at index {bad[0]} is negative or not finite"
        )
    with np.errstate(over="ignore"):  # finite entries can sum to inf, rejected below
        total = p.sum()
    if abs(total - 1.0) > NORM_SLACK:
        raise InvalidArgumentError(
            f"probabilities sum to {total}, off normalization by more than {NORM_SLACK}"
        )
    return np.clip(p, 0.0, None) / p.sum()


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

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


@dataclass(frozen=True)
class MerminOperator:
    n: int
    matrix: np.ndarray  # real view; imaginary parts vanish
    term_count: int


def build_mermin_operator(n: int) -> MerminOperator:
    """The dense Pauli sum over even-size Y-subsets with sign (-1)^(|Y|/2)."""
    if n < 2:
        raise InvalidArgumentError("the Mermin operator needs at least 2 qubits")
    n = check_qubit_count(n, DENSE_MAX_QUBITS)
    d = dimension(n)
    total = np.zeros((d, d), dtype=complex)
    term_count = 0
    for size in range(0, n + 1, 2):
        sign = (-1.0) ** (size // 2)
        for y_positions in combinations(range(1, n + 1), size):
            term = np.ones((1, 1), dtype=complex)
            for k in range(1, n + 1):
                term = np.kron(term, _PAULI_Y if k in y_positions else _PAULI_X)
            total += sign * term
            term_count += 1
    assert np.abs(total.imag).max() <= 1e-12, "Mermin operator has a nonvanishing imaginary part"
    matrix = total.real.copy()
    matrix.flags.writeable = False
    return MerminOperator(n=n, matrix=matrix, term_count=term_count)


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


# ---------------------------------------------------------------- volumes


def hull_volume(p: int, side: float, q: int, v0: float) -> float:
    """Volume of the perpendicular hull of a regular p-simplex (side length
    ``side``) and a q-dimensional body of volume ``v0`` sharing one point:

        q! sqrt(p+1) / (p+q)! * (side/sqrt(2))^p * v0
    """
    if not (is_integer(p) and is_integer(q) and p >= 1 and q >= 0
            and 0 < side < math.inf and 0 < v0 < math.inf):
        raise InvalidArgumentError("need integers p >= 1 and q >= 0, and finite side > 0 and v0 > 0")
    log_v = (
        math.lgamma(q + 1)
        - math.lgamma(p + q + 1)
        + 0.5 * math.log(p + 1)
        + p * math.log(side / math.sqrt(2.0))
        + math.log(v0)
    )
    return math.exp(log_v)


def rel_vol_ratio(family: str, n: int) -> tuple[int, int]:
    """The paper's relative volume of ``family`` as integers (num, den) whose
    exact ratio it is (d = 2^n, h = d/2):

    - ghz: 1;
    - genuine: d / 2^(d-1);
    - fbi: h! / h^h;
    - mermin: (1 - nu_n)^(d-1) / 2, with nu_n = mu_n / 2^(n-1), the
      classical bound mu_n = 2^floor(n/2) over the Mermin operator's scale;
    - bisep_minus_fbi: 1 minus genuine minus fbi.

    ``num / den`` divides the integers, which Python rounds correctly, into
    the subnormals too.  Nothing is reduced: a gcd of integers of a million
    bits costs more than the test.
    """
    d, h = 1 << n, 1 << (n - 1)
    if family == GHZ:
        return 1, 1
    if family == GENUINE:
        return d, 1 << (d - 1)
    if family == FBI:
        return math.factorial(h), h**h
    if family == MERMIN:
        scale = 1 << (n - 1)
        return (scale - (1 << n // 2)) ** (d - 1), 2 * scale ** (d - 1)
    if family == BISEP_MINUS_FBI:
        (g, g_den), (f, f_den) = rel_vol_ratio(GENUINE, n), rel_vol_ratio(FBI, n)
        return g_den * f_den - g * f_den - f * g_den, g_den * f_den
    raise InvalidArgumentError(f"unknown family {family!r}")


def _compare_power(v: float, p: int, num: int, den: int) -> int:
    """The sign of v^p - num/den, for a float v > 0, in integers."""
    m, e = math.frexp(v)
    lhs, rhs = int(m * (1 << 53)) ** p * den, num
    e = (e - 53) * p
    lhs, rhs = (lhs << e, rhs) if e >= 0 else (lhs, rhs << -e)
    return (lhs > rhs) - (lhs < rhs)


def vol_hs(family: str, n: int) -> float:
    """The correctly rounded Hilbert-Schmidt volume sqrt(d) / (d-1)! times
    :func:`rel_vol_ratio`: the ``Fraction`` itself at even n, where sqrt(d)
    is an integer; at odd n, where the volume is 0 or irrational, the float
    whose two midpoints with its neighbours bracket the exact square."""
    from fractions import Fraction

    d = 1 << n
    num, den = rel_vol_ratio(family, n)
    exact = Fraction(num, math.factorial(d - 1) * den)
    if n % 2 == 0 or num == 0:
        return float((1 << n // 2) * exact) if n % 2 == 0 else 0.0
    square = d * exact * exact
    v = math.sqrt(d) * float(exact)  # the square itself can underflow
    while ((Fraction(v) + Fraction(math.nextafter(v, math.inf))) / 2) ** 2 < square:
        v = math.nextafter(v, math.inf)
    while ((Fraction(v) + Fraction(math.nextafter(v, 0.0))) / 2) ** 2 > square:
        v = math.nextafter(v, 0.0)
    return v


def rvr_bracket(family: str, n: int) -> tuple[float, float]:
    """The two adjacent floats a <= b around the exact relative volume
    radius (num/den)^(1/(d-1)) of :func:`rel_vol_ratio` (a == b when the
    root is a float; (0.0, 0.0) for a zero volume), found from a float
    guess by comparing integer powers."""
    d = 1 << n
    num, den = rel_vol_ratio(family, n)
    if num == 0:
        return 0.0, 0.0
    a = math.exp((math.log(num) - math.log(den)) / (d - 1))
    while _compare_power(a, d - 1, num, den) > 0:
        a = math.nextafter(a, 0.0)
    while _compare_power(math.nextafter(a, math.inf), d - 1, num, den) <= 0:
        a = math.nextafter(a, math.inf)
    return a, a if _compare_power(a, d - 1, num, den) == 0 else math.nextafter(a, math.inf)


# each family's relative volume radius as n -> infinity
RVR_LIMITS = {
    GENUINE: 0.5,
    BISEP_MINUS_FBI: 1.0,
    FBI: math.exp(-0.5),
    MERMIN: 1.0,
}
