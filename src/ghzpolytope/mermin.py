"""The Mermin operator and the geometry of its violation region.

The operator is the signed sum of the X/Y Pauli strings with an even
number of Y factors; in the GHZ basis it reduces to a single pair of
off-diagonal entries, which gives the closed-form expectation
2^(n-1) (p_0 - p_1...1) used everywhere downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from ._mc_kernel_py import mermin_gap, mermin_violated
from .classify import EPS_BOUNDARY, EPS_CLASS
from .errors import InvalidArgumentError
from .indices import DENSE_MAX_QUBITS, check_qubit_count, dimension, is_integer
from .states import GhzDiagonalState

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


@dataclass(frozen=True)
class MerminOperator:
    n: int
    matrix: np.ndarray = field()  # real view; imaginary parts vanish
    term_count: int

    def __post_init__(self):
        m = np.asarray(self.matrix)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def build_mermin_operator(n: int) -> MerminOperator:
    """Sum over even-size Y-subsets with sign (-1)^(|Y|/2)."""
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
    if np.abs(total.imag).max() > 1e-12:
        raise AssertionError("Mermin operator has nonvanishing imaginary part")
    return MerminOperator(n=n, matrix=total.real.copy(), term_count=term_count)


def mermin_expectation(state: GhzDiagonalState) -> float:
    """Closed form 2^(n-1) (p_0 - p_1...1)."""
    return float(2 ** (state.n - 1) * mermin_gap(state.p))


def mermin_bound(n: int) -> float:
    """Classical (LHV) bound mu_n."""
    if not is_integer(n) or n < 2:
        raise InvalidArgumentError(f"defined for integer n >= 2, got {n!r}")
    return math.ldexp(1.0, n // 2)  # 2^(n/2) even, 2^((n-1)/2) odd


def mermin_threshold(n: int) -> float:
    """Violation threshold nu_n in p-coordinates: 2/sqrt(d) even, sqrt(2)/sqrt(d) odd.

    Both cases reduce to an integer power of two, so the value is exact.
    """
    if not is_integer(n) or n < 2:
        raise InvalidArgumentError(f"defined for integer n >= 2, got {n!r}")
    exponent = 1 - n // 2 if n % 2 == 0 else (1 - n) // 2
    return math.ldexp(1.0, exponent)


def violates_mermin(state: GhzDiagonalState) -> tuple[bool, bool]:
    """Returns (violates, boundary): violation iff p_0 - p_1...1 > nu_n, strictly."""
    nu = mermin_threshold(state.n)
    gap = float(mermin_gap(state.p))
    return mermin_violated(gap, nu, EPS_CLASS), abs(gap - nu) <= EPS_BOUNDARY


def dist_mermin_to_fbi(n: int) -> float:
    """HS distance from the threshold hyperplane to the fully-biseparable
    polytope: (nu_n - 2/d)/sqrt(2)."""
    nu = mermin_threshold(n)  # checks n
    if n < 3:
        raise InvalidArgumentError("defined for n >= 3")
    return float((nu - math.ldexp(1.0, 1 - n)) / np.sqrt(2.0))  # 2/d, also past 2^1023
