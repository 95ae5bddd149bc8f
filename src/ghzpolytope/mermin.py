"""The Mermin expectation, bounds and violation threshold, and the
threshold's distance to F_n.

The Mermin operator, the signed sum of the X/Y Pauli strings with an even
number of Y factors, has in the GHZ basis a single pair of off-diagonal
entries, which gives the closed-form expectation 2^(n-1) (p_0 - p_1...1)
used everywhere downstream.
"""

from __future__ import annotations

import math

import numpy as np

from ._mc_kernel_py import mermin_gap, mermin_violated
from .classify import EPS_BOUNDARY, EPS_CLASS
from .errors import InvalidArgumentError, UnsupportedSizeError
from .indices import is_integer
from .states import GhzDiagonalState, check_state


def mermin_expectation(state: GhzDiagonalState) -> float:
    """Closed form 2^(n-1) (p_0 - p_1...1)."""
    return float(2 ** (check_state(state).n - 1) * mermin_gap(state.p))


def _check_n(n: int) -> int:
    """``n`` as an int (``math.ldexp`` takes no NumPy integer); raise unless
    it is an integer >= 2."""
    if not is_integer(n) or n < 2:
        raise InvalidArgumentError(f"defined for integer n >= 2, got {n!r}")
    return int(n)


def mermin_bound(n: int) -> float:
    """Classical (LHV) bound mu_n."""
    n = _check_n(n)
    try:
        return math.ldexp(1.0, n // 2)  # 2^(n/2) even, 2^((n-1)/2) odd
    except OverflowError:
        raise UnsupportedSizeError(f"mermin_bound is a float only up to n = 2047, got n = {n}") from None


def mermin_threshold(n: int) -> float:
    """Violation threshold nu_n in p-coordinates: 2/sqrt(d) even, sqrt(2)/sqrt(d) odd.

    Both cases reduce to an integer power of two, so the value is exact.
    """
    n = _check_n(n)
    exponent = 1 - n // 2 if n % 2 == 0 else (1 - n) // 2
    return math.ldexp(1.0, exponent)


def violates_mermin(state: GhzDiagonalState) -> tuple[bool, bool]:
    """Returns (violates, boundary): violation iff p_0 - p_1...1 > nu_n, strictly."""
    nu = mermin_threshold(check_state(state).n)
    gap = float(mermin_gap(state.p))
    return mermin_violated(gap, nu, EPS_CLASS), abs(gap - nu) <= EPS_BOUNDARY


def dist_mermin_to_fbi(n: int) -> float:
    """HS distance from the threshold hyperplane to the fully-biseparable
    polytope: (nu_n - 2/d)/sqrt(2)."""
    n = _check_n(n)
    nu = mermin_threshold(n)
    if n < 3:
        raise InvalidArgumentError("defined for n >= 3")
    return float((nu - math.ldexp(1.0, 1 - n)) / np.sqrt(2.0))  # 2/d, also past 2^1023
