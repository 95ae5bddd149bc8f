"""The region inequalities over ``(..., d)`` probability rows, written once
for ``classify``, ``violates_mermin`` and the NumPy hit counter.

The compiled ``_mc_kernel`` must stay decision-for-decision identical to
:func:`count_hits`, so hit counts match bit-for-bit between backends.
"""

from __future__ import annotations

import numpy as np

FAMILY_GENUINE = 0
FAMILY_BISEP_MINUS_FBI = 1
FAMILY_FBI = 2
FAMILY_MERMIN = 3

BACKEND = "python"


def flip_pairs(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|p_i - p_~i| and p_i + p_~i over the d/2 flip pairs i < d/2 (~i = d-1-i)."""
    h = p.shape[-1] // 2
    lo, hi = p[..., :h], p[..., ::-1][..., :h]
    return np.abs(lo - hi), lo + hi


def pair_reductions(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """max_i |p_i - p_~i| and min_i (p_i + p_~i); the full width only repeats the pairs."""
    diffs, sums = flip_pairs(p)
    return diffs.max(axis=-1), sums.min(axis=-1)


def mermin_gap(p: np.ndarray) -> np.ndarray:
    """p_0...0 - p_1...1."""
    return p[..., 0] - p[..., -1]


def genuine(maxp, eps: float = 0.0):
    """Outside the biseparable polytope: max_i p_i > 1/2."""
    return maxp > 0.5 + eps


def fully_biseparable(maxdiff, minsum, eps: float = 0.0):
    """Inside the fully-biseparable polytope: maxdiff <= minsum.  ``eps`` bounds
    the a/z form max|z| <= min a + eps, whose terms are half of these."""
    return maxdiff <= minsum + 2.0 * eps


def mermin_violated(gap, nu: float, eps: float = 0.0):
    """Strictly past the Mermin threshold: gap - nu_n > eps (exactly gap > nu_n at 0)."""
    return gap - nu > eps


def count_hits(p: np.ndarray, family: int, nu: float) -> int:
    """Count rows of the (m, d) probability matrix falling in the region."""
    if family == FAMILY_GENUINE:
        hits = genuine(p.max(axis=1))
    elif family == FAMILY_FBI:
        hits = fully_biseparable(*pair_reductions(p))
    elif family == FAMILY_BISEP_MINUS_FBI:
        hits = ~genuine(p.max(axis=1)) & ~fully_biseparable(*pair_reductions(p))
    elif family == FAMILY_MERMIN:
        hits = mermin_violated(mermin_gap(p), nu)
    else:
        raise ValueError(f"unknown family code {family}")
    return int(np.count_nonzero(hits))
