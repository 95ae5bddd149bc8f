"""Membership tests for GHZ-diagonal states.

Three closed-form criteria (biseparability, genuinely-multipartite
concurrence, full biseparability) plus the brute-force all-bipartitions
partial-transpose oracle that the full-biseparability test must agree with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._mc_kernel_py import flip_pairs, fully_biseparable, genuine
from .errors import InvalidArgumentError
from .indices import (
    DENSE_MAX_QUBITS,
    Bipartition,
    all_bipartitions,
    check_bipartition,
    check_qubit_count,
    dimension,
    to_bits,
)
from .states import EPS_PSD, GhzDiagonalState, check_state, density_from_prob
from .states import az_from_prob  # noqa: F401  (module attribute perfbench/spans.py traces)

# strict-inequality decisions; the criteria are exact linear forms of the
# input, so the only error is input rounding
EPS_CLASS = 1e-12
# margin below which a decision is flagged as sitting on the boundary
EPS_BOUNDARY = 1e-9


@dataclass(frozen=True)
class ClassificationResult:
    is_biseparable: bool
    is_fully_biseparable: bool
    gm_concurrence: float
    witness: tuple | None
    boundary: bool
    region: str  # "genuine" | "bisep_not_fbi" | "fully_biseparable"

    def to_json_dict(self, n: int) -> dict:
        witness = None
        if self.witness is not None:
            witness = [to_bits(i, n) for i in self.witness]
        return {
            "biseparable": self.is_biseparable,
            "fully_biseparable": self.is_fully_biseparable,
            "gm_concurrence": self.gm_concurrence,
            "witness": witness,
            "boundary": self.boundary,
            "region": self.region,
        }


def is_biseparable(state: GhzDiagonalState) -> tuple[bool, int | None]:
    """True iff p_i <= 1/2 for every i; witness is the first index above 1/2."""
    over = np.flatnonzero(genuine(check_state(state).p, EPS_CLASS))
    return (False, int(over[0])) if over.size else (True, None)


def _concurrence(maxp) -> float:
    return max(0.0, 2.0 * float(maxp) - 1.0)


def gm_concurrence(state: GhzDiagonalState) -> float:
    """max{0, 2 max_i p_i - 1}: zero exactly on the biseparable polytope."""
    return _concurrence(check_state(state).p.max())


def _fbi_decision(p: np.ndarray, eps: float) -> tuple[bool, tuple[int, int] | None, float]:
    """Verdict, witness and margin |max |z| - min a| of the a/z test.  a_i and |z_i|
    repeat each flip pair, so the first violating (i, j) has i, j < d/2; argmin
    finds a mask's first False."""
    diffs, sums = flip_pairs(p)
    maxdiff, minsum = diffs.max(), sums.min()
    margin = 0.5 * abs(float(maxdiff - minsum))
    if fully_biseparable(maxdiff, minsum, eps):
        return True, None, margin
    i = int(np.argmin(fully_biseparable(maxdiff, sums, eps)))
    return False, (i, int(np.argmin(fully_biseparable(diffs, sums[i], eps)))), margin


def is_fully_biseparable(state: GhzDiagonalState) -> tuple[bool, tuple[int, int] | None]:
    """True iff |z_j| <= a_i for all i, j; witness is the first violating (i, j)."""
    fbi, witness, _ = _fbi_decision(check_state(state).p, EPS_CLASS)
    return fbi, witness


def partial_transpose(mat: np.ndarray, n: int, bipartition: Bipartition) -> np.ndarray:
    """Partial transpose over the S side: swap S-subsystem row/column bits."""
    d = dimension(check_qubit_count(n, DENSE_MAX_QUBITS))
    try:
        mat = np.asarray(mat)
    except ValueError as exc:  # a ragged nested list
        raise InvalidArgumentError(f"matrix must be a {d} x {d} array: {exc}") from None
    if mat.shape != (d, d):
        raise InvalidArgumentError(f"matrix shape {mat.shape} does not match n={n}")
    check_bipartition(bipartition, n)
    m = bipartition.mask
    idx = np.arange(d)
    rows = (idx & ~m)[:, None] | (idx & m)[None, :]
    cols = (idx & m)[:, None] | (idx & ~m)[None, :]
    return mat[rows, cols]


def is_ppt_bipartition(state: GhzDiagonalState, bipartition: Bipartition) -> bool:
    mat = density_from_prob(state)  # checks the state
    pt = partial_transpose(mat, state.n, bipartition)
    return float(np.linalg.eigvalsh(pt).min()) >= -EPS_PSD


def is_ppt_all_bipartitions(state: GhzDiagonalState) -> bool:
    """Brute-force oracle: min eigenvalue of every canonical partial transpose."""
    check_qubit_count(check_state(state).n, DENSE_MAX_QUBITS)
    return all(is_ppt_bipartition(state, bp) for bp in all_bipartitions(state.n))


def classify(state: GhzDiagonalState) -> ClassificationResult:
    """Place the state in exactly one of the three regions of the simplex."""
    maxp = check_state(state).p.max()
    bisep, wit_b = is_biseparable(state)
    fbi, wit_f, margin_f = _fbi_decision(state.p, EPS_CLASS)
    boundary = abs(float(maxp) - 0.5) <= EPS_BOUNDARY or margin_f <= EPS_BOUNDARY

    if not bisep:
        region, witness = "genuine", (wit_b,)
    elif not fbi:
        region, witness = "bisep_not_fbi", wit_f
    else:
        region, witness = "fully_biseparable", None
    return ClassificationResult(
        is_biseparable=bisep,
        is_fully_biseparable=fbi,
        gm_concurrence=_concurrence(maxp),
        witness=witness,
        boundary=boundary,
        region=region,
    )
