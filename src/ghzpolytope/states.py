"""Probability-vector states, and the density matrix of each.

A GHZ-diagonal state is parameterized by a probability vector p over the
2**n bit indices; its density matrix is real symmetric with nonzero
entries only on the diagonal and the anti-diagonal.  ``az_from_prob``
gives those entries and ``density_from_prob`` the matrix.

A vector with entries in [-EPS_NORM, 2], all finite and with no sum past
the largest float, is checked by its min, max and sum alone; only another
is searched for its first bad entry, which each message names.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError
from .indices import DENSE_MAX_QUBITS, check_index, check_qubit_count, dimension

EPS_NORM = 1e-9
EPS_PSD = 1e-9
# human-entered CLI decimals are renormalized up to this slack, rejected beyond
NORM_SLACK = 1e-6


@dataclass(frozen=True)
class GhzDiagonalState:
    """Probability distribution p over the 2**n bit indices, lexicographic order."""

    n: int
    p: np.ndarray = field()

    def __post_init__(self):
        object.__setattr__(self, "n", check_qubit_count(self.n))
        try:
            p = np.asarray(self.p)
            if p.dtype.kind == "c":
                raise TypeError("complex entries")
            p = p.astype(float, copy=False)  # no copy for float input
        except (TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"probability vector must be real numbers: {exc}") from None
        d = dimension(self.n)
        if p.shape != (d,):
            raise InvalidArgumentError(
                f"probability vector has length {p.size}, expected {d} for n={self.n}"
            )
        lo, hi = p.min(), p.max()
        if lo >= -EPS_NORM and hi <= 2.0:  # so every entry is finite, and no sum overflows
            total = p.sum()
        else:
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
        # clip only when it can change an entry: a negative one, or a zero that may be -0.0
        p = (np.clip(p, 0.0, None) if lo <= 0.0 else p) / total
        p.flags.writeable = False
        object.__setattr__(self, "p", p)

    @classmethod
    def uniform(cls, n: int) -> "GhzDiagonalState":
        d = dimension(check_qubit_count(n))
        return cls(n, np.full(d, 1.0 / d))

    @classmethod
    def vertex(cls, n: int, i: int) -> "GhzDiagonalState":
        """Point mass at index i: the pure GHZ state projector."""
        n = check_qubit_count(n)
        p = np.zeros(dimension(n))
        p[check_index(i, n)] = 1.0
        return cls(n, p)

    @property
    def d(self) -> int:
        return dimension(self.n)


def check_state(state) -> GhzDiagonalState:
    """``state``; raise InvalidArgumentError unless it is a GhzDiagonalState."""
    if not isinstance(state, GhzDiagonalState):
        raise InvalidArgumentError(f"need a GhzDiagonalState, got {type(state).__name__}")
    return state


def az_from_prob(state: GhzDiagonalState) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients a_i = (p_i + p_~i)/2 and z_i = (-1)^{i(1)} (p_i - p_~i)/2."""
    p = check_state(state).p
    pbar = p[::-1]
    a = 0.5 * (p + pbar)
    signs = np.ones(state.d)
    signs[state.d // 2:] = -1.0
    z = 0.5 * signs * (p - pbar)
    return a, z


def density_from_prob(state: GhzDiagonalState) -> np.ndarray:
    """The d x d real symmetric density matrix: diagonal a, anti-diagonal z."""
    check_qubit_count(check_state(state).n, DENSE_MAX_QUBITS)
    a, z = az_from_prob(state)
    mat = np.diag(a)
    idx = np.arange(state.d)
    mat[idx, state.d - 1 - idx] = z
    return mat
