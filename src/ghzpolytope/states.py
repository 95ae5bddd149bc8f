"""GHZ basis vectors, probability-vector states and their density matrices.

A GHZ-diagonal state is parameterized by a probability vector p over the
2**n bit indices; its density matrix is real symmetric with nonzero
entries only on the diagonal and the anti-diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, NotGhzDiagonalError
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
        p = np.asarray(self.p, dtype=float)
        d = dimension(self.n)
        if p.shape != (d,):
            raise InvalidArgumentError(
                f"probability vector has length {p.size}, expected {d} for n={self.n}"
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
        p = np.clip(p, 0.0, None) / p.sum()
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


def az_from_prob(state: GhzDiagonalState) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients a_i = (p_i + p_~i)/2 and z_i = (-1)^{i(1)} (p_i - p_~i)/2."""
    p = state.p
    pbar = p[::-1]
    a = 0.5 * (p + pbar)
    signs = np.ones(state.d)
    signs[state.d // 2:] = -1.0
    z = 0.5 * signs * (p - pbar)
    return a, z


def density_from_prob(state: GhzDiagonalState) -> np.ndarray:
    """The d x d real symmetric density matrix: diagonal a, anti-diagonal z."""
    check_qubit_count(state.n, DENSE_MAX_QUBITS)
    a, z = az_from_prob(state)
    mat = np.diag(a)
    idx = np.arange(state.d)
    mat[idx, state.d - 1 - idx] = z
    return mat


def prob_from_density(mat: np.ndarray) -> GhzDiagonalState:
    """Invert the matrix construction: p_i = a_i + (-1)^{i(1)} z_i.

    Rejects matrices outside the GHZ-diagonal family (wrong sparsity or
    broken a_i = a_~i / z_i = z_~i symmetry).
    """
    mat = np.asarray(mat, dtype=float)
    d = mat.shape[0]
    if mat.ndim != 2 or mat.shape != (d, d) or d & (d - 1) or d < 2:
        raise InvalidArgumentError(f"expected a square 2^n x 2^n matrix, got {mat.shape}")
    n = d.bit_length() - 1
    check_qubit_count(n, DENSE_MAX_QUBITS)

    idx = np.arange(d)
    allowed = np.zeros((d, d), dtype=bool)
    allowed[idx, idx] = True
    allowed[idx, d - 1 - idx] = True
    stray = np.abs(np.where(allowed, 0.0, mat))
    if stray.max(initial=0.0) > EPS_NORM:
        r, c = np.unravel_index(int(np.argmax(stray)), mat.shape)
        raise NotGhzDiagonalError(
            f"nonzero entry {mat[r, c]} at ({r}, {c}) outside the GHZ-diagonal pattern",
            location=(int(r), int(c)),
        )
    if np.abs(mat - mat.T).max() > EPS_NORM:
        r, c = np.unravel_index(int(np.argmax(np.abs(mat - mat.T))), mat.shape)
        raise NotGhzDiagonalError("matrix is not symmetric", location=(int(r), int(c)))

    a = mat[idx, idx]
    z = mat[idx, d - 1 - idx]
    if np.abs(a - a[::-1]).max() > EPS_NORM:
        i = int(np.argmax(np.abs(a - a[::-1])))
        raise NotGhzDiagonalError(f"a_{i} != a_~{i}", location=(i, i))
    if np.abs(z - z[::-1]).max() > EPS_NORM:
        i = int(np.argmax(np.abs(z - z[::-1])))
        raise NotGhzDiagonalError(f"z_{i} != z_~{i}", location=(i, d - 1 - i))

    signs = np.ones(d)
    signs[d // 2:] = -1.0
    p = a + signs * z
    return GhzDiagonalState(n, p)


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
