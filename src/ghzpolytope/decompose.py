"""Constructive separability certificates for the extreme points.

Midpoints m_{i,j} are separable across the bipartition of positions where
i and j agree; cube vertices average into such midpoints.  PPT across the
recorded bipartition is the checkable content of each certificate, and
every certificate is verified against the partial-transpose oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import is_ppt_bipartition
from .errors import InvalidArgumentError
from .indices import Bipartition, check_bipartition, check_index, check_qubit_count, dimension, to_bits
from .states import GhzDiagonalState
from .polytopes import cube_vertex, midpoint

KIND_MIDPOINT = "midpoint"
KIND_DIAGONAL = "diagonal"
KIND_CUBE_VERTEX = "cube-vertex"


@dataclass(frozen=True)
class SeparabilityCertificate:
    state: GhzDiagonalState
    kind: str
    bipartition: Bipartition | None = None
    # cube case: (weight, midpoint state, bipartition or None for diagonal)
    components: tuple = ()

    def to_json_dict(self) -> dict:
        n = self.state.n
        out = {
            "n": n,
            "kind": self.kind,
            "p": self.state.p.tolist(),
            "bipartition": str(self.bipartition) if self.bipartition else None,
        }
        if self.components:
            out["components"] = [
                {
                    "weight": w,
                    "p": s.p.tolist(),
                    "bipartition": str(bp) if bp else None,
                }
                for w, s, bp in self.components
            ]
        return out


def midpoint_bipartition(n: int, i: int, j: int) -> Bipartition | None:
    """The bipartition S|T with S the positions where i and j agree.

    Returns None when i and j differ everywhere (j is the full flip): the
    midpoint is then a diagonal mixture, separable under every bipartition.
    """
    n = check_qubit_count(n)
    i, j = check_index(i, n), check_index(j, n)
    if i == j:
        raise InvalidArgumentError("need two distinct indices")
    agree = frozenset(k for k in range(1, n + 1) if (i >> (n - k) & 1) == (j >> (n - k) & 1))
    if not agree:
        return None
    return Bipartition(n, agree)


def certify_midpoint(n: int, i: int, j: int) -> SeparabilityCertificate:
    """Certificate for m_{i,j}, verified by the partial-transpose oracle."""
    bp = midpoint_bipartition(n, i, j)
    state = midpoint(n, i, j)
    if bp is None:
        return SeparabilityCertificate(state, KIND_DIAGONAL)
    if not is_ppt_bipartition(state, bp):
        raise AssertionError(
            f"midpoint m_{to_bits(i, n)},{to_bits(j, n)} failed the PPT check across {bp}"
        )
    return SeparabilityCertificate(state, KIND_MIDPOINT, bipartition=bp)


def cube_vertex_decomposition(n: int, sigma, bipartition: Bipartition) -> SeparabilityCertificate:
    """Decompose v_sigma into midpoints separable across the bipartition.

    Pairs each index i of sigma with its S-flip i ^ S if that is in sigma,
    else with its T-flip i ^ T, and keeps each pair once, from its smaller
    index.  i ^ S and i ^ T are flips of each other, so sigma, which holds
    exactly one index of each flip pair, holds exactly one of them, and
    that one's partner is i again.
    """
    n = check_qubit_count(n)
    check_bipartition(bipartition, n)
    sigma = list(sigma)  # read twice, so a one-pass iterator works too
    state = cube_vertex(n, sigma)  # validates sigma
    members = set(sigma)
    s_mask = bipartition.mask
    t_mask = (dimension(n) - 1) ^ s_mask
    partners = ((i, i ^ s_mask if i ^ s_mask in members else i ^ t_mask) for i in sorted(members))
    pairs = [(i, j) for i, j in partners if i < j]

    weight = 1.0 / len(pairs)
    components = []
    for i, j in pairs:
        bp = midpoint_bipartition(n, i, j)
        m = midpoint(n, i, j)
        if bp is not None and not is_ppt_bipartition(m, bp):
            raise AssertionError(f"component m_{to_bits(i, n)},{to_bits(j, n)} failed PPT")
        components.append((weight, m, bp))

    # the uniform average of the midpoints must reproduce the cube vertex
    recon = sum(w * s.p for w, s, _ in components)
    if abs(recon - state.p).max() > 1e-9:
        raise AssertionError("component average does not reproduce the cube vertex")

    return SeparabilityCertificate(
        state, KIND_CUBE_VERTEX, bipartition=bipartition, components=tuple(components)
    )
