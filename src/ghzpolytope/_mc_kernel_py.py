"""The region inequalities over ``(..., d)`` probability rows, written once
for ``classify``, ``violates_mermin`` and the NumPy Monte-Carlo kernel.

The C kernel (``_mc_kernel.c``) takes the arguments of :func:`chunk_counts`
and must stay decision-for-decision identical to it, so hit counts match
bit-for-bit between backends.
:func:`count_hits` folds its reductions one flip pair ``(i, d-1-i)`` at a
time over all rows (:func:`pair_reductions`, :func:`max_prob`); the folds
use only exact operations, so they equal the row-wise reductions.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError
from .indices import is_integer

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
    """max_i |p_i - p_~i| and min_i (p_i + p_~i); the full width only repeats the pairs.

    Folded one pair at a time into ``(...)`` vectors: NumPy reduces a short
    last axis row by row, but runs each column-wise step over all rows at
    once.  max, min, abs, + and - are exact, so this equals
    ``flip_pairs(p)[0].max(-1), flip_pairs(p)[1].min(-1)`` bit for bit.
    """
    d = p.shape[-1]
    maxdiff = np.zeros(p.shape[:-1])
    minsum = np.full(p.shape[:-1], np.inf)
    t = np.empty(p.shape[:-1])
    for i in range(d // 2):
        lo, hi = p[..., i], p[..., d - 1 - i]
        np.maximum(maxdiff, np.abs(np.subtract(lo, hi, out=t), out=t), out=maxdiff)
        np.minimum(minsum, np.add(lo, hi, out=t), out=minsum)
    return maxdiff, minsum


def max_prob(p: np.ndarray) -> np.ndarray:
    """max_i p_i, folded one flip pair at a time like :func:`pair_reductions`."""
    d = p.shape[-1]
    maxp = np.full(p.shape[:-1], -np.inf)
    t = np.empty(p.shape[:-1])
    for i in range(d // 2):
        np.maximum(maxp, np.maximum(p[..., i], p[..., d - 1 - i], out=t), out=maxp)
    return maxp


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


def check_rows(p: np.ndarray) -> None:
    """Raise ValueError unless ``p`` is an (m, d) matrix of rows with a flip pair, d >= 2."""
    if p.ndim != 2 or p.shape[1] < 2:
        raise ValueError(f"need an (m, d) matrix with d >= 2, got shape {p.shape}")


def count_hits(p: np.ndarray, family: int, nu: float) -> int:
    """Count rows of the (m, d) probability matrix falling in the region."""
    check_rows(p)
    if family == FAMILY_GENUINE:
        hits = genuine(max_prob(p))
    elif family == FAMILY_FBI:
        hits = fully_biseparable(*pair_reductions(p))
    elif family == FAMILY_BISEP_MINUS_FBI:
        hits = ~genuine(max_prob(p)) & ~fully_biseparable(*pair_reductions(p))
    elif family == FAMILY_MERMIN:
        hits = mermin_violated(mermin_gap(p), nu)
    else:
        raise ValueError(f"unknown family code {family}")
    return int(np.count_nonzero(hits))


def normalise_rows(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Each row of the (m, d) matrix ``src`` divided by its sum, into ``dst``
    (``dst`` may be ``src``)."""
    return np.divide(src, src.sum(axis=1, keepdims=True), out=dst)


def sample_simplex(
    rng: np.random.Generator, m: int, d: int, out: np.ndarray | None = None
) -> np.ndarray:
    """m points uniform on the (d-1)-simplex: normalized unit exponentials.

    ``out``, an (m, d) float64 array, receives the points in place of a new
    array; the values drawn are the same either way.  Raise
    InvalidArgumentError unless ``rng`` is a NumPy Generator, m >= 0 and
    d >= 1 are integers, and ``out`` is None or a writable, C-contiguous
    float64 ndarray of shape (m, d).
    """
    if not isinstance(rng, np.random.Generator):
        raise InvalidArgumentError(f"rng must be a numpy.random.Generator, got {rng!r}")
    if not (is_integer(m) and is_integer(d) and m >= 0 and d >= 1):
        raise InvalidArgumentError(f"need integers m >= 0 and d >= 1, got m={m!r}, d={d!r}")
    if out is not None and not (isinstance(out, np.ndarray) and out.dtype == np.float64
                                and out.shape == (m, d) and out.flags.c_contiguous and out.flags.writeable):
        raise InvalidArgumentError(f"out must be a writable, C-contiguous float64 ({m}, {d}) array")
    e = rng.standard_exponential((m, d), out=out)
    return normalise_rows(e, e)


def check_widths(buf: np.ndarray, nus) -> None:
    """Raise ValueError unless every width in ``nus`` divides ``buf``'s width
    and the widest is that width."""
    wide = buf.shape[1]
    if not nus or max(nus) != wide or any(wide % d for d in nus):
        raise ValueError(f"row widths must divide the buffer's width {wide}, the widest "
                         f"equal to it; got {tuple(nus)}")


def chunk_counts(bitgen: np.random.BitGenerator, m: int, buf: np.ndarray, families,
                 nus) -> dict[int, tuple[int, ...]]:
    """Hits of each family code in ``families`` among m points drawn from
    ``bitgen`` by :func:`sample_simplex` at each row width d of ``nus``, a
    ``{d: nu}`` mapping to that width's Mermin threshold; ``{d: hits}``.

    The m points of width d are the first m*d values of one stream, so one
    draw serves every width: m rows as wide as ``buf``, a (rows, D) float64
    array, drawn a block at a time through it.  Each narrower width counts
    the rows among the chunk's first m*d values in each block, normalised
    into a scratch block, before the block is normalised in place; ``buf``
    holds the last block's rows of width D on return.
    """
    check_widths(buf, nus)
    rng = np.random.Generator(bitgen)
    rows, wide = buf.shape
    hits = {d: [0] * len(families) for d in nus}
    for start in range(0, m, rows):
        b = min(rows, m - start)
        e = rng.standard_exponential((b, wide), out=buf[:b])
        for d, nu in nus.items():
            # width d's values in this block: those before m*d, in whole rows
            k = min(b * wide, m * d - start * wide) // d
            if d == wide or k <= 0:
                continue
            narrow = e.reshape(-1, d)[:k]
            p = normalise_rows(narrow, np.empty_like(narrow))
            for j, family in enumerate(families):
                hits[d][j] += count_hits(p, family, nu)
        p = normalise_rows(e, e)
        for j, family in enumerate(families):
            hits[wide][j] += count_hits(p, family, nus[wide])
    return {d: tuple(counts) for d, counts in hits.items()}
