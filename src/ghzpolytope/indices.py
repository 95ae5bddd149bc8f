"""Index algebra for n-bit strings.

Indices are plain Python ints in ``[0, 2**n)``; bit position 1 is the
*leftmost* character of the string form (most significant bit), so the
lexicographic order of the strings is the numeric order of the ints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .errors import InvalidArgumentError

# Enumeration-level operations are capped here; dense-matrix code paths
# carry the tighter DENSE_MAX_QUBITS cap because they build d x d matrices.
MAX_QUBITS = 16
DENSE_MAX_QUBITS = 8


def check_qubit_count(n: int, max_n: int = MAX_QUBITS) -> None:
    """Raise unless ``1 <= n <= max_n``."""
    from .errors import UnsupportedSizeError

    if not isinstance(n, int) or n < 1:
        raise InvalidArgumentError(f"qubit count must be a positive int, got {n!r}")
    if n > max_n:
        raise UnsupportedSizeError(f"qubit count {n} exceeds the cap {max_n}")


def dimension(n: int) -> int:
    """d = 2**n."""
    return 1 << n


def to_bits(i: int, n: int) -> str:
    """String form of an index, e.g. ``to_bits(2, 3) == '010'``."""
    if not 0 <= i < (1 << n):
        raise InvalidArgumentError(f"index {i} out of range for n={n}")
    return format(i, f"0{n}b")


def from_bits(bits: str) -> tuple[int, int]:
    """Parse a {0,1} string; returns ``(index, n)``."""
    if not bits or any(c not in "01" for c in bits):
        raise InvalidArgumentError(f"not a bit string: {bits!r}")
    return int(bits, 2), len(bits)


def enumerate_indices(n: int) -> list[int]:
    """All 2**n indices in lexicographic (= numeric) order."""
    check_qubit_count(n)
    return list(range(1 << n))


def flip_all(i: int, n: int) -> int:
    """Complement every bit; a fixed-point-free involution."""
    if not 0 <= i < (1 << n):
        raise InvalidArgumentError(f"index {i} out of range for n={n}")
    return i ^ ((1 << n) - 1)


def positions_to_mask(positions, n: int) -> int:
    """Bitmask for 1-based positions counted from the left (position 1 = MSB)."""
    mask = 0
    for k in positions:
        if not 1 <= k <= n:
            raise InvalidArgumentError(f"position {k} outside 1..{n}")
        mask |= 1 << (n - k)
    return mask


def flip_subset(i: int, n: int, positions) -> int:
    """Complement the bits at the given 1-based positions."""
    if not 0 <= i < (1 << n):
        raise InvalidArgumentError(f"index {i} out of range for n={n}")
    return i ^ positions_to_mask(positions, n)


@dataclass(frozen=True)
class Bipartition:
    """A bipartition S | T of the qubit positions {1, ..., n}.

    Canonicalized so that position 1 is in S; the mask and its complement
    denote the same bipartition.
    """

    n: int
    subset: frozenset[int] = field()

    def __post_init__(self):
        if self.n < 2:
            raise InvalidArgumentError("a bipartition needs at least 2 qubits")
        s = frozenset(self.subset)
        if any(not 1 <= k <= self.n for k in s):
            raise InvalidArgumentError(f"subset {sorted(s)} outside 1..{self.n}")
        if not s or len(s) == self.n:
            raise InvalidArgumentError("both sides of a bipartition must be nonempty")
        if 1 not in s:
            s = frozenset(range(1, self.n + 1)) - s
        object.__setattr__(self, "subset", s)

    @property
    def complement(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1)) - self.subset

    @property
    def mask(self) -> int:
        """Bitmask of S in index coordinates (position 1 = MSB)."""
        return positions_to_mask(self.subset, self.n)

    def __str__(self):
        s = "".join(map(str, sorted(self.subset)))
        t = "".join(map(str, sorted(self.complement)))
        return f"{s}|{t}"


def all_bipartitions(n: int) -> Iterator[Bipartition]:
    """All 2**(n-1) - 1 canonical bipartitions, in lexicographic mask order."""
    check_qubit_count(n)
    if n < 2:
        return
    rest = list(range(2, n + 1))
    # iterate subsets of {2..n}, always adjoin position 1
    for bits in range(1 << (n - 1)):
        subset = {1} | {rest[j] for j in range(n - 1) if bits >> j & 1}
        if len(subset) == n:
            continue
        yield Bipartition(n, frozenset(subset))
