"""Index algebra for n-bit strings.

Indices are plain Python ints in ``[0, 2**n)``; bit position 1 is the
*leftmost* character of the string form (most significant bit), so the
lexicographic order of the strings is the numeric order of the ints.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Iterator

from .errors import InvalidArgumentError, UnsupportedSizeError

# The size caps: the largest qubit count n each kind of operation accepts,
# and the largest Monte-Carlo sample and thread counts; every size check in the
# package reads one of these.
# Indices, states and streamed listings: one float64 row of 2^16 is 512 KiB.
MAX_QUBITS = 16
# d x d matrices and full lists of d-float rows: F_8's 2^15 facet rows are 64 MiB.
DENSE_MAX_QUBITS = 8
# The full vertex list of F_n: 2^16 + 16 rows at n = 5, 2^32 + 32 at n = 6.
FBI_VERTEX_MAX_QUBITS = 5
# Monte Carlo: a uniform sample lands in F_n with probability 1.8e-13 at n = 6.
MC_MAX_QUBITS = 6
# Printing F_n's vertex count: 4933 digits at n = 15, past Python's 4300-digit int -> str limit.
REPORT_MAX_QUBITS = 14
# Closed-form volumes and relative volume radii: the range their tests cover.
CLOSED_FORM_MAX_QUBITS = 20
# Monte-Carlo samples: 2^32 are 65,536 chunks and about half an hour on one core at n = 6.
MC_MAX_SAMPLES = 2**32
# Monte-Carlo threads: each is an OS thread with a 1 MiB row block, and threads past the cores add only that.
MC_MAX_THREADS = 256


def is_integer(value) -> bool:
    """An int or a NumPy integer; a bool is neither here."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_qubit_count(n: int, max_n: int = MAX_QUBITS) -> int:
    """``n`` as an int; raise unless it is an integer with ``1 <= n <= max_n``."""
    if not is_integer(n) or n < 1:
        raise InvalidArgumentError(f"qubit count must be a positive int, got {n!r}")
    if n > max_n:
        raise UnsupportedSizeError(f"qubit count {n} exceeds the cap {max_n}")
    return int(n)


def check_index(i: int, n: int) -> int:
    """``i`` as an int; raise unless it is an integer in ``[0, 2**n)``."""
    if not is_integer(i) or not 0 <= i < 1 << n:
        raise InvalidArgumentError(f"index {i} out of range for n={n}")
    return int(i)


def dimension(n: int) -> int:
    """d = 2**n."""
    return 1 << n


def to_bits(i: int, n: int) -> str:
    """String form of an index, e.g. ``to_bits(2, 3) == '010'``."""
    return format(check_index(i, n), f"0{n}b")


def from_bits(bits: str) -> tuple[int, int]:
    """Parse a {0,1} string; returns ``(index, n)``."""
    if not bits or any(c not in "01" for c in bits):
        raise InvalidArgumentError(f"not a bit string: {bits!r}")
    return int(bits, 2), len(bits)


def enumerate_indices(n: int) -> list[int]:
    """All 2**n indices in lexicographic (= numeric) order."""
    n = check_qubit_count(n)
    return list(range(1 << n))


def flip_all(i: int, n: int) -> int:
    """Complement every bit; a fixed-point-free involution."""
    return check_index(i, n) ^ ((1 << n) - 1)


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
    return check_index(i, n) ^ positions_to_mask(positions, n)


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
    n = check_qubit_count(n)
    if n < 2:
        return
    rest = list(range(2, n + 1))
    # iterate subsets of {2..n}, always adjoin position 1
    for bits in range(1 << (n - 1)):
        subset = {1} | {rest[j] for j in range(n - 1) if bits >> j & 1}
        if len(subset) == n:
            continue
        yield Bipartition(n, frozenset(subset))
