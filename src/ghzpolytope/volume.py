"""Closed-form volumes, relative volumes, relative volume radii, and the
seeded Monte-Carlo estimator that cross-checks each closed form.

The estimator splits its samples into chunks of a fixed size, each drawn
from its own Philox stream spawned from the seed, in cache-sized row
blocks that reuse one buffer; the samples are those of a single draw per
chunk.  So a fixed seed gives the same hit counts for any thread count and
on either kernel.  ``mc_relative_volumes_by_n`` estimates several
families at several qubit counts from one such draw per chunk, as wide as
the largest n asks for: chunk k's stream does not depend on n, and its m
points at n are the first m * 2^n values it draws, so each family and n
gets the hit counts of its own seeded estimate, and the three regions
genuine, bisep_minus_fbi and fbi partition the samples.
``mc_relative_volume`` is its one-family, one-n case.

Each chunk is one ``chunk_counts`` call to a kernel: the C one of
``ghzpolytope._mc_kernel``, which draws and counts a chunk in one pass
without holding the GIL, where a C compiler is present and the kernel
reproduces ``_mc_kernel_py.chunk_counts``'s rows and counts bit for bit,
else that NumPy kernel.  The kernel is chosen, and the C one built and
checked, at the first estimate or the first read of ``KERNEL_BACKEND`` or
``KERNEL_FALLBACK_REASON``, not at import, so the closed forms never pay
for it: a closed-form ``VolumeReport`` has no ``backend``.
"""

from __future__ import annotations

import functools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, UnsupportedSizeError
from .indices import (
    CLOSED_FORM_MAX_QUBITS,
    MC_MAX_QUBITS,
    MC_MAX_SAMPLES,
    MC_MAX_THREADS,
    check_qubit_count,
    dimension,
    is_integer,
)
from .mermin import mermin_threshold

from . import _mc_kernel_py
from ._mc_kernel_py import sample_simplex  # noqa: F401  re-exported


@functools.cache
def _kernel():
    """The default kernel module, and why it is not the C one (None if it is)."""
    try:
        from . import _mc_kernel
    except ImportError as exc:  # no compiler, or a kernel that fails its check against NumPy
        return _mc_kernel_py, str(exc)
    return _mc_kernel, None


def __getattr__(name):
    """``_default_kernel``, ``KERNEL_BACKEND`` ("c" or "python") and
    ``KERNEL_FALLBACK_REASON``, resolved by the first read."""
    if name == "_default_kernel":
        return _kernel()[0]
    if name == "KERNEL_BACKEND":
        return _kernel()[0].BACKEND
    if name == "KERNEL_FALLBACK_REASON":
        return _kernel()[1]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


GHZ = "ghz"
GENUINE = "genuine"
BISEP_MINUS_FBI = "bisep_minus_fbi"
FBI = "fbi"
MERMIN = "mermin"

MC_FAMILIES = (GENUINE, BISEP_MINUS_FBI, FBI, MERMIN)
ALL_FAMILIES = (GHZ,) + MC_FAMILIES

_FAMILY_CODES = {
    GENUINE: _mc_kernel_py.FAMILY_GENUINE,
    BISEP_MINUS_FBI: _mc_kernel_py.FAMILY_BISEP_MINUS_FBI,
    FBI: _mc_kernel_py.FAMILY_FBI,
    MERMIN: _mc_kernel_py.FAMILY_MERMIN,
}

MC_MIN_SAMPLES = 10_000
DEFAULT_CHUNK = 1 << 16
# Each chunk is sampled and counted in blocks of at most this many bytes: in
# the C kernel a block stays in cache between fill and count, and in the
# NumPy kernel a larger block runs the per-pair Python loop less often.
_BLOCK_BYTES = 1 << 20
RNG_ALGORITHM = "philox4x64"  # numpy.random.Philox, chunk streams spawned from the seed


@dataclass(frozen=True)
class VolumeReport:
    n: int
    family: str
    exact: float
    mc_estimate: float | None = None
    mc_stderr: float | None = None
    samples: int = 0
    seed: int | None = None
    rng: str = RNG_ALGORITHM
    backend: str | None = None  # the kernel that ran an estimate

    def to_json_dict(self) -> dict:
        return dict(vars(self))  # every field is a scalar: no deep copy to make


def _check_family(family: str, allowed, n: int | None = None) -> None:
    if not isinstance(family, str) or family not in allowed:
        raise InvalidArgumentError(f"unknown family {family!r}; expected one of {allowed}")
    # a qubit count that is not an integer is refused by check_qubit_count
    if n is not None and family != GHZ and is_integer(n) and n < 2:
        raise InvalidArgumentError(f"family {family!r} needs n >= 2")


def rel_vol_exact(family: str, n: int) -> float:
    """Relative volume with respect to the ambient simplex.

    Computed dyadically where the quantities fit a double exactly (d and
    (d/2)^(d/2) are powers of two), so the three-way trisection sums to 1
    without rounding residue.
    """
    _check_family(family, ALL_FAMILIES, n)
    n = check_qubit_count(n, CLOSED_FORM_MAX_QUBITS)
    d = dimension(n)
    if family == GHZ:
        return 1.0
    if family == GENUINE:
        # d * (1/2)^(d-1), exact: d is a power of two
        return math.ldexp(float(d), 1 - d)
    if family == FBI:
        # (d/2)! / (d/2)^(d/2), whose denominator is 2^(h (n-1)): a ratio of
        # integers, which Python rounds correctly.  From n = 11 on it is below
        # half the least subnormal (about 2^-1471 at n = 11), so 0.0.
        h = d // 2
        return math.factorial(h) / (1 << h * (n - 1)) if n <= 10 else 0.0
    if family == MERMIN:
        nu = mermin_threshold(n)
        return 0.0 if nu >= 1.0 else (1.0 - nu) ** (d - 1) / 2.0
    return 1.0 - rel_vol_exact(GENUINE, n) - rel_vol_exact(FBI, n)


def _rel_vol_ratio(family: str, n: int) -> tuple[int, int]:
    """:func:`rel_vol_exact`'s exact value as integers (num, den), with nu_n
    = 2^-k and h^h = 2^(h (n-1)); for the small n where they stay small."""
    d, h = 1 << n, 1 << (n - 1)
    if family == GHZ:
        return 1, 1
    if family == MERMIN:
        k = 1 - math.frexp(mermin_threshold(n))[1]
        return ((1 << k) - 1) ** (d - 1), 2 << k * (d - 1)
    bits = max(d - 1, h * (n - 1))  # genuine d / 2^(d-1), fbi h! / 2^(h (n-1))
    genuine, fbi = d << bits - (d - 1), math.factorial(h) << bits - h * (n - 1)
    num = {GENUINE: genuine, FBI: fbi, BISEP_MINUS_FBI: (1 << bits) - genuine - fbi}[family]
    return num, 1 << bits


def vol_exact(family: str, n: int) -> float:
    """Absolute Hilbert-Schmidt volume, correctly rounded: the simplex's,
    sqrt(d) / (d-1)!, times the exact relative volume.  At even n it is a
    ratio of integers; at odd n the root of one, taken with ``math.isqrt``
    on the ratio scaled so that the root has 64 or more bits, and moved off
    every rounding boundary of the final division when it is inexact.  From
    n = 8 the simplex's volume is 16 / 255!, far below the least subnormal,
    so 0.0."""
    _check_family(family, ALL_FAMILIES, n)
    n = check_qubit_count(n, CLOSED_FORM_MAX_QUBITS)
    if n >= 8:
        return 0.0
    num, den = _rel_vol_ratio(family, n)
    den *= math.factorial(dimension(n) - 1)
    if n % 2 == 0:
        return (num << n // 2) / den
    num, den = num * num << n, den * den  # the square
    k = max(0, 64 - (num.bit_length() - den.bit_length()) // 2)
    root = math.isqrt((num << 2 * k) // den)
    if root * root * den != num << 2 * k:
        root |= 1  # strictly between two integers: an odd one rounds as the root does
    return root / (1 << k)


def rvr(family: str, n: int) -> float:
    """Relative volume radius (relative volume)^(1/(d-1)): the root of
    :func:`rel_vol_exact` while that is a normal float, and past it each
    family's closed form for the root, in which no two large terms cancel."""
    _check_family(family, MC_FAMILIES, n)
    n = check_qubit_count(n, CLOSED_FORM_MAX_QUBITS)
    d = dimension(n)
    rel = rel_vol_exact(family, n)
    if rel >= sys.float_info.min or family == BISEP_MINUS_FBI:  # bisep_minus_fbi: 0 or near 1
        return rel ** (1.0 / (d - 1))
    if family == GENUINE:  # (d / 2^(d-1))^(1/(d-1))
        return 2.0 ** (n / (d - 1)) / 2.0
    if family == MERMIN:  # ((1 - nu)^(d-1) / 2)^(1/(d-1)), with 1 - nu exact
        return (1.0 - mermin_threshold(n)) * 2.0 ** (-1.0 / (d - 1))
    # fbi, from n = 11: Stirling's series log h! = h log h - h + log(2 pi h) / 2
    # + 1/(12h) - 1/(360h^3) + O(h^-5) makes log(h! / h^h) / (d-1) = -1/2 + r
    # with r small, and h^-5 is far below an ulp of r
    h = d // 2
    r = (math.log(2.0 * math.pi * h) / 2.0 - 0.5 + 1.0 / (12 * h) - 1.0 / (360 * h**3)) / (d - 1)
    return math.exp(r - 0.5)


def check_mc_settings(seed: int, threads: int, samples: int | None = None) -> None:
    """Raise unless each is an integer (not a bool), ``seed >= 0``, ``1 <=
    threads <= MC_MAX_THREADS`` and, if given, ``MC_MIN_SAMPLES <= samples
    <= MC_MAX_SAMPLES``; past a cap, UnsupportedSizeError."""
    given = {"seed": seed, "threads": threads} | ({} if samples is None else {"samples": samples})
    for name, value in given.items():
        if not is_integer(value):
            raise InvalidArgumentError(f"{name} must be an int, got {value!r}")
    if samples is not None and samples < MC_MIN_SAMPLES:
        raise InvalidArgumentError(f"need at least {MC_MIN_SAMPLES} samples, got {samples}")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be >= 0, got {seed}")
    if threads < 1:
        raise InvalidArgumentError(f"threads must be >= 1, got {threads}")
    if threads > MC_MAX_THREADS:
        raise UnsupportedSizeError(f"thread count {threads} exceeds the cap {MC_MAX_THREADS}")
    if samples is not None and samples > MC_MAX_SAMPLES:
        raise UnsupportedSizeError(f"sample count {samples} exceeds the cap {MC_MAX_SAMPLES}")


def mc_relative_volume(
    family: str,
    n: int,
    samples: int,
    seed: int,
    threads: int = 1,
    kernel=None,
) -> VolumeReport:
    """Monte-Carlo relative volume of one family at one ``n``: see
    :func:`mc_relative_volumes_by_n`."""
    return mc_relative_volumes_by_n((family,), (n,), samples, seed, threads, kernel)[n][0]


def mc_relative_volumes_by_n(
    families,
    ns,
    samples: int,
    seed: int,
    threads: int = 1,
    kernel=None,
) -> dict[int, tuple[VolumeReport, ...]]:
    """Monte-Carlo relative volumes of ``families`` at each qubit count in
    ``ns``, ``{n: reports}`` with one report per family, all counted on the
    same points at each n.

    The sample range is split into chunks of ``DEFAULT_CHUNK`` samples;
    chunk streams are spawned from the seed, so the integer hit counts (and
    hence the reports) depend only on the family, ``n``, ``samples`` and
    ``seed``: they are identical for any ``threads`` value, for both kernel
    backends and for any choice of the other families and qubit counts.
    Chunk k's stream is the same at every n, and its m points at n are the
    first m * 2^n values it draws, so each chunk is drawn once, with rows as
    wide as the largest n asks for, in cache-sized row blocks; every family
    is counted at every n on each block as soon as it is drawn.  Either
    kernel does all of a chunk in one ``chunk_counts`` call;
    ``kernel=_mc_kernel_py`` runs the NumPy reference.
    """
    try:
        families, ns = tuple(families), tuple(ns)
    except TypeError as exc:  # an int or None where a sequence belongs
        raise InvalidArgumentError(f"families and ns must be sequences: {exc}") from None
    if not families:
        raise InvalidArgumentError("need at least one family")
    if not ns:
        raise InvalidArgumentError("need at least one qubit count")
    for n in ns:
        for family in families:
            _check_family(family, MC_FAMILIES, n)
    ns = tuple(dict.fromkeys(check_qubit_count(n, MC_MAX_QUBITS) for n in ns))
    check_mc_settings(seed, threads, samples)
    chunk_size = DEFAULT_CHUNK
    n_chunks = (samples + chunk_size - 1) // chunk_size
    if kernel is None:
        kernel = _kernel()[0]
    elif kernel is not _mc_kernel_py and kernel is not _kernel()[0]:
        raise InvalidArgumentError(f"kernel must be None, _mc_kernel_py or the loaded C kernel, got {kernel!r}")
    codes = tuple(_FAMILY_CODES[family] for family in families)
    nus = {dimension(n): mermin_threshold(n) for n in ns}
    wide = max(nus)

    def run_chunk(k: int) -> dict[int, tuple[int, ...]]:
        m = min(chunk_size, samples - k * chunk_size)
        # SeedSequence(seed).spawn(n_chunks)[k], derived when the chunk runs
        bitgen = np.random.Philox(np.random.SeedSequence(seed, spawn_key=(k,)))
        # consecutive draws continue the chunk's stream, and each row is
        # normalised on its own, so blocking never changes a sample
        buf = np.empty((min(m, _BLOCK_BYTES // (8 * wide)), wide))
        return kernel.chunk_counts(bitgen, m, buf, codes, nus)

    workers = min(threads, n_chunks)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_chunk = list(pool.map(run_chunk, range(n_chunks)))
    else:
        per_chunk = [run_chunk(k) for k in range(n_chunks)]

    by_n = {}
    for n in ns:
        totals = map(sum, zip(*(chunk[dimension(n)] for chunk in per_chunk)))
        reports = []
        for family, hits in zip(families, totals):
            est = hits / samples
            reports.append(VolumeReport(
                n=n,
                family=family,
                exact=rel_vol_exact(family, n),
                mc_estimate=est,
                mc_stderr=math.sqrt(est * (1.0 - est) / samples),
                samples=samples,
                seed=seed,
                backend=kernel.BACKEND,
            ))
        by_n[n] = tuple(reports)
    return by_n
