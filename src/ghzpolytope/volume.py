"""Closed-form volumes, relative volumes, relative volume radii, and the
seeded Monte-Carlo estimator that cross-checks each closed form.

The estimator splits its samples into chunks, each drawn from its own
Philox stream in cache-sized row blocks that reuse one buffer; the samples
are those of a single draw per chunk.  ``mc_relative_volumes_by_n``
estimates several families at several qubit counts from one such draw,
counting each family on every block, so their hit counts are those of
separate seeded estimates and the three regions genuine, bisep_minus_fbi
and fbi partition the samples.  Chunk k's stream does not depend on n, and
its m points at n are the first m * 2^n values it draws, so the rows of
``report --mc`` share one draw per chunk, as wide as the largest n asks
for: each narrower n counts the rows that draw starts with, which are the
values and rows its own draw would give, so no count changes.
``mc_relative_volume`` is its one-family, one-n case.  Where a C compiler
is present, ``ghzpolytope._mc_kernel`` builds a C kernel once into the
package's ``__pycache__`` that draws, normalises and counts each chunk in
one pass without holding the GIL; it runs the chunk's Philox stream and
the ziggurat's fast path itself and leaves only the rare other draws to
NumPy's C routine.  Otherwise, or if
that kernel does not reproduce ``_mc_kernel_py.chunk_counts``'s rows,
counts and bit-generator state bit for bit, that NumPy kernel runs.  Both
kernels take a chunk in one ``chunk_counts`` call and give identical hit
counts for identical seeds.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

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

try:
    from . import _mc_kernel as _default_kernel
except ImportError:  # no compiler, or a kernel that fails its check against NumPy
    from . import _mc_kernel_py as _default_kernel
from . import _mc_kernel_py
from ._mc_kernel_py import sample_simplex  # noqa: F401  re-exported

KERNEL_BACKEND = _default_kernel.BACKEND

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
# Each chunk is sampled and counted in blocks of at most this many bytes, so
# a block stays in cache between the sampler and the counter.  Smaller
# blocks run the counter's per-pair Python loop too often.
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
    backend: str = KERNEL_BACKEND

    def to_json_dict(self) -> dict:
        return asdict(self)


def _check_family(family: str, allowed, n: int | None = None) -> None:
    if family not in allowed:
        raise InvalidArgumentError(f"unknown family {family!r}; expected one of {allowed}")
    # a qubit count that is not an integer is refused by check_qubit_count
    if n is not None and family != GHZ and is_integer(n) and n < 2:
        raise InvalidArgumentError(f"family {family!r} needs n >= 2")


def hull_volume(p: int, side: float, q: int, v0: float) -> float:
    """Volume of the perpendicular hull of a regular p-simplex (side length
    ``side``) and a q-dimensional body of volume ``v0`` sharing one point:

        q! sqrt(p+1) / (p+q)! * (side/sqrt(2))^p * v0
    """
    if p < 1 or q < 0 or side <= 0 or v0 <= 0:
        raise InvalidArgumentError("need p >= 1, q >= 0, side > 0, v0 > 0")
    log_v = (
        math.lgamma(q + 1)
        - math.lgamma(p + q + 1)
        + 0.5 * math.log(p + 1)
        + p * math.log(side / math.sqrt(2.0))
        + math.log(v0)
    )
    return math.exp(log_v)


def _log_rel_vol(family: str, n: int) -> float:
    d = dimension(n)
    if family == GHZ:
        return 0.0
    if family == GENUINE:
        return math.log(d) - (d - 1) * math.log(2.0)
    if family == FBI:
        h = d // 2
        return math.lgamma(h + 1) - h * math.log(h)
    if family == MERMIN:
        nu = mermin_threshold(n)
        return (d - 1) * math.log1p(-nu) - math.log(2.0) if nu < 1.0 else -math.inf
    raise InvalidArgumentError(f"no closed log form for family {family!r}")


def rel_vol_exact(family: str, n: int) -> float:
    """Relative volume with respect to the ambient simplex.

    Computed dyadically where the quantities fit a double exactly (d and
    (d/2)^(d/2) are powers of two), so the three-way trisection sums to 1
    without rounding residue; log-gamma takes over for large n.
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
        h = d // 2
        if h <= 128:
            # (d/2)! / (d/2)^(d/2); the denominator is a power of two, so
            # this is a float conversion plus an exact exponent shift
            return math.ldexp(float(math.factorial(h)), -h * (n - 1))
        return math.exp(math.lgamma(h + 1) - h * math.log(h))
    if family == MERMIN:
        nu = mermin_threshold(n)
        return 0.0 if nu >= 1.0 else (1.0 - nu) ** (d - 1) / 2.0
    return 1.0 - rel_vol_exact(GENUINE, n) - rel_vol_exact(FBI, n)


def vol_exact(family: str, n: int) -> float:
    """Absolute Hilbert-Schmidt volume (underflows to 0 for large n)."""
    _check_family(family, ALL_FAMILIES, n)
    n = check_qubit_count(n, CLOSED_FORM_MAX_QUBITS)
    d = dimension(n)
    log_ghz = 0.5 * math.log(d) - math.lgamma(d)
    if family == BISEP_MINUS_FBI:
        return math.exp(log_ghz) * rel_vol_exact(BISEP_MINUS_FBI, n)
    log_rel = _log_rel_vol(family, n)
    if log_rel == -math.inf:
        return 0.0
    return math.exp(log_ghz + log_rel)


def rvr(family: str, n: int) -> float:
    """Relative volume radius (relative volume)^(1/(d-1)), log-space inside."""
    _check_family(family, MC_FAMILIES, n)
    n = check_qubit_count(n, CLOSED_FORM_MAX_QUBITS)
    d = dimension(n)
    if family == BISEP_MINUS_FBI:
        small = math.exp(_log_rel_vol(GENUINE, n)) + math.exp(_log_rel_vol(FBI, n))
        if small >= 1.0:  # n = 2: the middle region has zero volume
            return 0.0
        return math.exp(math.log1p(-small) / (d - 1))
    log_rel = _log_rel_vol(family, n)
    if log_rel == -math.inf:
        return 0.0
    return math.exp(log_rel / (d - 1))


RVR_LIMITS = {
    GENUINE: 0.5,
    BISEP_MINUS_FBI: 1.0,
    FBI: math.exp(-0.5),
    MERMIN: 1.0,
}


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
    families = tuple(families)
    if not families:
        raise InvalidArgumentError("need at least one family")
    ns = tuple(ns)
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
        kernel = _default_kernel
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
