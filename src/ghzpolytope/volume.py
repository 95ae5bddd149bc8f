"""Closed-form volumes, relative volumes, relative volume radii, and the
seeded Monte-Carlo estimator that cross-checks each closed form.

The estimator splits its samples into chunks, each drawn from its own
Philox stream in cache-sized row blocks that reuse one buffer; the samples
are those of a single draw per chunk.  ``mc_relative_volumes`` estimates
several families from one such draw, counting each family on every block,
so their hit counts are those of separate seeded estimates and the three
regions genuine, bisep_minus_fbi and fbi partition the samples;
``mc_relative_volume`` is its one-family case.  Where a C compiler is
present, ``ghzpolytope._mc_kernel`` builds a C kernel once into the
package's ``__pycache__`` that draws, normalises and counts each chunk in
one pass without holding the GIL; it runs the chunk's Philox stream and
the ziggurat's fast path itself and leaves only the rare other draws to
NumPy's C routine.  Otherwise, or if that kernel does not reproduce
NumPy's rows and bit-generator state bit for bit, the NumPy path
(``sample_simplex``, then ``_mc_kernel_py.count_hits`` per family) runs.
Both give identical hit counts for identical seeds.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .indices import CLOSED_FORM_MAX_QUBITS, MC_MAX_QUBITS, check_qubit_count, dimension
from .mermin import mermin_threshold

try:
    from . import _mc_kernel as _default_kernel
except ImportError:  # no compiler, or a kernel that fails its check against NumPy
    from . import _mc_kernel_py as _default_kernel
from . import _mc_kernel_py

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
        return {
            "n": self.n,
            "family": self.family,
            "exact": self.exact,
            "mc_estimate": self.mc_estimate,
            "mc_stderr": self.mc_stderr,
            "samples": self.samples,
            "seed": self.seed,
            "rng": self.rng,
            "backend": self.backend,
        }


def _check_family(family: str, allowed, n: int | None = None) -> None:
    if family not in allowed:
        raise InvalidArgumentError(f"unknown family {family!r}; expected one of {allowed}")
    if n is not None and family != GHZ and n < 2:
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
    check_qubit_count(n, CLOSED_FORM_MAX_QUBITS)
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
    check_qubit_count(n, CLOSED_FORM_MAX_QUBITS)
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
    check_qubit_count(n, CLOSED_FORM_MAX_QUBITS)
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


def sample_simplex(
    rng: np.random.Generator, m: int, d: int, out: np.ndarray | None = None
) -> np.ndarray:
    """m points uniform on the (d-1)-simplex: normalized unit exponentials.

    ``out``, an (m, d) float64 array, receives the points in place of a new
    array; the values drawn are the same either way.
    """
    e = rng.standard_exponential((m, d), out=out)
    e /= e.sum(axis=1, keepdims=True)
    return e


def recommended_samples(exact: float, floor: int = MC_MIN_SAMPLES, cap: int = 2_000_000) -> int:
    """Sample count so the binomial standard error is <= max(0.002, exact/20)."""
    target = max(0.002, exact / 20.0)
    needed = int(math.ceil(exact * (1.0 - exact) / (target * target))) + 1
    return min(cap, max(floor, needed))


def mc_relative_volume(
    family: str,
    n: int,
    samples: int,
    seed: int,
    threads: int = 1,
    chunk_size: int = DEFAULT_CHUNK,
    kernel=None,
) -> VolumeReport:
    """Monte-Carlo relative volume of one family: see :func:`mc_relative_volumes`."""
    return mc_relative_volumes((family,), n, samples, seed, threads, chunk_size, kernel)[0]


def mc_relative_volumes(
    families,
    n: int,
    samples: int,
    seed: int,
    threads: int = 1,
    chunk_size: int = DEFAULT_CHUNK,
    kernel=None,
) -> tuple[VolumeReport, ...]:
    """Monte-Carlo relative volumes of ``families``, one report each, all
    counted on the same points.

    The sample range is split into fixed-size chunks; chunk streams are
    spawned from the seed, so the integer hit counts (and hence the reports)
    are identical for any ``threads`` value, for both kernel backends and
    for any choice of the other families.  Each chunk is drawn once from its
    stream in cache-sized row blocks, and every family is counted on each
    block as soon as it is drawn; the samples are those of one draw per
    chunk.  A kernel with ``chunk_counts`` (the C one) does all of a chunk
    in one call; ``kernel=_mc_kernel_py`` runs the NumPy reference loop.
    """
    families = tuple(families)
    if not families:
        raise InvalidArgumentError("need at least one family")
    for family in families:
        _check_family(family, MC_FAMILIES, n)
    check_qubit_count(n, MC_MAX_QUBITS)
    if samples < MC_MIN_SAMPLES:
        raise InvalidArgumentError(f"need at least {MC_MIN_SAMPLES} samples, got {samples}")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be >= 0, got {seed}")
    if threads < 1:
        raise InvalidArgumentError(f"threads must be >= 1, got {threads}")
    if kernel is None:
        kernel = _default_kernel
    d = dimension(n)
    codes = tuple(_FAMILY_CODES[family] for family in families)
    nu = mermin_threshold(n)

    n_chunks = (samples + chunk_size - 1) // chunk_size
    streams = np.random.SeedSequence(seed).spawn(n_chunks)

    fused = getattr(kernel, "chunk_counts", None)

    def run_chunk(k: int) -> tuple[int, ...]:
        m = min(chunk_size, samples - k * chunk_size)
        bitgen = np.random.Philox(streams[k])
        # consecutive draws continue the chunk's stream, and each row is
        # normalised on its own, so blocking never changes a sample
        buf = np.empty((min(m, _BLOCK_BYTES // (8 * d)), d))
        if fused is not None:
            return fused(bitgen, m, buf, codes, nu)
        rng = np.random.Generator(bitgen)
        hits = [0] * len(codes)
        for start in range(0, m, len(buf)):
            b = min(len(buf), m - start)
            p = sample_simplex(rng, b, d, buf[:b])
            for j, code in enumerate(codes):
                hits[j] += kernel.count_hits(p, code, nu)
        return tuple(hits)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_chunk = list(pool.map(run_chunk, range(n_chunks)))
    else:
        per_chunk = [run_chunk(k) for k in range(n_chunks)]

    reports = []
    for family, hits in zip(families, map(sum, zip(*per_chunk))):
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
    return tuple(reports)
