"""The C Monte-Carlo kernel: draws, normalises and counts a chunk in one pass.

On first import, ``_mc_kernel.c`` is compiled with ``cc`` against NumPy's
own C random library (``numpy/random/lib/libnpyrandom.a``) into this
package's ``__pycache__``, under a name keyed by the source, the compile
command, the NumPy version and the platform; later imports load that file.

The kernel runs the chunk's Philox4x64-10 stream itself, from the state
that ``bitgen.state`` gives, and writes the advanced state back, so the bit
generator goes on exactly as NumPy's would.  It takes the ziggurat's fast
path inline and hands the rare other draws (about 2 %) to NumPy's
``random_standard_exponential``.  NumPy keeps the ziggurat's tables
private, so at load the kernel reads them back by probing that routine
(256 x 54 calls).

The stream is one buffer of 32 values: eight consecutive Philox blocks in
stream order, tracked by the counter of the last.  It is loaded from
NumPy's state at the start of a chunk, and at its end the kernel writes
back what NumPy's own state would hold: the counter of the block that
holds the last value read, that block's four values and the position
after that value.  One of two routines, picked at load from the CPU's
flags (``PHILOX_ROUTINE``), refills and reads the buffer.  ``"scalar"``
computes the eight blocks one after another and reads one value at a
time.  ``"avx512"``, on a CPU with AVX-512F and AVX-512DQ, computes them
side by side and runs the fast path eight values at a time.  The draws
replayed through NumPy's routine take their extra values from the buffer
too, so the two routines draw the same values.  The kernel sums rows in
NumPy's order only at the widths the estimator draws, d = 2^n with
2 <= n <= ``MC_MAX_QUBITS``, and :func:`chunk_counts` refuses any other.

Each routine the CPU can run is checked at load bit for bit against
NumPy's draw-and-divide, its hit counts and the bit generator's final
state.  Any failure (no compiler, an unwritable directory, a missing
library, a failed probe, a mismatch) raises ImportError, and ``volume``
keeps the NumPy path in ``_mc_kernel_py``.  Calls go through ctypes, which
releases the GIL, so chunks on a thread pool run in parallel.
"""

from __future__ import annotations

import ctypes
import os
import sysconfig
import zlib
from pathlib import Path

import numpy as np

from ._mc_kernel_py import FAMILY_GENUINE, FAMILY_MERMIN, check_rows
from ._mc_kernel_py import count_hits as _numpy_count_hits
from .indices import MC_MAX_QUBITS

BACKEND = "c"

_HERE = Path(__file__).resolve().parent
_I64, _PTR = ctypes.c_int64, ctypes.c_void_p
_HITS = _I64 * (FAMILY_MERMIN + 1)  # one counter per family code
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
ROUTINES = ("scalar", "avx512")  # set_philox_routine's codes 0 and 1
WIDE_CPU_FLAGS = ("avx512f", "avx512dq")  # bits 0 and 1 of cpu_wide_flags()
ROW_WIDTHS = tuple(1 << n for n in range(2, MC_MAX_QUBITS + 1))  # the widths chunk_counts draws


def _mask(families) -> int:
    """The kernel's bit mask of family codes: bit k asks for family k."""
    mask = 0
    for family in families:
        if not FAMILY_GENUINE <= family <= FAMILY_MERMIN:
            raise ValueError(f"unknown family code {family}")
        mask |= 1 << family
    return mask


def _build(source: Path, cache_dir: Path, cc: str) -> Path:
    """Path of the compiled kernel in ``cache_dir``, compiling it if absent."""
    cmd = [cc, *_CFLAGS, f"-I{np.get_include()}", str(source),
           f"-L{Path(np.__file__).parent / 'random' / 'lib'}", "-lnpyrandom", "-lm", "-o"]
    tag = f"{np.__version__} {sysconfig.get_platform()} {' '.join(cmd)}".encode()
    key = zlib.crc32(source.read_bytes() + tag)  # hashlib costs ms to import
    lib = cache_dir / f"_mc_kernel-{key:08x}.so"
    if lib.exists():
        return lib
    import subprocess
    import tempfile

    cache_dir.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=lib.stem, suffix=".tmp", dir=cache_dir)
    os.close(fd)
    try:
        done = subprocess.run(cmd + [tmp], capture_output=True, text=True)
        if done.returncode != 0:
            raise ImportError(f"cannot compile {source.name}: {done.stderr.strip()}")
        os.replace(tmp, lib)  # atomic: a concurrent import sees no partial file
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def _run(lib: ctypes.CDLL, bitgen: np.random.BitGenerator, m: int, buf: np.ndarray,
         mask: int, nu: float) -> ctypes.Array:
    """The kernel's hit counters for m points drawn from ``bitgen`` through
    ``buf``; ``bitgen`` is left in the state its own draw would leave."""
    state = bitgen.state
    if state["bit_generator"] != "Philox" or state["has_uint32"]:
        raise ValueError("need a Philox bit generator with no buffered 32-bit value")
    philox, buffer = state["state"], state["buffer"]
    if state["buffer_pos"] < 0:
        raise ValueError(f"need a Philox buffer_pos >= 0, got {state['buffer_pos']}")
    # NumPy's draw takes any position past its 4-value buffer as a spent buffer
    pos, hits = ctypes.c_int(min(state["buffer_pos"], 4)), _HITS()
    lib.chunk_counts(philox["key"].ctypes.data, philox["counter"].ctypes.data,
                     buffer.ctypes.data, ctypes.byref(pos), m, buf.shape[1], buf.ctypes.data,
                     buf.shape[0], mask, nu, hits)
    state["buffer_pos"] = pos.value
    bitgen.state = state
    return hits


def _set_routine(lib: ctypes.CDLL, routine: str) -> str:
    """Make ``lib`` run ``routine`` if the CPU can, else the scalar one; the
    routine now in use.  Only the loader and tests switch routines."""
    return ROUTINES[lib.set_philox_routine(ROUTINES.index(routine))]


def _self_check(lib: ctypes.CDLL) -> None:
    """Raise ImportError unless the kernel draws NumPy's normalised rows bit for
    bit, counts them as the NumPy path does and leaves the bit generator where
    NumPy's draw leaves it, on every routine the CPU can run: a NumPy release
    could change its draw or its summation order."""
    m, rows = 35, 16  # two full blocks and a ragged one of 3 rows
    for routine in reversed(ROUTINES):
        if _set_routine(lib, routine) != routine:
            continue
        # d = 64 starts mid-buffer, and its 2240 values leave the ziggurat's
        # fast path often enough to take 56 more raw draws
        for d, skip in ((4, 0), (64, 3)):
            where = f"at d = {d} ({routine} routine)"
            bitgen, twin = np.random.Philox(d), np.random.Philox(d)
            bitgen.random_raw(skip)
            twin.random_raw(skip)
            buf = np.empty((rows, d))
            hits = _run(lib, bitgen, m, buf, _mask(range(FAMILY_MERMIN + 1)), 0.0)
            e = np.random.Generator(twin).standard_exponential((m, d))
            e /= e.sum(axis=1, keepdims=True)
            last = m % rows
            if not np.array_equal(buf[:last].view(np.uint64), e[-last:].view(np.uint64)):
                raise ImportError(f"C kernel rows differ from NumPy's {where}")
            if list(hits) != [_numpy_count_hits(e, code, 0.0) for code in range(len(hits))]:
                raise ImportError(f"C kernel hit counts differ from NumPy's {where}")
            if not np.array_equal(bitgen.random_raw(8), twin.random_raw(8)):
                raise ImportError(f"C kernel leaves the bit generator off NumPy's state {where}")
    _set_routine(lib, ROUTINES[-1])


def load(source: Path = _HERE / "_mc_kernel.c", cache_dir: Path = _HERE / "__pycache__",
         cc: str = "cc") -> ctypes.CDLL:
    """Build (once) and load the kernel library, checked against NumPy."""
    try:
        lib = ctypes.CDLL(str(_build(Path(source), Path(cache_dir), cc)))
    except OSError as exc:
        raise ImportError(f"cannot build or load the C kernel: {exc}") from exc
    lib.count_hits.argtypes = [_PTR, _I64, _I64, ctypes.c_int, ctypes.c_double, _HITS]
    lib.count_hits.restype = None
    lib.chunk_counts.argtypes = [_PTR, _PTR, _PTR, ctypes.POINTER(ctypes.c_int), _I64, _I64,
                                 _PTR, _I64, ctypes.c_int, ctypes.c_double, _HITS]
    lib.chunk_counts.restype = None
    lib.read_tables.argtypes = []
    lib.read_tables.restype = ctypes.c_int
    lib.cpu_wide_flags.argtypes = []
    lib.cpu_wide_flags.restype = ctypes.c_int
    lib.set_philox_routine.argtypes = [ctypes.c_int]
    lib.set_philox_routine.restype = ctypes.c_int
    if lib.read_tables() != 0:
        raise ImportError("cannot read the ziggurat tables back from NumPy's exponential")
    _self_check(lib)
    return lib


_lib = load()
# the CPU flags the "avx512" routine needs that this CPU lacks
MISSING_WIDE_FLAGS = tuple(flag for bit, flag in enumerate(WIDE_CPU_FLAGS)
                           if not _lib.cpu_wide_flags() >> bit & 1)
PHILOX_ROUTINE = _set_routine(_lib, ROUTINES[-1])  # the routine chunk_counts runs


def count_hits(p: np.ndarray, family: int, nu: float) -> int:
    """Count rows of the (m, d) probability matrix falling in the region."""
    mask = _mask((family,))
    p = np.ascontiguousarray(p, dtype=np.float64)
    check_rows(p)
    hits = _HITS()
    _lib.count_hits(p.ctypes.data, p.shape[0], p.shape[1], mask, nu, hits)
    return hits[family]


def chunk_counts(bitgen: np.random.BitGenerator, m: int, buf: np.ndarray, families,
                 nu: float) -> tuple[int, ...]:
    """Hits of each family code in ``families`` among the same m points uniform
    on the simplex, drawn once from ``bitgen``, a Philox bit generator.

    The points are ``sample_simplex``'s, drawn in blocks through ``buf``, a
    C-contiguous (rows, d) float64 array that holds the last block's
    normalised rows on return; ``bitgen`` then continues as it would after
    NumPy's draw.  d must be one of ``ROW_WIDTHS``.
    """
    mask = _mask(families)
    if buf.ndim != 2 or buf.dtype != np.float64 or not buf.flags.c_contiguous or not len(buf):
        raise ValueError("buf must be a non-empty C-contiguous (rows, d) float64 array")
    if buf.shape[1] not in ROW_WIDTHS:
        raise ValueError(f"row width must be one of {ROW_WIDTHS}, got {buf.shape[1]}")
    hits = _run(_lib, bitgen, m, buf, mask, nu)
    return tuple(hits[family] for family in families)

