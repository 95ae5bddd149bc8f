"""The C Monte-Carlo kernel: draws, normalises and counts a chunk in one pass.

On first import, ``_mc_kernel.c`` is compiled with ``cc`` against NumPy's
own C random library (``numpy/random/lib/libnpyrandom.a``) into this
package's ``__pycache__``, under a name keyed by the source, the NumPy
version and the platform; later imports load that file.  Before use, the
kernel's normalised rows are checked bit for bit against NumPy's
draw-and-divide.  Any failure (no compiler, an unwritable directory, a
missing library, a mismatch) raises ImportError, and ``volume`` keeps the
NumPy path in ``_mc_kernel_py``.  Calls go through ctypes, which releases
the GIL, so chunks on a thread pool run in parallel.
"""

from __future__ import annotations

import ctypes
import os
import sysconfig
import zlib
from pathlib import Path

import numpy as np

from ._mc_kernel_py import FAMILY_GENUINE, FAMILY_MERMIN
from ._mc_kernel_py import count_hits as _numpy_count_hits

BACKEND = "c"

_HERE = Path(__file__).resolve().parent
_I64, _PTR = ctypes.c_int64, ctypes.c_void_p
_HITS = _I64 * (FAMILY_MERMIN + 1)  # one counter per family code


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
    tag = f"{np.__version__} {sysconfig.get_platform()}".encode()
    key = zlib.crc32(source.read_bytes() + tag)  # hashlib costs ms to import
    lib = cache_dir / f"_mc_kernel-{key:08x}.so"
    if lib.exists():
        return lib
    import subprocess
    import tempfile

    cache_dir.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=lib.stem, suffix=".tmp", dir=cache_dir)
    os.close(fd)
    cmd = [cc, "-O2", "-ffp-contract=off", "-shared", "-fPIC", f"-I{np.get_include()}",
           str(source), f"-L{Path(np.__file__).parent / 'random' / 'lib'}", "-lnpyrandom",
           "-lm", "-o", tmp]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True)
        if done.returncode != 0:
            raise ImportError(f"cannot compile {source.name}: {done.stderr.strip()}")
        os.replace(tmp, lib)  # atomic: a concurrent import sees no partial file
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def _self_check(lib: ctypes.CDLL) -> None:
    """Raise ImportError unless the kernel draws NumPy's normalised rows bit for
    bit and counts them as the NumPy path does: a NumPy release could change
    its draw or its summation order."""
    m, rows = 35, 16  # two full blocks and a ragged one of 3 rows
    for d in (4, 64):
        buf, bitgen, hits = np.empty((rows, d)), np.random.Philox(d), _HITS()  # alive in the call
        lib.chunk_counts(bitgen.ctypes.bit_generator, m, d, buf.ctypes.data, rows,
                         _mask(range(len(hits))), 0.0, hits)
        e = np.random.Generator(np.random.Philox(d)).standard_exponential((m, d))
        e /= e.sum(axis=1, keepdims=True)
        last = m % rows
        if not np.array_equal(buf[:last].view(np.uint64), e[-last:].view(np.uint64)):
            raise ImportError(f"C kernel rows differ from NumPy's at d = {d}")
        if list(hits) != [_numpy_count_hits(e, code, 0.0) for code in range(len(hits))]:
            raise ImportError(f"C kernel hit counts differ from NumPy's at d = {d}")


def load(source: Path = _HERE / "_mc_kernel.c", cache_dir: Path = _HERE / "__pycache__",
         cc: str = "cc") -> ctypes.CDLL:
    """Build (once) and load the kernel library, checked against NumPy."""
    try:
        lib = ctypes.CDLL(str(_build(Path(source), Path(cache_dir), cc)))
    except OSError as exc:
        raise ImportError(f"cannot build or load the C kernel: {exc}") from exc
    lib.count_hits.argtypes = [_PTR, _I64, _I64, ctypes.c_int, ctypes.c_double, _HITS]
    lib.count_hits.restype = None
    lib.chunk_counts.argtypes = [_PTR, _I64, _I64, _PTR, _I64, ctypes.c_int, ctypes.c_double,
                                 _HITS]
    lib.chunk_counts.restype = None
    _self_check(lib)
    return lib


_lib = load()


def count_hits(p: np.ndarray, family: int, nu: float) -> int:
    """Count rows of the (m, d) probability matrix falling in the region."""
    mask = _mask((family,))
    p = np.ascontiguousarray(p, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError(f"need an (m, d) matrix, got shape {p.shape}")
    hits = _HITS()
    _lib.count_hits(p.ctypes.data, p.shape[0], p.shape[1], mask, nu, hits)
    return hits[family]


def chunk_counts(bitgen: np.random.BitGenerator, m: int, buf: np.ndarray, families,
                 nu: float) -> tuple[int, ...]:
    """Hits of each family code in ``families`` among the same m points uniform
    on the simplex, drawn once from ``bitgen``.

    The points are ``sample_simplex``'s, drawn in blocks through ``buf``, a
    C-contiguous (rows, d) float64 array that holds the last block's
    normalised rows on return.
    """
    mask = _mask(families)
    if buf.ndim != 2 or buf.dtype != np.float64 or not buf.flags.c_contiguous or not len(buf):
        raise ValueError("buf must be a non-empty C-contiguous (rows, d) float64 array")
    hits = _HITS()
    _lib.chunk_counts(bitgen.ctypes.bit_generator, m, buf.shape[1], buf.ctypes.data,
                      buf.shape[0], mask, nu, hits)
    return tuple(hits[family] for family in families)


def chunk_hits(bitgen: np.random.BitGenerator, m: int, buf: np.ndarray, family: int,
               nu: float) -> int:
    """Hits of one family code among m points drawn as :func:`chunk_counts` draws them."""
    return chunk_counts(bitgen, m, buf, (family,), nu)[0]
