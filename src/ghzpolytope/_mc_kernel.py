"""The C Monte-Carlo kernel: draws, normalises and counts a chunk in one pass.

``volume`` imports this module at the first estimate, or the first read of
``KERNEL_BACKEND``, not at package import.  If no library is cached yet,
that import compiles ``_mc_kernel.c`` with ``cc`` against NumPy's
own C random library (``numpy/random/lib/libnpyrandom.a``) into this
package's ``__pycache__``, under a name keyed by the source, the compile
command, the NumPy version and the platform; later imports load that file.

The kernel runs the chunk's Philox4x64-10 stream itself, from the state
that ``bitgen.state`` gives, and writes nothing back: the bit generator is
left as it was given, where NumPy's kernel advances it.  The estimator
drops each chunk's bit generator after its one call, so nothing reads the
advanced state.  The counter must fit one 64-bit word below 2^63, so that
no block a chunk draws (fewer than 2^21) carries into a second word; a
fresh ``Philox`` starts at 0.  The kernel takes the ziggurat's fast path
inline and hands the rare other draws (about 2 %) to NumPy's
``random_standard_exponential``.  NumPy keeps the ziggurat's tables
private, so at load the kernel reads them back by probing that routine
(256 x 54 calls).

The stream is one buffer of 32 values: eight consecutive Philox blocks in
stream order, tracked by the counter of the last.  NumPy's block and the
position in it are taken over at the start of a chunk.  One of two
routines, fixed at load from the CPU's flags (``PHILOX_ROUTINE``), refills
and reads the buffer; no later call changes it.  ``"scalar"`` computes
the eight blocks one after another and reads one value at a time.
``"avx512"``, on a CPU with AVX-512F and AVX-512DQ, computes them side by
side and takes the fast path on groups of up to eight values: it stores a
group's values up to the first one that leaves the fast path, replays
that draw, and starts the next group after it.  The draws replayed through NumPy's routine read
their extra values from the buffer too, refilled by the scalar routine,
which writes the values the wide one would.  Rows are summed in NumPy's
order (left to right at d = 4, eight values at a time above it) only at
the widths the estimator draws, d = 2^n with 2 <= n <= ``MC_MAX_QUBITS``,
and :func:`chunk_counts` refuses any other.  The rows of a narrower width
are the first values of the widest width's draw, as their own draw gives.

One counter, one row loop that writes each region's test once, counts
every width's rows on the exponentials as drawn, each as it would count
once normalised, with only the work its families need; only the rows
left in ``buf`` at the end are normalised.  A row is genuine if its
largest value divided by the row sum exceeds 1/2, which is the test on
the normalised row since division by the sum is correctly rounded and
monotone, and the Mermin gap needs only its two divisions.  The fully
biseparable test folds the flip pairs' raw differences and sums into D =
max |e_i - e_~i| and S = min (e_i + e_~i).  With s the row sum, fl(D -
S) / s is within 8u (u = 2^-53) of maxdiff - minsum on the normalised
row, so |fl(D - S)| >= 2^-47 s decides the row by its sign.  A row
nearer the boundary is normalised as NumPy normalises it and folded.
The ``"avx512"`` routine, and :func:`count_hits` in a library that runs
it, fold eight flip pairs at a time at d >= 16.  :func:`count_hits` runs
the counter on given nonnegative rows, counted as normalised, where the
NumPy kernel's ``count_hits`` counts rows as given.

The routine fixed at load, the only one a process counts with, is
checked then bit for bit against ``_mc_kernel_py.chunk_counts``, the
NumPy kernel: rows and hit counts, from a fresh stream and from ones
started mid-buffer.  Its :func:`count_hits` must also give the NumPy
kernel's counts on rows exactly on the region boundaries
(``BOUNDARY_HITS``), times 3, which normalise back to them bit for bit:
there a comparison or a flip pairing gone wrong shows and random rows,
which never tie, cannot show it, and on the ties, whose raw gap is 0,
the counter must take its fallback.  Any failure (no compiler, an
unwritable directory, a missing library, a failed probe, a mismatch)
raises ImportError, and ``volume`` keeps the NumPy kernel.  Calls go
through ctypes, which releases the GIL, so chunks on a thread pool run
in parallel.
"""

from __future__ import annotations

import ctypes
import os
import sysconfig
import zlib
from pathlib import Path

import numpy as np

from ._mc_kernel_py import FAMILY_GENUINE, FAMILY_MERMIN, check_rows, check_widths
from ._mc_kernel_py import chunk_counts as _numpy_chunk_counts
from .indices import MC_MAX_QUBITS
from .mermin import mermin_threshold

BACKEND = "c"

_HERE = Path(__file__).resolve().parent
_I64, _PTR = ctypes.c_int64, ctypes.c_void_p
_FAMILIES = FAMILY_MERMIN + 1
_HITS = _I64 * _FAMILIES  # one counter per family code
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
ROUTINES = ("scalar", "avx512")  # read_tables' codes 0 and 1
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
         families, nus) -> dict[int, tuple[int, ...]]:
    """The kernel's hits of each family code in ``families``, ``{d: hits}``,
    among m points drawn from ``bitgen`` through ``buf`` at each width d of
    the ``{d: nu}`` mapping ``nus``; ``bitgen`` is only read."""
    mask = _mask(families)
    state = bitgen.state
    if state["bit_generator"] != "Philox" or state["has_uint32"]:
        raise ValueError("need a Philox bit generator with no buffered 32-bit value")
    philox = state["state"]
    if state["buffer_pos"] < 0:
        raise ValueError(f"need a Philox buffer_pos >= 0, got {state['buffer_pos']}")
    counter = philox["counter"]
    if counter[1] or counter[2] or counter[3] or counter[0] >> 63:
        raise ValueError(f"need a Philox counter below 2^63, got {[int(c) for c in counter]}")
    k = len(nus)
    hits = (_I64 * (_FAMILIES * k))()
    # NumPy's draw takes any position past its 4-value buffer as a spent buffer
    lib.chunk_counts(philox["key"].ctypes.data, int(counter[0]), state["buffer"].ctypes.data,
                     min(state["buffer_pos"], 4), m, buf.shape[1], buf.ctypes.data,
                     buf.shape[0], k, (_I64 * k)(*nus), (ctypes.c_double * k)(*nus.values()),
                     mask, hits)
    return {d: tuple(hits[_FAMILIES * j + family] for family in families)
            for j, d in enumerate(nus)}


def _boundary_rows(n: int) -> np.ndarray:
    """Rows at d = 2^n that sit exactly on the region boundaries, where a <,
    <= or > swap, or a flip pair folded with the wrong partner, changes a
    count.  With j = 1, 2, 4, ..., d/2: the B_n vertices (v_0 + v_j)/2
    (max p = 1/2); the F_n diagonal midpoints (v_j-1 + v_d-j)/2, and the
    cube vertices that take from every flip pair the index whose bit k is
    0, or 1 (maxdiff = minsum); the points nu v_0 + (1 - nu) v_j on the
    Mermin hyperplane, with the midway point of the edge to v_d-1
    (gap = nu_n); and, just outside F_n, the cube vertex 0, 1, ..., d/2 - 1
    with its index 0 moved to d - 2 (minsum = 0 < maxdiff = 2/d), which a
    fold that loses pair 0's sum among larger ones takes as inside.  Every
    value is 0, 1/2, 2/d, nu_n or a sum of two of those, so each row is
    exact.  Built with item and slice assignments only, which cost little
    in a fresh process."""
    d, nu = 1 << n, mermin_threshold(n)
    js = [1 << k for k in range(n)]
    # (i, j, p_i, p_j): the rows with two nonzero values
    edges = ([(0, j, 0.5, 0.5) for j in js] + [(j - 1, d - j, 0.5, 0.5) for j in js]
             + [(0, j, nu, 1.0 - nu) for j in js] + [(0, d - 1, 0.5 + 0.5 * nu, 0.5 - 0.5 * nu)])
    rows = np.zeros((len(edges) + 2 * n + 1, d))
    for r, (i, j, p_i, p_j) in enumerate(edges):
        rows[r, i], rows[r, j] = p_i, p_j
    cube = rows[len(edges):]
    for k in range(n):  # i and d-1-i differ in bit k
        for bit in (0, 1):
            cube[2 * k + bit].reshape(-1, 2, 1 << k)[:, bit] = 2.0 / d
    cube[-1, 1:d // 2] = cube[-1, d - 2] = 2.0 / d
    return rows


# NumPy's counts (genuine, bisep_minus_fbi, fbi, mermin) on _boundary_rows(n)
# with nu = nu_n.  The rows are exact and each region's inequality compares
# exact values, so, unlike NumPy's draws, these cannot change with its
# release; a test checks them against _mc_kernel_py.count_hits.  Counting
# them there at load would take one NumPy call per flip pair and family,
# about 0.5 ms.
BOUNDARY_HITS = {3: (1, 7, 9, 0), 4: (1, 9, 12, 0), 6: (7, 7, 18, 6)}


def _count(lib: ctypes.CDLL, x: np.ndarray, mask: int, nu: float) -> _HITS:
    """The C ``count_hits`` on the float64 rows of ``x``."""
    hits = _HITS()
    lib.count_hits(x.ctypes.data, x.shape[0], x.shape[1], mask, nu, hits)
    return hits


def _self_check(lib: ctypes.CDLL, routine: str) -> None:
    """Raise ImportError unless the kernel, on ``routine``, the one it runs,
    writes the NumPy kernel's rows bit for bit and gives its hit counts: a
    NumPy release could change its draw or its summation order.  Its
    count_hits must also give the NumPy kernel's counts on the boundary rows
    at d = 8, 16 and 64 (``BOUNDARY_HITS``) times 3, where random rows never
    tie and so cannot show a comparison or a pairing gone wrong."""
    # (nus, families, raw draws skipped, m, rows).  The first two draw 35
    # rows in blocks of 16: two full blocks and a ragged one of 3 rows.
    # d = 64 starts mid-buffer, and its 2240 values leave the ziggurat's
    # fast path often enough to take 56 more raw draws.  It also counts
    # the rows of width 4 and 32 those values start with, the latter
    # ending 3 rows into the second block; bisep_minus_fbi reads both
    # pair predicates, which keeps NumPy's side of the check as short
    # as with one width.  The third, with no pair family, draws 19 rows of
    # 16 in blocks of 8, two full and a ragged one of 3 rows, which leaves
    # 5 rows of the block before in the buffer; its rows of width 4 give
    # genuine hits.
    configs = (({4: 0.0}, (0, 1, 2, 3), 0, 35, 16),
               ({64: 0.0, 4: 0.25, 32: 0.03125}, (1, 3), 3, 35, 16),
               ({16: 0.0, 4: 0.25}, (0, 3), 1, 19, 8))
    for nus, families, skip, m, rows in configs:
        d = max(nus)
        where = f"at d = {d} ({routine} routine)"
        bitgen, buf, ref = np.random.Philox(d), np.empty((rows, d)), np.empty((rows, d))
        bitgen.random_raw(skip)
        hits = _run(lib, bitgen, m, buf, families, nus)  # only reads bitgen
        ref_hits = _numpy_chunk_counts(bitgen, m, ref, families, nus)  # m > rows: all rows written
        if not np.array_equal(buf.view(np.uint64), ref.view(np.uint64)):
            raise ImportError(f"C kernel rows differ from NumPy's {where}")
        if hits != ref_hits:
            raise ImportError(f"C kernel hit counts differ from NumPy's {where}")
    # the boundary rows times 3 normalise back to them bit for bit, and their
    # pair gaps are 0 or far from it: the counter must decide the ties by
    # normalising them
    for n, ref_hits in BOUNDARY_HITS.items():
        if tuple(_count(lib, 3.0 * _boundary_rows(n), _mask(range(_FAMILIES)),
                        mermin_threshold(n))) != ref_hits:
            raise ImportError(f"C kernel hit counts differ from NumPy's on the boundary rows "
                              f"at d = {1 << n} ({routine} routine)")


def load(source: Path = _HERE / "_mc_kernel.c", cache_dir: Path = _HERE / "__pycache__",
         cc: str = "cc") -> tuple[ctypes.CDLL, str]:
    """Build (once) and load the kernel library, checked against NumPy; the
    library and the routine, of ``ROUTINES``, that it fixed at load."""
    try:
        lib = ctypes.CDLL(str(_build(Path(source), Path(cache_dir), cc)))
    except OSError as exc:
        raise ImportError(f"cannot build or load the C kernel: {exc}") from exc
    lib.count_hits.argtypes = [_PTR, _I64, _I64, ctypes.c_int, ctypes.c_double, _HITS]
    lib.count_hits.restype = None
    lib.chunk_counts.argtypes = [_PTR, ctypes.c_uint64, _PTR, ctypes.c_int, _I64, _I64,
                                 _PTR, _I64, ctypes.c_int, ctypes.POINTER(_I64),
                                 ctypes.POINTER(ctypes.c_double), ctypes.c_int,
                                 ctypes.POINTER(_I64)]
    lib.chunk_counts.restype = None
    lib.read_tables.argtypes = []
    lib.read_tables.restype = ctypes.c_int
    code = lib.read_tables()
    if code < 0:
        raise ImportError("cannot read the ziggurat tables back from NumPy's exponential")
    _self_check(lib, ROUTINES[code])
    return lib, ROUTINES[code]


_lib, PHILOX_ROUTINE = load()  # PHILOX_ROUTINE: the routine chunk_counts runs


def count_hits(e: np.ndarray, family: int, nu: float) -> int:
    """Count rows of the (m, d) matrix ``e`` of nonnegative values falling
    in the region once normalised as the NumPy kernel normalises them,
    without normalising them, with the counter ``chunk_counts`` runs on the
    exponentials as drawn (d one of ``ROW_WIDTHS``).  The NumPy kernel's
    ``count_hits`` counts its rows as given."""
    e = np.ascontiguousarray(e, dtype=np.float64)
    check_rows(e)
    if e.shape[1] not in ROW_WIDTHS:
        raise ValueError(f"need an (m, d) matrix with d one of {ROW_WIDTHS}, got shape {e.shape}")
    return _count(_lib, e, _mask((family,)), nu)[family]


def chunk_counts(bitgen: np.random.BitGenerator, m: int, buf: np.ndarray, families,
                 nus) -> dict[int, tuple[int, ...]]:
    """``_mc_kernel_py.chunk_counts`` in one pass: the same hits at each width
    of ``nus`` and the same rows left in ``buf``, but ``bitgen`` is left as
    it was given, not advanced.

    ``bitgen`` must be a Philox bit generator whose counter is below 2^63
    (a fresh one's is 0), ``buf`` a C-contiguous (rows, D) float64 array
    and every width in ``nus`` one of ``ROW_WIDTHS``, the widest D.
    """
    if buf.ndim != 2 or buf.dtype != np.float64 or not buf.flags.c_contiguous or not len(buf):
        raise ValueError("buf must be a non-empty C-contiguous (rows, d) float64 array")
    for d in nus:
        if d not in ROW_WIDTHS:
            raise ValueError(f"row width must be one of {ROW_WIDTHS}, got {d}")
    check_widths(buf, nus)
    return _run(_lib, bitgen, m, buf, families, nus)

