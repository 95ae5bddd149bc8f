import contextlib
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from ghzpolytope import _mc_kernel_py, volume
from ghzpolytope.errors import InvalidArgumentError, UnsupportedSizeError
from ghzpolytope.indices import MC_MAX_SAMPLES, MC_MAX_THREADS
from ghzpolytope.mermin import mermin_hyperplane_points, mermin_threshold
from ghzpolytope.polytopes import iter_extreme_points
from ghzpolytope.volume import (
    _BLOCK_BYTES,
    BISEP_MINUS_FBI,
    FBI,
    GENUINE,
    KERNEL_BACKEND,
    MC_FAMILIES,
    MERMIN,
    RVR_LIMITS,
    hull_volume,
    mc_relative_volume,
    mc_relative_volumes_by_n,
    rel_vol_exact,
    rvr,
    sample_simplex,
    vol_exact,
)

try:
    from ghzpolytope import _mc_kernel

    HAVE_EXTENSION = True
except ImportError:
    HAVE_EXTENSION = False


# ------------------------------------------------------------ closed forms


def test_hull_volume_triangle():
    # q=0: plain regular simplex; equilateral triangle of side s
    s = 1.7
    assert hull_volume(2, s, 0, 1.0) == pytest.approx(np.sqrt(3) * s**2 / 4)


def test_hull_volume_right_triangle():
    ell, length = 0.8, 2.5
    assert hull_volume(1, ell, 1, length) == pytest.approx(0.5 * ell * length)


def test_hull_volume_full_simplex():
    for n in (2, 3):
        d = 2**n
        assert hull_volume(d - 1, np.sqrt(2), 0, 1.0) == pytest.approx(
            np.sqrt(d) / math.factorial(d - 1)
        )


def test_hull_volume_reproduces_fbi_volume():
    for n in (2, 3, 4):
        d = 2**n
        cube_vol = (2 * np.sqrt(2) / d) ** (d // 2)
        got = hull_volume(d // 2 - 1, 1.0, d // 2, cube_vol)
        assert got == pytest.approx(vol_exact(FBI, n), rel=1e-12)


def test_vol_exact_values():
    assert vol_exact("ghz", 2) == pytest.approx(1 / 3)
    # simplex-volume oracle: sqrt(d)/(d-1)! for side sqrt(2)
    for n in (2, 3, 4):
        d = 2**n
        assert vol_exact("ghz", n) == pytest.approx(np.sqrt(d) / math.factorial(d - 1))
    # fbi must equal rel_fbi * vol_ghz = 1/2 * 1/3; the n=2 degeneracy
    # (B_2 = F_2, relative volume 1/2) forces 1/6
    assert vol_exact(FBI, 2) == pytest.approx(1 / 6)
    assert vol_exact(FBI, 2) == pytest.approx(0.5 * vol_exact("ghz", 2))
    assert vol_exact(MERMIN, 3) == pytest.approx(0.5**7 * np.sqrt(8) / (2 * math.factorial(7)))
    assert vol_exact(GENUINE, 3) == pytest.approx(
        8 * np.sqrt(8) / (2**7 * math.factorial(7))
    )


def test_rel_vol_values():
    assert rel_vol_exact(GENUINE, 2) == 0.5
    assert rel_vol_exact(GENUINE, 3) == 0.0625
    assert rel_vol_exact(FBI, 3) == 0.09375
    assert rel_vol_exact(BISEP_MINUS_FBI, 2) == 0.0
    assert rel_vol_exact(MERMIN, 3) == 0.00390625
    assert rel_vol_exact(MERMIN, 2) == 0.0


def test_trisection_sums_to_one_exactly():
    for n in range(2, 21):
        total = (
            rel_vol_exact(GENUINE, n)
            + rel_vol_exact(BISEP_MINUS_FBI, n)
            + rel_vol_exact(FBI, n)
        )
        assert total == 1.0


def test_rvr_values():
    assert rvr(GENUINE, 2) == pytest.approx(0.5 * 4 ** (1 / 3))
    for n in (2, 3, 4, 6):
        d = 2**n
        assert rvr(GENUINE, n) == pytest.approx(0.5 * d ** (1 / (d - 1)))
        assert rvr(FBI, n) == pytest.approx(rel_vol_exact(FBI, n) ** (1 / (d - 1)))
    # n=3: ((1-nu)^7 / 2)^(1/7) with nu = 1/2
    assert rvr(MERMIN, 3) == pytest.approx(0.5 * 2 ** (-1 / 7))
    assert rvr(MERMIN, 2) == 0.0


def test_rvr_limits_at_twenty():
    for fam in (GENUINE, BISEP_MINUS_FBI, FBI):
        assert abs(rvr(fam, 20) - RVR_LIMITS[fam]) < 0.02
    assert abs(rvr(MERMIN, 20) - 1.0) < 0.02


def test_rvr_monotone_approach():
    for fam in MC_FAMILIES:
        errs = [abs(rvr(fam, n) - RVR_LIMITS[fam]) for n in range(6, 21)]
        assert all(a >= b - 1e-15 for a, b in zip(errs, errs[1:]))


# Quadrature oracles: the pair sums s_i = p_i + p_~i of a uniform point are
# Dirichlet(2, ..., 2) over the h = d/2 flip pairs, and given them each pair's
# split is uniform, so each relative volume is a one-dimensional integral that
# SciPy evaluates without the closed forms.  They stop at n = 10: at n = 11
# rel_vol_exact's fbi value, (d/2)! / (d/2)^(d/2) ~ e^-1024, underflows to 0.
QUAD_QUBITS = range(2, 11)


def _log_pair_sum_pdf(s, h):
    """Log density of one pair sum, Beta(2, 2h - 2)."""
    b = 2 * h - 2
    return math.log(s) + (b - 1) * math.log1p(-s) + math.lgamma(b + 2) - math.lgamma(b)


def _quad(f, lo, hi, **kw):
    return integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200, **kw)[0]


def _genuine_by_quadrature(n):
    # at most one pair sum exceeds 1/2, and a point is genuine with
    # probability 2 - 1/s given that pair sum s; the density is scaled by
    # 2^(2h-3) inside, since (1 - s)^(2h-3) is subnormal near s = 1/2 at n = 10
    h = 2 ** (n - 1)
    k = 2 * h - 3
    val = _quad(lambda s: (2 - 1 / s) * math.exp(_log_pair_sum_pdf(s, h) + k * math.log(2)), 0.5, 1)
    return math.ldexp(h * val, -k)


def _mermin_by_quadrature(n):
    # p_0 - p_~0 > nu with probability (s - nu) / (2s) given s = s_0
    h, nu = 2 ** (n - 1), mermin_threshold(n)
    return _quad(lambda s: (s - nu) / (2 * s) * math.exp(_log_pair_sum_pdf(s, h)), nu, 1)


def _log_fbi_by_quadrature(n):
    # E[prod s_min / s_i] = (2h-1)!/(h-1)! h int_0^{1/h} t^(h-1) (1 - ht)^(h-1) dt,
    # from P(s_min > t) = (1 - ht)^(h-1); the integrand is divided by its value
    # at the peak t = 1/(2h), a break point, so it neither under- nor overflows
    h = 2 ** (n - 1)
    peak = 1 / (2 * h)

    def log_g(t):
        return (h - 1) * (math.log(t) + math.log1p(-h * t))

    val = _quad(lambda t: math.exp(log_g(t) - log_g(peak)), 0, 1 / h, points=[peak])
    return math.lgamma(2 * h) - math.lgamma(h) + math.log(h) + log_g(peak) + math.log(val)


@pytest.mark.parametrize("n", QUAD_QUBITS)
def test_closed_forms_match_pair_sum_quadrature(n):
    genuine = _genuine_by_quadrature(n)
    log_fbi = _log_fbi_by_quadrature(n)
    assert genuine == pytest.approx(rel_vol_exact(GENUINE, n), rel=1e-12, abs=0)
    assert _mermin_by_quadrature(n) == pytest.approx(rel_vol_exact(MERMIN, n), rel=1e-12, abs=0)
    assert abs(log_fbi - math.log(rel_vol_exact(FBI, n))) <= 1e-11
    assert 1 - genuine - math.exp(log_fbi) == pytest.approx(
        rel_vol_exact(BISEP_MINUS_FBI, n), rel=1e-12, abs=1e-15)


def test_quadrature_oracles_stop_where_fbi_underflows():
    assert rel_vol_exact(FBI, max(QUAD_QUBITS)) > 0.0
    assert rel_vol_exact(FBI, max(QUAD_QUBITS) + 1) == 0.0


def test_invalid_families():
    with pytest.raises(InvalidArgumentError):
        rel_vol_exact("nope", 3)
    with pytest.raises(InvalidArgumentError):
        rvr(GENUINE, 1)
    with pytest.raises(UnsupportedSizeError):
        rel_vol_exact(GENUINE, 21)


@pytest.mark.parametrize("closed_form", [rel_vol_exact, vol_exact, rvr])
@pytest.mark.parametrize("n", ["3", 3.0, None, True, 1.5])
def test_closed_forms_refuse_non_integer_qubit_counts(closed_form, n):
    with pytest.raises(InvalidArgumentError, match="qubit count"):
        closed_form(FBI, n)


# ------------------------------------------------------------- Monte Carlo


def test_sampler_marginal_means():
    rng = np.random.default_rng(77)
    d = 8
    m = 200_000
    p = sample_simplex(rng, m, d)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    sigma = np.sqrt((1 / d) * (1 - 1 / d) / m)  # crude scale bound
    assert np.abs(p.mean(axis=0) - 1 / d).max() < 4 * sigma


@pytest.mark.parametrize("family", MC_FAMILIES)
def test_mc_matches_exact_n2_n3(family):
    for n in (2, 3):
        exact = rel_vol_exact(family, n)
        report = mc_relative_volume(family, n, samples=200_000, seed=123)
        band = 4 * max(report.mc_stderr, 1e-6)
        assert abs(report.mc_estimate - exact) <= band
        assert report.exact == exact
        assert report.samples == 200_000
        assert report.seed == 123


def test_mc_deterministic_across_threads():
    kwargs = dict(samples=150_000, seed=9)
    single = mc_relative_volume(GENUINE, 3, threads=1, **kwargs)
    multi = mc_relative_volume(GENUINE, 3, threads=4, **kwargs)
    assert single.mc_estimate == multi.mc_estimate


def test_mc_deterministic_across_backends():
    kwargs = dict(samples=120_000, seed=31)
    for family in MC_FAMILIES:
        fallback = mc_relative_volume(family, 3, kernel=_mc_kernel_py, **kwargs)
        default = mc_relative_volume(family, 3, **kwargs)
        assert fallback.mc_estimate == default.mc_estimate


@pytest.mark.skipif(not HAVE_EXTENSION, reason="compiled kernel not built")
def test_kernels_agree_rowwise():
    rng = np.random.default_rng(5)
    p = sample_simplex(rng, 50_000, 16)
    for code in range(4):
        nu = 0.5
        assert _mc_kernel.count_hits(p, code, nu) == _mc_kernel_py.count_hits(p, code, nu)


# Seeded hit counts of both kernels, for any thread count.  A change to a
# region decision or to the sampler changes them.  50_000 samples in chunks
# of 2^14 (set here in place of the default 2^16) leave a partial last chunk
# of 848 rows.
PINNED_MC_HITS = {
    3: {GENUINE: 3029, BISEP_MINUS_FBI: 42293, FBI: 4678, MERMIN: 186},
    4: {GENUINE: 26, BISEP_MINUS_FBI: 49860, FBI: 114, MERMIN: 2},
    6: {GENUINE: 0, BISEP_MINUS_FBI: 50000, FBI: 0, MERMIN: 0},
}


@pytest.mark.parametrize("n", sorted(PINNED_MC_HITS))
@pytest.mark.parametrize("threads", [1, 2])
def test_mc_hits_pinned(n, threads, monkeypatch):
    monkeypatch.setattr(volume, "DEFAULT_CHUNK", 1 << 14)
    for family, expected in PINNED_MC_HITS[n].items():
        for kernel in (None, _mc_kernel_py):
            report = mc_relative_volume(family, n, 50_000, seed=1000 + n, threads=threads, kernel=kernel)
            assert round(report.mc_estimate * report.samples) == expected, (family, kernel)


# Uniform samples at n = 6 almost never land in the genuine, FBI or Mermin
# regions, so the kernel is also pinned on rows pushed towards the vertices
# (cubed and renormalized) and towards the centre (a ramp to the uniform state).
# Family codes 0..3: genuine, bisep_minus_fbi, fbi, mermin.
PINNED_ROW_HITS = {
    3: [14720, 12126, 13154, 1575],
    4: [9706, 20154, 10140, 567],
    6: [1902, 30965, 7133, 165],
}


@pytest.mark.parametrize("n", sorted(PINNED_ROW_HITS))
def test_count_hits_pinned_on_biased_rows(n):
    d = 2**n
    p = sample_simplex(np.random.Generator(np.random.Philox(2000 + n)), 20_000, d)
    cubed = p * p * p
    cubed /= cubed.sum(axis=1, keepdims=True)
    t = np.linspace(0.0, 1.0, len(p))[:, None]
    rows = np.concatenate([cubed, t * p + (1.0 - t) / d])
    got = [_mc_kernel_py.count_hits(rows, code, mermin_threshold(n)) for code in range(4)]
    assert got == PINNED_ROW_HITS[n]


@pytest.mark.parametrize("n", [3, 4])
def test_count_hits_ties_on_region_boundaries(n):
    # exact ties: the biseparable vertices (max p = 1/2) are not genuine, the
    # FBI vertices (maxdiff = minsum) are FBI, the Mermin hyperplane points
    # (gap = nu) do not violate
    bisep = np.array([s.p for s in iter_extreme_points("BISEP", n)])
    fbi = np.array([s.p for s in iter_extreme_points("FBI", n)])
    mermin = np.array([s.p for s in mermin_hyperplane_points(n)])
    nu = mermin_threshold(n)
    for kernel in [_mc_kernel_py] + ([_mc_kernel] if HAVE_EXTENSION else []):
        assert kernel.count_hits(bisep, _mc_kernel_py.FAMILY_GENUINE, nu) == 0
        assert kernel.count_hits(fbi, _mc_kernel_py.FAMILY_FBI, nu) == len(fbi)
        assert kernel.count_hits(mermin, _mc_kernel_py.FAMILY_MERMIN, nu) == 0


# ------------------------------------------------ blocked chunks, same bits


def _philox(seed):
    return np.random.Generator(np.random.Philox(seed))


def assert_same_bits(a, b):
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("d", [4, 8, 16, 64])
def test_sample_simplex_in_blocks_equals_one_draw(d):
    rows = _BLOCK_BYTES // (8 * d)
    for m in (3 * rows + 17, rows // 3):  # a ragged last block; a chunk under one block
        whole = sample_simplex(_philox(d), m, d)
        rng = _philox(d)
        buf = np.empty((min(m, rows), d))
        blocks = []
        for start in range(0, m, len(buf)):
            b = min(len(buf), m - start)
            blocks.append(sample_simplex(rng, b, d, buf[:b]).copy())
        assert_same_bits(np.concatenate(blocks), whole)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_pair_folds_equal_rowwise_reductions(n):
    d = 2**n
    p = sample_simplex(_philox(n), 5000, d)
    rows = [p, p * p / (p * p).sum(axis=1, keepdims=True)]
    if n <= 4:
        rows += [np.array([s.p for s in iter_extreme_points("BISEP", n)])]
        rows += [np.array([s.p for s in iter_extreme_points("FBI", n)])]
    for r in rows:
        lo, hi = r[:, : d // 2], r[:, ::-1][:, : d // 2]
        maxdiff, minsum = _mc_kernel_py.pair_reductions(r)
        assert_same_bits(maxdiff, np.abs(lo - hi).max(-1))
        assert_same_bits(minsum, (lo + hi).min(-1))
        assert_same_bits(_mc_kernel_py.max_prob(r), r.max(-1))


def _rowwise_hits(p, family, nu):
    maxp = p.max(axis=1)
    h = p.shape[1] // 2
    maxdiff = np.abs(p[:, :h] - p[:, ::-1][:, :h]).max(axis=1)
    minsum = (p[:, :h] + p[:, ::-1][:, :h]).min(axis=1)
    hits = {
        GENUINE: maxp > 0.5,
        FBI: maxdiff <= minsum,
        BISEP_MINUS_FBI: (maxp <= 0.5) & (maxdiff > minsum),
        MERMIN: p[:, 0] - p[:, -1] > nu,
    }[family]
    return int(hits.sum())


@pytest.mark.parametrize("n", [3, 4])
def test_mc_blocks_match_whole_chunk_oracle(n, monkeypatch):
    # a chunk of 3 blocks and 17 rows, the last chunk cut short
    d = 2**n
    chunk = 3 * (_BLOCK_BYTES // (8 * d)) + 17
    monkeypatch.setattr(volume, "DEFAULT_CHUNK", chunk)
    samples = 2 * chunk + 5000
    streams = np.random.SeedSequence(40 + n).spawn(3)
    chunks = [sample_simplex(_philox(s), m, d) for s, m in zip(streams, (chunk, chunk, 5000))]
    for family in MC_FAMILIES:
        expected = sum(_rowwise_hits(p, family, mermin_threshold(n)) for p in chunks)
        for threads in (1, 2):
            report = mc_relative_volume(family, n, samples, seed=40 + n, threads=threads)
            assert round(report.mc_estimate * samples) == expected, (family, threads)


def test_mc_guards():
    with pytest.raises(InvalidArgumentError):
        mc_relative_volume(GENUINE, 3, samples=100, seed=1)
    with pytest.raises(UnsupportedSizeError):
        mc_relative_volume(GENUINE, 7, samples=20_000, seed=1)


@pytest.mark.parametrize(
    "kwargs",
    [dict(samples=MC_MAX_SAMPLES + 1), dict(samples=10**18), dict(threads=MC_MAX_THREADS + 1),
     dict(threads=10**6)],
    ids=["samples-cap", "samples-1e18", "threads-cap", "threads-1e6"],
)
def test_mc_caps_refuse_before_any_stream_or_thread(kwargs, monkeypatch):
    def fail(*args, **kw):
        raise AssertionError("made a stream or a thread past a cap")

    monkeypatch.setattr(np.random, "SeedSequence", fail)
    monkeypatch.setattr(volume, "ThreadPoolExecutor", fail)
    args = dict(families=(FBI,), ns=(3,), samples=20_000, seed=1) | kwargs
    with pytest.raises(UnsupportedSizeError, match="exceeds the cap"):
        mc_relative_volumes_by_n(**args)


def test_mc_pool_has_at_most_one_thread_per_chunk(monkeypatch):
    workers = []
    pool = volume.ThreadPoolExecutor

    def recording_pool(max_workers):
        workers.append(max_workers)
        return pool(max_workers)

    monkeypatch.setattr(volume, "ThreadPoolExecutor", recording_pool)
    monkeypatch.setattr(volume, "DEFAULT_CHUNK", 8_000)
    one = mc_relative_volume(FBI, 3, 20_000, seed=5)
    assert mc_relative_volume(FBI, 3, 20_000, seed=5, threads=MC_MAX_THREADS) == one
    monkeypatch.setattr(volume, "DEFAULT_CHUNK", 20_000)
    mc_relative_volume(FBI, 3, 10_000, seed=5, threads=2)
    assert workers == [3]  # three chunks; the one-chunk run started no pool


def test_backend_reported():
    report = mc_relative_volume(FBI, 2, samples=20_000, seed=1)
    assert report.backend == KERNEL_BACKEND
    assert report.rng == "philox4x64"


# ------------------------------------------- the C kernel and its loader

KERNEL_SOURCE = Path(_mc_kernel_py.__file__).with_name("_mc_kernel.c")
needs_c = pytest.mark.skipif(not HAVE_EXTENSION, reason="C kernel not built")
# the tests below that take a routine run on "scalar"; their *_avx512 twins
# run them on the wide routine where the CPU has its flags
needs_wide = pytest.mark.skipif(
    not HAVE_EXTENSION or bool(_mc_kernel.MISSING_WIDE_FLAGS),
    reason="C kernel not built" if not HAVE_EXTENSION
    else f"CPU lacks {', '.join(_mc_kernel.MISSING_WIDE_FLAGS)} for the avx512 routine",
)


@contextlib.contextmanager
def philox_routine(routine):
    """Run the C kernel's Philox stream on ``routine`` inside the block."""
    assert _mc_kernel._set_routine(_mc_kernel._lib, routine) == routine
    try:
        yield
    finally:
        _mc_kernel._set_routine(_mc_kernel._lib, _mc_kernel.PHILOX_ROUTINE)


@needs_c
@pytest.mark.parametrize("d", [4, 8, 16, 32, 64])
def test_fused_rows_equal_sample_simplex(d):
    rows = _BLOCK_BYTES // (8 * d)
    nu = 0.5
    for m in (3 * rows + 17, rows // 3):  # a ragged last block; a chunk under one block
        whole = sample_simplex(_philox(d), m, d)
        for family in range(4):
            expected = _mc_kernel_py.count_hits(whole, family, nu)
            one = np.empty((m, d))  # one block: every row
            assert _mc_kernel.chunk_counts(np.random.Philox(d), m, one, (family,), {d: nu})[d] \
                == (expected,)
            assert_same_bits(one, whole)
            buf = np.empty((min(m, rows), d))  # the blocks of a chunk: the last block's rows
            assert _mc_kernel.chunk_counts(np.random.Philox(d), m, buf, (family,), {d: nu})[d] \
                == (expected,)
            last = m % len(buf) or len(buf)
            assert_same_bits(buf[:last], whole[-last:])


@needs_c
@pytest.mark.parametrize("n", [3, 4])
def test_c_count_hits_equals_numpy_on_ties(n):
    # the B_n and F_n vertices and the Mermin hyperplane points sit exactly
    # on the region boundaries, where a <, <= or > swap changes the count
    rows = [
        np.array([s.p for s in iter_extreme_points("BISEP", n)]),
        np.array([s.p for s in iter_extreme_points("FBI", n)]),
        np.array([s.p for s in mermin_hyperplane_points(n)]),
    ]
    nu = mermin_threshold(n)
    for p in rows:
        for family in range(4):
            assert _mc_kernel.count_hits(p, family, nu) == _mc_kernel_py.count_hits(p, family, nu)


def _mutated_source(tmp_path):
    # divide by multiplying with the reciprocal: the rows differ in the last bit
    text = KERNEL_SOURCE.read_text()
    assert "row[j] = in[j] / s;" in text
    path = tmp_path / "_mc_kernel.c"
    path.write_text(text.replace("row[j] = in[j] / s;", "row[j] = in[j] * (1.0 / s);"))
    return path


@needs_c
def test_loader_failures_raise_import_error(tmp_path):
    with pytest.raises(ImportError, match="cannot build"):  # no compiler
        _mc_kernel.load(cache_dir=tmp_path / "a", cc=str(tmp_path / "no-such-cc"))
    broken = tmp_path / "broken.c"
    broken.write_text(KERNEL_SOURCE.read_text() + "\nthis is not C\n")
    with pytest.raises(ImportError, match="cannot compile"):
        _mc_kernel.load(source=broken, cache_dir=tmp_path / "b")
    (tmp_path / "file").write_text("")
    with pytest.raises(ImportError, match="cannot build"):  # no directory to write to
        _mc_kernel.load(cache_dir=tmp_path / "file" / "cache")
    with pytest.raises(ImportError, match="rows differ"):
        _mc_kernel.load(source=_mutated_source(tmp_path), cache_dir=tmp_path / "c")
    assert not list((tmp_path / "b").iterdir())  # no partial library left behind
    assert _mc_kernel.load(cache_dir=tmp_path / "d") is not None


def test_failed_kernel_check_keeps_numpy_path(tmp_path):
    # a package copy whose C kernel fails its check against NumPy imports
    # with the NumPy backend and gives the same pinned counts
    package = tmp_path / "ghzpolytope"
    shutil.copytree(KERNEL_SOURCE.parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    _mutated_source(package)
    script = (
        "import ghzpolytope, json;"
        "from ghzpolytope import volume;"
        "volume.DEFAULT_CHUNK = 1 << 14;"
        "r = [volume.mc_relative_volume(f, 3, 50_000, seed=1003) for f in ('genuine', 'fbi')];"
        "print(json.dumps([ghzpolytope.KERNEL_BACKEND] + [round(x.mc_estimate * 50_000) for x in r]))"
    )
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(tmp_path)}, check=True)
    assert json.loads(done.stdout) == ["python", PINNED_MC_HITS[3][GENUINE], PINNED_MC_HITS[3][FBI]]
    if HAVE_EXTENSION:  # it compiled, then failed its check
        assert list((package / "__pycache__").glob("_mc_kernel-*.so"))


# ------------------------------------- several families on one draw of points

FAMILY_SETS = {"mermin": (MERMIN,), "fbi": (FBI,), "all": MC_FAMILIES}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("families", FAMILY_SETS.values(), ids=FAMILY_SETS.keys())
def test_mc_relative_volumes_equal_per_family_calls(n, families, monkeypatch):
    # a chunk of 3 blocks and 17 rows, the last chunk cut short
    chunk = 3 * (_BLOCK_BYTES // (8 * 2**n)) + 17
    monkeypatch.setattr(volume, "DEFAULT_CHUNK", chunk)
    samples = 2 * chunk + 5000
    hits = {}
    for kernel in (None, _mc_kernel_py):
        kwargs = dict(seed=60 + n, kernel=kernel)
        single = tuple(mc_relative_volume(f, n, samples, threads=1, **kwargs) for f in families)
        for threads in (1, 2):
            by_n = mc_relative_volumes_by_n(families, (n,), samples, threads=threads, **kwargs)
            assert by_n[n] == single
        hits[kernel] = [round(r.mc_estimate * samples) for r in single]
    assert hits[None] == hits[_mc_kernel_py]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_trisection_hits_partition_the_samples(n, monkeypatch):
    monkeypatch.setattr(volume, "DEFAULT_CHUNK", 1 << 13)
    samples = 30_000
    for kernel in (None, _mc_kernel_py):
        reports = mc_relative_volumes_by_n((GENUINE, BISEP_MINUS_FBI, FBI), (n,), samples, seed=n,
                                           kernel=kernel)[n]
        assert sum(round(r.mc_estimate * samples) for r in reports) == samples


# every row loop the C counter inlines: pair families, Mermin, both
CHUNK_CODES = [(0, 1, 2, 3), (3,), (2,), (0, 3), (3, 1)]
CHUNK_SKIPS = (0, 3)  # a fresh stream and one started mid-buffer


def _twin_philox(d, skip):
    """Two Philox bit generators seeded with d, each ``skip`` raw draws in."""
    pair = np.random.Philox(d), np.random.Philox(d)
    for bitgen in pair:
        bitgen.random_raw(skip)
    return pair


def _width_sets(d):
    """Row widths whose widest is d: d alone, with d/2, and with every
    narrower width the kernel draws, each with its own Mermin threshold."""
    narrower = [w for w in (4, 8, 16, 32) if w < d]
    sets = [(d,)] + ([(d // 2, d), (*narrower, d)] if narrower else [])
    return [{w: 1.0 / w for w in widths} for widths in dict.fromkeys(sets)]


def _chunk_lengths(d):
    """A chunk of 3 blocks and a ragged 17 rows, and one under one block:
    the rows of width d/2 end in the second block and of d/4 in the first."""
    rows = _BLOCK_BYTES // (8 * d)
    return (3 * rows + 17, rows // 3)


@pytest.mark.parametrize("d", [4, 8, 16, 64])
def test_numpy_chunk_counts_equal_counts_of_one_draw(d):
    # the reference contract: at each width w, one draw of m rows of w,
    # counted; the buffer holds the last block's rows of the widest width
    # and the stream goes on from the end of that width's draw
    for nus in _width_sets(d):
        for m in _chunk_lengths(d):
            buf = np.empty((min(m, _BLOCK_BYTES // (8 * d)), d))
            last = m % len(buf) or len(buf)
            for skip in CHUNK_SKIPS:
                for codes in CHUNK_CODES:
                    bitgen, twin = _twin_philox(d, skip)
                    got = _mc_kernel_py.chunk_counts(bitgen, m, buf, codes, nus)
                    assert list(got) == list(nus)
                    for w, nu in nus.items():
                        narrow, _ = _twin_philox(d, skip)
                        whole = sample_simplex(np.random.Generator(narrow), m, w)
                        counts = tuple(_mc_kernel_py.count_hits(whole, code, nu) for code in codes)
                        assert got[w] == counts, (w, m, skip, codes)
                    whole = sample_simplex(np.random.Generator(twin), m, d)
                    assert_same_bits(buf[:last], whole[-last:])
                    np.testing.assert_array_equal(bitgen.random_raw(8), twin.random_raw(8))


@needs_c
@pytest.mark.parametrize("d", [4, 8, 16, 64])
def test_chunk_counts_equal_numpy_counts(d, routine="scalar"):
    # both kernels on twin streams, at each set of widths: the same counts
    # at every width, the same rows written into the buffer (every row: the
    # long chunk spans four blocks, the short one fills its buffer) and the
    # same next draws
    for nus in _width_sets(d):
        for m in _chunk_lengths(d):
            rows = min(m, _BLOCK_BYTES // (8 * d))
            for skip in CHUNK_SKIPS:
                for codes in CHUNK_CODES:
                    bitgen, twin = _twin_philox(d, skip)
                    buf, ref = np.empty((rows, d)), np.empty((rows, d))
                    with philox_routine(routine):
                        got = _mc_kernel.chunk_counts(bitgen, m, buf, codes, nus)
                    assert got == _mc_kernel_py.chunk_counts(twin, m, ref, codes, nus)
                    assert_same_bits(buf, ref)
                    np.testing.assert_array_equal(bitgen.random_raw(8), twin.random_raw(8))


@needs_wide
@pytest.mark.parametrize("d", [4, 8, 16, 64])
def test_chunk_counts_equal_numpy_counts_avx512(d):
    test_chunk_counts_equal_numpy_counts(d, "avx512")


@pytest.mark.parametrize(
    "kwargs",
    [dict(seed=-1), dict(threads=0), dict(threads=-2), dict(families=()), dict(samples=20_000.0),
     dict(seed=1.5), dict(seed=None), dict(threads=1.5), dict(seed=True), dict(threads=True),
     dict(samples=np.True_), dict(ns=(True,))],
    ids=["seed", "threads0", "threads-2", "no-family", "samples-float", "seed-float", "seed-none",
         "threads-float", "seed-bool", "threads-bool", "samples-numpy-bool", "n-bool"],
)
def test_mc_relative_volumes_rejects_bad_arguments(kwargs):
    args = dict(families=(FBI,), ns=(3,), samples=20_000, seed=1) | kwargs
    with pytest.raises(InvalidArgumentError):
        mc_relative_volumes_by_n(**args)


def test_numpy_integers_count_as_ints():
    assert rel_vol_exact(FBI, np.int64(3)) == rel_vol_exact(FBI, 3)
    assert vol_exact(MERMIN, np.uint8(4)) == vol_exact(MERMIN, 4)
    assert rvr(GENUINE, np.int32(5)) == rvr(GENUINE, 5)
    report = mc_relative_volume(FBI, np.int64(3), np.int64(20_000), seed=np.int64(1),
                                threads=np.int64(2))
    assert report == mc_relative_volume(FBI, 3, 20_000, seed=1)
    assert type(report.n) is int


@pytest.mark.parametrize(
    "ns, error",
    [((), InvalidArgumentError), ((3, 7), UnsupportedSizeError), ((1,), InvalidArgumentError),
     ((3.0,), InvalidArgumentError)],
    ids=["none", "past-cap", "n1", "float"],
)
def test_mc_relative_volumes_by_n_rejects_bad_qubit_counts(ns, error):
    with pytest.raises(error):
        mc_relative_volumes_by_n((FBI,), ns, 20_000, seed=1)


NS_SETS = {"2": (2,), "2,5": (2, 5), "2..6": (2, 3, 4, 5, 6)}


@pytest.mark.parametrize("ns", NS_SETS.values(), ids=NS_SETS.keys())
@pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_c)])
def test_mc_relative_volumes_by_n_equal_per_n_calls(ns, backend, monkeypatch):
    # one draw per chunk for every n gives each n the reports of its own
    # draw; a chunk spans 3 blocks and 17 rows at n = 6 and the last chunk
    # is cut short
    kernel = _mc_kernel_py if backend == "python" else _mc_kernel
    chunk = 3 * (_BLOCK_BYTES // (8 * 64)) + 17
    monkeypatch.setattr(volume, "DEFAULT_CHUNK", chunk)
    samples = 2 * chunk + 5000
    seed = 70 + len(ns)
    single = {n: mc_relative_volumes_by_n(MC_FAMILIES, (n,), samples, seed, kernel=kernel)[n]
              for n in ns}
    for threads in (1, 2):
        by_n = mc_relative_volumes_by_n(MC_FAMILIES, ns, samples, seed, threads, kernel)
        assert list(by_n) == list(ns)
        assert by_n == single


# ------------------------------------ the kernel's own Philox and ziggurat

NPYRANDOM = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"


@pytest.mark.skipif(shutil.which("cc") is None or not NPYRANDOM.exists(),
                    reason="no cc on PATH or no libnpyrandom.a")
def test_c_kernel_is_in_use_where_it_can_be_built():
    # a kernel that fails its load-time check falls back to NumPy, and the C
    # tests above then skip; this test does not
    if KERNEL_BACKEND != "c":
        try:
            importlib.import_module("ghzpolytope._mc_kernel")
        except ImportError as exc:
            pytest.fail(f"the C kernel does not load: {exc}")
    assert KERNEL_BACKEND == "c"


def _raws_drawn(bitgen, draw):
    """How many 64-bit values ``draw()`` takes from the Philox ``bitgen``."""
    def position(state):
        return 4 * int(state["state"]["counter"][0]) + state["buffer_pos"]

    before = position(bitgen.state)
    draw()
    return position(bitgen.state) - before


def assert_same_state(bitgen, twin):
    """Both Philox bit generators hold the same state, field by field."""
    state, expected = bitgen.state, twin.state
    np.testing.assert_array_equal(state["state"]["counter"], expected["state"]["counter"])
    np.testing.assert_array_equal(state["buffer"], expected["buffer"])
    assert state["buffer_pos"] == expected["buffer_pos"]
    np.testing.assert_array_equal(bitgen.random_raw(8), twin.random_raw(8))


def _philox_then(values, seed=7):
    """A Philox whose next draws are ``values`` (at most 4), then its stream."""
    bitgen = np.random.Philox(seed)
    state = bitgen.state
    state["buffer"][4 - len(values):] = values
    state["buffer_pos"] = 4 - len(values)
    bitgen.state = state
    return bitgen


@needs_c
def test_long_stream_equals_sample_simplex(routine="scalar"):
    # 2^22 values: every ziggurat layer, and thousands of draws off its fast path
    m, d, nu = 1 << 16, 64, 0.05
    twin = np.random.Philox(d)
    raws = twin.random_raw(m * d)
    assert len(np.unique((raws >> np.uint64(3)) & np.uint64(255))) == 256
    twin = np.random.Philox(d)
    whole = np.empty((m, d))
    assert _raws_drawn(twin, lambda: sample_simplex(np.random.Generator(twin), m, d, whole)) \
        >= m * d + 10_000
    bitgen = np.random.Philox(d)
    buf = np.empty((_BLOCK_BYTES // (8 * d), d))
    with philox_routine(routine):
        got = _mc_kernel.chunk_counts(bitgen, m, buf, range(4), {d: nu})[d]
    assert_same_bits(buf, whole[-len(buf):])
    assert got == tuple(_mc_kernel_py.count_hits(whole, code, nu) for code in range(4))
    np.testing.assert_array_equal(bitgen.random_raw(8), twin.random_raw(8))


@needs_wide
def test_long_stream_equals_sample_simplex_avx512():
    test_long_stream_equals_sample_simplex("avx512")


CARRY = np.array([2**64 - 2, 2**64 - 1, 0, 0], dtype=np.uint64)
# one raw draw short of c0 = 2^64 - 5, c1 = 2^64 - 1: the low word wraps, and
# carries into the third, inside the next group of eight blocks
WRAP = np.array([2**64 - 6, 2**64 - 1, 0, 0], dtype=np.uint64)
STARTS = ["fresh", "raw1", "raw2", "raw3", "carry", "wrap1", "wrap3"]


@needs_c
@pytest.mark.parametrize("start", STARTS)
@pytest.mark.parametrize("d", [4, 64])
def test_chunk_counts_leaves_numpys_bit_generator_state(start, d, routine="scalar"):
    def philox():
        bitgen = np.random.Philox(11)
        if start in ("carry", "wrap1", "wrap3"):  # the counter carries into its third word
            state = bitgen.state
            state["state"]["counter"] = CARRY if start == "carry" else WRAP
            bitgen.state = state
        if start[-1].isdigit():
            bitgen.random_raw(int(start[-1]))  # buffer_pos 1, 2, 3
        return bitgen

    m, bitgen, twin = 300, philox(), philox()
    if start.startswith("wrap"):
        assert list(twin.state["state"]["counter"][:2]) == [2**64 - 5, 2**64 - 1]
    buf = np.empty((64, d))
    with philox_routine(routine):
        got = _mc_kernel.chunk_counts(bitgen, m, buf, range(4), {d: 0.05})[d]
    whole = sample_simplex(np.random.Generator(twin), m, d)
    assert_same_bits(buf[:m % 64], whole[-(m % 64):])
    assert got == tuple(_mc_kernel_py.count_hits(whole, code, 0.05) for code in range(4))
    if start in ("carry", "wrap1", "wrap3"):
        assert twin.state["state"]["counter"][2] == 1
    assert_same_state(bitgen, twin)


@needs_wide
@pytest.mark.parametrize("start", STARTS)
@pytest.mark.parametrize("d", [4, 64])
def test_chunk_counts_leaves_numpys_bit_generator_state_avx512(start, d):
    test_chunk_counts_leaves_numpys_bit_generator_state(start, d, "avx512")


@needs_c
@pytest.mark.parametrize("pos", [1, 3, 4])
def test_chunk_ending_just_before_a_counter_wrap_leaves_numpys_state(pos, routine="scalar"):
    # one row of 4 values from c0 = 2^64 - 5 ends in a block whose counter
    # lies below the wrap, which the wide routine's buffer has passed
    def philox():
        bitgen = np.random.Philox(11)
        state = bitgen.state
        state["state"]["counter"] = WRAP
        bitgen.state = state
        bitgen.random_raw(pos)  # c0 = 2^64 - 5, at buffer_pos 1, 3 or 4
        return bitgen

    bitgen, twin = philox(), philox()
    buf = np.empty((1, 4))
    with philox_routine(routine):
        got = _mc_kernel.chunk_counts(bitgen, 1, buf, range(4), {4: 0.05})[4]
    row = sample_simplex(np.random.Generator(twin), 1, 4)
    assert_same_bits(buf, row)
    assert got == tuple(_mc_kernel_py.count_hits(row, code, 0.05) for code in range(4))
    assert twin.state["state"]["counter"][1] == 2**64 - 1
    assert_same_state(bitgen, twin)


@needs_wide
@pytest.mark.parametrize("pos", [1, 3, 4])
def test_chunk_ending_just_before_a_counter_wrap_leaves_numpys_state_avx512(pos):
    test_chunk_ending_just_before_a_counter_wrap_leaves_numpys_state(pos, "avx512")


@needs_c
@pytest.mark.parametrize("d", [4, 64])
def test_chunk_counts_takes_a_buffer_pos_past_the_buffer_as_spent(d, routine="scalar"):
    # NumPy accepts any int as buffer_pos and draws a fresh block past 3
    def philox(pos):
        bitgen = np.random.Philox(13)
        bitgen.random_raw(2)
        state = bitgen.state
        state["buffer_pos"] = pos
        bitgen.state = state
        return bitgen

    m, buf = 100, np.empty((64, d))
    for pos in (5, 33, 1000):
        bitgen, twin = philox(pos), philox(pos)
        with philox_routine(routine):
            got = _mc_kernel.chunk_counts(bitgen, m, buf, range(4), {d: 0.05})[d]
        whole = sample_simplex(np.random.Generator(twin), m, d)
        assert_same_bits(buf[:m % 64], whole[-(m % 64):])
        assert got == tuple(_mc_kernel_py.count_hits(whole, code, 0.05) for code in range(4))
        np.testing.assert_array_equal(bitgen.random_raw(8), twin.random_raw(8))
    bitgen = philox(-1)
    with philox_routine(routine), pytest.raises(ValueError, match="buffer_pos"):
        _mc_kernel.chunk_counts(bitgen, m, buf, range(4), {d: 0.05})


@needs_wide
@pytest.mark.parametrize("d", [4, 64])
def test_chunk_counts_takes_a_buffer_pos_past_the_buffer_as_spent_avx512(d):
    test_chunk_counts_takes_a_buffer_pos_past_the_buffer_as_spent(d, "avx512")


@needs_c
def test_philox_routine_follows_the_cpu_flags():
    wide = not _mc_kernel.MISSING_WIDE_FLAGS
    assert _mc_kernel.PHILOX_ROUTINE == ("avx512" if wide else "scalar")
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists() and "flags" in cpuinfo.read_text():
        flags = set(next(line for line in cpuinfo.read_text().splitlines()
                         if line.startswith("flags")).split(":", 1)[1].split())
        assert wide == ({"avx512f", "avx512dq"} <= flags)
    # the scalar routine can always be forced, and the wide one only with its flags
    with philox_routine("scalar"):
        assert _mc_kernel._set_routine(_mc_kernel._lib, "avx512") == _mc_kernel.PHILOX_ROUTINE
    assert _mc_kernel._set_routine(_mc_kernel._lib, "avx512") == _mc_kernel.PHILOX_ROUTINE


def _numpy_fast_path_end(idx):
    """The least ri in [0, 2^53] that NumPy's exponential does not return from
    its first draw in layer idx, found with NumPy alone."""
    def one_draw(ri):
        bitgen = _philox_then([ri << 11 | idx << 3])
        return _raws_drawn(bitgen, np.random.Generator(bitgen).standard_exponential) == 1

    lo, hi = 0, 1 << 53
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if one_draw(mid) else (lo, mid)
    return lo


@needs_c
@pytest.mark.parametrize("idx", [0, 1, 2, 3, 128, 254, 255])
def test_fast_path_boundaries_equal_numpys(idx):
    # a draw exactly at the end of a layer's fast path leaves it (layer 1 has
    # no fast path at all), one below it stays
    end = _numpy_fast_path_end(idx)
    assert (end == 0) == (idx == 1)
    for ri in {max(end - 1, 0), end, min(end + 1, (1 << 53) - 1)}:
        u = ri << 11 | idx << 3
        bitgen, twin = _philox_then([u]), _philox_then([u])
        buf = np.empty((2, 4))
        _mc_kernel.chunk_counts(bitgen, 2, buf, (3,), {4: 0.0})
        assert_same_bits(buf, sample_simplex(np.random.Generator(twin), 2, 4))
        np.testing.assert_array_equal(bitgen.random_raw(8), twin.random_raw(8))


@needs_c
def test_self_check_streams_leave_the_fast_path():
    # _mc_kernel._self_check draws 35 rows at d = 64 after 3 raw values
    bitgen = np.random.Philox(64)
    bitgen.random_raw(3)
    assert _raws_drawn(bitgen, lambda: np.random.Generator(bitgen).standard_exponential((35, 64))) \
        > 35 * 64


@needs_c
def test_chunk_counts_needs_a_philox_with_no_buffered_uint32():
    buf = np.empty((8, 4))
    with pytest.raises(ValueError, match="Philox"):
        _mc_kernel.chunk_counts(np.random.PCG64(1), 8, buf, (2,), {4: 0.0})
    bitgen = np.random.Philox(1)
    np.random.Generator(bitgen).integers(0, 10, dtype=np.uint32)  # buffers a 32-bit half
    assert bitgen.state["has_uint32"]
    with pytest.raises(ValueError, match="Philox"):
        _mc_kernel.chunk_counts(bitgen, 8, buf, (2,), {4: 0.0})


@pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_c)])
@pytest.mark.parametrize("d", [0, 1])
def test_count_hits_refuses_rows_narrower_than_two(backend, d):
    # a row of width 0 has no last entry for the Mermin gap to read
    kernel = _mc_kernel_py if backend == "python" else _mc_kernel
    message = rf"need an \(m, d\) matrix with d >= 2, got shape \(5, {d}\)"
    for family in range(4):
        with pytest.raises(ValueError, match=message):
            kernel.count_hits(np.empty((5, d)), family, 0.0)


@needs_c
@pytest.mark.parametrize("d", [2, 12, 128])
def test_chunk_counts_refuses_widths_the_estimator_never_draws(d):
    # only d = 2^n with 2 <= n <= MC_MAX_QUBITS; the stream is left untouched
    bitgen, twin = np.random.Philox(1), np.random.Philox(1)
    with pytest.raises(ValueError, match="row width"):
        _mc_kernel.chunk_counts(bitgen, 8, np.empty((8, d)), (2,), {d: 0.0})
    assert_same_state(bitgen, twin)


@needs_c
def test_build_keys_on_the_compile_command(tmp_path, monkeypatch):
    first = _mc_kernel._build(KERNEL_SOURCE, tmp_path, "cc")
    assert _mc_kernel._build(KERNEL_SOURCE, tmp_path, "cc") == first
    monkeypatch.setattr(_mc_kernel, "_CFLAGS", _mc_kernel._CFLAGS + ("-DUNUSED_MACRO",))
    second = _mc_kernel._build(KERNEL_SOURCE, tmp_path, "cc")
    assert second != first
    assert sorted(tmp_path.iterdir()) == sorted([first, second])
