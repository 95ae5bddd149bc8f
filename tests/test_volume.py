import contextlib
import dataclasses
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import binom

from ghzpolytope import _mc_kernel_py, volume
from ghzpolytope.errors import InvalidArgumentError, UnsupportedSizeError
from ghzpolytope.indices import MC_MAX_SAMPLES, MC_MAX_THREADS
from ghzpolytope.mermin import mermin_threshold
from ghzpolytope.polytopes import cube_vertex, inscribed_ball, iter_extreme_points
from ghzpolytope.volume import (
    _BLOCK_BYTES,
    ALL_FAMILIES,
    BISEP_MINUS_FBI,
    FBI,
    GENUINE,
    KERNEL_BACKEND,
    MC_FAMILIES,
    MERMIN,
    VolumeReport,
    mc_relative_volume,
    mc_relative_volumes_by_n,
    rel_vol_exact,
    rvr,
    sample_simplex,
    vol_exact,
)
from oracles import (
    RVR_LIMITS,
    hull_volume,
    mermin_hyperplane_points,
    rel_vol_ratio,
    rvr_bracket,
    vol_hs,
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


@pytest.mark.parametrize("p, side, q, v0", [
    (1, math.nan, 0, 1.0),
    (1, 1.0, 0, math.inf),
    (1, math.inf, 0, 1.0),
    (1, 1.0, 0, math.nan),
    (1.5, 1.0, 0.5, 1.0),
    (2, 1.0, 1.0, 1.0),
    (True, 1.0, 0, 1.0),
    (1, 1.0, False, 1.0),
    (0, 1.0, 0, 1.0),
    (1, 1.0, -1, 1.0),
    (1, 0.0, 0, 1.0),
    (1, 1.0, 0, -1.0),
])
def test_hull_volume_refuses_non_integer_dimensions_and_non_finite_sizes(p, side, q, v0):
    with pytest.raises(InvalidArgumentError):
        hull_volume(p, side, q, v0)


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
    assert rvr(GENUINE, 2) == rvr(FBI, 2)  # both relative volumes are 1/2
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


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_rel_vol_exact_is_the_correctly_rounded_ratio(family):
    # exact integers: n = 2..16 take about 0.1 s in all; n = 17 and 18 would
    # add about 1.5 s, so the check stops at 16
    for n in range(2, 17):
        num, den = rel_vol_ratio(family, n)
        assert rel_vol_exact(family, n) == num / den, n


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_vol_exact_is_correctly_rounded(family):
    for n in range(2, 8):
        assert vol_exact(family, n) == vol_hs(family, n), n
    assert vol_exact(family, 8) == 0.0  # 16 / 255! is below the least subnormal


@pytest.mark.parametrize("family", MC_FAMILIES)
def test_rvr_lies_around_the_exact_root(family):
    # integer powers of floats against the exact ratio: n = 14 takes about
    # 0.1 s per family, n = 16 would take about 1 s.  From n = 11 genuine and
    # fbi take their closed-form roots, past rel_vol_exact's normal range
    for n in range(2, 15):
        a, b = rvr_bracket(family, n)
        assert a <= rvr(family, n) <= b, n


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


@pytest.mark.parametrize(
    "call",
    [rel_vol_exact, vol_exact, rvr, inscribed_ball,
     lambda family, n: mc_relative_volume(family, n, 10_000, seed=1)],
    ids=["rel_vol_exact", "vol_exact", "rvr", "inscribed_ball", "mc_relative_volume"],
)
@pytest.mark.parametrize("family", [np.zeros((2, 3)), None, ["fbi"], b"fbi"],
                         ids=["array", "none", "list", "bytes"])
def test_families_that_are_not_str_are_invalid_arguments(call, family):
    with pytest.raises(InvalidArgumentError, match="unknown family"):
        call(family, 3)


@pytest.mark.parametrize("closed_form", [rel_vol_exact, vol_exact, rvr])
@pytest.mark.parametrize("n", ["3", 3.0, None, True, 1.5])
def test_closed_forms_refuse_non_integer_qubit_counts(closed_form, n):
    with pytest.raises(InvalidArgumentError, match="qubit count"):
        closed_form(FBI, n)


# ------------------------------------------------------------- Monte Carlo


@pytest.mark.parametrize("rng", [None, 1, np.random.Philox(1)], ids=["none", "int", "bitgen"])
def test_sample_simplex_refuses_what_is_not_a_generator(rng):
    with pytest.raises(InvalidArgumentError, match="Generator"):
        sample_simplex(rng, 4, 8)


@pytest.mark.parametrize("m, d", [(2.5, 8), (-1, 8), (True, 8), (4, 0), (4, 8.0)],
                         ids=["m-float", "m-negative", "m-bool", "d-zero", "d-float"])
def test_sample_simplex_refuses_bad_sizes(m, d):
    with pytest.raises(InvalidArgumentError, match="integers"):
        sample_simplex(np.random.default_rng(1), m, d)


@pytest.mark.parametrize(
    "out",
    [np.empty((3, 3)), np.empty((4, 8), dtype=np.float32), [1, 2], np.empty((4, 8), order="F"),
     np.empty((4, 16))[:, ::2], np.broadcast_to(np.empty(8), (4, 8))],
    ids=["shape", "float32", "list", "fortran", "strided", "read-only"],
)
def test_sample_simplex_refuses_a_bad_out(out):
    with pytest.raises(InvalidArgumentError, match="out must be"):
        sample_simplex(np.random.default_rng(1), 4, 8, out=out)


def test_sample_simplex_into_out_draws_the_same_points():
    out = np.empty((4, 8))
    got = sample_simplex(np.random.default_rng(1), 4, 8, out=out)
    assert got is out
    assert_same_bits(out, sample_simplex(np.random.default_rng(1), 4, 8))


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


@pytest.mark.parametrize("n", sorted(PINNED_MC_HITS))
def test_pinned_mc_hits_lie_in_the_binomial_band_of_the_closed_form(n):
    # each pinned count is a Binomial(50_000, rel_vol_exact) draw: it must lie
    # in the exact two-sided band that holds such a draw with probability at
    # least 1 - 1e-6; at a few hits a normal (Wald) band could not say this
    for family, hits in PINNED_MC_HITS[n].items():
        lo, hi = binom.interval(1 - 1e-6, 50_000, rel_vol_exact(family, n))
        assert lo <= hits <= hi, (family, lo, hits, hi)


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
needs_wide = pytest.mark.skipif(
    not HAVE_EXTENSION or bool(_mc_kernel.MISSING_WIDE_FLAGS),
    reason="C kernel not built" if not HAVE_EXTENSION
    else f"CPU lacks {', '.join(_mc_kernel.MISSING_WIDE_FLAGS)} for the avx512 routine",
)
# the tests that take a routine run on "scalar", and on the wide routine
# where the CPU has its flags
ROUTINES = ["scalar", pytest.param("avx512", marks=needs_wide)]


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
@pytest.mark.parametrize("routine", ROUTINES)
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_c_count_hits_equals_numpy_on_ties(n, routine):
    # the B_n and F_n vertices and the Mermin hyperplane points sit exactly
    # on the region boundaries, where a <, <= or > swap changes the count;
    # count_hits runs the routine in use, whose fold at d = 32 and 64 takes
    # eight flip pairs at a time.  Past the first 4096 F_n vertices (the
    # diagonal midpoints, then cube vertices that vary only their first
    # twelve pairs), cube vertices at random vary every pair.  The load
    # check's boundary rows moved a few ulps no longer sum to exactly 1:
    # count_hits counts them as given, never divided by their sum.
    d = 1 << n
    pair = np.arange(d // 2)
    sigmas = np.where(np.random.default_rng(n).integers(0, 2, (64, d // 2)) == 1, d - 1 - pair, pair)
    rows = [
        np.array([s.p for s in iter_extreme_points("BISEP", n)]),
        np.array([s.p for s in iter_extreme_points("FBI", n, stop=1 << 12)]
                 + [cube_vertex(n, sigma).p for sigma in sigmas]),
        np.array([s.p for s in mermin_hyperplane_points(n)]),
        *(_nudged(_mc_kernel._boundary_rows(n), ulps) for ulps in (1, 2, 3)),
    ]
    nu = mermin_threshold(n)
    with philox_routine(routine):
        for p in rows:
            for family in range(4):
                assert _mc_kernel.count_hits(p, family, nu) == _mc_kernel_py.count_hits(p, family, nu)


@needs_c
@pytest.mark.parametrize("routine", ROUTINES)
@pytest.mark.parametrize("n", [4, 5, 6])
def test_c_count_hits_equals_numpy_across_the_regions(n, routine):
    # Dirichlet rows, concentrated (mostly genuine), spread, and near the
    # uniform point (the FBI boundary): every region and both sides of it
    d, nu = 1 << n, mermin_threshold(n)
    rng = np.random.default_rng(n)
    for alpha in (0.05, 0.3, 10.0):
        p = rng.dirichlet(np.full(d, alpha), 2000)
        with philox_routine(routine):
            for family in range(4):
                assert _mc_kernel.count_hits(p, family, nu) == _mc_kernel_py.count_hits(p, family, nu)


def _nudged(rows, ulps):
    # each row with one entry moved ulps steps, up or down by turns; the
    # entry cycles over the row's nonzero values
    out = rows.copy()
    for r, row in enumerate(out):
        j = np.flatnonzero(row)[r % np.count_nonzero(row)]
        for _ in range(ulps):
            row[j] = np.nextafter(row[j], np.inf if r % 2 else 0.0)
    return out


@needs_c
@pytest.mark.parametrize("routine", ROUTINES)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_c_raw_counts_equal_numpy_on_scaled_and_nudged_boundary_rows(n, routine):
    # the raw counter decides the pair families from the flip pairs'
    # unnormalised differences and sums within a rounding bound; rows on
    # the boundary (gap 0) and a few ulps off it must take its fallback, and
    # count as NumPy counts them once normalised
    nu = mermin_threshold(n)
    base = _mc_kernel._boundary_rows(n)
    for scale in (3.0, 0.75, 2.0**-30, 2.0**-1040):
        exact = scale * base
        if scale > 2.0**-1000:  # these normalise back to the boundary rows bit for bit
            assert_same_bits(_mc_kernel_py.normalise_rows(exact, np.empty_like(exact)), base)
        for e in [exact] + [_nudged(exact, ulps) for ulps in (1, 2, 3, 4)]:
            p = _mc_kernel_py.normalise_rows(e, np.empty_like(e))
            with philox_routine(routine):
                for family in range(4):
                    assert _mc_kernel.count_raw_hits(e, family, nu) \
                        == _mc_kernel_py.count_hits(p, family, nu), (scale, family)


@needs_c
@pytest.mark.parametrize("routine", ROUTINES)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_c_raw_counts_equal_numpy_near_the_fbi_boundary(n, routine):
    # rows whose largest flip-pair difference equals their smallest pair sum
    # (max |z| = min a), scaled by 2^-40..2^40 and moved a few ulps per entry:
    # their raw gaps fall on both sides of the rounding bound and inside it
    d, h, nu = 1 << n, 1 << (n - 1), mermin_threshold(n)
    rng = np.random.default_rng(n)
    m = 4000
    a = rng.exponential(size=(m, h)) + 0.5
    z = rng.uniform(-1, 1, (m, h)) * a.min(axis=1, keepdims=True)
    z[np.arange(m), rng.integers(0, h, m)] = np.where(rng.random(m) < 0.5, -1, 1) * a.min(axis=1)
    e = np.concatenate([(a + z) / 2, ((a - z) / 2)[:, ::-1]], axis=1)
    e *= np.exp2(rng.integers(-40, 41, (m, 1))) * rng.uniform(0.5, 2, (m, 1))
    e = np.abs(e + rng.integers(-6, 7, e.shape) * (rng.random(e.shape) < 0.3) * np.spacing(e))
    p = _mc_kernel_py.normalise_rows(e, np.empty_like(e))
    with philox_routine(routine):
        for family in range(4):
            assert _mc_kernel.count_raw_hits(e, family, nu) == _mc_kernel_py.count_hits(p, family, nu)


@needs_c
@pytest.mark.parametrize("routine", ROUTINES)
@pytest.mark.parametrize("n", [3, 4, 6])
def test_c_raw_mermin_counts_equal_numpy_near_the_threshold(n, routine):
    # rows whose gap (e_0 - e_d-1)/s lies within a few ulps of nu_n: the raw
    # counter must divide each end by the row sum s before subtracting, as
    # NumPy's normalised rows do.  (e_0 - e_d-1)/s rounds differently on
    # some of them, so each row is counted on its own.  At n = 2, nu = 1 and
    # no row violates.
    d, nu = 1 << n, mermin_threshold(n)
    rng = np.random.default_rng(n)
    e = rng.exponential(size=(256, d))
    e[:, 0] = (e[:, -1] + nu * e[:, 1:].sum(axis=1)) / (1 - nu)
    e[:, 0] += rng.integers(-4, 5, len(e)) * np.spacing(e[:, 0])
    p = _mc_kernel_py.normalise_rows(e, np.empty_like(e))
    one_division = (e[:, 0] - e[:, -1]) / e.sum(axis=1) - nu > 0.0
    assert (one_division != ((p[:, 0] - p[:, -1]) - nu > 0.0)).any()
    code = _mc_kernel_py.FAMILY_MERMIN
    with philox_routine(routine):
        got = [_mc_kernel.count_raw_hits(e[r:r + 1], code, nu) for r in range(len(e))]
    assert got == [_mc_kernel_py.count_hits(p[r:r + 1], code, nu) for r in range(len(p))]


def _mutated_source(tmp_path, old="row[j] = in[j] / s;", new="row[j] = in[j] * (1.0 / s);"):
    # by default, divide by multiplying with the reciprocal: the rows differ
    # in the last bit
    text = KERNEL_SOURCE.read_text()
    assert old in text
    path = tmp_path / "_mc_kernel.c"
    path.write_text(text.replace(old, new))
    return path


@needs_c
def test_loader_failures_raise_import_error(tmp_path):
    # a compile takes about a second, so the libraries that compile are built
    # side by side while the failures to build run, and loaded after
    for name in ("tie", "margin"):
        (tmp_path / name).mkdir()
    rows = _mutated_source(tmp_path)
    # a fold that takes the F_n vertices (maxdiff = minsum) as outside: random
    # rows never tie, the boundary rows do, on either routine
    tie = _mutated_source(tmp_path / "tie", "f = raw ? gap < 0.0 : maxdiff <= minsum;",
                          "f = raw ? gap < 0.0 : maxdiff < minsum;")
    # a raw counter with no rounding margin decides the ties (gap 0) itself,
    # as outside F_n, instead of normalising them
    margin = _mutated_source(tmp_path / "margin", "0x1p-47 * s", "0.0 * s")
    builds = {rows: tmp_path / "c", tie: tmp_path / "tie",
              margin: tmp_path / "margin", _mc_kernel._HERE / "_mc_kernel.c": tmp_path / "d"}
    with ThreadPoolExecutor(len(builds)) as pool:
        built = [pool.submit(_mc_kernel._build, source, cache_dir, "cc")
                 for source, cache_dir in builds.items()]
        with pytest.raises(ImportError, match="cannot build"):  # no compiler
            _mc_kernel.load(cache_dir=tmp_path / "a", cc=str(tmp_path / "no-such-cc"))
        broken = tmp_path / "broken.c"
        broken.write_text(KERNEL_SOURCE.read_text() + "\nthis is not C\n")
        with pytest.raises(ImportError, match="cannot compile"):
            _mc_kernel.load(source=broken, cache_dir=tmp_path / "b")
        (tmp_path / "file").write_text("")
        with pytest.raises(ImportError, match="cannot build"):  # no directory to write to
            _mc_kernel.load(cache_dir=tmp_path / "file" / "cache")
    for future in built:
        future.result()
    with pytest.raises(ImportError, match="rows differ"):
        _mc_kernel.load(source=rows, cache_dir=tmp_path / "c")
    with pytest.raises(ImportError, match="differ from NumPy's on the boundary rows at d = 8"):
        _mc_kernel.load(source=tie, cache_dir=tmp_path / "tie")
    with pytest.raises(ImportError, match="raw hit counts differ from NumPy's on the boundary rows at d = 8"):
        _mc_kernel.load(source=margin, cache_dir=tmp_path / "margin")
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
        "print(json.dumps([ghzpolytope.KERNEL_BACKEND] + [round(x.mc_estimate * 50_000) for x in r]));"
        "print(volume.KERNEL_FALLBACK_REASON)"
    )
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(tmp_path)}, check=True)
    hits, reason = done.stdout.split("\n", 1)
    assert json.loads(hits) == ["python", PINNED_MC_HITS[3][GENUINE], PINNED_MC_HITS[3][FBI]]
    assert reason.strip() != "None"  # the ImportError's message
    if HAVE_EXTENSION:  # it compiled, then failed its check
        assert reason.startswith("C kernel rows differ from NumPy's")
        assert list((package / "__pycache__").glob("_mc_kernel-*.so"))


@needs_c
@pytest.mark.parametrize("n", [3, 4, 6])
def test_boundary_rows_and_their_pinned_counts(n):
    # the load check's rows are the points its docstring names, exactly, and
    # its pinned counts are the NumPy kernel's
    d, nu = 1 << n, mermin_threshold(n)
    rows = _mc_kernel._boundary_rows(n)
    assert (rows.sum(axis=1) == 1.0).all()
    points = {tuple(s.p) for s in iter_extreme_points("BISEP", n)}
    points |= {tuple(s.p) for s in mermin_hyperplane_points(n)}
    for row in rows[:-1]:
        if tuple(row) not in points:  # a cube vertex
            assert tuple(row) == tuple(cube_vertex(n, np.flatnonzero(row)).p)
    outside = rows[-1]  # the cube vertex 0, ..., d/2 - 1 with index 0 moved to d - 2
    assert list(np.flatnonzero(outside)) == [*range(1, d // 2), d - 2]
    assert (outside[outside > 0] == 2.0 / d).all()
    got = tuple(_mc_kernel_py.count_hits(rows, code, nu) for code in range(4))
    assert got == _mc_kernel.BOUNDARY_HITS[n]


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


# every row loop the C counter inlines: pair families with and without
# Mermin, genuine with and without Mermin, Mermin alone
CHUNK_CODES = [(0, 1, 2, 3), (3,), (2,), (0, 3), (3, 1), (0,)]
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
@pytest.mark.parametrize("routine", ROUTINES)
@pytest.mark.parametrize("d", [4, 8, 16, 64])
def test_chunk_counts_equal_numpy_counts(d, routine):
    # both kernels on twin streams, at each set of widths: the same counts
    # at every width and the same rows written into the buffer (every row:
    # the long chunk spans four blocks, the short one fills its buffer)
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


@pytest.mark.parametrize(
    "kwargs",
    [dict(seed=-1), dict(threads=0), dict(threads=-2), dict(families=()), dict(samples=20_000.0),
     dict(seed=1.5), dict(seed=None), dict(threads=1.5), dict(seed=True), dict(threads=True),
     dict(samples=np.True_), dict(ns=(True,)), dict(families=3), dict(ns=3), dict(kernel=3),
     dict(kernel="c")],
    ids=["seed", "threads0", "threads-2", "no-family", "samples-float", "seed-float", "seed-none",
         "threads-float", "seed-bool", "threads-bool", "samples-numpy-bool", "n-bool",
         "families-int", "ns-int", "kernel-int", "kernel-str"],
)
def test_mc_relative_volumes_rejects_bad_arguments(kwargs):
    args = dict(families=(FBI,), ns=(3,), samples=20_000, seed=1) | kwargs
    with pytest.raises(InvalidArgumentError):
        mc_relative_volumes_by_n(**args)


def test_volume_report_json_dict_is_asdict():
    closed = VolumeReport(n=3, family=FBI, exact=rel_vol_exact(FBI, 3))
    for report in (closed, mc_relative_volume(FBI, 3, 20_000, seed=1)):
        got = report.to_json_dict()
        assert got == dataclasses.asdict(report)
        got["n"] = 0  # a copy: the report keeps its own fields
        assert report.n == 3


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
    assert volume.KERNEL_FALLBACK_REASON is None


def _raws_drawn(bitgen, draw):
    """How many 64-bit values ``draw()`` takes from the Philox ``bitgen``."""
    def position(state):
        return 4 * int(state["state"]["counter"][0]) + state["buffer_pos"]

    before = position(bitgen.state)
    draw()
    return position(bitgen.state) - before


def assert_state_is(bitgen, expected):
    """The Philox ``bitgen`` holds the state ``expected``, field by field."""
    state = bitgen.state
    for field in ("key", "counter"):
        np.testing.assert_array_equal(state["state"][field], expected["state"][field])
    np.testing.assert_array_equal(state["buffer"], expected["buffer"])
    for field in ("buffer_pos", "has_uint32", "uinteger"):
        assert state[field] == expected[field], field


def _philox_at(counter, seed=11):
    """A fresh Philox(seed) with its 256-bit counter set to ``counter``."""
    bitgen = np.random.Philox(seed)
    state = bitgen.state
    state["state"]["counter"] = np.array(counter, dtype=np.uint64)
    bitgen.state = state
    return bitgen


def _philox_then(values, seed=7):
    """A Philox whose next draws are ``values`` (at most 4), then its stream."""
    bitgen = np.random.Philox(seed)
    state = bitgen.state
    state["buffer"][4 - len(values):] = values
    state["buffer_pos"] = 4 - len(values)
    bitgen.state = state
    return bitgen


@needs_c
@pytest.mark.parametrize("routine", ROUTINES)
def test_long_stream_equals_sample_simplex(routine):
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


# Both routines read the stream through a buffer of 32 values, eight Philox
# blocks, refilled eight blocks at a time; the wide routine takes the fast
# path on groups of up to eight of them.  The first 256 values are eight
# refills of that buffer.
WINDOW = 256


@needs_c
@pytest.mark.parametrize("routine", ROUTINES)
def test_chunk_counts_end_at_every_offset_of_a_buffer(routine):
    # rows of 4 values, m = 1..70, in one block or in blocks of 16 rows: a
    # fresh stream's first value opens a buffer, and one started 1, 2 or 3
    # values in starts 29, 30 or 31 values into the buffer, NumPy's block
    # taken over as its last, so the chunks end the fill at every offset of
    # a buffer and of a group, in the first eight buffers and past them;
    # both counting paths, with and without a pair family
    nus = {4: 0.25}
    for skip in range(4):
        for m in range(1, 71):
            for rows in {m, min(m, 16)}:
                for codes in ((0, 1, 2, 3), (0, 3)):
                    bitgen, twin = _twin_philox(4, skip)
                    buf, ref = np.empty((rows, 4)), np.empty((rows, 4))
                    with philox_routine(routine):
                        got = _mc_kernel.chunk_counts(bitgen, m, buf, codes, nus)
                    assert got == _mc_kernel_py.chunk_counts(twin, m, ref, codes, nus), (skip, m)
                    assert_same_bits(buf, ref)


# In Philox(286) the 248th exponential NumPy draws, the last of 62 rows of
# 4, leaves the ziggurat's fast path at raw value 255, the last of the
# eighth buffer, so its replay reads across a refill
PAST_WINDOW_SEED, PAST_WINDOW_ROWS = 286, 62


@needs_c
@pytest.mark.parametrize("routine", ROUTINES)
def test_chunk_ending_in_a_draw_that_reads_across_a_refill(routine):
    bitgen = np.random.Philox(PAST_WINDOW_SEED)
    draw = np.random.Generator(bitgen).standard_exponential
    spans = [_raws_drawn(bitgen, draw) for _ in range(4 * PAST_WINDOW_ROWS)]  # NumPy alone
    assert sum(spans[:-1]) == WINDOW - 1 and spans[-1] > 2
    nus = {4: 0.25}
    for codes in ((0, 1, 2, 3), (0, 3)):
        bitgen, twin = _twin_philox(PAST_WINDOW_SEED, 0)
        buf, ref = np.empty((PAST_WINDOW_ROWS, 4)), np.empty((PAST_WINDOW_ROWS, 4))
        with philox_routine(routine):
            got = _mc_kernel.chunk_counts(bitgen, PAST_WINDOW_ROWS, buf, codes, nus)
        assert got == _mc_kernel_py.chunk_counts(twin, PAST_WINDOW_ROWS, ref, codes, nus)
        assert_same_bits(buf, ref)


STARTS = ["fresh", "raw1", "raw2", "raw3"]


@needs_c
@pytest.mark.parametrize("routine", ROUTINES)
@pytest.mark.parametrize("start", STARTS)
@pytest.mark.parametrize("d", [4, 64])
def test_chunk_counts_from_a_fresh_or_started_stream_equal_sample_simplex(start, d, routine):
    def philox():
        bitgen = np.random.Philox(11)
        if start != "fresh":
            bitgen.random_raw(int(start[-1]))  # buffer_pos 1, 2, 3
        return bitgen

    m, bitgen, twin = 300, philox(), philox()
    buf = np.empty((64, d))
    with philox_routine(routine):
        got = _mc_kernel.chunk_counts(bitgen, m, buf, range(4), {d: 0.05})[d]
    whole = sample_simplex(np.random.Generator(twin), m, d)
    assert_same_bits(buf[:m % 64], whole[-(m % 64):])
    assert got == tuple(_mc_kernel_py.count_hits(whole, code, 0.05) for code in range(4))


@needs_c
@pytest.mark.parametrize("routine", ROUTINES)
@pytest.mark.parametrize("low", [0, 2**63 - 1], ids=["zero", "largest"])
def test_c_chunk_counts_leaves_the_bit_generator_as_given(low, routine):
    # the kernel only reads the state; from the largest counter it takes,
    # 2^63 - 1, its blocks go on past 2^63 as NumPy's do
    m, d = 300, 4
    bitgen, twin = _philox_at([low, 0, 0, 0]), _philox_at([low, 0, 0, 0])
    before, buf = bitgen.state, np.empty((64, d))
    with philox_routine(routine):
        got = _mc_kernel.chunk_counts(bitgen, m, buf, range(4), {d: 0.05})[d]
    whole = sample_simplex(np.random.Generator(twin), m, d)
    assert_same_bits(buf[:m % 64], whole[-(m % 64):])
    assert got == tuple(_mc_kernel_py.count_hits(whole, code, 0.05) for code in range(4))
    assert_state_is(bitgen, before)


# counters past the kernel's one word below 2^63: two with the second word
# set whose low word wraps within eight blocks, the low word's top bit, and
# the top word
CARRY = [2**64 - 2, 2**64 - 1, 0, 0]
WRAP = [2**64 - 6, 2**64 - 1, 0, 0]


@needs_c
@pytest.mark.parametrize("counter", [CARRY, WRAP, [2**63, 0, 0, 0], [0, 0, 0, 1]],
                         ids=["carry", "wrap", "low-2^63", "word3"])
def test_chunk_counts_refuses_a_counter_past_one_word(counter):
    bitgen = _philox_at(counter)
    before = bitgen.state
    with pytest.raises(ValueError, match=r"counter below 2\^63"):
        _mc_kernel.chunk_counts(bitgen, 8, np.empty((8, 4)), (2,), {4: 0.0})
    assert_state_is(bitgen, before)


@needs_c
@pytest.mark.parametrize("routine", ROUTINES)
@pytest.mark.parametrize("d", [4, 64])
def test_chunk_counts_takes_a_buffer_pos_past_the_buffer_as_spent(d, routine):
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
    bitgen = philox(-1)
    with philox_routine(routine), pytest.raises(ValueError, match="buffer_pos"):
        _mc_kernel.chunk_counts(bitgen, m, buf, range(4), {d: 0.05})


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
    bitgen = np.random.Philox(1)
    before = bitgen.state
    with pytest.raises(ValueError, match="row width"):
        _mc_kernel.chunk_counts(bitgen, 8, np.empty((8, d)), (2,), {d: 0.0})
    assert_state_is(bitgen, before)


@needs_c
def test_build_keys_on_the_compile_command(tmp_path, monkeypatch):
    # a one-function source is keyed as the kernel is, and builds in a
    # fraction of the kernel's time
    source, cache = tmp_path / "one.c", tmp_path / "cache"
    source.write_text("int one(void) { return 1; }\n")
    first = _mc_kernel._build(source, cache, "cc")
    assert _mc_kernel._build(source, cache, "cc") == first
    monkeypatch.setattr(_mc_kernel, "_CFLAGS", _mc_kernel._CFLAGS + ("-DUNUSED_MACRO",))
    second = _mc_kernel._build(source, cache, "cc")
    assert second != first
    assert sorted(cache.iterdir()) == sorted([first, second])
