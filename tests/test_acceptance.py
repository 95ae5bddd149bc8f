"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest -v tests/test_acceptance.py`` — the verbose test names
double as the per-criterion report; add ``-s`` to see the printed lines.
"""

import io
import json
import math

import numpy as np

from ghzpolytope.classify import is_fully_biseparable, is_ppt_all_bipartitions
from ghzpolytope.cli import main as cli_main
from ghzpolytope.decompose import certify_midpoint, cube_vertex_decomposition
from ghzpolytope.indices import all_bipartitions
from ghzpolytope.mermin import (
    build_mermin_operator,
    dist_mermin_to_fbi,
    mermin_expectation,
    mermin_threshold,
    violates_mermin,
)
from ghzpolytope.polytopes import (
    facet_count,
    iter_extreme_points,
    iter_facets,
    iter_selections,
    min_center_facet_distance,
    vertex_count,
)
from ghzpolytope.states import GhzDiagonalState, az_from_prob, density_from_prob
from ghzpolytope.volume import (
    BISEP_MINUS_FBI,
    FBI,
    GENUINE,
    MC_FAMILIES,
    MERMIN,
    RVR_LIMITS,
    mc_relative_volume,
    rel_vol_exact,
    rvr,
)

BOUNDARY_BAND = 1e-11
SEED = 20260825


def _verdict(num, name, ok):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} {name} failed"


def test_criterion_01_ppt_equivalence():
    ok = True
    for n in (2, 3, 4):
        rng = np.random.default_rng(SEED + n)
        d = 2**n
        for _ in range(10_000):
            s = GhzDiagonalState(n, rng.dirichlet(np.ones(d)))
            a, z = az_from_prob(s)
            if abs(np.abs(z).max() - a.min()) < BOUNDARY_BAND:
                continue
            if is_fully_biseparable(s)[0] != is_ppt_all_bipartitions(s):
                ok = False
    _verdict(1, "PPT equivalence of the full-biseparability test", ok)


def test_criterion_02_mermin_closed_form():
    ok = True
    for n in (2, 3, 4, 5):
        m = build_mermin_operator(n)
        d = 2**n
        off = m.matrix.copy()
        off[0, d - 1] = off[d - 1, 0] = 0.0
        ok &= np.abs(off).max() < 1e-12
        ok &= abs(float(np.sum(m.matrix**2)) - 2 ** (2 * n - 1)) < 1e-9
        rng = np.random.default_rng(SEED + 10 * n)
        for _ in range(1_000):
            s = GhzDiagonalState(n, rng.dirichlet(np.ones(d)))
            trace = float(np.sum(m.matrix * density_from_prob(s)))
            ok &= abs(trace - mermin_expectation(s)) < 1e-10
    _verdict(2, "Mermin expectation closed form", ok)


def test_criterion_03_volume_closed_forms():
    cases = [
        (GENUINE, 2, 1_000_000),
        (GENUINE, 3, 1_000_000),
        (FBI, 2, 1_000_000),
        (FBI, 3, 1_000_000),
        (MERMIN, 3, 10_000_000),
    ]
    ok = True
    for family, n, samples in cases:
        rep = mc_relative_volume(family, n, samples=samples, seed=SEED)
        ok &= abs(rep.mc_estimate - rep.exact) <= 4 * rep.mc_stderr
    _verdict(3, "Monte-Carlo volumes match the closed forms", ok)


def _spanning(vertices, facets, d):
    for v in vertices:
        if not all(f.satisfies(v) for f in facets):
            return False
        rows = [f.coeffs for f in facets if f.saturates(v)]
        rows.append(np.ones(d))
        if np.linalg.matrix_rank(np.vstack(rows)) != d:
            return False
    return True


def test_criterion_04_combinatorial_counts():
    ok = True
    for n in (2, 3, 4):
        d = 2**n
        b_vertices = list(iter_extreme_points("BISEP", n))
        f_vertices = list(iter_extreme_points("FBI", n))
        ok &= len(b_vertices) == d * (d - 1) // 2 == vertex_count("BISEP", n)
        ok &= len(f_vertices) == d // 2 + 2 ** (d // 2) == vertex_count("FBI", n)
        b_facets = list(iter_facets("BISEP", n))
        f_facets = list(iter_facets("FBI", n))
        ok &= len(b_facets) == 2 * d == facet_count("BISEP", n)
        ok &= len(f_facets) == d * d // 2 == facet_count("FBI", n)
        ok &= _spanning(b_vertices, b_facets, d)
        ok &= _spanning(f_vertices, f_facets, d)
    _verdict(4, "vertex and facet counts with spanning saturation", ok)


def test_criterion_05_trisection_and_degeneracy():
    ok = all(
        rel_vol_exact(GENUINE, n) + rel_vol_exact(BISEP_MINUS_FBI, n) + rel_vol_exact(FBI, n)
        == 1.0
        for n in range(2, 21)
    )
    b2 = {tuple(np.round(s.p, 12)) for s in iter_extreme_points("BISEP", 2)}
    f2 = {tuple(np.round(s.p, 12)) for s in iter_extreme_points("FBI", 2)}
    ok &= b2 == f2
    ok &= rel_vol_exact(BISEP_MINUS_FBI, 2) == 0.0
    _verdict(5, "exact trisection and the n=2 degeneracy", ok)


def test_criterion_06_inscribed_balls():
    ok = True
    for n in (2, 3, 4):
        d = 2**n
        expected = math.sqrt(1.0 / (d * (d - 1)))
        radii = [min_center_facet_distance(fam, n) for fam in ("GHZ", "BISEP", "FBI")]
        ok &= all(abs(r - expected) < 1e-10 for r in radii)
        ok &= max(radii) - min(radii) < 1e-10
    _verdict(6, "inscribed-ball radii coincide across families", ok)


def test_criterion_07_rvr_limits():
    ok = all(abs(rvr(fam, 20) - RVR_LIMITS[fam]) < 0.02 for fam in MC_FAMILIES)
    for fam in MC_FAMILIES:
        errs = [abs(rvr(fam, n) - RVR_LIMITS[fam]) for n in range(6, 21)]
        ok &= all(a >= b - 1e-15 for a, b in zip(errs, errs[1:]))
    _verdict(7, "relative volume radii approach their limits", ok)


def test_criterion_08_mermin_tangency_and_onset():
    ok = True
    for n in (3, 4):
        nu = mermin_threshold(n)
        gaps = [nu - (v.p[0] - v.p[-1]) for v in iter_extreme_points("BISEP", n)]
        ok &= min(gaps) >= 0.0 and min(gaps) < 1e-15
        ok &= not any(violates_mermin(v)[0] for v in iter_extreme_points("BISEP", n))
    p = np.zeros(32)
    p[0] = 0.5
    p[1:31] = 0.5 / 30
    s5 = GhzDiagonalState(5, p)
    ok &= s5.p.max() <= 0.5 and violates_mermin(s5)[0]
    verts = np.array([v.p for v in iter_extreme_points("FBI", 3)])
    nu = mermin_threshold(3)
    vertex_min = (nu - (verts[:, 0] - verts[:, -1])).min() / math.sqrt(2)
    closed = (nu - 2 / 8) / math.sqrt(2)
    ok &= abs(dist_mermin_to_fbi(3) - closed) < 1e-8
    ok &= abs(dist_mermin_to_fbi(3) - vertex_min) < 1e-8
    _verdict(8, "Mermin tangency, five-qubit onset, facet distance", ok)


def test_criterion_09_decomposition_certificates():
    ok = True
    for n in (2, 3, 4):
        d = 2**n
        for i in range(d):
            for j in range(i + 1, d):
                try:
                    certify_midpoint(n, i, j)
                except AssertionError:
                    ok = False
        for sigma in iter_selections(n):
            for bp in all_bipartitions(n):
                try:
                    cert = cube_vertex_decomposition(n, sigma, bp)
                except AssertionError:
                    ok = False
                    continue
                recon = sum(w * s.p for w, s, _ in cert.components)
                ok &= abs(recon - cert.state.p).max() < 1e-9
    _verdict(9, "exhaustive separability certificates", ok)


def test_criterion_10_report_determinism():
    def run(threads):
        out = io.StringIO()
        argv = [
            "report",
            "--n-min", "2",
            "--n-max", "4",
            "--mc",
            "--seed", str(SEED),
            "--threads", str(threads),
        ]
        assert cli_main(argv, out=out) == 0
        return out.getvalue()

    first, second = run(1), run(1)
    ok = first == second
    # across thread counts the data rows are byte-identical; the echoed
    # configuration necessarily records the thread count itself
    ok &= first.splitlines()[1:] == run(4).splitlines()[1:]
    cfg = json.loads(first.splitlines()[0].removeprefix("# config: "))
    ok &= cfg["seed"] == SEED
    _verdict(10, "report output is byte-identical for a fixed seed", ok)
