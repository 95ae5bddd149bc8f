import itertools

import numpy as np
import pytest

from ghzpolytope.classify import is_biseparable, is_fully_biseparable
from ghzpolytope.decompose import cube_vertex_decomposition
from ghzpolytope.errors import InvalidArgumentError, UnsupportedSizeError
from ghzpolytope.indices import DENSE_MAX_QUBITS, FBI_VERTEX_MAX_QUBITS, MAX_QUBITS, Bipartition
from ghzpolytope.mermin import dist_mermin_to_fbi
from ghzpolytope import polytopes
from ghzpolytope.polytopes import (
    FAMILIES,
    Ball,
    FacetBlock,
    cube_vertex,
    facet_count,
    facet_distance,
    hs_distance,
    inscribed_ball,
    iter_extreme_points,
    iter_facets,
    iter_selections,
    midpoint,
    min_center_facet_distance,
    simplex_height,
    vertex_count,
)
from ghzpolytope.states import GhzDiagonalState, density_from_prob


def projection_distance(p, coeffs, offset):
    """Independent oracle: distance from p to {sum(x)=1, coeffs.x=offset}
    by solving the KKT system of the least-squares projection."""
    d = p.size
    A = np.vstack([np.ones(d), coeffs])
    b = np.array([1.0, offset])
    kkt = np.block([[np.eye(d), A.T], [A, np.zeros((2, 2))]])
    rhs = np.concatenate([p, b])
    sol = np.linalg.solve(kkt, rhs)
    return float(np.linalg.norm(sol[:d] - p))


# ---------------------------------------------------------------- vertices


def test_bisep_vertices_two_qubit():
    pts = list(iter_extreme_points("BISEP", 2))
    assert len(pts) == 6
    expected_pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for s, (i, j) in zip(pts, expected_pairs):
        np.testing.assert_allclose(s.p, midpoint(2, i, j).p)


def test_bisep_vertex_counts():
    for n in (2, 3, 4):
        d = 2**n
        assert len(list(iter_extreme_points("BISEP", n))) == d * (d - 1) // 2
    assert len(list(iter_extreme_points("BISEP", 3))) == 28


def test_bisep_vertices_have_two_halves():
    for s in iter_extreme_points("BISEP", 3):
        assert np.count_nonzero(s.p == 0.5) == 2


def test_fbi_vertices_two_qubit():
    pts = list(iter_extreme_points("FBI", 2))
    assert len(pts) == 6
    cube = [set(np.flatnonzero(s.p)) for s in pts[2:]]
    assert {frozenset(c) for c in cube} == {
        frozenset({0b00, 0b01}),
        frozenset({0b00, 0b10}),
        frozenset({0b11, 0b01}),
        frozenset({0b11, 0b10}),
    }


def test_fbi_vertex_counts():
    assert len(list(iter_extreme_points("FBI", 3))) == 4 + 16
    for n in (2, 3, 4):
        d = 2**n
        assert len(list(iter_extreme_points("FBI", n))) == d // 2 + 2 ** (d // 2)


def test_cube_vertices_flat():
    for s in list(iter_extreme_points("FBI", 3))[4:]:
        assert set(np.round(s.p, 12)) <= {0.0, 0.25}


def test_vertex_caps():
    # the full list raises at the call, before any row is built
    with pytest.raises(UnsupportedSizeError):
        iter_extreme_points("FBI", 6)
    with pytest.raises(UnsupportedSizeError):
        iter_extreme_points("BISEP", 9)
    # full facet lists stop at the same n for every family: a d x d block at n = 9
    # would be 2 MiB for ghz, and 32 GiB at n = 16
    for family in FAMILIES:
        with pytest.raises(UnsupportedSizeError):
            iter_facets(family, 9)
    # a stop streams above the cap
    (first,) = iter_extreme_points("BISEP", 9, stop=1)
    assert first.p[0] == 0.5
    (facet,) = iter_facets("GHZ", 9, stop=1)
    assert facet.label == "p_000000000>=0" and facet.coeffs[0] == 1.0
    # the two F_n iterators kept by name are uncapped
    assert next(polytopes.iter_extreme_points_fbi(6)).p[0] == 0.5
    assert next(polytopes.iter_facets_fbi(9)).label == "p_000000000+p_111111111>=p_000000000-p_111111111"


BAD_INDICES = {
    "cube-vertex-negative": (cube_vertex, (3, [0, 1, 2, -3])),  # would be 010 and its flip 101
    "cube-vertex-past-d": (cube_vertex, (3, [0, 1, 2, 12])),
    "cube-vertex-repeated": (cube_vertex, (3, [0, 1, 3, 5, 0])),
    "decomposition-repeated": (cube_vertex_decomposition, (3, [0, 1, 3, 5, 0], Bipartition(3, {1}))),
    "midpoint-negative": (midpoint, (3, -1, 2)),  # would be m_{111,010}
    "midpoint-past-d": (midpoint, (3, 0, 8)),
    "vertex-past-d": (GhzDiagonalState.vertex, (2, 4)),
}


@pytest.mark.parametrize("call, args", BAD_INDICES.values(), ids=BAD_INDICES.keys())
def test_out_of_range_and_repeated_indices_are_refused(call, args):
    with pytest.raises(InvalidArgumentError):
        call(*args)


BAD_QUBIT_COUNTS = {
    "vertex-count-40": (vertex_count, ("FBI", 40), UnsupportedSizeError),
    "vertex-count-0": (vertex_count, ("FBI", 0), InvalidArgumentError),
    "facet-count-0": (facet_count, ("FBI", 0), InvalidArgumentError),
    "facet-count-str": (facet_count, ("FBI", "3"), InvalidArgumentError),
    "selections-negative": (iter_selections, (-1,), InvalidArgumentError),
    "uniform-str": (GhzDiagonalState.uniform, ("3",), InvalidArgumentError),
    "uniform-negative": (GhzDiagonalState.uniform, (-1,), InvalidArgumentError),
    "simplex-height-0": (simplex_height, (0,), InvalidArgumentError),
    "dist-mermin-str": (dist_mermin_to_fbi, ("3",), InvalidArgumentError),
}


@pytest.mark.parametrize("call, args, error", BAD_QUBIT_COUNTS.values(), ids=BAD_QUBIT_COUNTS.keys())
def test_count_and_size_helpers_check_the_qubit_count(call, args, error):
    with pytest.raises(error):
        call(*args)


def test_selections_valid():
    for sigma in iter_selections(3):
        members = set(sigma)
        assert len(members) == 4
        for i in members:
            assert 7 - i not in members


def test_fbi_cube_vertices_past_the_first_block_match_cube_vertex():
    # n = 9: 256 rows to a block, so the cube's second block sets a high bit
    # of the selection, and a stop inside it cuts that block short
    n, d = 9, 512
    rows = [s.p for s in iter_extreme_points("FBI", n, stop=700)]
    cube = [cube_vertex(n, sigma).p for sigma in itertools.islice(iter_selections(n), 700 - d // 2)]
    assert [p.tobytes() for p in rows[d // 2:]] == [p.tobytes() for p in cube]
    blocks = list(polytopes.vertex_blocks_fbi(n, stop=700))
    assert [len(b) for b in blocks] == [256, 256, 188]
    assert np.concatenate(blocks).tobytes() == np.array(rows).tobytes()


BLOCKS = {
    ("GHZ", "facets"): polytopes.facet_blocks_ghz,
    ("BISEP", "facets"): polytopes.facet_blocks_bisep,
    ("FBI", "facets"): polytopes.facet_blocks_fbi,
    ("GHZ", "vertices"): polytopes.vertex_blocks_ghz,
    ("BISEP", "vertices"): polytopes.vertex_blocks_bisep,
    ("FBI", "vertices"): polytopes.vertex_blocks_fbi,
}


@pytest.mark.parametrize("family, kind", BLOCKS)
@pytest.mark.parametrize("n, stop", [(1, None), (3, None), (3, 0), (3, 5), (8, None), (9, 700), (16, 5)])
def test_blocks_are_capped_in_bytes_and_stop_after_stop_rows(family, kind, n, stop):
    if stop is None and n == 8 and (family, kind) == ("FBI", "vertices"):
        stop = 3000  # F_8 has 2^128 + 128 vertices
    d = 2**n
    count = (facet_count if kind == "facets" else vertex_count)(family, n)
    blocks = [b.coeffs if kind == "facets" else b for b in BLOCKS[family, kind](n, stop)]
    assert sum(len(b) for b in blocks) == (count if stop is None else min(count, stop))
    for b in blocks:
        assert b.dtype == np.float64 and b.flags.c_contiguous and b.shape[1] == d
        assert 0 < len(b) and b.nbytes <= max(polytopes._BLOCK_BYTES, 8 * d)


LIST_CAPS = {
    ("GHZ", "facets"): DENSE_MAX_QUBITS,
    ("BISEP", "facets"): DENSE_MAX_QUBITS,
    ("FBI", "facets"): DENSE_MAX_QUBITS,
    ("GHZ", "vertices"): DENSE_MAX_QUBITS,
    ("BISEP", "vertices"): DENSE_MAX_QUBITS,
    ("FBI", "vertices"): FBI_VERTEX_MAX_QUBITS,
}


@pytest.mark.parametrize("family, kind", BLOCKS)
def test_family_dispatch_is_the_family_enumerator_up_to_its_list_cap(family, kind, monkeypatch):
    dispatch = polytopes.facet_blocks if kind == "facets" else polytopes.vertex_blocks

    def rows(blocks):
        return np.concatenate([b.coeffs if kind == "facets" else b for b in blocks]).tobytes()

    cap = LIST_CAPS[family, kind]
    for n, stop in ((1, None), (3, None), (3, 5), (cap + 1, 3), (MAX_QUBITS, 2)):
        assert rows(dispatch(family, n, stop)) == rows(BLOCKS[family, kind](n, stop))
    # past the cap the full list raises at the call, before any row is built
    monkeypatch.setattr(polytopes, "_rows_with", None)
    monkeypatch.setattr(np, "zeros", None)
    with pytest.raises(UnsupportedSizeError, match=f"up to n = {cap}"):
        dispatch(family, cap + 1)
    with pytest.raises(UnsupportedSizeError):
        dispatch(family, MAX_QUBITS + 1, 1)
    with pytest.raises(InvalidArgumentError):
        dispatch(family, 0, 1)
    with pytest.raises(InvalidArgumentError):
        dispatch(family.lower(), 3)


@pytest.mark.parametrize("n", range(1, 5))
def test_library_rows_are_the_block_rows(n):
    for family in FAMILIES:
        facets = iter_facets(family, n)
        assert iter(facets) is facets  # an iterator, not a list
        facets = list(facets)
        blocks = list(BLOCKS[family, "facets"](n))
        assert all(isinstance(b, FacetBlock) for b in blocks)
        assert [f.label for f in facets] == [label for b in blocks for label in b.labels]
        assert [f.offset for f in facets] == [o for b in blocks for o in b.offsets.tolist()]
        assert np.array([f.coeffs for f in facets]).tobytes() == np.concatenate([b.coeffs for b in blocks]).tobytes()
        assert all(f.family == family for f in facets)
        vertices = iter_extreme_points(family, n)
        assert iter(vertices) is vertices
        rows = np.array([s.p for s in vertices])
        assert rows.tobytes() == np.concatenate(list(BLOCKS[family, "vertices"](n))).tobytes()


# ---------------------------------------------------------------- facets


def test_facet_counts():
    for n in (2, 3, 4):
        d = 2**n
        assert len(list(iter_facets("GHZ", n))) == d == facet_count("GHZ", n)
        assert len(list(iter_facets("BISEP", n))) == 2 * d == facet_count("BISEP", n)
        assert len(list(iter_facets("FBI", n))) == d * d // 2 == facet_count("FBI", n)


@pytest.mark.parametrize("n", range(1, 7))
def test_fbi_facet_rows_match_unit_vector_oracle(n):
    d = 2**n
    eye = np.eye(d)
    bits = [format(k, f"0{n}b") for k in range(d)]
    facets = iter_facets("FBI", n)
    for i in range(d // 2):
        for j in range(d):
            f = next(facets)
            oracle = eye[i] + eye[d - 1 - i] - eye[j] + eye[d - 1 - j]
            # bit for bit, so a -0.0 where the oracle has 0.0 fails too
            assert f.coeffs.tobytes() == oracle.tobytes()
            assert f.label == f"p_{bits[i]}+p_{bits[d - 1 - i]}>=p_{bits[j]}-p_{bits[d - 1 - j]}"
            assert (f.family, f.offset) == ("FBI", 0.0)
    assert next(facets, None) is None


@pytest.mark.parametrize("n", range(1, 5))
def test_ghz_and_bisep_facet_iterators_match_unit_vectors(n):
    d = 2**n
    eye = np.eye(d)
    bits = [format(k, f"0{n}b") for k in range(d)]
    ghz = list(iter_facets("GHZ", n))
    assert [f.label for f in ghz] == [f"p_{b}>=0" for b in bits]
    assert all(f.coeffs.tobytes() == eye[i].tobytes() and f.offset == 0.0 for i, f in enumerate(ghz))
    bisep = list(iter_facets("BISEP", n))
    assert [f.label for f in bisep] == [f"p_{b}<=1/2" for b in bits] + [f"p_{b}>=0" for b in bits]
    rows = np.concatenate([0.0 - eye, eye])  # +0.0 off the diagonal, as the FBI rows
    assert all(f.coeffs.tobytes() == row.tobytes() for f, row in zip(bisep, rows))
    assert [f.offset for f in bisep] == [-0.5] * d + [0.0] * d


@pytest.mark.parametrize("n", range(1, 7))
def test_bisep_facet_rows_match_unit_vector_oracle(n):
    d = 2**n
    bits = [format(k, f"0{n}b") for k in range(d)]
    facets = iter_facets("BISEP", n)
    for sign, relation, offset in ((-1.0, "<=1/2", -0.5), (1.0, ">=0", 0.0)):
        for i in range(d):
            f = next(facets)
            oracle = np.zeros(d)
            oracle[i] = sign
            # bit for bit, so a -0.0 where the oracle has 0.0 fails too
            assert f.coeffs.tobytes() == oracle.tobytes()
            assert (f.family, f.label, f.offset) == ("BISEP", f"p_{bits[i]}{relation}", offset)
    assert next(facets, None) is None


def test_bisep_vertices_satisfy_facets():
    for n in (2, 3):
        facets = list(iter_facets("BISEP", n))
        for v in iter_extreme_points("BISEP", n):
            assert all(f.satisfies(v) for f in facets)


def test_bisep_vertex_on_exactly_d_facets():
    for n in (2, 3):
        d = 2**n
        facets = list(iter_facets("BISEP", n))
        for v in iter_extreme_points("BISEP", n):
            assert sum(f.saturates(v) for f in facets) == d


def test_uniform_strictly_interior():
    for n in (2, 3):
        u = GhzDiagonalState.uniform(n)
        for family in FAMILIES:
            assert all(f.value(u) > 1e-6 for f in iter_facets(family, n))


def test_fbi_vertices_satisfy_facets_with_spanning_saturation():
    for n in (2, 3):
        d = 2**n
        facets = list(iter_facets("FBI", n))
        for v in iter_extreme_points("FBI", n):
            sat = [f for f in facets if f.saturates(v)]
            assert all(f.satisfies(v) for f in facets)
            rows = np.vstack([f.coeffs for f in sat] + [np.ones(d)])
            assert np.linalg.matrix_rank(rows) == d


def test_fbi_facets_equal_membership_test():
    rng = np.random.default_rng(42)
    facets = list(iter_facets("FBI", 3))
    for _ in range(10_000):
        s = GhzDiagonalState(3, rng.dirichlet(np.ones(8)))
        violates_facet = any(not f.satisfies(s) for f in facets)
        ok, _ = is_fully_biseparable(s)
        assert violates_facet == (not ok)


def test_hull_points_pass_membership():
    rng = np.random.default_rng(43)
    for n in (2, 3):
        bisep_v = np.array([s.p for s in iter_extreme_points("BISEP", n)])
        fbi_v = np.array([s.p for s in iter_extreme_points("FBI", n)])
        for _ in range(200):
            w = rng.dirichlet(np.ones(len(bisep_v)))
            assert is_biseparable(GhzDiagonalState(n, w @ bisep_v))[0]
            w = rng.dirichlet(np.ones(len(fbi_v)))
            assert is_fully_biseparable(GhzDiagonalState(n, w @ fbi_v))[0]


# ---------------------------------------------------------------- metric


def test_simplex_height():
    assert simplex_height(2) == pytest.approx(np.sqrt(4 / 3))
    assert simplex_height(1) == pytest.approx(np.sqrt(2))


def test_height_matches_hs_distance():
    for n in (1, 2, 3):
        d = 2**n
        v = GhzDiagonalState.vertex(n, 0)
        facet_center = GhzDiagonalState(n, np.array([0.0] + [1 / (d - 1)] * (d - 1)))
        assert hs_distance(v, facet_center) == pytest.approx(simplex_height(n))


def test_center_divides_height():
    for n in (2, 3):
        d = 2**n
        v = GhzDiagonalState.vertex(n, 0)
        c = GhzDiagonalState.uniform(n)
        assert hs_distance(v, c) / simplex_height(n) == pytest.approx(1 - 1 / d)


def test_hs_distance_matches_frobenius():
    rng = np.random.default_rng(44)
    for n in (1, 2, 3):
        d = 2**n
        s1 = GhzDiagonalState(n, rng.dirichlet(np.ones(d)))
        s2 = GhzDiagonalState(n, rng.dirichlet(np.ones(d)))
        frob = np.linalg.norm(density_from_prob(s1) - density_from_prob(s2))
        assert hs_distance(s1, s2) == pytest.approx(frob, abs=1e-12)


def test_vertices_pairwise_distance_sqrt2():
    for n in (1, 2, 3):
        vs = list(iter_extreme_points("GHZ", n))
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                assert hs_distance(vs[i], vs[j]) == pytest.approx(np.sqrt(2))


def test_facet_distance_examples():
    u = GhzDiagonalState.uniform(2)
    f = next(iter_facets("GHZ", 2))
    assert facet_distance(u, f) == pytest.approx(0.25 * np.sqrt(4 / 3))
    # symmetric for all indices
    dists = [facet_distance(u, f) for f in iter_facets("GHZ", 2)]
    np.testing.assert_allclose(dists, dists[0])
    # point on the facet
    v = GhzDiagonalState(2, np.array([0.0, 0.5, 0.25, 0.25]))
    assert facet_distance(v, next(iter_facets("GHZ", 2))) == pytest.approx(0.0, abs=1e-12)


def test_facet_distance_against_projection_oracle():
    rng = np.random.default_rng(45)
    for n in (2, 3):
        d = 2**n
        facets = [f for family in FAMILIES for f in iter_facets(family, n)]
        for _ in range(50):
            p = rng.dirichlet(np.ones(d))
            s = GhzDiagonalState(n, p)
            f = facets[rng.integers(len(facets))]
            oracle = projection_distance(p, f.coeffs, f.offset)
            assert facet_distance(s, f) == pytest.approx(oracle, abs=1e-10)


def test_fbi_triangle_cube_orthogonality():
    # affine spans of the diagonal midpoints and of the cube, through the
    # shared center, are HS-orthogonal and meet only at the center
    for n in (2, 3):
        d = 2**n
        c = np.full(d, 1 / d)
        tri = np.array([midpoint(n, i, d - 1 - i).p - c for i in range(d // 2)])
        cube = np.array([cube_vertex(n, sigma).p - c for sigma in iter_selections(n)])
        gram = tri @ cube.T
        np.testing.assert_allclose(gram, 0.0, atol=1e-12)
        # intersection only at the center: span ranks add up
        r_tri = np.linalg.matrix_rank(tri)
        r_cube = np.linalg.matrix_rank(cube)
        r_both = np.linalg.matrix_rank(np.vstack([tri, cube]))
        assert r_both == r_tri + r_cube


def test_fbi_cube_side_length():
    # neighboring cube vertices differ in one selection slot
    for n in (2, 3):
        d = 2**n
        sigmas = list(iter_selections(n))
        s0 = cube_vertex(n, sigmas[0])
        s1 = cube_vertex(n, sigmas[1])
        assert hs_distance(s0, s1) == pytest.approx(2 * np.sqrt(2) / d)


def test_fbi_triangle_side_length():
    for n in (2, 3):
        d = 2**n
        m0 = midpoint(n, 0, d - 1)
        m1 = midpoint(n, 1, d - 2)
        assert hs_distance(m0, m1) == pytest.approx(1.0)


def test_b2_equals_f2():
    b = {tuple(np.round(s.p, 12)) for s in iter_extreme_points("BISEP", 2)}
    f = {tuple(np.round(s.p, 12)) for s in iter_extreme_points("FBI", 2)}
    assert b == f


# ---------------------------------------------------------------- balls


def test_inscribed_ball_values():
    ball = inscribed_ball("GHZ", 2)
    assert isinstance(ball, Ball)
    assert ball.radius == pytest.approx(1 / np.sqrt(12))
    np.testing.assert_allclose(ball.center.p, np.full(4, 0.25))


def test_inscribed_ball_coincides_across_families():
    for n in (2, 3, 4):
        radii = {fam: inscribed_ball(fam, n).radius for fam in ("GHZ", "BISEP", "FBI")}
        assert len(set(radii.values())) == 1


def test_inscribed_ball_is_min_facet_distance():
    for n in (2, 3, 4):
        d = 2**n
        expected = np.sqrt(1 / (d * (d - 1)))
        for fam in ("GHZ", "BISEP", "FBI"):
            assert min_center_facet_distance(fam, n) == pytest.approx(expected, abs=1e-10)
