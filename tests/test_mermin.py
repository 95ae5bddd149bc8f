import numpy as np
import pytest
from scipy.optimize import linprog

from ghzpolytope.errors import InvalidArgumentError, UnsupportedSizeError
from ghzpolytope.mermin import (
    build_mermin_operator,
    dist_mermin_to_fbi,
    mermin_bound,
    mermin_expectation,
    mermin_hyperplane_points,
    mermin_threshold,
    violates_mermin,
)
from ghzpolytope.polytopes import iter_extreme_points, midpoint
from ghzpolytope.states import GhzDiagonalState, density_from_prob


def test_operator_two_qubit():
    m = build_mermin_operator(2)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]])
    expected = np.kron(x, x) - np.kron(y, y)
    np.testing.assert_allclose(m.matrix, expected.real, atol=1e-12)
    assert m.matrix[0b00, 0b11] == pytest.approx(2.0)
    assert m.term_count == 2


def test_operator_three_qubit_entries():
    m = build_mermin_operator(3)
    assert m.matrix[0b000, 0b111] == pytest.approx(4.0)
    off = m.matrix.copy()
    off[0, 7] = off[7, 0] = 0.0
    assert np.abs(off).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_operator_norm(n):
    m = build_mermin_operator(n)
    assert np.sum(m.matrix**2) == pytest.approx(2 ** (2 * n - 1), rel=1e-12)
    assert m.term_count == 2 ** (n - 1)


def test_operator_caps():
    with pytest.raises(InvalidArgumentError):
        build_mermin_operator(1)
    with pytest.raises(UnsupportedSizeError):
        build_mermin_operator(9)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_expectation_matches_trace(n):
    m = build_mermin_operator(n)
    rng = np.random.default_rng(60 + n)
    d = 2**n
    for _ in range(200):
        s = GhzDiagonalState(n, rng.dirichlet(np.ones(d)))
        trace = float(np.trace(m.matrix @ density_from_prob(s)))
        assert mermin_expectation(s) == pytest.approx(trace, abs=1e-10)


def test_expectation_examples():
    s = GhzDiagonalState.vertex(3, 0)
    assert mermin_expectation(s) == pytest.approx(4.0)
    assert mermin_expectation(GhzDiagonalState.uniform(4)) == pytest.approx(0.0)
    p = np.zeros(16)
    p[0] = 0.7
    p[15] = 0.1
    p[1:15] = 0.2 / 14
    assert mermin_expectation(GhzDiagonalState(4, p)) == pytest.approx(4.8)


def test_bounds_and_thresholds():
    assert mermin_bound(2) == 2
    assert mermin_bound(3) == 2
    assert mermin_bound(4) == 4
    assert mermin_threshold(2) == 1.0
    assert mermin_threshold(3) == 0.5
    assert mermin_threshold(4) == 0.5
    assert mermin_threshold(5) == 0.25
    for n in range(2, 12):
        assert mermin_bound(n) == pytest.approx(2 ** (n - 1) * mermin_threshold(n))


def test_violation_maximal_at_ghz_vertex():
    violates, boundary = violates_mermin(GhzDiagonalState.vertex(3, 0))
    assert violates and not boundary


def test_biseparable_never_violates_for_three_four():
    for n in (3, 4):
        for v in iter_extreme_points("BISEP", n):
            violates, _ = violates_mermin(v)
            assert not violates


def test_hyperplane_tangent_to_top_facet():
    # min over B_n vertices of (nu - (p_0 - p_1...1)) is 0, attained at m_{0,i}
    for n in (3, 4):
        nu = mermin_threshold(n)
        gaps = [nu - (v.p[0] - v.p[-1]) for v in iter_extreme_points("BISEP", n)]
        assert min(gaps) == pytest.approx(0.0, abs=1e-15)


def test_biseparable_violation_at_five_qubits():
    p = np.zeros(32)
    p[0] = 0.5
    p[1:31] = 0.5 / 30
    s = GhzDiagonalState(5, p)
    assert s.p.max() <= 0.5
    violates, _ = violates_mermin(s)
    assert violates


@pytest.mark.parametrize("n", ["3", 3.0, None, True, 1])
def test_thresholds_and_bounds_refuse_non_integer_or_small_n(n):
    with pytest.raises(InvalidArgumentError, match="defined for integer n >= 2"):
        mermin_threshold(n)
    with pytest.raises(InvalidArgumentError, match="defined for integer n >= 2"):
        mermin_bound(n)
    with pytest.raises(InvalidArgumentError):
        mermin_hyperplane_points(n)


def test_hyperplane_points():
    pts = mermin_hyperplane_points(3)
    assert len(pts) == 7
    nu = mermin_threshold(3)
    for w in pts:
        assert w.p[0] - w.p[7] == pytest.approx(nu)
    # for n=3, w_i = m_{0,i} for i != 1...1
    for i, w in zip(range(1, 7), pts):
        np.testing.assert_allclose(w.p, midpoint(3, 0, i).p)
    # the 1...1 edge point
    np.testing.assert_allclose(pts[-1].p[[0, 7]], [0.75, 0.25])


def test_fbi_extreme_expectations():
    for n in (2, 3, 4):
        d = 2**n
        for k, v in enumerate(iter_extreme_points("FBI", n)):
            e = mermin_expectation(v)
            if k < d // 2:
                assert e == pytest.approx(0.0)
            else:
                assert abs(e) == pytest.approx(1.0)
            assert abs(e) <= mermin_bound(n)


def test_dist_to_fbi_closed_form():
    assert dist_mermin_to_fbi(3) == pytest.approx((0.5 - 0.25) / np.sqrt(2))
    assert dist_mermin_to_fbi(4) == pytest.approx((0.5 - 0.125) / np.sqrt(2))


def test_dist_to_fbi_vertex_and_hull_minimization():
    n = 3
    nu = mermin_threshold(n)
    verts = np.array([v.p for v in iter_extreme_points("FBI", n)])
    # distance from a point to the hyperplane p_0 - p_7 = nu is
    # |p_0 - p_7 - nu| / sqrt(2); the objective is linear over the hull
    gaps = nu - (verts[:, 0] - verts[:, -1])
    vertex_min = gaps.min() / np.sqrt(2)
    assert vertex_min == pytest.approx(dist_mermin_to_fbi(n), abs=1e-12)
    # hull check: maximize p_0 - p_7 over convex combinations of vertices
    res = linprog(
        c=-(verts[:, 0] - verts[:, -1]),
        A_eq=np.ones((1, len(verts))),
        b_eq=[1.0],
        bounds=[(0, 1)] * len(verts),
    )
    assert res.success
    hull_min = (nu - (-res.fun)) / np.sqrt(2)
    assert hull_min == pytest.approx(dist_mermin_to_fbi(n), abs=1e-8)
