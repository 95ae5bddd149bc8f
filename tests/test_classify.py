import numpy as np
import pytest

from ghzpolytope._mc_kernel_py import fully_biseparable, pair_reductions
from ghzpolytope.classify import (
    _fbi_decision,
    classify,
    gm_concurrence,
    is_biseparable,
    is_fully_biseparable,
    is_ppt_all_bipartitions,
    is_ppt_bipartition,
    partial_transpose,
)
from ghzpolytope.errors import InvalidArgumentError, UnsupportedSizeError
from ghzpolytope.indices import Bipartition
from ghzpolytope.polytopes import iter_facets, midpoint
from ghzpolytope.states import GhzDiagonalState, density_from_prob


def state(n, assignments):
    p = np.zeros(2**n)
    for i, w in assignments.items():
        p[i] = w
    return GhzDiagonalState(n, p)


def test_uniform_is_biseparable():
    for n in (1, 2, 3, 4):
        ok, witness = is_biseparable(GhzDiagonalState.uniform(n))
        assert ok and witness is None


def test_concentrated_is_genuine():
    ok, witness = is_biseparable(state(3, {0b000: 1.0}))
    assert not ok
    assert witness == 0b000


def test_midpoint_is_boundary_biseparable():
    s = state(2, {0b00: 0.5, 0b11: 0.5})
    ok, _ = is_biseparable(s)
    assert ok
    assert classify(s).boundary


def test_gm_concurrence_vertex():
    assert gm_concurrence(state(3, {0b000: 1.0})) == 1.0


def test_gm_concurrence_uniform():
    assert gm_concurrence(GhzDiagonalState.uniform(3)) == 0.0


def test_gm_concurrence_formula():
    s = state(2, {0b00: 0.75, 0b01: 0.25})
    assert gm_concurrence(s) == pytest.approx(0.5)


def test_gm_concurrence_level_sets():
    # same concurrence for any distribution of the remainder
    rng = np.random.default_rng(5)
    for c in (0.2, 0.6, 1.0):
        top = (1 + c) / 2
        values = []
        for _ in range(5):
            rest = rng.dirichlet(np.ones(7)) * (1 - top)
            p = np.concatenate([[top], rest])  # top >= 0.6 stays the argmax
            values.append(gm_concurrence(GhzDiagonalState(3, p)))
        np.testing.assert_allclose(values, c, atol=1e-9)


def test_fbi_two_qubit_adjacent_midpoint():
    ok, _ = is_fully_biseparable(state(2, {0b00: 0.5, 0b01: 0.5}))
    assert ok


def test_fbi_three_qubit_violation():
    ok, witness = is_fully_biseparable(state(3, {0b000: 0.5, 0b001: 0.5}))
    assert not ok
    # z_000 = 1/4 exceeds a_010 = 0; first violating pair
    assert witness == (0b010, 0b000)


def test_fbi_uniform():
    ok, _ = is_fully_biseparable(GhzDiagonalState.uniform(3))
    assert ok


def test_partial_transpose_matches_reference():
    # reshape-based reference on a random symmetric matrix
    rng = np.random.default_rng(3)
    n = 3
    d = 2**n
    mat = rng.normal(size=(d, d))
    mat = mat + mat.T
    for bp in [Bipartition(3, frozenset({1})), Bipartition(3, frozenset({1, 3}))]:
        got = partial_transpose(mat, n, bp)
        t = mat.reshape(2, 2, 2, 2, 2, 2)
        axes = list(range(6))
        for k in sorted(bp.subset):
            axes[k - 1], axes[k + 2] = axes[k + 2], axes[k - 1]
        expected = t.transpose(axes).reshape(d, d)
        np.testing.assert_allclose(got, expected)


def test_ppt_bipartition_refuses_a_bipartition_of_another_qubit_count():
    with pytest.raises(InvalidArgumentError, match="not n=3"):
        is_ppt_bipartition(GhzDiagonalState.uniform(3), Bipartition(2, {1}))


@pytest.mark.parametrize("mat, n, error", [
    (np.eye(8), 3.5, InvalidArgumentError),
    (np.eye(8), "3", InvalidArgumentError),
    (np.eye(8), 0, InvalidArgumentError),
    (np.eye(512), 9, UnsupportedSizeError),
    ([[1]], 3, InvalidArgumentError),
    (np.eye(4), 3, InvalidArgumentError),
    ([1, [2]], 3, InvalidArgumentError),
], ids=["n-float", "n-text", "n-zero", "n-past-dense-cap", "nested-list", "wrong-shape",
        "ragged-list"])
def test_partial_transpose_refuses_bad_qubit_counts_and_matrices(mat, n, error):
    with pytest.raises(error):
        partial_transpose(mat, n, Bipartition(3, {1}))


def test_partial_transpose_takes_nested_lists():
    mat = np.arange(16.0).reshape(4, 4)
    bp = Bipartition(2, {1})
    np.testing.assert_array_equal(partial_transpose(mat.tolist(), 2, bp), partial_transpose(mat, 2, bp))


def test_partial_transpose_refuses_what_is_not_a_bipartition():
    with pytest.raises(InvalidArgumentError, match="need a Bipartition"):
        partial_transpose(np.eye(8), 3, "x")


def test_ppt_oracle_uniform():
    assert is_ppt_all_bipartitions(GhzDiagonalState.uniform(3))


def test_ppt_oracle_violating_state():
    assert not is_ppt_all_bipartitions(state(3, {0b000: 0.5, 0b001: 0.5}))


def test_ppt_oracle_two_qubit_diagonal_mixture():
    assert is_ppt_all_bipartitions(state(2, {0b00: 0.5, 0b11: 0.5}))


def test_ppt_oracle_rejects_large_n():
    with pytest.raises(UnsupportedSizeError):
        is_ppt_all_bipartitions(GhzDiagonalState.uniform(9))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fbi_matches_ppt_oracle(n):
    rng = np.random.default_rng(100 + n)
    d = 2**n
    for _ in range(300):
        s = GhzDiagonalState(n, rng.dirichlet(np.ones(d)))
        ok, _ = is_fully_biseparable(s)
        assert ok == is_ppt_all_bipartitions(s)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fbi_matches_ppt_oracle_boundary_biased(n):
    # push mass onto few indices so both verdicts appear
    rng = np.random.default_rng(200 + n)
    d = 2**n
    for _ in range(300):
        p = rng.dirichlet(np.ones(d) * 0.3)
        s = GhzDiagonalState(n, p)
        from ghzpolytope.states import az_from_prob

        a, z = az_from_prob(s)
        margin = abs(np.abs(z).max() - a.min())
        if margin < 1e-11:
            continue
        ok, _ = is_fully_biseparable(s)
        assert ok == is_ppt_all_bipartitions(s)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_core_fbi_matches_facet_oracle(n):
    # the row-wise core on a batch, against the d^2/2 facet inequalities and
    # the single-state test; each row is moved towards the uniform state until
    # it sits within a relative 1e-9..1e-2 of the FBI boundary, on either side
    rng = np.random.default_rng(300 + n)
    d = 2**n
    m = 2000
    raw = rng.dirichlet(np.full(d, 0.3), size=m)
    flip = raw[:, ::-1]
    excess = np.abs(raw - flip).max(axis=1) - (raw + flip).min(axis=1)
    t_star = (2 / d) / (excess + 2 / d)  # maxdiff = minsum on the segment to the centre
    jitter = np.exp(rng.uniform(np.log(1e-9), np.log(1e-2), m)) * rng.choice([-1, 1], m)
    t = np.minimum(t_star * (1 + jitter), 1.0)[:, None]
    rows = t * raw + (1 - t) / d

    slack = rows @ np.array([f.coeffs for f in iter_facets("FBI", n)]).T
    keep = np.abs(slack).min(axis=1) > 1e-11
    oracle = (slack >= 0).all(axis=1)
    assert keep.sum() > m // 2
    assert 0 < oracle[keep].sum() < keep.sum()
    core = fully_biseparable(*pair_reductions(rows))
    np.testing.assert_array_equal(core[keep], oracle[keep])
    for p, verdict in zip(rows[:300], core[:300]):
        assert _fbi_decision(GhzDiagonalState(n, p).p, 0.0)[0] == verdict


def test_region_assignment():
    rng = np.random.default_rng(7)
    s1 = state(3, {0b000: 0.6, **{i: 0.4 / 7 for i in range(1, 8)}})
    assert classify(s1).region == "genuine"
    s2 = state(3, {0b000: 0.5, 0b001: 0.5})
    assert classify(s2).region == "bisep_not_fbi"
    assert classify(GhzDiagonalState.uniform(3)).region == "fully_biseparable"
    # F subset of B on random samples
    for _ in range(200):
        s = GhzDiagonalState(3, rng.dirichlet(np.ones(8)))
        r = classify(s)
        assert not (r.is_fully_biseparable and not r.is_biseparable)
        off_boundary = not r.boundary
        if off_boundary:
            assert (r.gm_concurrence > 0) == (not r.is_biseparable)


def test_every_midpoint_is_boundary():
    for n in (2, 3):
        d = 2**n
        for i in range(d):
            for j in range(i + 1, d):
                r = classify(midpoint(n, i, j))
                assert r.is_biseparable
                assert r.boundary
