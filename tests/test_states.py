import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghzpolytope.classify import (
    classify,
    gm_concurrence,
    is_biseparable,
    is_fully_biseparable,
    is_ppt_all_bipartitions,
    is_ppt_bipartition,
)
from ghzpolytope.errors import InvalidArgumentError
from ghzpolytope.indices import Bipartition
from ghzpolytope.mermin import mermin_expectation, violates_mermin
from ghzpolytope.states import (
    EPS_NORM,
    NORM_SLACK,
    GhzDiagonalState,
    az_from_prob,
    density_from_prob,
)
from oracles import checked_probs, density_from_mixture, ghz_basis_vector, prob_from_density


def random_state(rng, n):
    return GhzDiagonalState(n, rng.dirichlet(np.ones(2**n)))


def test_basis_vector_two_qubit():
    v = ghz_basis_vector(0b00, 2)
    expected = np.zeros(4)
    expected[0b00] = expected[0b11] = 1 / np.sqrt(2)
    np.testing.assert_allclose(v, expected)


def test_basis_vector_sign():
    v = ghz_basis_vector(0b101, 3)
    expected = np.zeros(8)
    expected[0b101] = 1 / np.sqrt(2)
    expected[0b010] = -1 / np.sqrt(2)
    np.testing.assert_allclose(v, expected)


def test_basis_orthonormal():
    for n in (1, 2, 3):
        vs = np.array([ghz_basis_vector(i, n) for i in range(2**n)])
        np.testing.assert_allclose(vs @ vs.T, np.eye(2**n), atol=1e-12)


def test_az_point_mass():
    s = GhzDiagonalState(2, np.array([1.0, 0, 0, 0]))
    a, z = az_from_prob(s)
    np.testing.assert_allclose(a, [0.5, 0, 0, 0.5])
    np.testing.assert_allclose(z, [0.5, 0, 0, 0.5])


def test_az_uniform():
    s = GhzDiagonalState(3, np.full(8, 1 / 8))
    a, z = az_from_prob(s)
    np.testing.assert_allclose(a, np.full(8, 1 / 8))
    np.testing.assert_allclose(z, np.zeros(8))


def test_az_symmetric_pair():
    s = GhzDiagonalState(2, np.array([0.5, 0, 0, 0.5]))
    a, z = az_from_prob(s)
    np.testing.assert_allclose(a, [0.5, 0, 0, 0.5])
    np.testing.assert_allclose(z, np.zeros(4))


def test_density_plus_state():
    s = GhzDiagonalState(1, np.array([1.0, 0.0]))
    np.testing.assert_allclose(density_from_prob(s), [[0.5, 0.5], [0.5, 0.5]])


def test_density_uniform_is_maximally_mixed():
    for n in (1, 2, 3, 4):
        d = 2**n
        s = GhzDiagonalState(n, np.full(d, 1 / d))
        np.testing.assert_allclose(density_from_prob(s), np.eye(d) / d, atol=1e-15)


def test_density_pure_vertex_spectrum():
    s = GhzDiagonalState(2, np.array([1.0, 0, 0, 0]))
    mat = density_from_prob(s)
    vals, vecs = np.linalg.eigh(mat)
    np.testing.assert_allclose(sorted(vals), [0, 0, 0, 1], atol=1e-12)
    top = vecs[:, -1]
    ref = ghz_basis_vector(0, 2)
    assert abs(abs(top @ ref) - 1.0) < 1e-12


def test_density_equals_mixture_path():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4):
        for _ in range(20):
            s = random_state(rng, n)
            np.testing.assert_allclose(
                density_from_prob(s), density_from_mixture(s), atol=1e-9
            )


def test_density_eigenvalues_are_probs():
    rng = np.random.default_rng(12)
    for n in (1, 2, 3):
        s = random_state(rng, n)
        vals = np.linalg.eigvalsh(density_from_prob(s))
        np.testing.assert_allclose(sorted(vals), sorted(s.p), atol=1e-9)


def test_round_trip_random():
    rng = np.random.default_rng(13)
    for n in range(1, 7):
        for _ in range(1000):
            p = rng.dirichlet(np.ones(2**n))
            s = GhzDiagonalState(n, p)
            back = prob_from_density(density_from_prob(s))
            np.testing.assert_allclose(back.p, s.p, atol=1e-9)


def test_prob_from_identity():
    d = 8
    s = prob_from_density(np.eye(d) / d)
    np.testing.assert_allclose(s.p, np.full(d, 1 / d))


def test_prob_from_density_rejects_stray_entry():
    s = GhzDiagonalState(2, np.array([0.6, 0.1, 0.1, 0.2]))
    mat = density_from_prob(s)
    bad = mat.copy()
    bad[0, 1] = 0.05
    with pytest.raises(AssertionError, match=r"\(0, 1\)"):
        prob_from_density(bad)


def test_state_validation():
    with pytest.raises(InvalidArgumentError):
        GhzDiagonalState(2, np.array([0.5, 0.5, 0.5, -0.5]))
    with pytest.raises(InvalidArgumentError):
        GhzDiagonalState(2, np.array([0.5, 0.5, 0.5, 0.5]))
    with pytest.raises(InvalidArgumentError):
        GhzDiagonalState(2, np.array([1.0, 0.0]))
    # text that is no number, and a complex vector, are not probabilities
    with pytest.raises(InvalidArgumentError, match="real numbers"):
        GhzDiagonalState(3, "abc")
    with pytest.raises(InvalidArgumentError, match="real numbers"):
        GhzDiagonalState(2, np.array([0.5, 0.5, 0.0, 0.0]) + 0.1j)
    # small off-normalization is renormalized
    s = GhzDiagonalState(2, np.array([0.25, 0.25, 0.25, 0.25 + 5e-7]))
    assert abs(s.p.sum() - 1.0) < 1e-15


@pytest.mark.parametrize("p", [
    [0.5, 0.5],
    [1, 0],
    [True, False],
    ["0.5", "0.5"],
    np.array([0.5, 0.5], dtype=np.float32),
    np.array([1, 0], dtype=np.uint8),
    [np.float64(0.5), 0.5],
], ids=["floats", "ints", "bools", "text", "float32", "uint8", "numpy-scalar"])
def test_state_takes_real_vectors_of_any_numeric_type(p):
    assert GhzDiagonalState(1, p).p.tolist() == [float(x) for x in p]


@pytest.mark.parametrize(
    "p",
    [
        [np.nan, 0.5, 0.25, 0.25],
        [0.5, 0.5, 0.0, np.inf],
        [0.5, 0.5, np.inf, -np.inf],
    ],
)
def test_state_rejects_non_finite(p):
    with pytest.raises(InvalidArgumentError, match="not finite"):
        GhzDiagonalState(2, np.array(p))


def test_state_rejects_finite_entries_that_sum_past_the_largest_float():
    # the sum overflows to inf; tier-1 turns any overflow warning into an error
    big = np.finfo(float).max
    with pytest.raises(InvalidArgumentError, match="sum to inf"):
        GhzDiagonalState(1, np.array([big, big]))


# entries on and just past each edge of the check: signed zero and the
# negative slack, kept and clipped to +0.0; then entries that are not
# finite, at or past 2, the largest the min/max check takes, or huge, and
# plain ones that move the sum
SMALL_EDGES = [-0.0, 0.0, EPS_NORM, -EPS_NORM, math.nextafter(-EPS_NORM, -math.inf), -2 * EPS_NORM]
LARGE_EDGES = [math.nan, math.inf, -math.inf, 2.0, math.nextafter(2.0, math.inf), 3.0, 1e308,
               -1e308, 1.0, 0.5]
SUM_TARGETS = [1.0, 1.0 + NORM_SLACK, 1.0 - NORM_SLACK, math.nextafter(1.0 + NORM_SLACK, 2.0),
               math.nextafter(1.0 - NORM_SLACK, 0.0), 1.0 + 2 * NORM_SLACK, 1.0 - 0.5 * NORM_SLACK]


@st.composite
def prob_vectors(draw):
    """(n, p): a normalised vector for n = 1..4, some entries swapped for an
    edge entry, and its sum, through one entry, moved to a normalisation edge."""
    n = draw(st.integers(1, 4))
    d = 1 << n
    weights = draw(st.lists(st.floats(-0.0, 1.0), min_size=d, max_size=d))
    total = sum(weights)
    p = [w / total for w in weights] if total > 0 else weights
    edges = st.one_of(st.sampled_from(SMALL_EDGES), st.sampled_from(LARGE_EDGES))
    for k, value in draw(st.lists(st.tuples(st.integers(0, d - 1), edges), max_size=3)):
        p[k] = value
    if draw(st.booleans()):
        k = draw(st.integers(0, d - 1))
        p[k] = draw(st.sampled_from(SUM_TARGETS)) - sum(p[:k] + p[k + 1:])
    return n, p


@settings(max_examples=400, deadline=None)
@given(prob_vectors())
@example((1, [-0.0, 1.0]))
@example((2, [0.5, 0.5, -0.0, 0.0]))
@example((2, [0.5, -EPS_NORM, 0.25, 0.25 + EPS_NORM]))
@example((1, [1e308, 1e308]))
@example((1, [2.0, -1.0]))
@example((2, [math.nan, 0.5, math.inf, -1.0]))
@example((2, [0.25, 0.25, 0.25, 0.25 + NORM_SLACK]))
def test_state_accepts_exactly_what_the_full_check_accepts(case):
    n, p = case
    try:
        want = checked_probs(n, np.array(p))
    except InvalidArgumentError as exc:
        with pytest.raises(InvalidArgumentError) as refused:
            GhzDiagonalState(n, np.array(p))
        assert str(refused.value) == str(exc)
    else:
        got = GhzDiagonalState(n, np.array(p)).p
        assert got.tobytes() == want.tobytes()  # the same bits, -0.0 and all


STATE_FUNCTIONS = {
    "classify": classify,
    "is_biseparable": is_biseparable,
    "is_fully_biseparable": is_fully_biseparable,
    "gm_concurrence": gm_concurrence,
    "az_from_prob": az_from_prob,
    "density_from_prob": density_from_prob,
    "is_ppt_bipartition": lambda state: is_ppt_bipartition(state, Bipartition(3, {1})),
    "is_ppt_all_bipartitions": is_ppt_all_bipartitions,
    "mermin_expectation": mermin_expectation,
    "violates_mermin": violates_mermin,
}


@pytest.mark.parametrize("name", sorted(STATE_FUNCTIONS))
@pytest.mark.parametrize("state", [None, np.full(8, 0.125), "uniform", 3, (3, [0.125] * 8)],
                         ids=["none", "array", "str", "int", "tuple"])
def test_functions_that_take_a_state_refuse_anything_else(name, state):
    with pytest.raises(InvalidArgumentError, match="need a GhzDiagonalState"):
        STATE_FUNCTIONS[name](state)
