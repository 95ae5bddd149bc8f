import numpy as np
import pytest

from ghzpolytope.errors import InvalidArgumentError, NotGhzDiagonalError
from ghzpolytope.states import (
    GhzDiagonalState,
    az_from_prob,
    density_from_mixture,
    density_from_prob,
    ghz_basis_vector,
    prob_from_density,
)


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
    with pytest.raises(NotGhzDiagonalError) as exc:
        prob_from_density(bad)
    assert exc.value.location == (0, 1)


def test_state_validation():
    with pytest.raises(InvalidArgumentError):
        GhzDiagonalState(2, np.array([0.5, 0.5, 0.5, -0.5]))
    with pytest.raises(InvalidArgumentError):
        GhzDiagonalState(2, np.array([0.5, 0.5, 0.5, 0.5]))
    with pytest.raises(InvalidArgumentError):
        GhzDiagonalState(2, np.array([1.0, 0.0]))
    # small off-normalization is renormalized
    s = GhzDiagonalState(2, np.array([0.25, 0.25, 0.25, 0.25 + 5e-7]))
    assert abs(s.p.sum() - 1.0) < 1e-15


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
