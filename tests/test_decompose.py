import numpy as np
import pytest

from ghzpolytope.decompose import (
    KIND_CUBE_VERTEX,
    KIND_DIAGONAL,
    KIND_MIDPOINT,
    SeparabilityCertificate,
    certify_midpoint,
    cube_vertex_decomposition,
    midpoint_bipartition,
)
from ghzpolytope.errors import InvalidArgumentError
from ghzpolytope.indices import Bipartition, all_bipartitions
from ghzpolytope.polytopes import cube_vertex, midpoint
from oracles import iter_selections


def test_midpoint_bipartition_examples():
    assert midpoint_bipartition(3, 0b000, 0b011) == Bipartition(3, frozenset({1}))
    assert midpoint_bipartition(3, 0b001, 0b101) == Bipartition(3, frozenset({2, 3}))
    assert midpoint_bipartition(2, 0b00, 0b01) == Bipartition(2, frozenset({1}))
    # full flip: agreement set is empty
    assert midpoint_bipartition(2, 0b00, 0b11) is None
    assert midpoint_bipartition(3, 0b010, 0b101) is None


def test_midpoint_bipartition_guards():
    with pytest.raises(InvalidArgumentError):
        midpoint_bipartition(2, 1, 1)
    with pytest.raises(InvalidArgumentError):
        midpoint_bipartition(2, 0, 4)


def test_certify_midpoint_kinds():
    cert = certify_midpoint(3, 0b000, 0b011)
    assert cert.kind == KIND_MIDPOINT
    assert str(cert.bipartition) == "1|23"
    np.testing.assert_allclose(cert.state.p, midpoint(3, 0b000, 0b011).p)

    diag = certify_midpoint(3, 0b010, 0b101)
    assert diag.kind == KIND_DIAGONAL
    assert diag.bipartition is None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_all_midpoints_certify(n):
    d = 2**n
    for i in range(d):
        for j in range(i + 1, d):
            cert = certify_midpoint(n, i, j)
            assert isinstance(cert, SeparabilityCertificate)
            if j == d - 1 - i:
                assert cert.kind == KIND_DIAGONAL
            else:
                assert cert.kind == KIND_MIDPOINT
                # the recorded split (canonicalized to contain qubit 1) is
                # the agreement positions of i and j, or their complement
                agree = frozenset(
                    k for k in range(1, n + 1) if (i >> (n - k)) & 1 == (j >> (n - k)) & 1
                )
                assert agree in (cert.bipartition.subset, cert.bipartition.complement)


def test_cube_vertex_worked_example():
    sigma = (0b000, 0b001, 0b011, 0b101)
    bp = Bipartition(3, frozenset({1}))
    cert = cube_vertex_decomposition(3, sigma, bp)
    assert cert.kind == KIND_CUBE_VERTEX
    assert len(cert.components) == 2
    recon = sum(w * s.p for w, s, _ in cert.components)
    np.testing.assert_allclose(recon, cube_vertex(3, sigma).p, atol=1e-12)
    for w, _, comp_bp in cert.components:
        assert w == pytest.approx(0.5)
        # components are midpoints over the chosen split or its complement,
        # or diagonal mixtures, all separable across bp
        assert comp_bp is None or bp.subset in (comp_bp.subset, comp_bp.complement)


@pytest.mark.parametrize("n", [2, 3])
def test_every_cube_vertex_decomposes_for_every_bipartition(n):
    for sigma in iter_selections(n):
        for bp in all_bipartitions(n):
            cert = cube_vertex_decomposition(n, sigma, bp)
            recon = sum(w * s.p for w, s, _ in cert.components)
            np.testing.assert_allclose(recon, cert.state.p, atol=1e-12)
            assert sum(w for w, _, _ in cert.components) == pytest.approx(1.0)


def test_cube_vertex_decomposition_takes_a_one_pass_selection():
    bp = Bipartition(3, frozenset({1}))
    expected = cube_vertex_decomposition(3, [0, 1, 3, 5], bp)
    cert = cube_vertex_decomposition(3, iter([0, 1, 3, 5]), bp)
    assert cert.to_json_dict() == expected.to_json_dict()
    assert cert.state.p.tobytes() == expected.state.p.tobytes()


def test_json_round_trip_fields():
    cert = cube_vertex_decomposition(
        3, (0b000, 0b001, 0b011, 0b101), Bipartition(3, frozenset({1}))
    )
    payload = cert.to_json_dict()
    assert payload["n"] == 3
    assert payload["kind"] == KIND_CUBE_VERTEX
    assert payload["bipartition"] == "1|23"
    assert len(payload["components"]) == 2
    assert sum(c["weight"] for c in payload["components"]) == pytest.approx(1.0)


def test_decomposition_refuses_a_bipartition_of_another_qubit_count():
    with pytest.raises(InvalidArgumentError, match="not n=3"):
        cube_vertex_decomposition(3, [0, 1, 2, 4], Bipartition(2, {1}))


def test_decomposition_refuses_what_is_not_a_bipartition():
    with pytest.raises(InvalidArgumentError, match="need a Bipartition"):
        cube_vertex_decomposition(3, [0, 1, 2, 4], "x")
