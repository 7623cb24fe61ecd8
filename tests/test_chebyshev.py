"""Weighted Chebyshev machinery: quadrature, the finite-part operator and
its inverse, and the brute-force finite-part quadrature they are checked by."""

import numpy as np
import pytest

from crackbem import (
    ChebyshevUExpansion,
    chebyshev_u_values,
    gauss_chebyshev_u,
    invert_finite_part_operator,
)
from crackbem.chebyshev import _finite_part_maps
from oracles import apply_finite_part_ref, hadamard_finite_part, polynomial_part_ref


def test_quadrature_nodes_and_weights():
    nodes, weights = gauss_chebyshev_u(5)
    k = np.arange(5, 0, -1)
    assert np.allclose(nodes, np.cos(k * np.pi / 6))
    assert np.allclose(weights, np.pi / 6 * np.sin(k * np.pi / 6) ** 2)
    assert np.all(np.diff(nodes) > 0)


def test_quadrature_polynomial_exactness():
    # Int sqrt(1-x^2) x^(2m) dx: pi/2, pi/8, pi/16 for m = 0, 1, 2
    nodes, weights = gauss_chebyshev_u(8)
    assert weights.sum() == pytest.approx(np.pi / 2, abs=1e-14)
    assert weights @ nodes**2 == pytest.approx(np.pi / 8, abs=1e-14)
    assert weights @ nodes**4 == pytest.approx(np.pi / 16, abs=1e-14)
    assert weights @ nodes**7 == pytest.approx(0.0, abs=1e-14)


def test_quadrature_rejects_empty():
    with pytest.raises(ValueError):
        gauss_chebyshev_u(0)


def test_quadrature_is_built_once_and_read_only():
    nodes, weights = gauss_chebyshev_u(7)
    again = gauss_chebyshev_u(7)
    assert again[0] is nodes and again[1] is weights
    assert not nodes.flags.writeable and not weights.flags.writeable
    with pytest.raises(ValueError):
        nodes[0] = 0.0


def test_u_values_match_sine_formula():
    theta = np.array([0.4, 1.1, 2.6])
    vals = chebyshev_u_values(np.cos(theta), 6)
    for n in range(6):
        assert np.allclose(vals[:, n], np.sin((n + 1) * theta) / np.sin(theta))


def test_expansion_evaluation_and_endpoints():
    coeffs = np.array([0.3, -1.2, 0.0, 0.5])
    psi = ChebyshevUExpansion(coeffs)
    x = np.linspace(-0.95, 0.95, 9)
    expected = np.sqrt(1 - x**2) * (chebyshev_u_values(x, 4) @ coeffs)
    assert np.allclose(psi(x), expected, atol=1e-14)
    assert np.allclose(psi(np.array([-1.0, 1.0])), 0.0, atol=1e-14)


def test_expansion_polynomial_part_vector_valued():
    coeffs = np.array([[1.0, 0.0], [0.0, 2.0]])
    psi = ChebyshevUExpansion(coeffs)
    x = np.array([0.2, -0.7])
    poly = polynomial_part_ref(psi, x)
    assert poly.shape == (2, 2)
    assert np.allclose(poly[:, 0], 1.0)
    assert np.allclose(poly[:, 1], 2.0 * 2.0 * x)


def test_expansions_compare_by_identity():
    psi = ChebyshevUExpansion(np.array([0.3, -1.2]))
    twin = ChebyshevUExpansion(psi.coeffs.copy())
    assert psi == psi
    assert psi != twin
    assert len({psi, twin}) == 2


def test_finite_part_operator_spectral_law():
    # A[sqrt(1-x^2) U_n] = -(n+1) U_n
    x = np.linspace(-0.9, 0.9, 7)
    for n in range(5):
        coeffs = np.zeros(n + 1)
        coeffs[n] = 1.0
        psi = ChebyshevUExpansion(coeffs)
        out = apply_finite_part_ref(psi, x)
        assert np.allclose(out, -(n + 1) * chebyshev_u_values(x, n + 1)[:, n], atol=1e-12)


def test_inversion_round_trip():
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(12)
    psi = ChebyshevUExpansion(coeffs)
    nodes, _ = gauss_chebyshev_u(12)
    rhs = apply_finite_part_ref(psi, nodes)
    back = invert_finite_part_operator(rhs, 12)
    assert np.allclose(back.coeffs, coeffs, atol=1e-12)


def test_inversion_identities():
    # A^-1 1 = -sqrt(1 - x^2) and A^-1 x = -x sqrt(1 - x^2)/2
    nodes, _ = gauss_chebyshev_u(33)
    psi = invert_finite_part_operator(np.ones_like(nodes), 33)
    assert np.allclose(psi(nodes), -np.sqrt(1 - nodes**2), atol=1e-13)
    psi = invert_finite_part_operator(nodes, 33)
    assert np.allclose(psi(nodes), -0.5 * nodes * np.sqrt(1 - nodes**2), atol=1e-13)


def test_inversion_accepts_samples_and_vectors():
    nodes, _ = gauss_chebyshev_u(16)
    rhs = np.stack([np.ones_like(nodes), nodes], axis=-1)
    psi = invert_finite_part_operator(rhs, 16)
    vals = psi(nodes)
    assert np.allclose(vals[:, 0], -np.sqrt(1 - nodes**2), atol=1e-13)
    assert np.allclose(vals[:, 1], -0.5 * nodes * np.sqrt(1 - nodes**2), atol=1e-13)


def test_hadamard_finite_part_reference_values():
    # f.p. Int sqrt(1-y^2)/y^2 dy = -pi; f.p. Int (1-y^2)/y^2 dy = -4
    val = hadamard_finite_part(lambda y: np.sqrt(1 - y * y), 0.0)
    assert val == pytest.approx(-np.pi, rel=1e-9)
    val = hadamard_finite_part(lambda y: 1.0 - y * y, 0.0)
    assert val == pytest.approx(-4.0, rel=1e-9)


def test_hadamard_matches_operator_off_center():
    # pi A psi = f.p. integral; check at an asymmetric point
    psi = ChebyshevUExpansion(np.array([0.7, -0.4, 0.2]))
    x = 0.37
    raw = hadamard_finite_part(psi, x)
    assert raw / np.pi == pytest.approx(float(apply_finite_part_ref(psi, x)), rel=1e-8)


def test_singular_quadratures_reject_exterior_points():
    for x in (-1.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            hadamard_finite_part(lambda y: 1.0 - y * y, x)


def test_sine_transform_is_built_once_and_read_only():
    dst, R = _finite_part_maps(9)
    assert _finite_part_maps(9)[0] is dst and _finite_part_maps(9)[1] is R
    assert not dst.flags.writeable
    # the inversion equals the formula built afresh, to the bit
    nodes, _ = gauss_chebyshev_u(9)
    theta, n1 = np.arccos(nodes), np.arange(1, 10)
    ref_dst = 2.0 / 10 * np.sin(np.outer(n1, theta)) * np.sin(theta)
    assert np.array_equal(dst, ref_dst)
    vals = np.random.default_rng(2).standard_normal((9, 2))
    expected = -(np.tensordot(ref_dst, vals, axes=([1], [0])).T / n1).T
    assert np.array_equal(invert_finite_part_operator(vals, 9).coeffs, expected)


@pytest.mark.parametrize("m", [1, 2, 12, 32])
def test_polynomial_part_map_is_built_once_and_read_only(m):
    # R maps samples at the nodes to the polynomial part of A^-1 at the nodes
    dst, R = _finite_part_maps(m)
    assert _finite_part_maps(m)[0] is dst and _finite_part_maps(m)[1] is R
    assert not R.flags.writeable
    nodes, _ = gauss_chebyshev_u(m)
    samples = np.random.default_rng(m).standard_normal((m, 2))
    expected = polynomial_part_ref(invert_finite_part_operator(samples, m), nodes)
    assert np.max(np.abs(R @ samples - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize(
    "rhs, n_modes",
    [(np.array(1.0), 1), (1.0, 1), (np.ones(3), 4), (np.ones((4, 2, 2)), 4)],
    ids=["0-d", "scalar", "wrong-length", "3-d"],
)
def test_inversion_refuses_rhs_off_the_nodes(rhs, n_modes):
    with pytest.raises(ValueError, match="rhs samples must match the quadrature nodes"):
        invert_finite_part_operator(rhs, n_modes)
