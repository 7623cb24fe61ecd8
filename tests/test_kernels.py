"""Pointwise kernel values against hand-computed literals and
finite-difference cross-checks of every analytic derivative."""

import dataclasses

import numpy as np
import pytest

from crackbem import (
    Disk,
    Ellipse,
    FourierStar,
    LameParams,
    build_mesh,
    dlp_traction_gradient,
    dlp_traction_kernel,
    gauss_chebyshev_u,
    kelvin_gradient,
    kelvin_matrix,
    rigid_motion_basis,
)
from crackbem.forward import _hooke, _layer_sum
from crackbem.kernels import _crack_frame_kernels
from oracles import (
    conormal_derivative,
    dlp_traction_gradient_ref,
    dlp_traction_kernel_ref,
    double_conormal_kernel_ref,
    fd_conormal,
    fd_jacobian,
    fd_navier_residual,
    hypersingular_kernel_canonical,
    kelvin_gradient_ref,
    kelvin_matrix_ref,
)

MATERIALS = [LameParams(1.0, 1.0), LameParams(2.5, 0.7), LameParams(-0.3, 1.2)]
# lam >> mu last: the einsum hypersingular kernel double_conormal_kernel_ref
# loses accuracy in proportion to lam/mu to cancellation there, while the
# crack-frame pass holds only E
CRACK_FRAME_MATERIALS = MATERIALS + [LameParams(-0.5, 1.2), LameParams(20.0, 1.0)]


def test_material_constants():
    m = LameParams(1.0, 1.0)
    assert m.A == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert m.B == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert m.a == pytest.approx(-1.0 / (6.0 * np.pi), abs=1e-16)
    assert m.b == pytest.approx(-2.0 / (3.0 * np.pi), abs=1e-16)
    assert m.E == pytest.approx(8.0 / 3.0, abs=1e-15)
    m2 = LameParams(2.0, 1.0)
    assert m2.E == pytest.approx(3.0, abs=1e-15)


@pytest.mark.parametrize("mat", MATERIALS)
def test_material_identities(mat):
    lam, mu = mat.lam, mat.mu
    assert mat.lam_prime == pytest.approx(mat.A / (2 * np.pi), abs=1e-16)
    assert mat.mu_prime == pytest.approx(mat.B / (2 * np.pi), abs=1e-16)
    assert mu * (mat.mu_prime - mat.lam_prime) == pytest.approx(mat.a, abs=1e-15)
    assert lam * (mat.mu_prime - mat.lam_prime) + 2 * mu * mat.mu_prime == pytest.approx(
        -mat.a, abs=1e-15
    )
    assert mat.E == pytest.approx(4 * mu * (lam + mu) / (lam + 2 * mu), abs=1e-14)


def test_material_admissibility():
    with pytest.raises(ValueError):
        LameParams(1.0, 0.0)
    with pytest.raises(ValueError):
        LameParams(-2.0, 1.0)


def test_material_takes_only_lam_and_mu():
    assert [f.name for f in dataclasses.fields(LameParams)] == ["lam", "mu"]
    with pytest.raises(TypeError):
        LameParams(1.0, 1.0, E=2.0)
    assert LameParams(1.0, 1.0) == LameParams(1, 1)
    assert hash(LameParams(1.0, 1.0)) == hash(LameParams(1, 1))


@pytest.mark.parametrize(
    "lam, mu, name",
    [(1.0, np.inf, "mu"), (np.inf, 1.0, "lam"), (-np.inf, 1.0, "lam"), (1.0, np.nan, "mu")],
)
def test_material_refuses_non_finite(lam, mu, name):
    with pytest.raises(ValueError, match=f"material parameter {name} must be finite"):
        LameParams(lam, mu)


def test_kelvin_matrix_literals():
    # lam=0, mu=1: lam' = 3/(8 pi), mu' = 1/(8 pi); log term vanishes at |d|=1
    phi = kelvin_matrix(np.array([1.0, 0.0]), LameParams(0.0, 1.0))
    assert np.allclose(phi, [[-1.0 / (8 * np.pi), 0.0], [0.0, 0.0]], atol=1e-16)

    # lam=mu=1 at d=(1,1): off-diagonal -mu' (1*1)/2 = -1/(12 pi)
    phi = kelvin_matrix(np.array([1.0, 1.0]), LameParams(1.0, 1.0))
    assert phi[0, 1] == pytest.approx(-1.0 / (12 * np.pi), abs=1e-16)
    assert phi[1, 0] == pytest.approx(phi[0, 1], abs=1e-16)
    diag = np.log(2.0) / (6 * np.pi) - 1.0 / (12 * np.pi)
    assert phi[0, 0] == pytest.approx(diag, abs=1e-16)
    assert phi[1, 1] == pytest.approx(diag, abs=1e-16)


def test_kelvin_zero_separation_rejected():
    with pytest.raises(ValueError):
        kelvin_matrix(np.zeros(2), LameParams(1.0, 1.0))
    with pytest.raises(ValueError):
        hypersingular_kernel_canonical(0.3, 0.3, LameParams(1.0, 1.0))


@pytest.mark.parametrize("mat", MATERIALS)
def test_kelvin_gradient_matches_fd(mat):
    rng = np.random.default_rng(7)
    for _ in range(5):
        d = rng.uniform(-2.0, 2.0, size=2)
        if np.hypot(*d) < 0.3:
            continue
        grad = kelvin_gradient(d, mat)
        ref = fd_jacobian(lambda x: kelvin_matrix(x, mat), d)
        assert np.allclose(grad, ref, atol=1e-10)


@pytest.mark.parametrize("mat", MATERIALS)
def test_kelvin_columns_solve_navier(mat):
    # away from the pole both columns are equilibrium displacement fields
    for x in ([0.7, 0.4], [-1.1, 0.5], [0.2, -1.3]):
        for k in range(2):
            res = fd_navier_residual(
                lambda p: kelvin_matrix(p, mat)[:, k], np.array(x), mat
            )
            assert np.max(np.abs(res)) < 1e-6


def test_conormal_derivative_literals():
    mat = LameParams(1.0, 1.0)
    # dilation grad u = I: sigma = (2 lam + 2 mu) I = 4 I
    out = conormal_derivative(np.eye(2), np.array([1.0, 0.0]), mat)
    assert np.allclose(out, [4.0, 0.0], atol=1e-15)
    # symmetric shear: sigma = 2 mu [[0, 1], [1, 0]]
    out = conormal_derivative(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.0, 1.0]), mat)
    assert np.allclose(out, [2.0, 0.0], atol=1e-15)


def test_conormal_of_rigid_motions_vanishes():
    mat = LameParams(2.5, 0.7)
    rotation_grad = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for n in ([1.0, 0.0], [0.6, 0.8]):
        assert np.allclose(
            conormal_derivative(rotation_grad, np.array(n), mat), 0.0, atol=1e-16
        )
        assert np.allclose(
            conormal_derivative(np.zeros((2, 2)), np.array(n), mat), 0.0, atol=1e-16
        )


def test_dlp_kernel_literal():
    # x - y = (0, 1) with n(y) = (0, 1): diag(a, a + b)
    k = dlp_traction_kernel(
        np.array([0.0, 1.0]), np.zeros(2), np.array([0.0, 1.0]), LameParams(1.0, 1.0)
    )
    assert np.allclose(
        k, np.diag([-1.0 / (6 * np.pi), -5.0 / (6 * np.pi)]), atol=1e-15
    )


@pytest.mark.parametrize("mat", MATERIALS)
def test_dlp_kernel_rows_are_conormals_of_kelvin_columns(mat):
    # row k = traction in y, with normal n(y), of x' -> Phi(x - x') e_k
    rng = np.random.default_rng(3)
    for _ in range(4):
        x = rng.uniform(-1.5, 1.5, size=2)
        y = rng.uniform(-1.5, 1.5, size=2)
        if np.hypot(*(x - y)) < 0.4:
            continue
        theta = rng.uniform(0.0, 2 * np.pi)
        n = np.array([np.cos(theta), np.sin(theta)])
        k = dlp_traction_kernel(x, y, n, mat)
        for j in range(2):
            ref = fd_conormal(lambda p: kelvin_matrix(x - p, mat)[:, j], y, n, mat)
            assert np.allclose(k[j, :], ref, atol=1e-9)


@pytest.mark.parametrize("mat", MATERIALS)
def test_dlp_gradient_matches_fd(mat):
    rng = np.random.default_rng(11)
    y = np.array([0.1, -0.2])
    n = np.array([0.8, 0.6])
    for _ in range(4):
        x = y + rng.uniform(0.4, 1.5) * np.array(
            [np.cos(a := rng.uniform(0, 2 * np.pi)), np.sin(a)]
        )
        grad = dlp_traction_gradient(x, y, n, mat)
        ref = fd_jacobian(lambda p: dlp_traction_kernel(p, y, n, mat), x)
        assert np.allclose(grad, ref, atol=1e-9)


@pytest.mark.parametrize("mat", MATERIALS)
def test_double_conormal_reduces_to_canonical(mat):
    # collinear points, common normal perpendicular to the separation
    x1 = np.array([0.7, -0.4, 1.9])
    y1 = np.array([0.1, 0.3, -0.2])
    x = np.stack([x1, np.zeros(3)], axis=-1)
    y = np.stack([y1, np.zeros(3)], axis=-1)
    e2 = np.array([0.0, 1.0])
    w = double_conormal_kernel_ref(x, y, np.broadcast_to(e2, (3, 2)), e2, mat)
    assert np.allclose(w, hypersingular_kernel_canonical(x1, y1, mat), atol=1e-13)


def unit_vectors(rng, shape):
    theta = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def assert_pairwise_close(value, reference, rank, rtol=1e-13):
    """Equal shapes, and per pair every entry within rtol of the pair's
    largest reference entry."""
    assert value.shape == reference.shape
    axes = tuple(range(-rank, 0))
    scale = np.max(np.abs(reference), axis=axes)
    assert np.all(np.max(np.abs(value - reference), axis=axes) <= rtol * scale)


@pytest.mark.parametrize("mat", CRACK_FRAME_MATERIALS)
def test_kernels_match_einsum_oracles(mat):
    rng = np.random.default_rng(5)
    # (p, 1, 2) targets against (1, n, 2) sources, random unit normals
    x = rng.uniform(-1.5, 1.5, size=(6, 1, 2))
    y = rng.uniform(-1.5, 1.5, size=(1, 9, 2))
    grid = (x, y, unit_vectors(rng, (1, 9)))
    # paired points at separations about 1e-4 (near) and 1e3 (far)
    x = rng.uniform(-1.5, 1.5, size=(8, 2))
    rho = np.repeat([1e-4, 1e3], 4) * rng.uniform(0.5, 2.0, size=8)
    y = x + rho[:, None] * unit_vectors(rng, (8,))
    paired = (x, y, unit_vectors(rng, (8,)))
    for x, y, n_y in (grid, paired):
        for kernel, oracle, rank in (
            (kelvin_matrix, kelvin_matrix_ref, 2),
            (kelvin_gradient, kelvin_gradient_ref, 3),
        ):
            assert_pairwise_close(kernel(x - y, mat), oracle(x - y, mat), rank)
        for kernel, oracle, rank in (
            (dlp_traction_kernel, dlp_traction_kernel_ref, 2),
            (dlp_traction_gradient, dlp_traction_gradient_ref, 3),
        ):
            assert_pairwise_close(kernel(x, y, n_y, mat), oracle(x, y, n_y, mat), rank)


@pytest.mark.parametrize("mat", CRACK_FRAME_MATERIALS)
@pytest.mark.parametrize("x_shape, y_shape", [
    ((2,), (2,)),  # one pair
    ((4, 1, 2), (7, 2)),  # interior points against boundary nodes
    ((3, 2), (3, 2)),  # paired points
])
def test_gradient_kernels_fill_every_pair_shape(mat, x_shape, y_shape):
    # both gradient kernels return every broadcast shape of the pairs, also
    # with the points scaled to separations about 1e-4 (near) and 1e3 (far)
    rng = np.random.default_rng(23)
    x = rng.uniform(-1.0, 1.0, size=x_shape)
    y = rng.uniform(-1.0, 1.0, size=y_shape) + 2.5
    n_y = unit_vectors(rng, y_shape[:-1])
    pairs = np.broadcast_shapes(x_shape[:-1], y_shape[:-1]) + (2, 2, 2)
    for scale in (1.0, 1e-4, 1e3):
        xs, ys = scale * x, scale * y
        for value, reference in (
            (kelvin_gradient(xs - ys, mat), kelvin_gradient_ref(xs - ys, mat)),
            (dlp_traction_gradient(xs, ys, n_y, mat), dlp_traction_gradient_ref(xs, ys, n_y, mat)),
        ):
            assert value.shape == pairs
            assert_pairwise_close(value, reference, 3)


@pytest.mark.parametrize("mat", MATERIALS)
def test_double_conormal_matches_fd_conormal(mat):
    # general position: non-collinear points, non-parallel normals
    rng = np.random.default_rng(13)
    for _ in range(4):
        x = rng.uniform(-1.0, 1.0, size=2)
        y = x + rng.uniform(0.4, 1.2) * unit_vectors(rng, ())
        m, n = unit_vectors(rng, (2,))
        assert abs(m[0] * n[1] - m[1] * n[0]) > 0.1
        w = double_conormal_kernel_ref(x, y, m, n, mat)
        for j in range(2):
            ref = fd_conormal(lambda p: dlp_traction_kernel(p, y, n, mat)[:, j], x, m, mat)
            assert np.allclose(w[:, j], ref, atol=1e-8)


def test_canonical_kernel_value():
    # lam = mu = 1: -E/(4 pi) = -2/(3 pi) at unit separation
    w = hypersingular_kernel_canonical(1.0, 0.0, LameParams(1.0, 1.0))
    assert np.allclose(w, np.diag([-2.0 / (3 * np.pi)] * 2), atol=1e-16)

CRACK_FRAME_SHAPES = [
    Disk(),
    Ellipse(a=1.2, b=0.8),
    FourierStar(r0=1.0, cos_coeffs=(0.0, 0.0, 0.15), sin_coeffs=(0.0, 0.05)),
]


def random_crack_frames(rng, count, n_modes=16):
    """(s, center, tangent) of seeded cracks inside the unit disk's middle."""
    eta, _ = gauss_chebyshev_u(n_modes)
    for _ in range(count):
        s = rng.uniform(0.02, 0.2) * eta
        yield s, rng.uniform(-0.3, 0.3, size=2), unit_vectors(rng, ())


def as_blocks(matrix):
    """(2p, 2n) component-major matrix, rows (i, q) and columns (k, p), as
    its (p, n, 2, 2) blocks."""
    p, n = matrix.shape[0] // 2, matrix.shape[1] // 2
    return matrix.reshape(2, p, 2, n).transpose(1, 3, 0, 2)


@pytest.mark.parametrize("mat", CRACK_FRAME_MATERIALS)
@pytest.mark.parametrize("shape", CRACK_FRAME_SHAPES)
def test_crack_frame_kernels_match_public_kernels(shape, mat):
    # rows and columns turned into the crack frame, per pair block
    mesh = build_mesh(shape, 64)
    rng = np.random.default_rng(21)
    for s, center, t in random_crack_frames(rng, 4):
        m = np.array((-t[1], t[0]))
        frame = np.stack([t, m], axis=1)
        nodes = center + np.multiply.outer(s, t)
        hyper = double_conormal_kernel_ref(
            nodes[:, None, :], mesh.points[None], m, mesh.normals[None], mat
        )
        traction = dlp_traction_kernel(mesh.points[None], nodes[:, None, :], m, mat)
        hyper_ref = frame.T @ hyper @ frame
        traction_ref = frame.T @ np.swapaxes(traction, -1, -2) @ frame
        hyper_pass, traction_pass = _crack_frame_kernels(
            s, center, t, mesh.points, mesh.normals, mat
        )
        assert hyper_pass.shape == traction_pass.shape == (2 * len(s), 2 * mesh.n)
        assert_pairwise_close(as_blocks(hyper_pass), hyper_ref, 2)
        assert_pairwise_close(as_blocks(traction_pass), traction_ref, 2)


@pytest.mark.parametrize("mat", CRACK_FRAME_MATERIALS)
def test_crack_traction_kernel_gives_single_layer_traction(mat):
    # G (W g), both in the crack frame, is the traction sigma(S[g]) m of the
    # single layer at the nodes
    mesh = build_mesh(CRACK_FRAME_SHAPES[2], 128)
    rng = np.random.default_rng(34)
    for s, center, t in random_crack_frames(rng, 3):
        m = np.array((-t[1], t[0]))
        frame = np.stack([t, m], axis=1)
        nodes = center + np.multiply.outer(s, t)
        g = rng.standard_normal((mesh.n, 2))
        kelvin = kelvin_gradient(nodes[:, None, :] - mesh.points, mat)
        reference = _hooke(mat, _layer_sum(mesh, kelvin, g)) @ m
        _, traction = _crack_frame_kernels(s, center, t, mesh.points, mesh.normals, mat)
        weighted_g = (frame.T @ (mesh.weights[:, None] * g).T).reshape(-1)
        value = (traction @ weighted_g).reshape(2, -1).T @ frame.T  # crack frame -> global
        assert np.max(np.abs(value - reference)) <= 1e-13 * np.max(np.abs(reference))


def test_crack_frame_kernels_zero_separation_rejected():
    points = np.array([[0.5, 0.5], [0.1, 0.0], [-0.5, 0.2]])
    normals = unit_vectors(np.random.default_rng(2), (3,))
    s = np.array([-0.1, 0.0, 0.1])
    with pytest.raises(ValueError, match="zero separation"):
        _crack_frame_kernels(s, (0.0, 0.0), (1.0, 0.0), points, normals, LameParams(1.0, 1.0))


def test_rigid_motion_basis():
    basis = rigid_motion_basis(np.array([2.0, 3.0]))
    assert np.allclose(basis[:, 0], [1.0, 0.0])
    assert np.allclose(basis[:, 1], [0.0, 1.0])
    assert np.allclose(basis[:, 2], [3.0, -2.0])
