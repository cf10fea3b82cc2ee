"""eigenpairs_near against dense scipy.linalg.eigh on the same window."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from hyperbulk import geometry, junction, operators, spectral, triangle
from hyperbulk.errors import ConfigError, NumericalContractError, ResourceLimitError
from hyperbulk.tolerances import EIGENPAIR_RESIDUAL


def junction_hamiltonian(radius):
    ball = triangle.ball_enumerate(5, 4, radius)
    pos = geometry.site_positions(ball, geometry.incenter(5, 4))
    return junction.assemble_junction(ball, pos, junction.JunctionConfig())


@pytest.fixture(scope="module")
def adj_k1(q54_k1):
    return operators.represent_periodic(operators.adjacency(5, 4), q54_k1)


def dense_window(mat, center, half_width):
    dense = mat.toarray() if sp.issparse(mat) else np.asarray(mat)
    vals, vecs = sla.eigh(dense)
    keep = np.abs(vals - center) <= half_width
    return vals[keep], vecs[:, keep]


def assert_matches_dense(mat, center, half_width, seed=11):
    pairs = spectral.eigenpairs_near(mat, center=center, half_width=half_width, seed=seed)
    want_vals, want_vecs = dense_window(mat, center, half_width)
    assert pairs.count == want_vals.size == pairs.eigenvalues.size
    assert np.all(np.diff(pairs.eigenvalues) >= 0)
    np.testing.assert_allclose(pairs.eigenvalues, want_vals, rtol=0, atol=1e-12)
    vecs = pairs.eigenvectors
    assert vecs.shape == (mat.shape[0], want_vals.size)
    res = np.linalg.norm(mat @ vecs - vecs * pairs.eigenvalues, axis=0)
    assert res.max(initial=0.0) <= EIGENPAIR_RESIDUAL
    assert pairs.residual == res.max(initial=0.0)
    gram = vecs.conj().T @ vecs
    assert np.abs(gram - np.eye(want_vals.size)).max(initial=0.0) < 1e-10
    # the LDOS sums over the window, so it does not depend on the basis of a degenerate cluster
    got = spectral.ldos(pairs, energy=center, delta_e=0.05)
    want = spectral.ldos(spectral.SpectrumResult(want_vals, want_vecs), energy=center, delta_e=0.05)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
    again = spectral.eigenpairs_near(mat, center=center, half_width=half_width, seed=seed)
    assert np.array_equal(again.eigenvalues, pairs.eigenvalues)
    assert np.array_equal(again.eigenvectors, pairs.eigenvectors)
    return pairs


@pytest.mark.parametrize("radius", [6, 8])
def test_junction_window_matches_dense(radius):
    ham = junction_hamiltonian(radius)
    pairs = assert_matches_dense(ham, 0.0, 0.25)
    assert pairs.eigenvectors.dtype == np.complex128
    assert pairs.count > 0


def test_degenerate_level_at_a_singular_center(adj_k1):
    # adj on G_1 has a 16-fold eigenvalue at 0, so H - 0 I is exactly singular
    dense = np.linalg.eigvalsh(adj_k1.toarray())
    assert np.count_nonzero(np.abs(dense) < 1e-12) == 16
    pairs = assert_matches_dense(adj_k1, 0.0, 0.3)
    assert pairs.eigenvectors.dtype == np.float64


def test_zero_operator_fills_the_window():
    zero = sp.csr_matrix((40, 40))
    pairs = assert_matches_dense(zero, 0.0, 0.1)
    assert pairs.count == 40
    assert np.array_equal(pairs.eigenvalues, np.zeros(40))


def test_window_without_eigenvalues(adj_k1):
    pairs = spectral.eigenpairs_near(adj_k1, center=5.0, half_width=0.25, seed=11)
    assert pairs.count == 0 and pairs.basis_size == 0
    assert pairs.eigenvalues.shape == (0,)
    assert pairs.eigenvectors.shape == (adj_k1.shape[0], 0)


def test_window_holding_the_whole_spectrum(adj_k1):
    pairs = assert_matches_dense(adj_k1, 0.0, 2.0)
    assert pairs.count == adj_k1.shape[0]


def test_multiplicity_above_the_block_size():
    # 40 copies of a 5-site path: each of its eigenvalues has multiplicity 40
    path = sp.diags([np.ones(4), np.ones(4)], [-1, 1])
    mat = sp.kron(sp.identity(40), path, format="csr")
    pairs = assert_matches_dense(mat, 0.1, 0.3)
    assert pairs.count == 40 > spectral.KRYLOV_BLOCK


def test_basis_beyond_the_memory_limit_is_refused(monkeypatch):
    ham = junction_hamiltonian(5)
    # room for the LU factors of a 97-site ball, not for a Krylov basis
    monkeypatch.setattr(spectral, "EIGENPAIRS_MEMORY", 100_000)
    with pytest.raises(ResourceLimitError, match="Krylov basis"):
        spectral.eigenpairs_near(ham, center=0.0, half_width=0.25)


@pytest.mark.parametrize("shift", [1, -1])
def test_count_mismatch_is_refused(monkeypatch, shift):
    ham = junction_hamiltonian(5)
    count = spectral._count_below

    def miscount(a, x, rng):
        return count(a, x, rng) + (shift if x > 0 else 0)

    monkeypatch.setattr(spectral, "_count_below", miscount)
    with pytest.raises(NumericalContractError, match="inertia count"):
        spectral.eigenpairs_near(ham, center=0.0, half_width=0.25)


def test_negative_half_width_is_refused(adj_k1):
    with pytest.raises(ConfigError):
        spectral.eigenpairs_near(adj_k1, center=0.0, half_width=-0.1)


def path6():
    # a 6-site path: nonsingular, zero diagonal, eigenvalues 2 cos(k pi / 7)
    return sp.diags([np.ones(5), np.ones(5)], [-1, 1], format="csc")


@pytest.mark.parametrize(
    "x, message",
    [
        # the zero diagonal needs an off-diagonal pivot at x = 0
        (0.0, "pivoted off the diagonal"),
        # at x = 1 the second diagonal pivot cancels to rounding error, and the solve fails
        (np.nextafter(1.0, 2.0), "backward error"),
    ],
)
def test_inertia_count_needs_stable_diagonal_pivots(x, message):
    with pytest.raises(NumericalContractError, match=message):
        spectral._count_below(path6(), x, np.random.default_rng(0))


@pytest.mark.parametrize("center, half_width", [(0.25, 0.25), (0.5, 0.5)])
def test_window_edge_without_a_count_moves_outward(center, half_width):
    assert_matches_dense(path6(), center, half_width)


def test_junction_edge_without_a_count():
    # the lower edge 0.05 has no stable inertia count, so the counted window reaches below it
    ham = junction_hamiltonian(6)
    pairs = spectral.eigenpairs_near(ham, center=0.3, half_width=0.25, seed=11)
    want, _ = dense_window(ham, 0.3, 0.25)
    assert pairs.count > want.size
    np.testing.assert_allclose(pairs.eigenvalues, want, rtol=0, atol=1e-12)


def test_block_inside_the_basis_is_replaced():
    # T V can lie in span(V) exactly (an invariant subspace); QR alone would return columns of V
    rng = np.random.default_rng(3)
    basis = np.eye(6)[:, :3]
    block = basis @ rng.standard_normal((3, 2))
    q = spectral._orthonormal_block(basis, block.copy(), basis.T @ block, rng)
    assert np.abs(basis.T @ q).max() < 1e-12
    assert np.abs(q.T @ q - np.eye(2)).max() < 1e-12
