"""eigenpairs_near against dense scipy.linalg.eigh on the same window."""

import gc
import tracemalloc
import types

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from hyperbulk import geometry, junction, operators, spectral, triangle
from hyperbulk.errors import ConfigError, NumericalContractError, ResourceLimitError
from hyperbulk.tolerances import EIGENPAIR_RESIDUAL

from conftest import window_and_factors


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


def test_junction_basis_budget():
    # thin blocks converge the 260 pairs of the r = 12 window from about 2m columns; smaller
    # windows need more per pair (r = 8: 168 columns for 49, its edge gap in 1/(E - sigma) is 3 %)
    ham = junction_hamiltonian(12)
    pairs = spectral.eigenpairs_near(ham, center=0.0, half_width=0.25, seed=11)
    assert pairs.count == 260
    assert pairs.basis_size <= 2 * pairs.count + 4 * spectral.KRYLOV_BLOCK
    assert pairs.residual <= EIGENPAIR_RESIDUAL


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


def test_basis_growth_charges_the_old_and_the_new_basis(monkeypatch):
    # the r = 8 window needs 168 columns, beyond its first room of 2m + 32 = 130: while the
    # basis doubles to 260, the old arrays are still held beside the new ones
    ham = junction_hamiltonian(8)
    pairs, factors = window_and_factors(ham, center=0.0, half_width=0.25, seed=11)
    m, n = pairs.count, ham.shape[0]
    first = 2 * m + 4 * spectral.KRYLOV_BLOCK
    assert first < pairs.basis_size <= 2 * first <= n
    lu = factors[-1]
    new_only = spectral._footprint(lu, ham.dtype, n, m, 2 * first)
    both = spectral._footprint(lu, ham.dtype, n, m, 2 * first, first)
    assert new_only < both
    monkeypatch.setattr(spectral, "EIGENPAIRS_MEMORY", (new_only + both) // 2)
    with pytest.raises(ResourceLimitError, match="Krylov basis"):
        spectral.eigenpairs_near(ham, center=0.0, half_width=0.25, seed=11)


@pytest.mark.parametrize("radius", [8, 10])
def test_traced_peak_within_the_charged_footprint(monkeypatch, radius):
    ham = junction_hamiltonian(radius)
    charged = []
    footprint = spectral._footprint

    def recording(*args):
        charged.append(footprint(*args))
        return charged[-1]

    monkeypatch.setattr(spectral, "_footprint", recording)
    tracemalloc.start()
    try:
        pairs = spectral.eigenpairs_near(ham, center=0.0, half_width=0.25, seed=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pairs.count > 0
    assert peak <= max(charged)


@pytest.mark.parametrize("shift", [1, -1])
def test_count_mismatch_is_refused(monkeypatch, shift):
    ham = junction_hamiltonian(5)
    count = spectral._count_below

    def miscount(a, x, rng):
        below, above = count(a, x, rng)
        return below, above - (shift if x > 0 else 0)

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


def test_exactly_singular_edge_moves_outward():
    # 0 is a 20-fold eigenvalue: SuperLU finds H - 0 I exactly singular, and the edge moves below or above it
    mat = sp.diags(np.repeat([-1.0, 0.0], 20), format="csc")
    rng = np.random.default_rng(0)
    with pytest.raises(NumericalContractError, match="exactly singular"):
        spectral._count_below(mat, 0.0, rng)
    assert spectral._first_accepted(0.0, -0.01, lambda x: spectral._count_below(mat, x, rng)) == (-0.01, (20, 20))
    assert spectral._first_accepted(0.0, 0.01, lambda x: spectral._count_below(mat, x, rng)) == (0.01, (40, 0))


@pytest.mark.parametrize("center", [0.1, 0.3])
def test_zero_operator_with_its_eigenvalue_on_the_lower_edge(center):
    # the Gershgorin radius is 0, so the lower edge 0 sits on -radius: it is factored, found exactly
    # singular and moved below 0, and the Ritz values a rounding error below 0 stay in the counted window
    pairs = assert_matches_dense(sp.csr_matrix((40, 40)), center, center)
    assert np.array_equal(pairs.eigenvalues, np.zeros(40))


def test_level_on_the_lower_edge_is_returned_whole():
    # the 20-fold level 0 sits on the lower edge: half of its Ritz values round below 0, within their residuals
    mat = np.diag(np.repeat([-1.0, 0.0, 1.0], [10, 20, 10]))
    assert assert_matches_dense(mat, 0.25, 0.25).count == 20
    # the 10-fold level 1 on the edge 1.1 - 0.1 = 1.0; dense_window's |E - 1.1| <= 0.1 misses it by rounding
    pairs = spectral.eigenpairs_near(mat, center=1.1, half_width=0.1, seed=11)
    assert pairs.count == pairs.eigenvalues.size == 10
    np.testing.assert_allclose(pairs.eigenvalues, 1.0, rtol=0, atol=1e-12)
    assert np.all(np.abs(pairs.eigenvalues - 1.0) <= pairs.residual)


def test_zero_operator_with_its_eigenvalue_on_the_upper_edge():
    # the upper edge 0 is factored, found exactly singular and moved above 0, so the Ritz values of the zero
    # level, a rounding error either side of 0, stay in the counted window
    pairs = assert_matches_dense(sp.csr_matrix((40, 40)), -0.1, 0.1)
    assert np.array_equal(pairs.eigenvalues, np.zeros(40))


def test_shift_without_stable_factors_is_refused(monkeypatch):
    # every shift tried is refused: it moves up by the edges' step, and the last refusal is raised
    factor = spectral._factor
    tried = []

    def refusing(a, x, rng):
        if abs(x) < 0.1:
            tried.append(x)
            raise NumericalContractError(f"refused at {x!r}")
        return factor(a, x, rng)

    monkeypatch.setattr(spectral, "_factor", refusing)
    with pytest.raises(NumericalContractError) as refused:
        spectral.eigenpairs_near(junction_hamiltonian(5), center=0.0, half_width=0.25)
    step = spectral.EDGE_STEP * 0.25
    assert tried == [k * step for k in range(spectral.EDGE_MOVES)]
    assert str(refused.value) == f"refused at {tried[-1]!r}"


def test_junction_edge_without_a_count():
    # the lower edge 0.05 has no stable inertia count, so the counted window reaches below it
    ham = junction_hamiltonian(6)
    pairs = spectral.eigenpairs_near(ham, center=0.3, half_width=0.25, seed=11)
    want, _ = dense_window(ham, 0.3, 0.25)
    assert pairs.count > want.size
    np.testing.assert_allclose(pairs.eigenvalues, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("radius", [6, 8])
def test_junction_window_sweep_matches_dense(monkeypatch, radius):
    # windows across the band, some of whose edges and shifts must move; every inertia count
    # taken must be the dense count below and above its edge
    ham = junction_hamiltonian(radius)
    vals = sla.eigvalsh(ham.toarray())
    counts = []
    first_accepted = spectral._first_accepted

    def recording(x, step, attempt):
        point, got = first_accepted(x, step, attempt)
        if isinstance(got, tuple):
            counts.append((point, got))
        return point, got

    monkeypatch.setattr(spectral, "_first_accepted", recording)
    for center in np.linspace(-1.0, 1.0, 21):
        counts.clear()
        pairs = spectral.eigenpairs_near(ham, center=center, half_width=0.25, seed=11)
        want = vals[np.abs(vals - center) <= 0.25]
        assert pairs.eigenvalues.shape == want.shape
        np.testing.assert_allclose(pairs.eigenvalues, want, rtol=0, atol=1e-12)
        for x, (below, above) in counts:
            assert below == np.count_nonzero(vals < x) and above == np.count_nonzero(vals > x)
        (lo, (below_lo, _)), (hi, (_, above_hi)) = counts
        assert pairs.count == vals.size - below_lo - above_hi


@pytest.mark.parametrize("radius", [8, 10, 12])
def test_shift_factors_are_no_larger_than_an_edge_count(radius):
    # one diagonal-pivot factorization for every shifted matrix: the shift's LU fills no more
    # than the inertia counts' do
    pairs, factors = window_and_factors(junction_hamiltonian(radius), center=0.0, half_width=0.25, seed=11)
    assert pairs.count > 0
    assert factors[-1].nnz <= min(lu.nnz for lu in factors[:-1])


@pytest.mark.parametrize("center", [0.3, 0.0])
def test_refused_factorizations_do_not_outlive_the_solve(center):
    # on r = 6 the lower edge of the window at 0.3 has no inertia count, and the shift 0.0 fails
    # its backward-error check; neither refusal, nor the frames that held its factors, may stay
    # alive in a reference cycle until the garbage collector runs
    ham = junction_hamiltonian(6)
    gc.collect()
    gc.disable()
    try:
        spectral.eigenpairs_near(ham, center=center, half_width=0.25, seed=11)
        alive = [
            o
            for o in gc.get_objects()
            if type(o) is NumericalContractError
            or (type(o) is types.FrameType and o.f_code.co_name in ("_factor", "_count_below"))
        ]
    finally:
        gc.enable()
    assert not alive


@pytest.mark.parametrize("separation", [1e-6, 1e-8])
def test_near_parallel_block_columns_stay_orthogonal_to_the_basis(separation):
    # QR divides the columns' rounding-level overlap with the basis by r_ii ~ separation
    rng = np.random.default_rng(5)
    basis, _ = np.linalg.qr(rng.standard_normal((200, 40)))
    col = rng.standard_normal(200)
    block = np.column_stack([col, col + separation * rng.standard_normal(200)])
    q = spectral._orthonormal_block(basis, block.copy(), basis.T @ block, rng)
    assert np.abs(basis.T @ q).max() <= 1e-12
    assert np.abs(q.T @ q - np.eye(2)).max() < 1e-12


def test_block_inside_the_basis_is_replaced():
    # T V can lie in span(V) exactly (an invariant subspace); QR alone would return columns of V
    rng = np.random.default_rng(3)
    basis = np.eye(6)[:, :3]
    block = basis @ rng.standard_normal((3, 2))
    q = spectral._orthonormal_block(basis, block.copy(), basis.T @ block, rng)
    assert np.abs(basis.T @ q).max() < 1e-12
    assert np.abs(q.T @ q - np.eye(2)).max() < 1e-12


def test_block_inside_the_last_two_blocks_is_replaced():
    # T q can lie exactly in span(q, previous block): the local pass then leaves rounding
    # noise, which RANK_DROP must measure against ||T q||, not against the noise itself
    rng = np.random.default_rng(7)
    b = spectral.KRYLOV_BLOCK
    basis, _ = np.linalg.qr(rng.standard_normal((200, 3 * b)))
    near = basis[:, b:]
    returned = []
    for _ in range(2):
        block = near @ rng.standard_normal((2 * b, b))
        norms = np.linalg.norm(block, axis=0)
        block -= near @ (near.T @ block)
        q = spectral._orthonormal_block(basis, block, basis.T @ block, np.random.default_rng(0), norms)
        assert np.abs(basis.T @ q).max() <= 1e-12
        assert np.abs(q.T @ q - np.eye(b)).max() < 1e-12
        returned.append(q)
    # nothing of either block survives: both give way to the same seeded columns
    assert np.array_equal(returned[0], returned[1])


def test_dimer_copies_close_the_krylov_space_after_two_blocks():
    # two distinct eigenvalues, so T^2 q lies in span(q, T q): every T q from the second
    # block on lies exactly in the last two blocks, and the window needs replaced columns
    mat = sp.kron(sp.identity(40), sp.csr_matrix([[0.0, 1.0], [1.0, 0.0]]), format="csr")
    pairs = assert_matches_dense(mat, 0.9, 0.3)
    assert pairs.count == 40 > spectral.KRYLOV_BLOCK


@pytest.fixture(scope="module")
def r12_window():
    """The r = 12 junction window, with the width of every basis slice _adjoint_times read."""
    widths = []
    adjoint_times = spectral._adjoint_times

    def counting(v, w):
        widths.append(v.shape[1])
        return adjoint_times(v, w)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_adjoint_times", counting)
        pairs = spectral.eigenpairs_near(junction_hamiltonian(12), center=0.0, half_width=0.25, seed=11)
    return pairs, widths


def test_junction_gram_schmidt_pass_budget(r12_window):
    # the local pass reads at most the last two blocks; every wider product is a pass over the
    # whole basis: one per block, plus a reorthogonalization only where a column loses half its norm
    pairs, widths = r12_window
    b = spectral.KRYLOV_BLOCK
    blocks = pairs.basis_size // b
    full = sum(width > 2 * b for width in widths)
    assert pairs.count == 260 and pairs.basis_size == 2 * pairs.count
    assert full <= 1.5 * blocks
    assert pairs.residual <= EIGENPAIR_RESIDUAL


def test_junction_eigenvectors_are_orthonormal(r12_window):
    # the projected eigh's eigenvectors of this window are orthogonal only to about 1e-11, and
    # the returned pairs must not inherit that
    vecs = r12_window[0].eigenvectors
    assert np.abs(vecs.conj().T @ vecs - np.eye(vecs.shape[1])).max() <= 1e-11


@pytest.mark.parametrize("radius", [6, 8])
def test_projection_is_the_shift_inverse_on_the_basis(monkeypatch, radius):
    # V^H T V is summed from the local and the full pass; it must still be V^H (H - sigma)^-1 V
    seen = []
    ritz = spectral._ritz_in_window

    def capture(a, basis, proj, sigma, *rest):
        seen.append((basis.copy(), proj.copy(), sigma))
        return ritz(a, basis, proj, sigma, *rest)

    monkeypatch.setattr(spectral, "_ritz_in_window", capture)
    ham = junction_hamiltonian(radius)
    spectral.eigenpairs_near(ham, center=0.0, half_width=0.25, seed=11)
    basis, proj, sigma = seen[-1]
    gram = basis.conj().T @ basis
    assert np.abs(gram - np.eye(basis.shape[1])).max() <= 1e-12
    shifted = ham.toarray() - sigma * np.eye(ham.shape[0])
    want = basis.conj().T @ np.linalg.solve(shifted, basis)
    got = np.triu(proj) + np.triu(proj, 1).conj().T
    assert np.abs(got - want).max() <= 1e-12 * np.linalg.norm(got, 2)


@pytest.mark.parametrize("center", [1e300, -1e300])
def test_window_far_outside_the_spectrum_is_empty(center):
    # H - center I would overflow; a window edge outside the Gershgorin interval needs no factors
    ham = junction_hamiltonian(6)
    pairs = spectral.eigenpairs_near(ham, center=center, half_width=0.25, seed=11)
    assert pairs.count == 0 and pairs.eigenvalues.size == 0


@pytest.mark.parametrize("center, half_width", [(2.0, 1.5), (-1e10, 1e10 + 0.95)])
def test_window_centered_outside_the_spectrum(adj_k1, center, half_width):
    # adj's Gershgorin interval is [-1, 1] and 1 is an eigenvalue (the constant state), so the
    # shift goes to the middle of the window's part inside the interval, not to its edge
    pairs = assert_matches_dense(adj_k1, center, half_width)
    assert 0 < pairs.count < adj_k1.shape[0]


@pytest.mark.parametrize("half_width", [0.0, np.inf, np.nan])
def test_degenerate_half_width_is_refused(adj_k1, half_width):
    with pytest.raises(ConfigError, match="half_width"):
        spectral.eigenpairs_near(adj_k1, center=0.0, half_width=half_width)
