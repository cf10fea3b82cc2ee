import numpy as np
import pytest
import scipy.sparse as sp

from hyperbulk import operators, quotient, triangle
from hyperbulk.errors import ConfigError
from hyperbulk.tolerances import HERMITICITY, IDEMPOTENCY, RESOLUTION, TRACE
from hyperbulk.triangle import GEN_A, GEN_B

from conftest import DUPLICATES, all_models, left_translation

NU = {1: 5, 2: 4, 3: 2}  # cyclic subgroup orders for {5,4}


def test_adjacency_structure():
    adj = operators.adjacency(5, 4)
    terms = dict(adj.items())
    assert set(terms) == {(GEN_A,), (1,), (GEN_B,), (3,)}
    assert all(abs(c - 0.25) < 1e-15 for c in terms.values())


def test_algebra_dagger_involution():
    h = operators.model_hamiltonian(1, 1, 0.8, 5, 4)
    again = h.dagger().dagger()
    assert dict(h.items()) == pytest.approx(dict(again.items()))


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_projection_idempotent_in_representation(alpha, q54_k1):
    for kidx in range(1, NU[alpha]):
        proj = operators.cyclic_projection(alpha, kidx, 5, 4)
        mat = operators.represent_periodic(proj, q54_k1).toarray()
        assert np.max(np.abs(mat - mat.conj().T)) < HERMITICITY
        assert np.max(np.abs(mat @ mat - mat)) < IDEMPOTENCY


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_projection_resolution_of_identity(alpha, q54_k1):
    nu = NU[alpha]
    total = np.zeros((q54_k1.order, q54_k1.order), dtype=complex)
    for kidx in range(1, nu + 1):
        proj = operators.cyclic_projection(alpha, kidx, 5, 4)
        total += operators.represent_periodic(proj, q54_k1).toarray()
    assert np.max(np.abs(total - np.eye(q54_k1.order))) < RESOLUTION


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_projection_trace_counts_cosets(alpha, q54_k1):
    proj = operators.cyclic_projection(alpha, 1, 5, 4)
    mat = operators.represent_periodic(proj, q54_k1)
    want = q54_k1.order / NU[alpha]
    assert abs(mat.diagonal().sum() - want) < TRACE


def test_cyclic_projection_validation():
    with pytest.raises(ConfigError):
        operators.cyclic_projection(4, 1, 5, 4)
    with pytest.raises(ConfigError):
        operators.cyclic_projection(1, 0, 5, 4)  # kidx runs 1..nu
    with pytest.raises(ConfigError):
        operators.cyclic_projection(1, 6, 5, 4)


def test_model_hamiltonian_validation():
    with pytest.raises(ConfigError):
        operators.model_hamiltonian(1, 1, 1.5, 5, 4)


def test_interpolate_simplex_validation():
    models = [operators.model_hamiltonian(a, 1, 0.8, 5, 4) for a in (1, 2, 3)]
    operators.interpolate(models, (0.2, 0.3, 0.5))
    with pytest.raises(ConfigError):
        operators.interpolate(models, (0.5, 0.6, -0.1))
    with pytest.raises(ConfigError):
        operators.interpolate(models, (0.5, 0.5))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
def test_non_finite_weights_raise(bad):
    # NaN fails abs(c) > eps, so without the finiteness check a NaN weight would vanish and the model be solved without it
    adj = operators.adjacency(5, 4)
    with pytest.raises(ConfigError, match="not finite"):
        operators.AlgebraElement({(): bad, (GEN_A,): 0.25})
    with pytest.raises(ConfigError, match="not finite"):
        bad * adj
    with pytest.raises(ConfigError):
        operators.interpolate([adj, adj], (bad, 1.0))


def test_representation_is_algebra_homomorphism(q54_k1):
    # rep(a + b) = rep(a) + rep(b), rep(dagger) = adjoint
    a = operators.adjacency(5, 4)
    b = operators.model_hamiltonian(2, 1, 0.8, 5, 4)
    ra = operators.represent_periodic(a, q54_k1).toarray()
    rb = operators.represent_periodic(b, q54_k1).toarray()
    rsum = operators.represent_periodic(a + b, q54_k1).toarray()
    assert np.allclose(ra + rb, rsum, atol=1e-14)
    rdag = operators.represent_periodic(a.dagger(), q54_k1).toarray()
    assert np.allclose(ra.conj().T, rdag, atol=1e-14)


def test_right_representation_commutes_with_left_translations(q54_k1):
    g = q54_k1
    mat = operators.represent_periodic(operators.adjacency(5, 4), g).toarray()
    for t in (GEN_A, GEN_B):
        perm = left_translation(g, t)
        left = np.zeros_like(mat)
        left[perm, np.arange(g.order)] = 1.0
        assert np.max(np.abs(left @ mat - mat @ left)) < 1e-12


@pytest.mark.parametrize("rep", ["periodic", "blocks", "open"])
def test_empty_element_represents_zero(rep, q54_k1, ball54_r3):
    h = operators.AlgebraElement()
    if rep == "blocks":
        op = operators.represent_blocks(h, q54_k1)
        assert not any(op.block(j).any() for j in range(op.sectors.count))
    elif rep == "periodic":
        mat = operators.represent_periodic(h, q54_k1)
        assert (mat.format, mat.shape, mat.nnz) == ("csr", (q54_k1.order,) * 2, 0)
    else:
        mat = operators.represent_open(h, ball54_r3)
        assert (mat.format, mat.shape, mat.nnz) == ("csr", (len(ball54_r3),) * 2, 0)


def test_periodic_matrix_is_real_for_real_models(q54_k1):
    mat = operators.represent_periodic(operators.adjacency(5, 4), q54_k1)
    assert mat.dtype == np.float64
    proj = operators.cyclic_projection(1, 1, 5, 4)
    assert operators.represent_periodic(proj, q54_k1).dtype == np.complex128


def test_open_ball_representation(ball54_r3):
    adj = operators.adjacency(5, 4)
    mat = operators.represent_open(adj, ball54_r3)
    assert mat.shape == (len(ball54_r3), len(ball54_r3))
    assert operators.hermiticity_defect(mat) < HERMITICITY
    # interior row sums match the periodic coordination; rim rows lose bonds
    row_sums = np.asarray(np.abs(mat).sum(axis=1)).ravel()
    assert row_sums[0] == pytest.approx(1.0)  # identity sits at the center
    assert row_sums.min() < 1.0 - 1e-9


def test_open_ball_identity_term_hits_diagonal(ball54_r3):
    h = operators.AlgebraElement({(): 2.5})
    mat = operators.represent_open(h, ball54_r3).toarray()
    assert np.allclose(mat, 2.5 * np.eye(len(ball54_r3)))


def test_open_matches_periodic_in_deep_interior(q54_k2, ball54_r3):
    # the center of a radius-3 ball has its full bond set already
    adj = operators.adjacency(5, 4)
    open_mat = operators.represent_open(adj, ball54_r3).toarray()
    assert open_mat[0].sum() == pytest.approx(1.0)
    per = operators.represent_periodic(adj, q54_k2)
    assert np.asarray(np.abs(per).sum(axis=1)).ravel()[0] == pytest.approx(1.0)


def test_save_matrix_market(tmp_path, q54_k1):
    import scipy.io

    mat = operators.represent_periodic(operators.adjacency(5, 4), q54_k1)
    path = str(tmp_path / "m.mtx")
    operators.save_matrix_market(mat, path)
    back = scipy.io.mmread(path)
    assert np.allclose(back.toarray(), mat.toarray(), atol=1e-15)


def coo_periodic(h, group):
    """The periodic operator assembled from COO triplets: entry (walk(x, g^-1), x) = w_g, then tocsr."""
    n = group.order
    dtype = np.float64 if operators._is_real(h) else np.complex128
    cols = np.arange(n, dtype=np.int64)
    if not len(h):
        return sp.csr_matrix((n, n), dtype=dtype)
    rows = np.concatenate([group.walk(cols, triangle.inverse_word(w)) for w in h.terms])
    vals = np.concatenate([np.full(n, c if dtype == np.complex128 else c.real, dtype=dtype) for c in h.terms.values()])
    mat = sp.coo_matrix((vals, (rows, np.tile(cols, len(h)))), shape=(n, n)).tocsr()
    mat.sum_duplicates()
    return mat


@pytest.mark.parametrize("key", [(5, 4, 2, 1), (5, 4, 2, 2), (6, 4, 3, 1), (7, 3, 2, 1)],
                         ids=lambda key: "{}_{}_s{}_k{}".format(*key))
def test_direct_csr_fill_equals_coo_assembly(key):
    group = quotient.build_quotient(*key)
    models = {**all_models(key[0], key[1]), **DUPLICATES}
    for name, h in models.items():
        got, want = operators.represent_periodic(h, group), coo_periodic(h, group)
        assert got.format == "csr" and got.shape == want.shape, name
        for part in ("indptr", "indices", "data"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, part)
