"""Single-site KPM moments and Lanczos edges against their oracles.

kpm_dos reads tr T_n(H~)/|G| as the one diagonal entry at the identity
element.  One plain Lanczos run from delta_e gives a Jacobi matrix J whose
Gauss quadrature reproduces those moments, and whose extreme Ritz values
are the spectral edges.  The oracles are the moments of the exact
eigenvalues (block_spectrum) and the plain three-term recursion on the
full operator from the same start vector.  Measured agreement is below
2.1e-13 at 500 moments on {5,4} k <= 2; the tests ask for 1e-12.  At 2000
moments the eigenvalue oracle is itself off by up to 9e-13 on k = 1
(against a 40-digit three-term recursion: n |dT_n/dx| amplifies its
eigenvalue errors of 1e-16), so its distance to any double-precision
result, the old Chebyshev recursion on the full operator included,
reaches 1.0e-12.  The 40-digit recursion matches the double one to 2e-14,
so the three-term oracle alone is asked for 1e-12 there (measured:
2.5e-13).
"""

import json
import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbulk import cli, operators, spectral
from hyperbulk.errors import ConfigError, NumericalContractError
from hyperbulk.triangle import GEN_A, GEN_B

TOL = 1e-12
EPS = 0.8


def models_54():
    out = {"adj": operators.adjacency(5, 4)}
    for alpha, nu in ((1, 5), (2, 4), (3, 2)):
        for kidx in range(1, nu + 1):
            out[f"h{alpha}_{kidx}"] = operators.model_hamiltonian(alpha, kidx, EPS, 5, 4)
    return out


MODELS = models_54()


@pytest.fixture(scope="module")
def groups(q54_k1, q54_k2):
    return {1: q54_k1, 2: q54_k2}


def exact_moments(h, group, count, a, b):
    theta = np.arccos(np.clip((spectral.block_spectrum(h, group).eigenvalues - b) / a, -1.0, 1.0))
    return np.array([np.cos(n * theta).mean() for n in range(count)])


def three_term_moments(mat, count, a, b):
    t_prev = np.zeros(mat.shape[0], dtype=mat.dtype)
    t_prev[0] = 1.0
    t_cur = (mat @ t_prev - b * t_prev) / a
    mu = [1.0, t_cur[0].real]
    for _ in range(2, count):
        t_prev, t_cur = t_cur, 2.0 * (mat @ t_cur - b * t_cur) / a - t_prev
        mu.append(t_cur[0].real)
    return np.array(mu[:count])


def check_against_oracles(h, group, count):
    mat = operators.represent_periodic(h, group)
    mu, (lo, hi), _ = spectral._single_site_moments(mat, count)
    a, b = (hi - lo) / 2.0, (hi + lo) / 2.0
    assert mu.shape == (count,)
    assert np.abs(mu - exact_moments(h, group, count, a, b)).max() <= TOL
    assert np.abs(mu - three_term_moments(mat, count, a, b)).max() <= TOL


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_doubled_moments_match_exact_spectrum(groups, k, name):
    check_against_oracles(MODELS[name], groups[k], 500)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_moments_at_2000_match_three_term_recursion(groups, k, name):
    # 1000 Lanczos steps, beyond |G_1| = 160: the Gauss rule stays exact without reorthogonalization
    mat = operators.represent_periodic(MODELS[name], groups[k])
    mu, (lo, hi), _ = spectral._single_site_moments(mat, 2000)
    assert np.abs(mu - three_term_moments(mat, 2000, (hi - lo) / 2.0, (hi + lo) / 2.0)).max() <= TOL


simplex = st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(lambda w: sum(w) > 1e-3)


@settings(max_examples=10, deadline=None)
@given(k=st.sampled_from([1, 2]), kidx=st.integers(1, 2), raw=simplex, count=st.integers(2, 300))
def test_doubled_moments_of_interpolations(groups, k, kidx, raw, count):
    weights = [x / sum(raw) for x in raw]
    models = [operators.model_hamiltonian(alpha, kidx, EPS, 5, 4) for alpha in (1, 2, 3)]
    check_against_oracles(operators.interpolate(models, weights), groups[k], count)


class CountingOperator:
    """Wraps a sparse matrix and records the dtype of every vector it is applied to."""

    def __init__(self, mat):
        self.mat, self.shape, self.dtype, self.seen = mat, mat.shape, mat.dtype, []

    def __matmul__(self, v):
        self.seen.append(v.dtype)
        return self.mat @ v


def ritz_edges(run, steps):
    """J's extreme eigenvalues after the first steps of the run, and their Ritz residuals."""
    alpha, beta = run.alpha[:steps], run.beta[:steps]
    ends = [sla.eigh_tridiagonal(alpha, beta[:-1], select="i", select_range=(i, i)) for i in (0, steps - 1)]
    return [float(w[0]) for w, _ in ends], [float(beta[-1] * abs(v[-1, 0])) for _, v in ends]


def converged(run, steps):
    (lo, hi), residuals = ritz_edges(run, steps)
    return max(residuals) <= spectral.BOUND_TOL * (hi - lo)


@pytest.mark.parametrize("name, dtype", [("adj", np.float64), ("h1_1", np.complex128)])
@pytest.mark.parametrize("count", [2, 3, 64, 65, 500])
def test_matvec_count_and_dtype(q54_k1, name, dtype, count):
    # one matvec per Lanczos step: max(ceil(M/2), the first later step whose edges have converged)
    op = CountingOperator(operators.represent_periodic(MODELS[name], q54_k1))
    _, _, run = spectral._single_site_moments(op, count)
    first = math.ceil(count / 2)
    assert len(op.seen) == run.alpha.size >= first
    assert [converged(run, j) for j in range(first, run.alpha.size + 1)] == [False] * (run.alpha.size - first) + [True]
    assert ritz_edges(run, run.alpha.size) == (list(run.edges), list(run.residuals))
    assert set(op.seen) == {np.dtype(dtype)}


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_bounds_enclose_spectrum(groups, k, name):
    mat = operators.represent_periodic(MODELS[name], groups[k])
    ev = spectral.block_spectrum(MODELS[name], groups[k]).eigenvalues
    lo, hi = spectral.spectral_bounds(mat, seed=11)
    assert lo < ev[0] and ev[-1] < hi


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_ritz_edges_match_exact_extremes(groups, k, name, monkeypatch):
    ev = spectral.block_spectrum(MODELS[name], groups[k]).eigenvalues

    runs = []
    lanczos = spectral._lanczos
    monkeypatch.setattr(spectral, "_lanczos", lambda *args: runs.append(args) or lanczos(*args))
    dos = spectral.kpm_dos(MODELS[name], groups[k], moments=500, grid_points=16)
    assert len(runs) == 1, "kpm_dos ran a second Lanczos pass for its bounds"
    run = dos.lanczos
    tol = spectral.BOUND_TOL * (ev[-1] - ev[0])
    assert abs(run.edges[0] - ev[0]) <= tol and abs(run.edges[1] - ev[-1]) <= tol
    assert max(run.residuals) <= tol
    # J's extreme eigenvalues are the run's edges, so the bounds are those edges padded, bit for bit
    pad = spectral.BOUND_PAD * (run.edges[1] - run.edges[0])
    assert dos.metadata["bounds"] == [run.edges[0] - pad, run.edges[1] + pad]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_few_moments_still_enclose_spectrum(q54_k2, name):
    # 8 steps leave the edges unconverged, so the run goes on until they converge
    ev = spectral.block_spectrum(MODELS[name], q54_k2).eigenvalues
    dos = spectral.kpm_dos(MODELS[name], q54_k2, moments=16, grid_points=16)
    lo, hi = dos.metadata["bounds"]
    assert lo < ev[0] and ev[-1] < hi
    assert dos.lanczos.alpha.size > 8
    assert not converged(dos.lanczos, 8)


def test_identity_breaks_down_at_step_1(q54_k1):
    dos = spectral.kpm_dos(operators.AlgebraElement.identity(1.0), q54_k1, moments=64, grid_points=16)
    run = dos.lanczos
    assert run.alpha.tolist() == [1.0] and run.beta.tolist() == [0.0]
    assert run.edges == (1.0, 1.0) and run.residuals == (0.0, 0.0)
    lo, hi = dos.metadata["bounds"]
    assert lo < 1.0 < hi


def test_lanczos_failure_exits_4(tmp_path, capsys, monkeypatch):
    # the k = 2 adjacency edges converge after 72 steps; a cap of 1 stops the run at the 8 steps 16 moments take
    monkeypatch.setattr(spectral, "LANCZOS_STEPS", 1)
    code = cli.main(["--out", str(tmp_path), "spectrum", "5", "4", "--k", "2", "--method", "kpm", "--moments", "16"])
    assert code == 4
    err = capsys.readouterr().err
    assert "Lanczos edges unconverged after 8 steps" in err
    assert "Ritz residual" in err and "lower edge" in err and "upper edge" in err


def test_kpm_reaches_k3(tmp_path, capsys):
    argv = ["--out", str(tmp_path), "spectrum", "5", "4", "--k", "3", "--method", "kpm", "--model", "h", "3", "1"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    steps = int(out.split(" Lanczos steps")[0].rsplit(" ", 1)[1])
    assert 250 <= steps < 300
    lo, hi = json.loads((tmp_path / "dos_kpm_h3_1_5_4_s2_k3.csv.meta.json").read_text())["bounds"]
    assert lo < -0.8063 and 1.0 < hi


def test_non_hermitian_model_fails_before_the_run(q54_k2, monkeypatch):
    # (A + B) / 2 has no A^-1 or B^-1 term; without the check 2000 Lanczos steps end in "edges unconverged"
    monkeypatch.setattr(spectral, "_lanczos", lambda *args: pytest.fail("the run started"))
    h = operators.AlgebraElement({(GEN_A,): 0.5, (GEN_B,): 0.5})
    with pytest.raises(NumericalContractError, match=r"not Hermitian: its weight 0.5 at element 1 \(word 'a'\) .* 5.00e-01 > 1e-12"):
        spectral.kpm_dos(h, q54_k2)
    # a complex weight on the identity is its own inverse's weight, not its conjugate
    with pytest.raises(NumericalContractError, match=r"element 0 \(word ''\) .* 1.00e\+00"):
        spectral.kpm_dos(operators.AlgebraElement({(): 0.5j}), q54_k2)


def test_zero_operator_has_no_bounds(q54_k1, tmp_path, capsys, monkeypatch):
    # the spectrum {0} spans no interval for the Chebyshev rescaling: a config error, not a Lanczos failure
    zero = operators.AlgebraElement()
    with pytest.raises(ConfigError, match=r"single point \{0\}"):
        spectral.kpm_dos(zero, q54_k1, moments=20)
    with pytest.raises(ConfigError, match=r"single point \{0\}"):
        spectral.spectral_bounds(np.zeros((8, 8)))
    monkeypatch.setattr(cli, "_resolve_model", lambda *args: ("adj", zero))
    code = cli.main(["--out", str(tmp_path), "spectrum", "5", "4", "--method", "kpm", "--moments", "16"])
    assert code == 2
    assert "single point {0}" in capsys.readouterr().err
