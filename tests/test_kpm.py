"""Single-site KPM moments against their oracles.

kpm_dos reads tr T_n(H~)/|G| as the one diagonal entry at the identity
element and takes two moments per matvec by Chebyshev doubling.  The
oracles are the moments of the exact eigenvalues (block_spectrum) and the
plain three-term recursion from the same start vector.  Measured
agreement is below 2e-13 at 500 moments on {5,4} k <= 2; the tests ask
for 1e-12.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbulk import cli, operators, spectral
from hyperbulk.errors import ConfigError

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


def scale(mat, seed=11):
    lo, hi = spectral.spectral_bounds(mat, seed=seed)
    return (hi - lo) / 2.0, (hi + lo) / 2.0


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
    a, b = scale(mat)
    mu = spectral._single_site_moments(mat, count, a, b)
    assert mu.shape == (count,)
    assert np.abs(mu - exact_moments(h, group, count, a, b)).max() <= TOL
    assert np.abs(mu - three_term_moments(mat, count, a, b)).max() <= TOL


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_doubled_moments_match_exact_spectrum(groups, k, name):
    check_against_oracles(MODELS[name], groups[k], 500)


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


@pytest.mark.parametrize("name, dtype", [("adj", np.float64), ("h1_1", np.complex128)])
@pytest.mark.parametrize("count", [2, 3, 64, 65, 500])
def test_matvec_count_and_dtype(q54_k1, name, dtype, count):
    op = CountingOperator(operators.represent_periodic(MODELS[name], q54_k1))
    spectral._single_site_moments(op, count, 1.1, 0.0)
    assert len(op.seen) == -(-(count - 1) // 2)
    assert set(op.seen) == {np.dtype(dtype)}


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_bounds_enclose_spectrum(groups, k, name):
    mat = operators.represent_periodic(MODELS[name], groups[k])
    ev = spectral.block_spectrum(MODELS[name], groups[k]).eigenvalues
    lo, hi = spectral.spectral_bounds(mat, seed=11)
    assert lo < ev[0] and ev[-1] < hi


def test_real_bounds_take_one_lanczos_run(q54_k1, monkeypatch):
    calls = []

    def eigsh(*args, **kwargs):
        calls.append(kwargs["which"])
        return real_eigsh(*args, **kwargs)

    real_eigsh = spla.eigsh
    monkeypatch.setattr(spectral.spla, "eigsh", eigsh)
    spectral.spectral_bounds(operators.represent_periodic(MODELS["adj"], q54_k1))
    assert calls == ["BE"]
    calls.clear()
    spectral.spectral_bounds(operators.represent_periodic(MODELS["h1_1"], q54_k1))
    assert calls == ["LA", "SA"]


def failing_eigsh(*args, **kwargs):
    raise spla.ArpackNoConvergence("no convergence", np.array([]), np.array([]))


def test_lanczos_failure_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(spectral.spla, "eigsh", failing_eigsh)
    code = cli.main(["--out", str(tmp_path), "spectrum", "5", "4", "--method", "kpm", "--moments", "16"])
    assert code == 4
    assert "Lanczos" in capsys.readouterr().err


def test_zero_operator_has_no_bounds(q54_k1, tmp_path, capsys, monkeypatch):
    # the spectrum {0} spans no interval for the Chebyshev rescaling: a config error, not an ARPACK failure
    zero = operators.AlgebraElement()
    with pytest.raises(ConfigError, match=r"single point \{0\}"):
        spectral.kpm_dos(zero, q54_k1, moments=20)
    with pytest.raises(ConfigError, match=r"single point \{0\}"):
        spectral.spectral_bounds(np.zeros((8, 8)))
    monkeypatch.setattr(cli, "_model_element", lambda *args: zero)
    code = cli.main(["--out", str(tmp_path), "spectrum", "5", "4", "--method", "kpm", "--moments", "16"])
    assert code == 2
    assert "single point {0}" in capsys.readouterr().err
