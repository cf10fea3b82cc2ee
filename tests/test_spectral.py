import numpy as np
import pytest
import scipy.linalg as sla

from hyperbulk import operators, spectral
from hyperbulk.errors import ConfigError, ResourceLimitError


@pytest.fixture(scope="module")
def adj_k1(q54_k1):
    return operators.represent_periodic(operators.adjacency(5, 4), q54_k1)


@pytest.fixture(scope="module")
def spec_k1(adj_k1):
    return spectral.exact_spectrum(adj_k1)


def test_exact_spectrum_sorted_and_bounded(spec_k1):
    ev = spec_k1.eigenvalues
    assert np.all(np.diff(ev) >= 0)
    # adjacency = mean of four rotations, so the spectrum lies in [-1, 1]
    assert ev[0] >= -1.0 - 1e-12 and ev[-1] <= 1.0 + 1e-12
    assert ev[-1] == pytest.approx(1.0, abs=1e-12)  # constant vector


def test_exact_spectrum_dense_cap(monkeypatch):
    import scipy.sparse as sp

    monkeypatch.setattr(spectral, "DENSE_CAP", 5)
    assert spectral.exact_spectrum(sp.eye(5, format="csr")).dim == 5
    with pytest.raises(ResourceLimitError):
        spectral.exact_spectrum(sp.eye(6, format="csr"))


def test_idos_counts_a_level_on_a_grid_point_whole():
    # six copies of -0.5 a few ulps apart, as a dense solve leaves a degenerate level, and a grid point on it
    ulp = np.spacing(0.5)
    ev = np.sort(np.r_[-2.0, -0.5 + ulp * np.array([-2, -1, 0, 0, 1, 2]), 1.0])
    curve = spectral.idos_curve(spectral.SpectrumResult(ev), np.array([-1.0, -0.5, 0.0, 1.0]))
    assert list(curve.values * len(ev)) == [1, 7, 7, 8]


def test_idos_monotone_and_normalized(spec_k1):
    grid = np.linspace(-1.2, 1.2, 400)
    curve = spectral.idos_curve(spec_k1, grid)
    assert np.all(np.diff(curve.values) >= 0)
    assert curve.values[0] == 0.0
    assert curve.values[-1] == 1.0


def test_spectral_bounds_contain_spectrum(adj_k1, spec_k1):
    lo, hi = spectral.spectral_bounds(adj_k1, seed=11)
    assert lo <= spec_k1.eigenvalues[0]
    assert hi >= spec_k1.eigenvalues[-1]
    # a small dense complex matrix runs the same Lanczos core (past its dimension) as a large sparse one
    rng = np.random.default_rng(3)
    x = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    x = x + x.conj().T
    ev = np.linalg.eigvalsh(x)
    lo, hi = spectral.spectral_bounds(x, seed=5)
    pad = spectral.BOUND_PAD * (ev[-1] - ev[0])
    assert abs(lo - (ev[0] - pad)) < 1e-9 and abs(hi - (ev[-1] + pad)) < 1e-9


def test_kpm_deterministic(q54_k1):
    adj = operators.adjacency(5, 4)
    a = spectral.kpm_dos(adj, q54_k1, moments=64, grid_points=128, seed=11)
    b = spectral.kpm_dos(adj, q54_k1, moments=64, grid_points=128, seed=11)
    assert np.array_equal(a.values, b.values)
    assert a.metadata == b.metadata
    # nothing is random: the Lanczos run starts at delta_e, so the seed is only echoed
    c = spectral.kpm_dos(adj, q54_k1, moments=64, grid_points=128, seed=12)
    assert np.array_equal(a.values, c.values)
    assert a.metadata == {**c.metadata, "seed": 11}


def test_kpm_density_normalized(q54_k1):
    dos = spectral.kpm_dos(operators.adjacency(5, 4), q54_k1, moments=128, grid_points=512, seed=11)
    mass = np.trapezoid(dos.values, dos.energies)
    assert mass == pytest.approx(1.0, abs=1e-8)
    assert np.all(dos.values > -1e-12)


def test_kpm_validation(q54_k1):
    adj = operators.adjacency(5, 4)
    with pytest.raises(ConfigError):
        spectral.kpm_dos(adj, q54_k1, moments=0)
    with pytest.raises(ConfigError):
        spectral.kpm_dos(adj, q54_k1, grid_points=1)


def test_cumulative_curve_of_kpm(q54_k1):
    dos = spectral.kpm_dos(operators.adjacency(5, 4), q54_k1, moments=128, grid_points=512, seed=11)
    idos = spectral.cumulative_curve(dos)
    assert np.all(np.diff(idos.values) >= -1e-12)
    assert idos.values[-1] == pytest.approx(1.0, abs=1e-8)


def test_detect_gaps_nested(spec_k1):
    wide = spectral.detect_gaps(spec_k1, min_width=0.2)
    narrow = spectral.detect_gaps(spec_k1, min_width=0.05)
    assert len(narrow) >= len(wide)
    for g in wide:
        assert g.width >= 0.2
        assert any(abs(h.lower - g.lower) < 1e-12 for h in narrow)
    # gaps are empty of eigenvalues
    ev = spec_k1.eigenvalues
    for g in narrow:
        inside = (ev > g.lower + 1e-12) & (ev < g.upper - 1e-12)
        assert not inside.any()


def test_simplex_path_structure():
    path = spectral.simplex_path(10)
    assert len(path) == 31
    assert path[0] == path[-1]
    for w in path:
        assert min(w) >= -1e-15
        assert sum(w) == pytest.approx(1.0, abs=1e-12)
    assert path[0] == (1.0, 0.0, 0.0)
    assert path[10] == (0.0, 1.0, 0.0)
    assert path[20] == (0.0, 0.0, 1.0)


def test_spectral_flow_continuity(q54_k1):
    models = [operators.model_hamiltonian(a, 1, 0.8, 5, 4) for a in (1, 2, 3)]
    path = spectral.simplex_path(6)
    flows = spectral.spectral_flow(models, path, q54_k1)
    assert flows.shape == (len(path), q54_k1.order)
    # Weyl: eigenvalue motion is bounded by the operator-norm step
    for i in range(1, len(path)):
        dw = np.subtract(path[i], path[i - 1])
        mats = [operators.represent_periodic(m, q54_k1).toarray() for m in models]
        dh = sum(w * m for w, m in zip(dw, mats))
        step = np.linalg.norm(dh, 2)
        assert np.max(np.abs(flows[i] - flows[i - 1])) <= step + 1e-9


def test_ldos_weights(spec_k1, q54_k1, adj_k1):
    spec = spectral.SpectrumResult(*sla.eigh(adj_k1.toarray()))
    w = spectral.ldos(spec, energy=0.0, delta_e=0.05)
    assert w.shape == (q54_k1.order,)
    assert np.all(w >= 0)
    # homogeneous system: every site carries the same weight
    assert np.max(w) - np.min(w) < 1e-10


@pytest.mark.parametrize("energy", [0.0, 0.37])
def test_ldos_does_not_depend_on_the_vectors_memory_order(ball54_r3, energy):
    # an open ball's LDOS varies from site to site; eigh returns column-major vectors
    mat = operators.represent_open(operators.model_hamiltonian(1, 1, 0.8, 5, 4), ball54_r3)
    spec = spectral.SpectrumResult(*sla.eigh(mat.toarray()))
    assert spec.eigenvectors.flags.f_contiguous
    row_major = spectral.SpectrumResult(spec.eigenvalues, np.ascontiguousarray(spec.eigenvectors))
    got = spectral.ldos(row_major, energy=energy, delta_e=0.05)
    assert got.tobytes() == spectral.ldos(spec, energy=energy, delta_e=0.05).tobytes()


def test_ldos_requires_vectors(spec_k1):
    with pytest.raises(ConfigError):
        spectral.ldos(spec_k1, energy=0.0, delta_e=0.05)


def test_eigenpairs_near_window(adj_k1):
    spec = spectral.exact_spectrum(adj_k1)
    pairs = spectral.eigenpairs_near(adj_k1, center=0.0, half_width=0.3, seed=11)
    want = spec.eigenvalues[np.abs(spec.eigenvalues) <= 0.3]
    got = np.sort(pairs.eigenvalues)
    assert got.size == want.size
    assert np.allclose(got, want, atol=1e-8)
    # residuals certify the pairs
    for j in range(got.size):
        v = pairs.eigenvectors[:, j]
        r = adj_k1 @ v - pairs.eigenvalues[j] * v
        assert np.linalg.norm(r) < 1e-8
    # a dense input gives the same window and is left as it was
    dense = adj_k1.toarray()
    again = spectral.eigenpairs_near(dense, center=0.0, half_width=0.3, seed=11)
    assert np.array_equal(dense, adj_k1.toarray())
    assert np.allclose(np.sort(again.eigenvalues), want, atol=1e-8)


def test_curve_csv_round_trip(tmp_path, q54_k1):
    import csv
    import json

    dos = spectral.kpm_dos(operators.adjacency(5, 4), q54_k1, moments=64, grid_points=64, seed=11)
    path = tmp_path / "dos.csv"
    spectral.write_curve_csv(dos, str(path))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 65  # header + grid
    meta = json.loads((tmp_path / "dos.csv.meta.json").read_text())
    assert meta["moments"] == 64


def test_idos_mse_zero_on_self(spec_k1):
    grid = np.linspace(-1.1, 1.1, 200)
    curve = spectral.idos_curve(spec_k1, grid)
    assert spectral.idos_mse(curve, curve) == 0.0
