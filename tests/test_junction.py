import cmath
import math
from collections import defaultdict

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbulk import geometry, junction, operators, triangle
from hyperbulk.errors import ConfigError
from hyperbulk.tolerances import HERMITICITY, PARTITION

PHI = math.pi / 10.0  # default alignment for p = 5
RAYS = junction.junction_rays(PHI)


def sector_points(margin=0.2):
    # points bounded away from the rays, where labels are stable
    return st.tuples(
        st.integers(0, 2),
        st.floats(margin, 2.0 * math.pi / 3.0 - margin),
        st.floats(0.05, 0.93),
    ).map(lambda t: (t[0] + 1, t[2] * cmath.exp(1j * (PHI + t[0] * 2.0 * math.pi / 3.0 + t[1]))))


def test_rays_are_unit_and_rotated():
    assert np.allclose(np.abs(RAYS), 1.0, atol=1e-15)
    w = cmath.exp(2j * math.pi / 3.0)
    assert RAYS[1] == pytest.approx(RAYS[0] * w, abs=1e-15)
    assert RAYS[2] == pytest.approx(RAYS[1] * w, abs=1e-15)
    assert cmath.phase(RAYS[0]) == pytest.approx(PHI, abs=1e-15)


def test_origin_sits_in_sector_one():
    assert junction.sector_label(0j, RAYS) == 1


@pytest.mark.parametrize("z", [0j, complex(-0.0, -0.0), -0.0, 0.0, 0.3 + 0.2j, -0.5j, 0.25 * RAYS[1]])
def test_scalar_point_matches_its_array_row(z):
    # a scalar gets a Python int label and one (3,) row of distances, the array case's entries for it
    lab = junction.sector_label(z, RAYS)
    assert type(lab) is int
    assert lab == junction.sector_label(np.array([z, 0.5]), RAYS)[0]
    dist = junction.signed_distance(z, RAYS)
    assert isinstance(dist, np.ndarray) and dist.shape == (3,)
    assert np.array_equal(dist, junction.signed_distance(np.array([z, 0.5]), RAYS)[0])
    if z == 0:
        assert lab == 1


@settings(deadline=None, max_examples=80)
@given(sector_points())
def test_sector_labels_fill_wedges(labeled):
    want, z = labeled
    assert junction.sector_label(z, RAYS) == want


@settings(deadline=None, max_examples=50)
@given(sector_points())
def test_rotation_advances_label_cyclically(labeled):
    want, z = labeled
    w = cmath.exp(2j * math.pi / 3.0)
    lab = junction.sector_label(z, RAYS)
    lab_next = junction.sector_label(z * w, RAYS)
    assert lab_next == lab % 3 + 1


def test_boundary_distance_on_ray_and_origin():
    d = junction.boundary_distance(0j, RAYS)
    assert np.allclose(d, 0.0, atol=1e-15)
    z = 0.5 * RAYS[0]
    d = junction.boundary_distance(z, RAYS)
    assert d[0] == pytest.approx(0.0, abs=1e-12)
    assert d[1] > 0.1 and d[2] > 0.1


def test_boundary_distance_perpendicular_geodesic():
    # kappa = pi/2 exactly: the nearest ray point is the origin itself
    z = 0.4 * RAYS[0] * 1j
    d = junction.boundary_distance(z, RAYS)
    assert d[0] == pytest.approx(2.0 * math.atanh(0.4), abs=1e-12)


@settings(deadline=None, max_examples=80)
@given(sector_points())
def test_signed_distance_negative_only_in_own_sector(labeled):
    lab, z = labeled
    dist = junction.signed_distance(z, RAYS)
    assert dist[lab - 1] < 0
    for i in range(3):
        if i != lab - 1:
            assert dist[i] > 0


def test_signed_distance_vanishes_on_rays():
    # on ray 1, regions 1 and 3 touch: both their distances vanish
    z = 0.45 * RAYS[0]
    dist = junction.signed_distance(z, RAYS)
    assert abs(dist[0]) < 1e-12
    assert abs(dist[2]) < 1e-12
    assert dist[1] > 0.1


@settings(deadline=None, max_examples=40)
@given(st.floats(0.05, 0.9), st.integers(0, 2))
def test_signed_distance_continuous_across_rays(r, ray_idx):
    eps = 1e-7
    ray = RAYS[ray_idx]
    below = junction.signed_distance(r * ray * cmath.exp(-1j * eps), RAYS)
    above = junction.signed_distance(r * ray * cmath.exp(1j * eps), RAYS)
    assert np.max(np.abs(below - above)) < 1e-5


@settings(deadline=None, max_examples=50)
@given(sector_points())
def test_signed_distance_rotation_covariance(labeled):
    _, z = labeled
    w = cmath.exp(2j * math.pi / 3.0)
    rotated = junction.signed_distance(z * w, RAYS)
    assert np.allclose(np.roll(junction.signed_distance(z, RAYS), 1), rotated, atol=1e-10)


@settings(deadline=None, max_examples=60)
@given(sector_points())
def test_partition_rows_sum_to_one(labeled):
    _, z = labeled
    chi = junction.partition(z, RAYS)
    assert chi.shape == (3,)
    assert np.all(chi >= 0)
    assert abs(chi.sum() - 1.0) < PARTITION


def test_partition_saturates_deep_in_sector():
    ell = 0.1
    # ten wall widths into sector 2, measured along its bisector
    mid_angle = PHI + 2.0 * math.pi / 3.0 + math.pi / 3.0
    for depth_radius in (0.6, 0.9):
        z = depth_radius * cmath.exp(1j * mid_angle)
        dist = junction.signed_distance(z, RAYS)
        if dist[1] < -10.0 * ell:
            chi = junction.partition(z, RAYS, ell)
            assert chi[1] > 0.99


def test_partition_sharpens_as_ell_shrinks():
    z = 0.5 * cmath.exp(1j * (PHI + 0.3))
    soft = junction.partition(z, RAYS, 0.2)
    sharp = junction.partition(z, RAYS, 0.01)
    assert sharp[0] > soft[0]
    assert sharp[0] > 0.999


def test_ray_distance_zero_on_rays():
    assert junction.ray_distance(0.3 * RAYS[1], RAYS) == pytest.approx(0.0, abs=1e-12)
    z = 0.5 * cmath.exp(1j * (PHI + math.pi / 3.0))
    assert junction.ray_distance(z, RAYS) > 0.1


def test_config_validation():
    junction.JunctionConfig()
    with pytest.raises(ConfigError):
        junction.JunctionConfig(ell=0.0)
    with pytest.raises(ConfigError):
        junction.JunctionConfig(eps=1.2)
    with pytest.raises(ConfigError):
        junction.JunctionConfig(models=((1, 1), (2, 1)))
    cfg = junction.JunctionConfig()
    assert cfg.resolve_phi(5) == pytest.approx(math.pi / 10.0)
    assert junction.JunctionConfig(phi_y=0.7).resolve_phi(5) == 0.7


@pytest.fixture(scope="module")
def small_junction():
    ball = triangle.ball_enumerate(5, 4, 5)
    pos = geometry.site_positions(ball, geometry.incenter(5, 4))
    return ball, pos


def test_assembled_hamiltonian_hermitian(small_junction):
    ball, pos = small_junction
    ham = junction.assemble_junction(ball, pos, junction.JunctionConfig())
    assert ham.shape == (len(ball), len(ball))
    assert operators.hermiticity_defect(ham) < HERMITICITY


def test_identical_models_reduce_to_plain_open_operator(small_junction):
    ball, pos = small_junction
    cfg = junction.JunctionConfig(models=((1, 1), (1, 1), (1, 1)))
    ham = junction.assemble_junction(ball, pos, cfg)
    h = operators.model_hamiltonian(1, 1, junction.DEFAULT_EPS, 5, 4)
    pure = operators.represent_open(h, ball)
    assert abs(ham - pure).max() < 1e-12


def model_by_model(ball, pos, cfg):
    """Each model's represent_open entries times its partition value at the bonds' midpoints, summed in model order."""
    rays = junction.junction_rays(cfg.resolve_phi(5))
    total = None
    for i, (alpha, kidx) in enumerate(cfg.models):
        mat = operators.represent_open(operators.model_hamiltonian(alpha, kidx, cfg.eps, 5, 4), ball).tocoo()
        chi = junction.partition(geometry.midpoint(pos[mat.row], pos[mat.col]), rays, cfg.ell)[:, i]
        part = sp.coo_matrix((mat.data * chi, (mat.row, mat.col)), shape=mat.shape)
        total = part if total is None else total + part
    return total.tocsr()


@pytest.mark.parametrize("models", [junction.DEFAULT_MODELS, ((1, 1),) * 3], ids=["default", "h1_1"])
@pytest.mark.parametrize("radius", [5, 8])
def test_assembly_equals_the_model_by_model_sum_bit_for_bit(radius, models):
    ball = triangle.ball_enumerate(5, 4, radius)
    pos = geometry.site_positions(ball, geometry.incenter(5, 4))
    cfg = junction.JunctionConfig(models=models)
    got, want = junction.assemble_junction(ball, pos, cfg), model_by_model(ball, pos, cfg)
    for part in ("indptr", "indices", "data"):
        assert getattr(got, part).dtype == getattr(want, part).dtype
        assert getattr(got, part).tobytes() == getattr(want, part).tobytes()


def test_assembly_multiplies_each_element_once(small_junction, monkeypatch):
    ball, pos = small_junction
    calls = defaultdict(list)

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((operators, "represent_open"), (operators, "right_products"), (triangle.RowIndex, "find"),
                        (geometry, "midpoint"), (junction, "partition")):
        counted(owner, name)
    cfg = junction.JunctionConfig()
    ham = junction.assemble_junction(ball, pos, cfg)
    # the three default models write 20 words that name 9 distinct elements: one product and lookup each,
    # in one represent_open of the element that numbers them
    assert sum(len(operators.model_hamiltonian(a, k, cfg.eps, 5, 4)) for a, k in cfg.models) == 20
    assert {name: len(args) for name, args in calls.items()} == {"represent_open": 1, "right_products": 9, "find": 9,
                                                                 "midpoint": 1, "partition": 1}
    (label, _), = calls["represent_open"]
    assert sorted(c.real for _, c in label.items()) == list(range(1, 10))
    assert all(rows is ball.index.rows and len(tables) == 1 for rows, tables in calls["right_products"])
    assert all(index is ball.index and len(found) == len(ball) for index, found in calls["find"])
    (z, w), = calls["midpoint"]
    (mu, _, _), = calls["partition"]
    assert len(z) == len(w) == len(mu) >= ham.nnz


def test_deep_sector_bonds_match_pure_model(small_junction):
    ball, pos = small_junction
    cfg = junction.JunctionConfig()
    ham = junction.assemble_junction(ball, pos, cfg).tocoo()
    rays = junction.junction_rays(cfg.resolve_phi(5))
    pures = [
        operators.represent_open(
            operators.model_hamiltonian(a, k, cfg.eps, 5, 4), ball
        ).toarray()
        for a, k in cfg.models
    ]
    mids = geometry.midpoint(pos[ham.row], pos[ham.col])
    dist = junction.signed_distance(mids, rays)
    checked = 0
    for r, c, v, d3 in zip(ham.row, ham.col, ham.data, dist):
        own = int(np.argmin(d3))
        if d3[own] < -10.0 * cfg.ell:
            # the foreign sigmoid weights are at most expit(-10) ~ 4.5e-5 each
            assert abs(v - pures[own][r, c]) < 2e-4
            checked += 1
    assert checked > 50


def test_bulk_sites_mask(small_junction):
    ball, _ = small_junction
    mask = junction.bulk_sites(ball)
    assert mask.shape == (len(ball),)
    assert mask.sum() == sum(ball.layer_sizes[:-2])
    assert mask[0]
    assert not mask[-1]


def test_partition_csv(tmp_path):
    z = np.array([0.1 + 0.2j, 0.5, -0.3j])
    chi = junction.partition(z, RAYS)
    path = tmp_path / "chi.csv"
    junction.export_partition_csv(str(path), chi)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 4
    assert lines[0].split(",") == ["index", "chi1", "chi2", "chi3"]
