import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbulk import geometry, triangle
from hyperbulk.errors import ConfigError
from hyperbulk.tolerances import FORM_PRESERVATION, MIDPOINT

from conftest import per_element_fill


def disk_points(max_radius=0.95):
    return st.tuples(
        st.floats(0.0, max_radius), st.floats(0.0, 2.0 * math.pi)
    ).map(lambda rt: rt[0] * cmath.exp(1j * rt[1]))


def test_bilinear_form_signature():
    form = geometry.bilinear_form(5, 4)
    eta = math.cos(math.pi / 5)
    zeta = math.cos(math.pi / 4)
    ups = math.hypot(eta, zeta)
    assert ups == pytest.approx(1.0744805708748175, abs=1e-15)
    ev = np.linalg.eigvalsh(form)
    assert ev == pytest.approx([1.0 - ups, 1.0, 1.0 + ups], abs=1e-12)
    # one negative direction iff the triangle is hyperbolic
    assert ev[0] < 0


def test_gamma_basis_minkowski_frame():
    basis = geometry.gamma_basis(5, 4)
    gram = basis.frame.T @ basis.form @ basis.frame
    assert np.allclose(gram, np.diag([-1.0, 1.0, 1.0]), atol=1e-12)
    assert np.allclose(basis.frame_inv @ basis.frame, np.eye(3), atol=1e-12)


def test_gamma_vectors_span_eigenvectors():
    basis = geometry.gamma_basis(5, 4)
    form = basis.form
    for vec, ev in (
        (basis.gamma1, 1.0),
        (basis.gamma2, 1.0 + basis.upsilon),
        (basis.gamma3, 1.0 - basis.upsilon),
    ):
        assert np.linalg.norm(form @ vec - ev * vec) < 1e-12


def test_coordinate_round_trip():
    basis = geometry.gamma_basis(5, 4)
    rng = np.random.default_rng(0)
    vecs = rng.standard_normal((10, 3))
    assert np.allclose(basis.embed(basis.coordinates(vecs)), vecs, atol=1e-12)


def test_disk_round_trip_examples():
    # (q0, q1, q2) = (sqrt 2, 1, 0) sits at z = 1/(1 + sqrt 2) = sqrt 2 - 1
    z = geometry.hyperboloid_to_disk((math.sqrt(2.0), 1.0, 0.0))
    assert z == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-15)
    q0, q1, q2 = geometry.disk_to_hyperboloid(z)
    assert (q0, q1, q2) == pytest.approx((math.sqrt(2.0), 1.0, 0.0), abs=1e-14)
    assert geometry.hyperboloid_to_disk((1.0, 0.0, 0.0)) == 0.0


def test_disk_rejects_wrong_sheet():
    with pytest.raises(ConfigError):
        geometry.hyperboloid_to_disk((-math.sqrt(2.0), 1.0, 0.0))


@settings(deadline=None, max_examples=60)
@given(disk_points())
def test_disk_hyperboloid_round_trip(z):
    coords = geometry.disk_to_hyperboloid(z)
    back = geometry.hyperboloid_to_disk(coords)
    assert abs(back - z) < 1e-12
    q0, q1, q2 = coords
    assert q1 * q1 + q2 * q2 - q0 * q0 == pytest.approx(-1.0, abs=1e-12)


def test_generators_preserve_form():
    gens = triangle.build_generators(5, 4)
    form = geometry.bilinear_form(5, 4)
    for g in (gens.A, gens.B):
        m = g.numeric()
        assert np.max(np.abs(m.T @ form @ m - form)) < FORM_PRESERVATION


def test_act_identity_and_inverse():
    basis = geometry.gamma_basis(5, 4)
    gens = triangle.build_generators(5, 4)
    z = 0.3 + 0.2j
    ident = triangle.GroupMatrix.identity(gens.ctx)
    assert geometry.act(ident, z, basis) == pytest.approx(z, abs=1e-14)
    moved = geometry.act(gens.A, z, basis)
    back = geometry.act(gens.A_inv, moved, basis)
    assert back == pytest.approx(z, abs=1e-12)


def test_act_is_isometry():
    basis = geometry.gamma_basis(5, 4)
    gens = triangle.build_generators(5, 4)
    rng = np.random.default_rng(1)
    for _ in range(25):
        z, w = (complex(*c) * 0.6 for c in rng.standard_normal((2, 2)) * 0.5)
        gz = geometry.act(gens.A, z, basis)
        gw = geometry.act(gens.A, w, basis)
        assert geometry.hyp_distance(gz, gw) == pytest.approx(
            geometry.hyp_distance(z, w), abs=1e-9
        )


def test_rotation_orbit_closes():
    basis = geometry.gamma_basis(5, 4)
    gens = triangle.build_generators(5, 4)
    z = 0.25 - 0.4j
    for _ in range(5):
        z = geometry.act(gens.A, z, basis)
    assert z == pytest.approx(0.25 - 0.4j, abs=1e-12)


def test_incenter_is_fixed_by_no_rotation_but_inside():
    z0 = geometry.incenter(5, 4)
    assert abs(z0) < 0.05
    assert z0 == pytest.approx(-0.007593841075968826 - 0.016156439885018742j, abs=1e-9)


def test_hyp_distance_basics():
    # distance from the origin is 2 artanh |z|
    assert geometry.hyp_distance(0.0, 0.6) == pytest.approx(
        2.0 * math.atanh(0.6), abs=1e-14
    )
    assert geometry.hyp_distance(0.3j, 0.3j) == 0.0
    a, b, c = 0.1, 0.5j, -0.3 - 0.2j
    assert geometry.hyp_distance(a, c) <= geometry.hyp_distance(a, b) + geometry.hyp_distance(b, c) + 1e-12


def test_midpoint_known_value():
    # mu(0, 0.6) = tanh(artanh(0.6) / 2) = 1/3
    assert geometry.midpoint(0.0, 0.6) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert geometry.midpoint(0.4j, 0.4j) == pytest.approx(0.4j, abs=1e-14)


@settings(deadline=None, max_examples=100)
@given(disk_points(0.9), disk_points(0.9))
def test_midpoint_contract(z, w):
    mu = geometry.midpoint(z, w)
    full = geometry.hyp_distance(z, w)
    assert geometry.hyp_distance(z, mu) == pytest.approx(full / 2.0, abs=MIDPOINT)
    assert geometry.hyp_distance(w, mu) == pytest.approx(full / 2.0, abs=MIDPOINT)


def test_site_positions_ball_distinct(ball54_r3):
    z0 = geometry.incenter(5, 4)
    pos = geometry.site_positions(ball54_r3, z0)
    assert pos.shape == (len(ball54_r3),)
    assert np.all(np.abs(pos) < 1.0)
    assert pos[0] == pytest.approx(z0, abs=1e-14)
    # distinct group elements move the incenter to distinct points
    sep = np.abs(pos[:, None] - pos[None, :]) + np.eye(len(pos))
    assert sep.min() > 1e-3


def test_site_positions_quotient(q54_k1):
    z0 = geometry.incenter(5, 4)
    pos = geometry.site_positions(q54_k1, z0)
    assert pos.shape == (q54_k1.order,)
    assert np.all(np.abs(pos) < 1.0)


def chase_numeric_matrices(parents, tokens, gens):
    """Float matrices of a quotient's elements by a per-element walk of the parent links."""
    gen_num = [gens.token_matrix(t).numeric() for t in range(4)]
    out = np.empty((len(parents), 3, 3))
    out[0] = np.eye(3)
    for i in range(1, len(parents)):
        out[i] = out[parents[i]] @ gen_num[tokens[i]]
    return out


def test_site_positions_quotient_match_the_per_element_chase(q54_k2):
    # the tree fill multiplies the same float matrices in the same order: equal bit for bit
    gens = triangle.build_generators(5, 4)
    mats = chase_numeric_matrices(q54_k2.parents, q54_k2.tokens, gens)
    step = np.array([gens.token_matrix(t).numeric() for t in range(4)])
    assert np.array_equal(q54_k2.fill(np.eye(3), lambda m, t: m @ step[t]),
                          per_element_fill(q54_k2, np.eye(3), lambda m, t: m @ step[t]))
    z0 = geometry.incenter(5, 4)
    basis = geometry.gamma_basis(5, 4)
    v0 = basis.embed(np.asarray(geometry.disk_to_hyperboloid(z0)))
    want = geometry._coords_to_disk_array(basis.coordinates(mats @ v0))
    assert np.array_equal(geometry.site_positions(q54_k2, z0), want)


def test_positions_csv(tmp_path, ball54_r3):
    pos = geometry.site_positions(ball54_r3, geometry.incenter(5, 4))
    path = tmp_path / "sites.csv"
    geometry.export_positions_csv(str(path), pos)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == len(pos) + 1
    idx, re, im = lines[1].split(",")
    assert int(idx) == 0
    assert complex(float(re), float(im)) == pytest.approx(pos[0], abs=1e-15)
