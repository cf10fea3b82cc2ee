"""End-to-end acceptance gate.

Each test checks one numbered shipping criterion and records a single
PASS/FAIL line (echoed again in the terminal summary).  Expected values
are frozen oracles; tolerances come from hyperbulk.tolerances.
"""

import math
import os

import numpy as np
import pytest

from hyperbulk import geometry, junction, operators, quotient, ring, spectral, triangle
from hyperbulk.tolerances import CONTAINMENT, HERMITICITY, PARTITION, TRACE
from hyperbulk.triangle import ring_index

from conftest import EPS, QUOTIENT_ORDERS, QUOTIENT_ORDERS_LONG

RESULTS = []

# Published minimal polynomials for every admissible pair with p <= 8,
# q <= p; coefficients lowest degree first, keyed by (p, q).
TABLE_PSI = {
    (7, 3): (1, -2, -1, 1),
    (8, 3): (2, 0, -4, 0, 1),
    (5, 4): (1, 0, -12, 0, 19, 0, -8, 0, 1),
    (6, 4): (1, 0, -16, 0, 20, 0, -8, 0, 1),
    (5, 5): (-1, -1, 1),
    (7, 4): (1, 0, -24, 0, 86, 0, -104, 0, 53, 0, -12, 0, 1),
    (8, 4): (2, 0, -64, 0, 336, 0, -672, 0, 660, 0, -352, 0, 104, 0, -16, 0, 1),
    (6, 5): (1, 0, -8, 0, 14, 0, -7, 0, 1),
    (7, 5): (1, -8, -40, 46, 110, -71, -113, 43, 54, -11, -12, 1, 1),
    (6, 6): (-3, 0, 1),
    (8, 5): (1, 0, -48, 0, 316, 0, -664, 0, 659, 0, -352, 0, 104, 0, -16, 0, 1),
    (7, 6): (1, 0, -16, 0, 60, 0, -78, 0, 44, 0, -11, 0, 1),
    (8, 6): (1, 0, -64, 0, 336, 0, -672, 0, 660, 0, -352, 0, 104, 0, -16, 0, 1),
    (7, 7): (1, -2, -1, 1),
    (8, 8): (2, 0, -4, 0, 1),
}

NU = {1: 5, 2: 4, 3: 2}


def record(tag: str, ok: bool, detail: str):
    line = f"{tag}: {'PASS' if ok else 'FAIL'}  [{detail}]"
    RESULTS.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def adj_evals(q54_k1, q54_k2, dense_spectrum):
    return {1: dense_spectrum("adj", q54_k1), 2: dense_spectrum("adj", q54_k2)}


@pytest.fixture(scope="module")
def model_evals(q54_k1, q54_k2, dense_spectrum):
    # model_hamiltonian(alpha, 1, EPS, 5, 4) on G_k
    return {
        (alpha, k): dense_spectrum(f"h{alpha}_1", group)
        for k, group in ((1, q54_k1), (2, q54_k2))
        for alpha in (1, 2, 3)
    }


def test_criterion_01_minimal_polynomials():
    psi40 = ring.minimal_polynomial(40)
    psi8 = ring.minimal_polynomial(8)
    ok = psi40.coeffs == (1, 0, -12, 0, 19, 0, -8, 0, 1) and psi8.coeffs == (-2, 0, 1)
    bad = []
    for (p, q), coeffs in TABLE_PSI.items():
        if ring.minimal_polynomial(ring_index(p, q)).coeffs != coeffs:
            bad.append((p, q))
    ok = ok and not bad
    record(
        "C1 minimal polynomials",
        ok,
        f"{len(TABLE_PSI)} table rows coefficient-exact" if ok else f"mismatches: {bad}",
    )


def test_criterion_02_quotient_orders():
    rows = dict(QUOTIENT_ORDERS)
    if os.environ.get("RUN_LONG"):
        rows.update(QUOTIENT_ORDERS_LONG)
    bad = []
    for (p, q), want in sorted(rows.items()):
        group = quotient.build_quotient(p, q, 2, 1)
        if group.order != want:
            bad.append((p, q, group.order, want))
    note = "largest row skipped (set RUN_LONG to include it)" if not os.environ.get("RUN_LONG") else "all rows"
    record(
        "C2 quotient orders mod 2",
        not bad,
        f"{len(rows)} rows exact, {note}" if not bad else f"mismatches: {bad}",
    )


def test_criterion_03_group_relations():
    bad = []
    for p, q in sorted(TABLE_PSI):
        gens = triangle.build_generators(p, q)
        ident = triangle.GroupMatrix.identity(gens.ctx)
        if not (
            gens.A.pow(p) == ident
            and gens.B.pow(q) == ident
            and (gens.A @ gens.B).pow(2) == ident
        ):
            bad.append((p, q))
    record(
        "C3 rotation relations",
        not bad,
        "A^p = B^q = (AB)^2 = 1 exact for all 15 pairs" if not bad else f"failing pairs: {bad}",
    )


def test_criterion_04_idos_convergence(q54_k1, q54_k2, adj_evals):
    adj = operators.adjacency(5, 4)
    ref_group = quotient.build_quotient(5, 4, 2, 3)
    ref = spectral.cumulative_curve(spectral.kpm_dos(adj, ref_group))
    mses = {}
    for k in (1, 2):
        spec = spectral.SpectrumResult(adj_evals[k])
        mses[k] = spectral.idos_mse(spectral.idos_curve(spec, ref.energies), ref)
    ok = mses[1] > mses[2]
    record(
        "C4 IDOS convergence",
        ok,
        f"MSE k=1 {mses[1]:.3e} > MSE k=2 {mses[2]:.3e} vs k=3 reference (|G_3| = {ref_group.order})",
    )


def test_criterion_05_spectral_containment(q54_k1, q54_k2, adj_evals, model_evals):
    def worst(small, big):
        idx = np.searchsorted(big, small)
        idx = np.clip(idx, 1, big.size - 1)
        return float(
            np.max(np.minimum(np.abs(small - big[idx - 1]), np.abs(small - big[idx])))
        )

    d_adj = worst(adj_evals[1], adj_evals[2])
    d_h1 = worst(model_evals[(1, 1)], model_evals[(1, 2)])
    ok = d_adj < CONTAINMENT and d_h1 < CONTAINMENT
    record(
        "C5 spectral containment k=1 in k=2",
        ok,
        f"adjacency defect {d_adj:.2e}, h1 defect {d_h1:.2e}, tolerance {CONTAINMENT:.0e}",
    )


def test_criterion_06_band_counts(q54_k1, q54_k2, model_evals):
    checks = []
    for k, group in ((1, q54_k1), (2, q54_k2)):
        if not group.torsion_preserved:
            record("C6 topological band counts", False, f"torsion collapsed at k={k}")
        for alpha in (1, 2, 3):
            want = group.order // NU[alpha]
            proj = operators.cyclic_projection(alpha, 1, 5, 4)
            tr = operators.represent_periodic(proj, group).diagonal().sum()
            trace_ok = abs(tr - want) < TRACE
            ev = model_evals[(alpha, k)]
            gaps = spectral.detect_gaps(spectral.SpectrumResult(ev))
            count_ok = any(
                int(np.searchsorted(ev, g.lower, side="right")) == want for g in gaps
            )
            checks.append(trace_ok and count_ok)
    record(
        "C6 topological band counts",
        all(checks),
        "trace = |G_k|/nu and gap state counts exact for alpha in {1,2,3}, k <= 2",
    )


def test_criterion_07_kpm_fidelity(q54_k2, adj_evals):
    dos = spectral.kpm_dos(operators.adjacency(5, 4), q54_k2)
    kpm_idos = spectral.cumulative_curve(dos)
    ev = adj_evals[2]
    exact = spectral.idos_curve(spectral.SpectrumResult(ev), dos.energies)
    lo, hi = dos.metadata["bounds"]
    a, b = (hi - lo) / 2.0, (hi + lo) / 2.0
    x = (dos.energies - b) / a
    err = np.abs(kpm_idos.values - exact.values)
    interior = np.abs(x) < 0.95
    raw = float(err[interior].max())
    # a macroscopically degenerate level is a zero-width band; its edges
    # count as band edges, so the kernel-width neighborhood is excluded
    vals, counts = np.unique(np.round(ev, 9), return_counts=True)
    flat = vals[counts / ev.size > 0.02]
    mask = interior.copy()
    for level in flat:
        mask &= np.abs(x - (level - b) / a) >= 0.03
    masked = float(err[mask].max())
    ok = masked <= 0.02
    record(
        "C7 KPM fidelity",
        ok,
        f"L_inf {masked:.4f} <= 0.02 away from band edges (flat levels at "
        f"{[round(float(v), 6) for v in flat]}; {raw:.4f} without the flat-level exclusion)",
    )


def test_criterion_08_spectral_flow(q54_k2):
    models = [operators.model_hamiltonian(alpha, 1, EPS, 5, 4) for alpha in (1, 2, 3)]
    samples = 4
    path = spectral.simplex_path(samples)
    flows = spectral.spectral_flow(models, path, q54_k2)
    vertex_idx = (0, samples, 2 * samples)
    gap_ok = True
    widths = []
    for vi in vertex_idx:
        ev = flows[vi]
        below, above = ev[ev < 0.0], ev[ev > 0.0]
        width = above.min() - below.max()
        widths.append(float(width))
        gap_ok = gap_ok and below.size and above.size and width >= 0.05
    interior = [i for i in range(len(path)) if i not in (*vertex_idx, 3 * samples)]
    min_abs = float(np.abs(flows[interior]).min())
    ok = bool(gap_ok) and min_abs <= 0.01
    record(
        "C8 spectral flow",
        ok,
        f"vertex gaps {[f'{w:.2f}' for w in widths]} all >= 0.05; "
        f"interior min |E| = {min_abs:.2e} <= 0.01 at k=2",
    )


def test_criterion_09_midpoint_contract():
    rng = np.random.default_rng(11)
    r = 0.95 * np.sqrt(rng.uniform(size=(2, 1000)))
    t = rng.uniform(0.0, 2.0 * np.pi, size=(2, 1000))
    z, w = (r * np.exp(1j * t)).astype(complex)
    mu = geometry.midpoint(z, w)
    half = geometry.hyp_distance(z, w) / 2.0
    defect = float(
        np.max(
            np.maximum(
                np.abs(geometry.hyp_distance(z, mu) - half),
                np.abs(geometry.hyp_distance(w, mu) - half),
            )
        )
    )
    known = abs(geometry.midpoint(0.0, 0.6) - 1.0 / 3.0)
    ok = defect < 1e-10 and known < 1e-12
    record(
        "C9 midpoint contract",
        ok,
        f"max defect {defect:.2e} over 1000 pairs; |mu(0, 0.6) - 1/3| = {known:.2e}",
    )


def test_criterion_10_y_junction():
    cfg = junction.JunctionConfig()
    ball = triangle.ball_enumerate(5, 4, 12)
    pos = geometry.site_positions(ball, geometry.incenter(5, 4))
    rays = junction.junction_rays(cfg.resolve_phi(5))
    chi = junction.partition(pos, rays, cfg.ell)
    ham = junction.assemble_junction(ball, pos, cfg)

    sites_ok = len(ball) >= 2000
    chi_ok = float(np.max(np.abs(chi.sum(axis=1) - 1.0))) < PARTITION
    herm = operators.hermiticity_defect(ham)
    herm_ok = herm < HERMITICITY

    pairs = spectral.eigenpairs_near(ham, center=0.0, half_width=0.25, seed=11)
    midgap = int(np.sum(np.abs(pairs.eigenvalues) < 0.05))
    weights = spectral.ldos(pairs, energy=0.0, delta_e=0.05)
    tube = junction.ray_distance(pos, rays) <= junction.INTERFACE_RADIUS
    bulk = junction.bulk_sites(ball)
    on_b, off_b = weights[bulk & tube].sum(), weights[bulk & ~tube].sum()
    on_raw, off_raw = weights[tube].sum(), weights[~tube].sum()
    local_ok = on_b > off_b

    ok = sites_ok and chi_ok and herm_ok and midgap > 0 and local_ok
    record(
        "C10 Y-junction",
        ok,
        f"{len(ball)} sites; chi sums to 1; Hermiticity defect {herm:.1e}; "
        f"{midgap} midgap states; interface LDOS {on_b:.2f} > complement {off_b:.2f} "
        f"on interior sites (rim included: {on_raw:.2f} vs {off_raw:.2f})",
    )
