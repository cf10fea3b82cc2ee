"""Spectra, densities of states, spectral flows and local densities.

Exact diagonalization (dense) for desk-scale operators, block by block
over the character sectors of a quotient for periodic ones, and a kernel
polynomial method for large quotients.  Blocks whose characters are
conjugate under the group are isospectral, so a periodic spectrum
diagonalizes one block per conjugation orbit and repeats its
eigenvalues.  A right-regular operator has a constant diagonal, so its
normalized Chebyshev trace is one matrix element,
<delta_e|T_n(H)|delta_e>: KPM runs a single Chebyshev recursion from the
identity site and takes two moments per matvec (Chebyshev doubling),
with no random states.  The eigenpairs of an energy window come from
sparse shift-invert block Krylov, with the window's size counted
exactly by Sylvester's law of inertia.  Spectral edges and Krylov start
blocks are seeded, so outputs are reproducible bit for bit.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigError, NumericalContractError, ResourceLimitError
from .tolerances import EIGENPAIR_RESIDUAL, FACTOR_BACKWARD, HERMITICITY

__all__ = [
    "SpectrumResult",
    "DOSCurve",
    "Gap",
    "DENSE_CAP",
    "exact_spectrum",
    "block_spectrum",
    "idos",
    "idos_curve",
    "idos_mse",
    "cumulative_curve",
    "spectral_bounds",
    "kpm_dos",
    "detect_gaps",
    "simplex_path",
    "spectral_flow",
    "ldos",
    "WindowSpectrum",
    "eigenpairs_near",
    "write_curve_csv",
    "write_spectrum_csv",
]

DENSE_CAP = 6000
DEFAULT_GRID_POINTS = 1024
KPM_MOMENTS = 500
BOUND_PAD = 0.01
# ARPACK converges each edge to this relative accuracy, far inside BOUND_PAD
BOUND_TOL = 1e-6
# eigenpairs_near: columns per Krylov block, the norm fraction below which a
# Gram-Schmidt remainder counts as lost, the move of a singular shift and the
# outward step of a window edge without an inertia count as fractions of the
# half-width, the edges tried per side, SuperLU's diagonal pivot threshold for
# the shift (threshold pivoting; the inertia counts take diagonal pivots only),
# and the bytes its LU factors and basis may hold
KRYLOV_BLOCK = 32
RANK_DROP = 1e-10
SHIFT_NUDGE = 0.125
EDGE_STEP = 1.0 / 64
EDGE_MOVES = 3
PIVOT_THRESHOLD = 0.1
EIGENPAIRS_MEMORY = 2 * 1024**3


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


@dataclass
class DOSCurve:
    energies: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Gap:
    lower: float
    upper: float

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _dense(mat) -> np.ndarray:
    if sp.issparse(mat):
        return mat.toarray()
    return np.asarray(mat)


def exact_spectrum(mat, want_vectors: bool = False, dense_cap: int = DENSE_CAP) -> SpectrumResult:
    """Full spectrum by dense Hermitian diagonalization.

    Refuses dimensions beyond dense_cap; use kpm_dos or eigenpairs_near
    for larger operators.
    """
    n = mat.shape[0]
    if n > dense_cap:
        raise ResourceLimitError(
            f"dimension {n} exceeds the dense diagonalization cap {dense_cap}; "
            f"use kpm_dos or eigenpairs_near, or raise dense_cap"
        )
    dense = _dense(mat)
    if want_vectors:
        vals, vecs = sla.eigh(dense)
        return SpectrumResult(vals, vecs)
    return SpectrumResult(sla.eigvalsh(dense))


def block_spectrum(h, group, dense_cap: int = DENSE_CAP) -> SpectrumResult:
    """Full spectrum of represent_periodic(h, group), one block per orbit of characters.

    The quotient's kernel N = ker(G_k -> G_(k-1)) gives |N| blocks of
    size |G_k| / |N| (see QuotientGroup.sectors).  The blocks of one
    conjugation orbit O of characters are isospectral, so only the
    orbit's representative block is diagonalized and its eigenvalues
    are repeated |O| times.  dense_cap applies to the block size.
    Raises NumericalContractError when a diagonalized block is not
    Hermitian.
    """
    from .operators import represent_blocks

    op = represent_blocks(h, group)
    sec = op.sectors
    b = sec.block_size
    if b > dense_cap:
        raise ResourceLimitError(
            f"block size {b} exceeds the dense diagonalization cap {dense_cap}; "
            f"use kpm_dos, or raise dense_cap"
        )
    vals = []
    for j, size in zip(sec.representatives, sec.orbit_sizes):
        block = op.block(j)
        defect = float(np.abs(block - block.conj().T).max())
        if defect > HERMITICITY:
            raise NumericalContractError(
                f"sector block {j} has Hermiticity defect {defect:.2e} > {HERMITICITY:.0e}"
            )
        vals.append(np.tile(exact_spectrum(block, dense_cap=dense_cap).eigenvalues, size))
    return SpectrumResult(np.sort(np.concatenate(vals)))


def idos(spec: SpectrumResult, energy: float) -> float:
    """Fraction of states at or below the given energy."""
    return float(np.searchsorted(spec.eigenvalues, energy, side="right")) / spec.dim


def idos_curve(spec: SpectrumResult, grid: np.ndarray, metadata: dict | None = None) -> DOSCurve:
    vals = np.searchsorted(spec.eigenvalues, grid, side="right") / spec.dim
    return DOSCurve(np.asarray(grid, dtype=float), vals.astype(float), metadata or {})


def idos_mse(a: DOSCurve, b: DOSCurve) -> float:
    if a.energies.shape != b.energies.shape or not np.allclose(a.energies, b.energies):
        raise ConfigError("IDOS curves must share the same energy grid")
    return float(np.mean((a.values - b.values) ** 2))


def cumulative_curve(density: DOSCurve) -> DOSCurve:
    """Integrated density from a density curve, by trapezoid cumsum."""
    e, v = density.energies, density.values
    steps = np.diff(e) * (v[1:] + v[:-1]) / 2.0
    cum = np.concatenate([[0.0], np.cumsum(steps)])
    meta = dict(density.metadata)
    meta["kind"] = "idos"
    return DOSCurve(e, cum, meta)


def spectral_bounds(mat, pad: float = BOUND_PAD, seed: int = 0) -> tuple[float, float]:
    """Deterministic spectral interval estimate for a Hermitian operator.

    Edges come from seeded Lanczos: one run for both edges of a real
    operator (ARPACK's "BE" mode is real-only), one run per edge of a
    complex one, each converged to a relative BOUND_TOL.  The interval is
    inflated by the pad fraction on each side.  Raises ConfigError for an
    operator with no nonzero entry, whose spectrum {0} spans no interval,
    and NumericalContractError when ARPACK fails: power iteration is no
    fallback, since it stalls on spectra that are dense at the edges and
    would leave eigenvalues outside the Chebyshev window.
    """
    if not (mat.count_nonzero() if sp.issparse(mat) else np.count_nonzero(mat)):
        raise ConfigError(
            "the operator has no nonzero entry: its spectrum is the single point {0}, "
            "which has no interval to rescale onto (-1, 1)"
        )
    n = mat.shape[0]
    if n <= 64:
        vals = np.linalg.eigvalsh(_dense(mat))
        lo, hi = float(vals[0]), float(vals[-1])
    else:
        v0 = np.random.default_rng(seed).standard_normal(n)
        op = mat.tocsr() if sp.issparse(mat) else np.asarray(mat)
        try:
            if np.isrealobj(op):
                edges = spla.eigsh(
                    op, k=2, which="BE", v0=v0, tol=BOUND_TOL, return_eigenvectors=False
                )
            else:
                edges = [
                    spla.eigsh(
                        op, k=1, which=which, v0=v0, tol=BOUND_TOL, return_eigenvectors=False
                    )[0]
                    for which in ("LA", "SA")
                ]
        except spla.ArpackError as exc:
            raise NumericalContractError(f"Lanczos spectral bounds failed: {exc}") from exc
        lo, hi = float(np.min(edges)), float(np.max(edges))
    span = max(hi - lo, 1e-12)
    return lo - pad * span, hi + pad * span


def _jackson_kernel(m: int) -> np.ndarray:
    k = np.arange(m)
    mp1 = m + 1
    return (
        (mp1 - k) * np.cos(np.pi * k / mp1) + np.sin(np.pi * k / mp1) / np.tan(np.pi / mp1)
    ) / mp1


def _single_site_moments(mat, moments: int, a: float, b: float) -> np.ndarray:
    """mu_n = <delta_e|T_n(H~)|delta_e> for n < moments, H~ = (H - b) / a.

    Chebyshev doubling (Weisse et al., RMP 78, 275 (2006)):
    mu_2n = 2 <T_n|T_n> - mu_0 and mu_2n+1 = 2 <T_n+1|T_n> - mu_1, so
    ceil((moments - 1) / 2) matvecs give all the moments.  Vectors keep
    the operator's dtype, so a real operator runs real matvecs.
    """
    n = mat.shape[0]
    mu = np.empty(moments + 1)
    t_prev = np.zeros(n, dtype=mat.dtype)
    t_prev[0] = 1.0
    t_cur = (mat @ t_prev - b * t_prev) / a
    mu[0], mu[1] = 1.0, np.real(t_cur[0])
    mu[2] = 2.0 * np.real(np.vdot(t_cur, t_cur)) - mu[0]
    for m in range(2, moments // 2 + 1):
        t_next = 2.0 * (mat @ t_cur - b * t_cur) / a - t_prev
        mu[2 * m - 1] = 2.0 * np.real(np.vdot(t_next, t_cur)) - mu[1]
        mu[2 * m] = 2.0 * np.real(np.vdot(t_next, t_next)) - mu[0]
        t_prev, t_cur = t_cur, t_next
    return mu[:moments]


def kpm_dos(
    h,
    group,
    moments: int = KPM_MOMENTS,
    grid_points: int = DEFAULT_GRID_POINTS,
    seed: int = 0,
    bounds: tuple[float, float] | None = None,
) -> DOSCurve:
    """Kernel polynomial DOS of represent_periodic(h, group), normalized to unit integral.

    The operator commutes with left translations, so its diagonal is
    constant and the normalized trace of T_n(H~) is the single entry at
    the identity element: the moments are exact, with no stochastic
    trace.  Jackson damping suppresses Gibbs oscillations.  The operator
    is rescaled into (-1, 1) using seeded Lanczos edge estimates unless
    explicit bounds are passed; seed only enters those estimates.
    """
    from .operators import represent_periodic

    if moments < 2:
        raise ConfigError(f"moments must be at least 2, got {moments}")
    if grid_points < 2:
        raise ConfigError(f"grid_points must be at least 2, got {grid_points}")
    mat = represent_periodic(h, group)
    if bounds is None:
        bounds = spectral_bounds(mat, seed=seed)
    lo, hi = bounds
    a = (hi - lo) / 2.0
    b = (hi + lo) / 2.0
    if a <= 0:
        raise ConfigError(f"invalid spectral bounds {bounds}")
    mu = _single_site_moments(mat, moments, a, b)

    damped = mu * _jackson_kernel(moments)
    x = np.linspace(-1.0, 1.0, grid_points + 2)[1:-1]  # avoid the open endpoints
    cheb_coeffs = damped.copy()
    cheb_coeffs[1:] *= 2.0
    series = np.polynomial.chebyshev.chebval(x, cheb_coeffs)
    density = series / (np.pi * np.sqrt(1.0 - x**2))
    energies = a * x + b
    density = density / a
    # unit normalization on the grid
    norm = np.trapezoid(density, energies)
    if norm > 0:
        density = density / norm
    return DOSCurve(
        energies,
        density,
        {
            "kind": "dos",
            "method": "kpm",
            "moments": moments,
            "random_states": 1,  # the single start vector delta_e
            "seed": seed,
            "bounds": [lo, hi],
        },
    )


def detect_gaps(spec: SpectrumResult, min_width: float = 0.05) -> list[Gap]:
    """Maximal spectral gaps of at least min_width, strictly inside the hull."""
    e = np.sort(spec.eigenvalues)
    gaps = []
    diffs = np.diff(e)
    for i in np.nonzero(diffs >= min_width)[0]:
        gaps.append(Gap(float(e[i]), float(e[i + 1])))
    return gaps


def simplex_path(samples_per_edge: int = 40) -> list[tuple[float, float, float]]:
    """Closed piecewise-linear loop through the 2-simplex vertices.

    Returns 3 * samples_per_edge + 1 points; the last repeats the first.
    """
    if samples_per_edge < 1:
        raise ConfigError("samples_per_edge must be positive")
    verts = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    path = []
    for e in range(3):
        start = np.array(verts[e])
        end = np.array(verts[(e + 1) % 3])
        for j in range(samples_per_edge):
            t = j / samples_per_edge
            pt = (1.0 - t) * start + t * end
            path.append(tuple(float(x) for x in pt))
    path.append(path[0])
    return path


def spectral_flow(models, path, group, dense_cap: int = DENSE_CAP) -> np.ndarray:
    """Sorted spectra of the interpolated model along a simplex path.

    Each path point is diagonalized block by block (block_spectrum), one
    block per conjugation orbit of characters, but dense_cap still bounds
    the whole quotient's order: a flow over a larger quotient runs
    (path length) x (orbit count) eigensolves.
    Returns an array of shape (len(path), dim).
    """
    from .operators import interpolate

    if group.order > dense_cap:
        raise ResourceLimitError(
            f"spectral flow on a quotient of order {group.order} exceeds the cap {dense_cap}"
        )
    return np.array(
        [block_spectrum(interpolate(models, weights), group, dense_cap).eigenvalues for weights in path]
    )


def ldos(
    spec: SpectrumResult, energy: float, delta_e: float, site_weights=None
) -> np.ndarray:
    """Gaussian-broadened local density of states per site.

    LDOS(E, z) = sum_n exp(-|E_n - E|^2 / (2 dE^2)) |psi_n(z)|^2.
    """
    if spec.eigenvectors is None:
        raise ConfigError("ldos needs eigenvectors; diagonalize with want_vectors=True")
    if delta_e <= 0:
        raise ConfigError("delta_e must be positive")
    w = np.exp(-((spec.eigenvalues - energy) ** 2) / (2.0 * delta_e**2))
    out = (np.abs(spec.eigenvectors) ** 2) @ w
    if site_weights is not None:
        out = out * np.asarray(site_weights, dtype=float)
    return out


@dataclass
class WindowSpectrum(SpectrumResult):
    """Eigenpairs of a window, with the facts of the solve that found them.

    count is the Sylvester inertia count of the counted window: the
    requested window, or a wider one when an edge had to move outward,
    in which case count exceeds the number of pairs returned.
    basis_size is the number of Krylov columns built, and residual the
    largest ||H x - lambda x|| over the returned pairs.
    """

    count: int = 0
    basis_size: int = 0
    residual: float = 0.0


def _factor(a, shift: float, rng, pivot_threshold: float):
    """SuperLU factors of a - shift * I in symmetric mode, or None if it is exactly singular.

    The fill-reducing order is symmetric, and a diagonal pivot is kept
    unless it is below pivot_threshold times its column's largest entry.
    Refuses factors whose stored entries exceed EIGENPAIRS_MEMORY, and
    factors whose seeded solve has a normwise backward error above
    FACTOR_BACKWARD.
    """
    n = a.shape[0]
    shifted = (a - shift * sp.identity(n, dtype=a.dtype, format="csc")).tocsc()
    try:
        lu = spla.splu(
            shifted,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=pivot_threshold,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        if "singular" in str(exc):
            return None
        raise
    _check_memory(_lu_bytes(lu, a.dtype), "LU factors")
    rhs = shifted @ rng.standard_normal(n)
    sol = lu.solve(rhs)
    scale = abs(shifted).sum(axis=1).max() * np.linalg.norm(sol) + np.linalg.norm(rhs)
    err = np.linalg.norm(shifted @ sol - rhs) / scale
    if not err <= FACTOR_BACKWARD:
        raise NumericalContractError(
            f"the LU factors of H - ({shift:.17g}) I have backward error {err:.1e} > {FACTOR_BACKWARD:.0e}"
        )
    return lu


def _lu_bytes(lu, dtype) -> int:
    """Bytes of SuperLU's stored entries and their 32-bit row indices."""
    return lu.nnz * (np.dtype(dtype).itemsize + 4)


def _check_memory(nbytes: int, what: str) -> None:
    if nbytes > EIGENPAIRS_MEMORY:
        raise ResourceLimitError(
            f"{what} of eigenpairs_near need {nbytes / 2**20:.1f} MiB, "
            f"beyond the limit of {EIGENPAIRS_MEMORY / 2**20:.1f} MiB"
        )


def _count_below(a, x: float, rng) -> int:
    """Number of eigenvalues of the Hermitian a below x, by Sylvester's law of inertia.

    With diagonal pivots only, P (a - x) P^T = L U and U = D L^H, so the
    negative entries of D count the eigenvalues below x.
    """
    lu = _factor(a, x, rng, pivot_threshold=0.0)
    if lu is None:
        raise NumericalContractError(f"no inertia count at {x:.17g}: H - x I is exactly singular")
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NumericalContractError(
            f"no inertia count at {x:.17g}: the factorization of H - x I pivoted off the diagonal"
        )
    return int(np.count_nonzero(lu.U.diagonal().real < 0))


def _counted_edge(a, x: float, outward: float, step: float, rng) -> tuple[float, int]:
    """The first edge e = x + outward * k * step, k < EDGE_MOVES, with an inertia count, and that count.

    Raises the last refusal when no tried edge gives a count.
    """
    for k in range(EDGE_MOVES):
        edge = x + outward * k * step
        try:
            return edge, _count_below(a, edge, rng)
        except NumericalContractError as exc:
            refused = exc
    raise refused


def _adjoint_times(v, w) -> np.ndarray:
    """v^H w, conjugating only the narrow w and the product instead of the tall v."""
    return (w.conj().T @ v).conj().T


def _orthonormal_block(basis, block, coeffs, rng) -> np.ndarray:
    """Orthonormal columns for block's part outside the range of basis.

    Two classical Gram-Schmidt passes against basis, then a QR of the
    block.  coeffs = basis^H block, which the caller already holds, is
    the first pass.  A column that keeps less than RANK_DROP of its norm
    carries no new direction (an invariant subspace, a multiplicity
    above the block size, the zero operator) and is replaced by a seeded
    random column before two more passes.
    """
    norms = np.linalg.norm(block, axis=0)
    block -= basis @ coeffs
    while True:
        block -= basis @ _adjoint_times(basis, block)
        q, r = np.linalg.qr(block)
        lost = np.abs(np.diagonal(r)) <= RANK_DROP * norms
        if not lost.any():
            return q
        block[:, lost] = rng.standard_normal((block.shape[0], int(lost.sum())))
        norms = np.linalg.norm(block, axis=0)
        block -= basis @ _adjoint_times(basis, block)


def _ritz_in_window(a, basis, proj, sigma, lo, hi, m):
    """Rayleigh-Ritz of T = (H - sigma)^-1 on the basis, then of H on the Ritz pairs in [lo, hi).

    proj holds V^H T V in its upper triangle.  Returns the pairs and
    their residuals ||H x - lambda x|| once exactly m lie in the window
    with residuals at or below EIGENPAIR_RESIDUAL, None before that, and
    raises NumericalContractError when more than m Ritz values of T lie
    in the window.
    """
    theta, y = sla.eigh(proj, lower=False)
    lam = np.full_like(theta, np.inf)
    nonzero = theta != 0
    lam[nonzero] = sigma + 1.0 / theta[nonzero]
    inside = (lam >= lo) & (lam < hi)
    found = int(np.count_nonzero(inside))
    if found > m:
        raise NumericalContractError(
            f"{found} Ritz values in [{lo:.17g}, {hi:.17g}) exceed its inertia count {m}"
        )
    if found < m:
        return None
    x = basis @ y[:, inside]
    vals, z = sla.eigh(x.conj().T @ (a @ x))
    vecs = x @ z
    residuals = np.linalg.norm(a @ vecs - vecs * vals, axis=0)
    if vals[0] < lo or vals[-1] >= hi or residuals.max() > EIGENPAIR_RESIDUAL:
        return None
    return vals, vecs, residuals


def eigenpairs_near(mat, center: float = 0.0, half_width: float = 0.25, seed: int = 0) -> WindowSpectrum:
    """All eigenpairs of the Hermitian mat with |E - center| <= half_width.

    One sparse path for every size (shifted block Lanczos with inertia
    counts; Grimes, Lewis & Simon, SIAM J. Matrix Anal. Appl. 15, 228
    (1994)):

    1. Two LDL^H factorizations with diagonal pivots count, by
       Sylvester's law of inertia, the m eigenvalues in the closed
       window.  A factorization that pivots off the diagonal or fails
       its backward-error check gives no count: that edge moves outward
       by EDGE_STEP of the half-width, at most EDGE_MOVES - 1 times, and
       the counted window then holds the requested one.  m = 0 returns
       at once.
    2. H - sigma I is factored once at sigma = center, moved by
       SHIFT_NUDGE of the half-width when SuperLU finds it exactly
       singular.
    3. A block Krylov basis of T = (H - sigma)^-1 grows in blocks of
       KRYLOV_BLOCK from a seeded start, in the operator's dtype, with
       two classical Gram-Schmidt passes per block.  V^H T V is formed
       from the products T V themselves, never from recurrence
       coefficients.
    4. Rayleigh-Ritz on T (lambda = sigma + 1/theta) runs first at
       about 3m columns, then every max(KRYLOV_BLOCK, m/4).  It stops
       when exactly m Ritz values lie in the counted window and a last
       Rayleigh-Ritz on H over their span leaves each pair in it with
       ||H x - lambda x|| <= EIGENPAIR_RESIDUAL.  The pairs inside
       [center - half_width, center + half_width] are returned.

    Deterministic for a fixed seed.  Raises NumericalContractError when
    no tried edge gives an inertia count, when the shift is singular
    twice, when more than m Ritz values fall in the counted window, or
    when a basis spanning the whole space still disagrees with the
    count; it never returns before all m pairs of the counted window
    are found.  Raises ResourceLimitError when LU fill or the basis
    would exceed EIGENPAIRS_MEMORY.
    """
    if not half_width >= 0:
        raise ConfigError(f"half_width must be non-negative, got {half_width}")
    a = sp.csc_matrix(mat)
    dtype = np.result_type(a.dtype, np.float64)
    a = a.astype(dtype, copy=False)
    n = a.shape[0]
    rng = np.random.default_rng(seed)
    lo, hi = center - half_width, center + half_width
    # count [lo, hi] as [lo, next float above hi), each edge moved outward if it must be
    step = EDGE_STEP * half_width
    lo_count, below_lo = _counted_edge(a, lo, -1.0, step, rng)
    hi_count, below_hi = _counted_edge(a, np.nextafter(hi, np.inf), 1.0, step, rng)
    m = below_hi - below_lo
    if m == 0:
        return WindowSpectrum(np.empty(0), np.empty((n, 0), dtype))

    for sigma in (center, center + SHIFT_NUDGE * half_width):
        lu = _factor(a, sigma, rng, PIVOT_THRESHOLD)
        if lu is not None:
            break
    else:
        raise NumericalContractError(f"H - sigma I is exactly singular at sigma = {center} and at {sigma}")

    b = min(KRYLOV_BLOCK, n)
    size = min(n, 4 * m + 2 * b)
    basis = np.empty((n, 0), dtype)
    proj = np.empty((0, 0), dtype)
    block = rng.standard_normal((n, b)).astype(dtype)
    coeffs = np.zeros((0, b), dtype)
    j, check = 0, min(n, 3 * m)
    while True:
        width = min(b, n - j)
        if j + width > basis.shape[1]:
            size = min(n, max(size, 2 * basis.shape[1]))
            _check_memory(_lu_bytes(lu, dtype) + (n + size) * size * basis.itemsize, "LU factors and Krylov basis")
            basis = np.concatenate([basis, np.empty((n, size - basis.shape[1]), dtype)], axis=1)
            grown = np.zeros((size, size), dtype)
            grown[:j, :j] = proj[:j, :j]
            proj = grown
        q = _orthonormal_block(basis[:, :j], block[:, :width], coeffs[:, :width], rng)
        basis[:, j : j + width] = q
        block = lu.solve(q)
        # V^H T q: a column block of the projection, and the next block's first pass
        coeffs = _adjoint_times(basis[:, : j + width], block)
        proj[: j + width, j : j + width] = coeffs
        j += width
        if j >= check or j == n:
            pairs = _ritz_in_window(a, basis[:, :j], proj[:j, :j], sigma, lo_count, hi_count, m)
            if pairs is not None:
                vals, vecs, residuals = pairs
                keep = (vals >= lo) & (vals <= hi)
                return WindowSpectrum(
                    vals[keep],
                    vecs[:, keep],
                    count=m,
                    basis_size=j,
                    residual=float(residuals[keep].max(initial=0.0)),
                )
            if j == n:
                raise NumericalContractError(
                    f"a Krylov basis spanning all {n} dimensions does not give the inertia count "
                    f"{m} of pairs in [{lo_count:.17g}, {hi_count:.17g}) with residuals <= {EIGENPAIR_RESIDUAL:.0e}"
                )
            check = j + max(b, m // 4)


def write_curve_csv(curve: DOSCurve, path: str) -> None:
    """CSV of (energy, value) plus a JSON metadata sidecar."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["energy", "value"])
        for e, v in zip(curve.energies, curve.values):
            writer.writerow([f"{e:.17g}", f"{v:.17g}"])
    with open(path + ".meta.json", "w") as fh:
        json.dump(curve.metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_spectrum_csv(spec: SpectrumResult, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "eigenvalue"])
        for i, e in enumerate(spec.eigenvalues):
            writer.writerow([i, f"{e:.17g}"])
