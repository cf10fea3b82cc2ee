"""Spectra, densities of states, spectral flows and local densities.

Exact diagonalization (dense) for desk-scale operators, block by block
over the character sectors of a quotient for periodic ones, and a kernel
polynomial method for large quotients.  Blocks whose characters are
conjugate under the group are isospectral, so a periodic spectrum
diagonalizes one block per conjugation orbit and repeats its
eigenvalues; a complex block that the antiunitary K sigma fixes is
diagonalized as a real symmetric matrix.  A right-regular operator has
a constant diagonal, so its normalized Chebyshev trace is one matrix
element, <delta_e|T_n(H)|delta_e>: KPM runs one plain Lanczos
recursion from the identity site, whose Jacobi matrix gives both the
spectral edges (its extreme Ritz values) and the moments (Gauss
quadrature), with no random states and no ARPACK.  When the reflection A -> A^-1, B -> B^-1 fixes
the model, that recursion runs on the operator folded onto the
reflection's orbits, about half the sites.  The eigenpairs of an energy
window come from sparse shift-invert block Krylov, with the window's size counted
exactly by Sylvester's law of inertia; each Krylov block takes the
block three-term recurrence's terms out against the last two blocks,
then one Gram-Schmidt pass over the whole basis, and another only where
a column loses half its norm in that pass.  Krylov start blocks are
seeded, so outputs are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalContractError, ResourceLimitError
from .outputs import write_csv, write_json
from .tolerances import EIGENPAIR_RESIDUAL, FACTOR_BACKWARD, IDOS_LEVEL

__all__ = [
    "SpectrumResult",
    "DOSCurve",
    "Gap",
    "DENSE_CAP",
    "exact_spectrum",
    "block_spectrum",
    "idos_curve",
    "idos_mse",
    "cumulative_curve",
    "LanczosRun",
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
# Lanczos edges converge to Ritz residuals of this fraction of their span, far
# inside BOUND_PAD, within LANCZOS_STEPS steps (or the moments' own, if more)
BOUND_TOL = 1e-6
LANCZOS_STEPS = 2000
# eigenpairs_near: columns per Krylov block, the norm fraction below which a
# Gram-Schmidt remainder counts as lost, the step by which a window edge
# without an inertia count, or a shift without stable factors, moves as a
# fraction of the half-width, the points tried for each, and the bytes the
# factors and arrays may hold (see _footprint).  Thin blocks converge a
# window from fewer columns (the r = 12 junction's 260 pairs: 800 columns in
# blocks of 32, 520 in blocks of 8), and the cost grows with the basis width:
# as its square in Gram-Schmidt, its cube in the projected eigh.  A block
# reads the whole basis about twice (one pass: V^H w, then w - V c), its
# recurrence terms coming from the last two blocks alone; the r = 12 window
# makes 82 full passes for its 65 blocks
KRYLOV_BLOCK = 8
RANK_DROP = 1e-10
EDGE_STEP = 1.0 / 64
EDGE_MOVES = 3
EIGENPAIRS_MEMORY = 2 * 1024**3
# the last Rayleigh-Ritz step takes this many columns of the Ritz vectors at a
# time, or row blocks of as many entries
RITZ_CHUNK = 32


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class LanczosRun:
    """A plain Lanczos run and the extreme Ritz values of its Jacobi matrix J.

    alpha and beta[:-1] are J's diagonal and off-diagonal, beta[-1] the
    norm of the last remainder (0 at an exact breakdown).  edges are J's
    extreme eigenvalues and residuals their Ritz residuals beta[-1] |s_k|,
    s_k the last entry of J's unit eigenvector.  dim is the dimension of
    the operator the run was made on.
    """

    alpha: np.ndarray
    beta: np.ndarray
    edges: tuple[float, float]
    residuals: tuple[float, float]
    dim: int


@dataclass
class DOSCurve:
    energies: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)
    lanczos: LanczosRun | None = None  # the run behind a KPM curve; not written out


@dataclass(frozen=True)
class Gap:
    lower: float
    upper: float

    @property
    def width(self) -> float:
        return self.upper - self.lower


def exact_spectrum(mat, overwrite: bool = False) -> SpectrumResult:
    """Eigenvalues by dense Hermitian diagonalization.

    Refuses a matrix wider than DENSE_CAP; use kpm_dos or eigenpairs_near
    for larger operators.  overwrite=True lets LAPACK work in a dense
    input's own memory, which it destroys (no copy when the input is
    Fortran-ordered), and skips the finiteness check: for a caller that
    fills a buffer of its own from finite weights (block_spectrum).
    """
    from scipy.linalg import eigvalsh

    n = mat.shape[0]
    if n > DENSE_CAP:
        raise ResourceLimitError(
            f"dimension {n} exceeds the dense diagonalization cap {DENSE_CAP}; use kpm_dos or eigenpairs_near"
        )
    dense = mat.toarray() if hasattr(mat, "toarray") else np.asarray(mat)  # a sparse matrix or array
    return SpectrumResult(eigvalsh(dense, overwrite_a=overwrite, check_finite=not overwrite))


def block_spectrum(h, group) -> SpectrumResult:
    """Full spectrum of represent_periodic(h, group), one block per orbit of characters.

    The quotient's kernel N = ker(G_k -> G_(k-1)) gives |N| blocks of
    size |G_k| / |N| (see QuotientGroup.sectors).  The blocks of one
    conjugation orbit O of characters are isospectral, so only the
    orbit's representative block is diagonalized and its eigenvalues
    are repeated |O| times.  A complex block is diagonalized in real
    arithmetic, as a real symmetric matrix of the same size
    (BlockOperator.real_block), when the antiunitary C = K sigma fixes
    both the model (every h_1 and h_2, the adjacency, and their
    mixtures; not h_3, since sigma(AB) = BA) and the block's character;
    the representatives are chosen among the characters C fixes where
    the orbit has one.  Other blocks stay complex Hermitian.  Every
    block is filled into one buffer, reused from block to block and
    overwritten by the eigensolver.  DENSE_CAP applies to the block
    size, checked before the buffer is allocated.
    An h whose row e is not Hermitian raises NumericalContractError
    before any block is built (operators.check_hermitian).
    """
    from .operators import check_hermitian, represent_blocks

    check_hermitian(h, group)
    op = represent_blocks(h, group)
    sec = op.sectors
    b = sec.block_size
    if b > DENSE_CAP:
        raise ResourceLimitError(f"block size {b} exceeds the dense diagonalization cap {DENSE_CAP}; use kpm_dos")
    reps = sec.representatives
    folds = [op.folds(j) for j in reps]
    buffer = np.empty(b * b, dtype=np.float64 if all(folds) else op.dtype)
    vals = []
    for j, fold, size in zip(reps, folds, sec.orbit_sizes):
        if fold:
            block = op.real_block(j, buffer.view(np.float64)[: b * b].reshape(b, b))
        else:
            block = op.block(j, buffer.reshape(b, b))
        vals.append(np.tile(exact_spectrum(block, overwrite=True).eigenvalues, size))
    return SpectrumResult(np.sort(np.concatenate(vals)))


def idos_curve(spec: SpectrumResult, grid: np.ndarray) -> DOSCurve:
    """Fraction of eigenvalues at or below each grid energy.

    Copies of one level differ in their last bits, so eigenvalues up to
    IDOS_LEVEL * max(1, max |lambda|) above a grid energy count too: a
    level that sits on a grid point counts whole.
    """
    ev = spec.eigenvalues
    tol = IDOS_LEVEL * max(1.0, float(np.abs(ev).max(initial=0.0)))
    vals = np.searchsorted(ev, np.asarray(grid, dtype=float) + tol, side="right") / spec.dim
    return DOSCurve(np.asarray(grid, dtype=float), vals.astype(float))


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


def _lanczos(mat, start: np.ndarray, min_steps: int) -> LanczosRun:
    """Plain Lanczos on the Hermitian mat from the unit vector start, without reorthogonalization.

    start weighs on every eigenvalue (delta_e on a right-regular operator
    by its constant diagonal, a random vector almost surely), so the
    extreme Ritz values converge to the spectral edges, and mat @ start
    = 0 only for the zero operator, whose spectrum {0} spans no interval
    (ConfigError).  The run takes at least min_steps steps, one matvec
    each, and goes on until both extreme Ritz residuals are at most
    BOUND_TOL times their span, or to an exact breakdown (beta = 0, J
    exact).  Edges still unconverged after max(min_steps, LANCZOS_STEPS)
    steps raise NumericalContractError.
    """
    from scipy.linalg import eigh_tridiagonal, get_blas_funcs

    cap = max(min_steps, LANCZOS_STEPS)
    axpy = get_blas_funcs("axpy", (start,))
    alpha, beta = [], []
    v, v_prev, b = start, np.zeros_like(start), 0.0
    while True:
        w = axpy(v_prev, mat @ v, a=-b)
        if not alpha and not w.any():
            raise ConfigError("the operator has no nonzero entry: its spectrum is the single point {0}, "
                              "which has no interval to rescale onto (-1, 1)")
        alpha.append(float(np.vdot(v, w).real))
        w = axpy(v, w, a=-alpha[-1])
        b = float(np.linalg.norm(w))
        beta.append(b)
        steps = len(alpha)
        if steps >= min_steps or b == 0.0:
            ritz = [eigh_tridiagonal(alpha, beta[:-1], select="i", select_range=(i, i)) for i in (0, steps - 1)]
            edges = tuple(float(vals[0]) for vals, _ in ritz)
            residuals = tuple(b * abs(float(vecs[-1, 0])) for _, vecs in ritz)
            limit = BOUND_TOL * max(edges[1] - edges[0], 1e-12)
            if b == 0.0 or max(residuals) <= limit:
                return LanczosRun(np.array(alpha), np.array(beta), edges, residuals, start.size)
            if steps >= cap:
                raise NumericalContractError(
                    f"Lanczos edges unconverged after {cap} steps: Ritz residual {residuals[0]:.1e} at the lower "
                    f"edge {edges[0]:.6f}, {residuals[1]:.1e} at the upper edge {edges[1]:.6f}, limit {limit:.1e}"
                )
        # a multiply by the reciprocal: 18 against 66 us for an in-place divide (81 920 entries)
        w *= 1.0 / b
        v_prev, v = v, w


def spectral_bounds(mat, seed: int = 0, run: LanczosRun | None = None) -> tuple[float, float]:
    """Deterministic spectral interval of a Hermitian operator.

    The converged extreme Ritz values of one Lanczos run from a seeded
    unit vector (see _lanczos), padded by BOUND_PAD of their span.
    Given run, a Lanczos run of mat already made, its edges are padded
    and no new run is made.
    """
    if run is None:
        start = np.random.default_rng(seed).standard_normal(mat.shape[0]).astype(np.result_type(mat.dtype, float))
        run = _lanczos(mat, start / np.linalg.norm(start), 1)
    lo, hi = run.edges
    span = max(hi - lo, 1e-12)
    return lo - BOUND_PAD * span, hi + BOUND_PAD * span


def _jackson_kernel(m: int) -> np.ndarray:
    k = np.arange(m)
    mp1 = m + 1
    return (
        (mp1 - k) * np.cos(np.pi * k / mp1) + np.sin(np.pi * k / mp1) / np.tan(np.pi / mp1)
    ) / mp1


def _single_site_moments(mat, moments: int) -> tuple[np.ndarray, tuple[float, float], LanczosRun]:
    """mu_n = <delta_e|T_n(H~)|delta_e> for n < moments, the bounds (lo, hi) that H~ maps onto (-1, 1), and the run.

    A Lanczos run from delta_e of at least ceil(moments / 2) steps has a
    Jacobi matrix J with e_0^T p(J) e_0 = <delta_e|p(H)|delta_e> for every
    polynomial p of degree below moments (Gauss quadrature; Golub &
    Meurant, Matrices, Moments and Quadrature (2010)), so the recursion
    runs on the small J from e_0.  The bounds are spectral_bounds of
    that same run: J's eigenvalues are the Ritz values, whose extremes
    are the run's edges, converged to H's, so the padded edges enclose
    the spectra of both H and J without a second Lanczos run.  Chebyshev
    doubling (Weisse et al., RMP 78, 275 (2006)), mu_2n = 2 <T_n|T_n> -
    mu_0 and mu_2n+1 = 2 <T_n+1|T_n> - mu_1, takes two moments per
    product with J.
    """
    from scipy.sparse import diags, identity

    start = np.zeros(mat.shape[0], dtype=mat.dtype)
    start[0] = 1.0
    run = _lanczos(mat, start, -(-moments // 2))
    off = run.beta[:-1]
    jac = diags([off, run.alpha, off], [-1, 0, 1], format="csr")
    lo, hi = spectral_bounds(mat, run=run)
    # J~ = (J - b) / a, so that its spectrum lies inside (-1, 1)
    jac = (jac - (hi + lo) / 2.0 * identity(run.alpha.size, format="csr")) / ((hi - lo) / 2.0)
    mu = np.empty(moments + 1)
    t_prev = np.zeros(run.alpha.size)
    t_prev[0] = 1.0
    t_cur = jac @ t_prev
    mu[0], mu[1] = 1.0, t_cur[0]
    mu[2] = 2.0 * (t_cur @ t_cur) - mu[0]
    for m in range(2, moments // 2 + 1):
        t_next = 2.0 * (jac @ t_cur) - t_prev
        mu[2 * m - 1] = 2.0 * (t_next @ t_cur) - mu[1]
        mu[2 * m] = 2.0 * (t_next @ t_next) - mu[0]
        t_prev, t_cur = t_cur, t_next
    return mu[:moments], (lo, hi), run


def kpm_dos(
    h,
    group,
    moments: int = KPM_MOMENTS,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> DOSCurve:
    """Kernel polynomial DOS of represent_periodic(h, group), normalized to unit integral.

    The operator commutes with left translations, so its diagonal is
    constant and the normalized trace of T_n(H~) is the single entry at
    the identity element.  One Lanczos run from delta_e gives these
    moments, exact with no stochastic trace, and the edges that rescale
    H into (-1, 1) (see _single_site_moments); the curve carries the run as
    DOSCurve.lanczos.  When the reflection sigma: A -> A^-1, B -> B^-1
    fixes h's weights, delta_e and every Lanczos vector are sigma-even, so
    the run is made on represent_periodic(h, group, fold=True), whose
    rows are the sigma-orbits, and run.dim is their number.  Jackson
    damping suppresses Gibbs oscillations.  Nothing is random, so no
    seed is taken.  A non-Hermitian h raises NumericalContractError
    before the operator is built (operators.check_hermitian).
    """
    from .operators import check_hermitian, represent_periodic

    if moments < 2:
        raise ConfigError(f"moments must be at least 2, got {moments}")
    if grid_points < 2:
        raise ConfigError(f"grid_points must be at least 2, got {grid_points}")
    check_hermitian(h, group)
    mu, (lo, hi), run = _single_site_moments(represent_periodic(h, group, fold=True), moments)
    a, b = (hi - lo) / 2.0, (hi + lo) / 2.0

    x = np.linspace(-1.0, 1.0, grid_points + 2)[1:-1]  # avoid the open endpoints
    cheb_coeffs = mu * _jackson_kernel(moments)
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
            "bounds": [lo, hi],
        },
        run,
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


def spectral_flow(models, path, group) -> np.ndarray:
    """Sorted spectra of the interpolated model along a simplex path.

    Each distinct path point is diagonalized once, block by block
    (block_spectrum): one block per conjugation orbit of characters, in
    real arithmetic wherever the antiunitary K sigma fixes the point's
    model and the block's character (h_1, h_2 and their mixtures; any
    weight on h_3 keeps the blocks complex).  A point that repeats, as
    the closing point of simplex_path does, reuses the spectrum of its
    first occurrence.  DENSE_CAP bounds each block, not the quotient's
    order: a flow runs (distinct points) x (orbit count) eigensolves.
    Returns an array of shape (len(path), dim).
    """
    from .operators import interpolate

    points = [tuple(map(float, weights)) for weights in path]
    spectra = {w: block_spectrum(interpolate(models, w), group).eigenvalues for w in dict.fromkeys(points)}
    return np.array([spectra[w] for w in points])


def ldos(spec: SpectrumResult, energy: float, delta_e: float) -> np.ndarray:
    """Gaussian-broadened local density of states per site.

    LDOS(E, z) = sum_n exp(-|E_n - E|^2 / (2 dE^2)) |psi_n(z)|^2, with the
    ratio (E_n - E) / dE squared, which stays finite wherever the weight
    is not negligible.
    """
    if spec.eigenvectors is None:
        raise ConfigError("ldos needs eigenvectors; take them from eigenpairs_near")
    if delta_e <= 0:
        raise ConfigError("delta_e must be positive")
    w = np.exp(-0.5 * ((spec.eigenvalues - energy) / delta_e) ** 2)
    # one memory order for the reduction, so the last digits do not depend on the vectors' layout
    return np.asfortranarray(np.abs(spec.eigenvectors) ** 2) @ w


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


def _factor(a, shift: float, rng):
    """SuperLU factors of a - shift * I with diagonal pivots in a symmetric fill-reducing order.

    SuperLU leaves the diagonal only where its entry there is zero.
    Refuses, with NumericalContractError, a matrix that is exactly
    singular and factors whose seeded solve has a normwise backward
    error above FACTOR_BACKWARD, and, with ResourceLimitError, factors
    whose stored entries exceed EIGENPAIRS_MEMORY.
    """
    from scipy.sparse import identity
    from scipy.sparse.linalg import splu

    n = a.shape[0]
    shifted = (a - shift * identity(n, dtype=a.dtype, format="csc")).tocsc()
    try:
        lu = splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise
        raise NumericalContractError(f"H - ({shift:.17g}) I is exactly singular") from None
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


def _footprint(lu, dtype, n: int, m: int, columns: int, old: int = 0) -> int:
    """Bytes that eigenpairs_near holds at once for m pairs with room for columns basis columns.

    The LU factors; the basis and its projection, (n + columns) x columns
    entries, plus those of the old room while a growing basis copies
    them; and the last Rayleigh-Ritz step's n x m Ritz vectors, the two
    columns x columns arrays of the projected eigh (the scaled copy of
    the projection and its eigenvectors) and the products of one column
    block (at most three n x RITZ_CHUNK arrays at a time).
    """
    entries = (n + columns) * columns + (n + old) * old + n * (m + 3 * RITZ_CHUNK) + 2 * columns**2
    return _lu_bytes(lu, dtype) + entries * np.dtype(dtype).itemsize


def _check_memory(nbytes: int, what: str) -> None:
    if nbytes > EIGENPAIRS_MEMORY:
        raise ResourceLimitError(
            f"{what} of eigenpairs_near need {nbytes / 2**20:.1f} MiB, "
            f"beyond the limit of {EIGENPAIRS_MEMORY / 2**20:.1f} MiB"
        )


def _count_below(a, x: float, rng) -> tuple[int, int]:
    """Numbers of eigenvalues of the Hermitian a below and above x, by Sylvester's law of inertia.

    With diagonal pivots only, P (a - x) P^T = L U and U = D L^H, so the
    negative and positive entries of D count the eigenvalues below and
    above x; _factor refuses an x where H - x I is exactly singular.
    """
    lu = _factor(a, x, rng)
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NumericalContractError(
            f"no inertia count at {x:.17g}: the factorization of H - x I pivoted off the diagonal"
        )
    pivots = lu.U.diagonal().real
    return int(np.count_nonzero(pivots < 0)), int(np.count_nonzero(pivots > 0))


def _first_accepted(x: float, step: float, attempt):
    """The first point p = x + k * step, k < EDGE_MOVES, that attempt does not refuse, and attempt(p).

    Only a refusal's message is kept from one point to the next, so no
    refused factorization outlives its attempt; after the last point
    the last message is raised as a fresh NumericalContractError.
    """
    for k in range(EDGE_MOVES):
        point = x + k * step
        try:
            return point, attempt(point)
        except NumericalContractError as exc:
            refused = str(exc)
    raise NumericalContractError(refused)


def _adjoint_times(v, w) -> np.ndarray:
    """v^H w, conjugating only the narrow w and the product instead of the tall v."""
    return (w.conj().T @ v).conj().T


def _times(v, c) -> np.ndarray:
    """v c for a tall v and a narrow c, as (c^T v^T)^T.

    OpenBLAS at one thread runs that form of the product about twice as
    fast (2541 rows, 500 columns, 8 wide: 4.0 ms against 8.9 ms).
    """
    return (c.T @ v.T).T


def _orthonormal_block(basis, block, coeffs, rng, norms=None) -> np.ndarray:
    """Orthonormal columns for block's part outside the range of basis.

    coeffs = basis^H block, which the caller already holds, is one
    classical Gram-Schmidt pass against basis; a QR of the block
    follows.  A column that keeps less than RANK_DROP of norms (its norm
    before any pass, block's own by default) carries no new direction
    (an invariant subspace, a multiplicity above the block size, the
    zero operator) and is replaced by a seeded random column.  A column
    that keeps less than half the norm it had entering the last pass
    (nearly dependent on the basis or on the block's other columns) has
    had its rounding-level overlap with basis divided by that loss, so
    the QR's columns take one more pass and QR, until every column keeps
    half (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30, 772 (1976);
    "twice is enough": Giraud, Langou & Rozloznik, Comput. Math. Appl.
    50, 1069 (2005)).
    """
    if norms is None:
        norms = np.linalg.norm(block, axis=0)
    entering = np.linalg.norm(block, axis=0)
    block -= _times(basis, coeffs)
    while True:
        q, r = np.linalg.qr(block)
        kept = np.abs(np.diagonal(r))
        lost = kept <= RANK_DROP * norms
        if lost.any():
            block[:, lost] = rng.standard_normal((block.shape[0], int(lost.sum())))
            norms = np.linalg.norm(block, axis=0)
        elif (kept < 0.5 * entering).any():
            block, norms = q, np.ones_like(norms)
        else:
            return q
        entering = np.linalg.norm(block, axis=0)
        block -= _times(basis, _adjoint_times(basis, block))


def _ritz_in_window(a, basis, proj, sigma, lo, hi, m):
    """Rayleigh-Ritz of T = (H - sigma)^-1 on the basis, then of H on the Ritz pairs in [lo, hi].

    proj holds V^H T V in its upper triangle.  Returns the pairs and
    their residuals ||H x - lambda x|| once exactly m lie in the window
    with residuals at or below EIGENPAIR_RESIDUAL, None before that, and
    raises NumericalContractError when more than m Ritz values of T lie
    in the window.
    """
    from scipy.linalg import eigh

    # LAPACK's MRRR is not scale-invariant: at these projections' own scale (3e7 on the junction
    # windows) it fails on some and zheevr falls back to bisection and inverse iteration, four
    # times slower.  Dividing by a power of two brings proj to unit scale exactly, written
    # column-major so that LAPACK overwrites it in place of its own copy; it is freed before
    # the Rayleigh-Ritz on H, whose products set the peak memory
    scale = 2.0 ** np.frexp(np.abs(proj).max())[1]
    scaled = np.empty(proj.shape, proj.dtype, order="F")
    theta, y = eigh(np.divide(proj, scale, out=scaled), lower=False, overwrite_a=True)
    del scaled
    theta *= scale
    lam = np.full_like(theta, np.inf)
    nonzero = theta != 0
    lam[nonzero] = sigma + 1.0 / theta[nonzero]
    inside = (lam >= lo) & (lam <= hi)
    found = int(np.count_nonzero(inside))
    if found > m:
        raise NumericalContractError(
            f"{found} Ritz values in [{lo:.17g}, {hi:.17g}] exceed its inertia count {m}"
        )
    if found < m:
        return None
    # MRRR's eigenvectors of a clustered projection are orthogonal only to about 1e-11, and the
    # Rayleigh-Ritz on H below needs an orthonormal basis of their span
    q = np.linalg.qr(y[:, inside])[0]
    del y
    # past this point the Ritz vectors x are the one n x m array, column-major so that a column
    # range of them is contiguous; each product with the basis, H or z takes an n x RITZ_CHUNK
    # column block or as many bytes of rows at a time
    n = basis.shape[0]
    rows = max(1, n * RITZ_CHUNK // m)
    x = np.empty((n, m), basis.dtype, order="F")
    for r in range(0, n, rows):
        x[r : r + rows] = basis[r : r + rows] @ q
    del q
    cols = [slice(c, c + RITZ_CHUNK) for c in range(0, m, RITZ_CHUNK)]
    g = np.empty((m, m), x.dtype, order="F")
    for c in cols:
        g[:, c] = _adjoint_times(x, a @ x[:, c])
    vals, z = eigh(g, overwrite_a=True)
    del g
    for r in range(0, n, rows):
        x[r : r + rows] = x[r : r + rows] @ z
    del z
    residuals = np.empty(m)
    for c in cols:
        defect = a @ x[:, c]
        defect -= x[:, c] * vals[c]
        residuals[c] = np.linalg.norm(defect, axis=0)
    if vals[0] < lo or vals[-1] > hi or residuals.max() > EIGENPAIR_RESIDUAL:
        return None
    return vals, x, residuals


def eigenpairs_near(mat, center: float = 0.0, half_width: float = 0.25, seed: int = 0) -> WindowSpectrum:
    """All eigenpairs of the Hermitian mat with |E - center| <= half_width, up to the largest residual.

    One sparse path for every size (shifted block Lanczos with inertia
    counts; Grimes, Lewis & Simon, SIAM J. Matrix Anal. Appl. 15, 228
    (1994)):

    1. Every matrix H - x I is factored with diagonal pivots in a
       symmetric fill-reducing order and checked by its backward error.
       Two such LDL^H factorizations count, by Sylvester's law of
       inertia, the eigenvalues below the lower edge and above the upper
       one, and so the m in the closed window.  An edge where H - x I is
       exactly singular (an eigenvalue on it), or whose factorization
       pivots off the diagonal or fails its check, gives no count: it
       moves outward by EDGE_STEP of the half-width, at most
       EDGE_MOVES - 1 times, and the counted window then holds the
       requested one.  m = 0 returns at once.
    2. H - sigma I is factored once at sigma = center.  A shift that is
       exactly singular or fails the backward-error check moves up by
       the edges' step, at most EDGE_MOVES - 1 times.  Every eigenvalue
       lies in the Gershgorin interval [-g, g], g the largest absolute
       row sum: an edge strictly outside it is counted without a
       factorization (none below -g, none above g), and a center outside
       it gives way to the middle of the window's part inside it, so
       H - sigma I never overflows.
    3. A block Krylov basis of T = (H - sigma)^-1 grows in blocks of
       KRYLOV_BLOCK from a seeded start, in the operator's dtype.  T is
       Hermitian, so T q's large parts lie along q and the block before
       it (the block three-term recurrence): a local pass takes them
       out, then one classical Gram-Schmidt pass runs over the whole
       basis, and the block's QR follows.  Another pass runs only while
       some column keeps less than half the norm it had entering the
       last one (the Daniel-Gragg-Kaufman-Stewart test), and a column
       that keeps less than RANK_DROP of ||T q|| is replaced by a seeded
       random one.  The basis is stored column-major with room for
       2m + 4 KRYLOV_BLOCK columns, doubled if it must grow.  V^H T V is
       formed from the products T V themselves (the full pass's
       coefficients plus the local pass's on the last two blocks' rows),
       never from recurrence coefficients.
    4. Rayleigh-Ritz on T (lambda = sigma + 1/theta) runs first at 2m
       columns, then every max(KRYLOV_BLOCK, m/8), on V^H T V scaled to
       unit size by a power of two.  It stops when exactly m Ritz values
       lie in the counted window and a last Rayleigh-Ritz on H over an
       orthonormal basis of their span leaves each pair in it with
       ||H x - lambda x|| <= EIGENPAIR_RESIDUAL.  That step holds one
       n x m array, the Ritz vectors, and forms x^H H x, the vectors and
       their residuals RITZ_CHUNK columns or rows at a time.  The pairs
       whose value lies within the largest residual of the closed window
       [center - half_width, center + half_width] are returned (an
       eigenvalue on an edge may have its Ritz value a rounding error
       outside), a column range of the Ritz vectors.

    Deterministic for a fixed seed.  Raises NumericalContractError when
    no tried edge gives an inertia count or no tried shift stable
    factors, when more than m Ritz values fall in the counted window, or
    when a basis spanning the whole space still disagrees with the
    count; it never returns before all m pairs of the counted window
    are found.  Raises ResourceLimitError when the LU factors, or they
    with the basis, the projection and the last Rayleigh-Ritz step's
    arrays (_footprint, charged again with the old room whenever the
    basis grows), would exceed EIGENPAIRS_MEMORY, and ConfigError unless
    the center is finite and 0 < half_width < inf.
    """
    from scipy.sparse import csc_matrix

    if not (np.isfinite(center) and 0 < half_width < np.inf):
        raise ConfigError(f"the window needs a finite center and finite half_width > 0, got {center}, {half_width}")
    a = csc_matrix(mat)
    dtype = np.result_type(a.dtype, np.float64)
    a = a.astype(dtype, copy=False)
    n = a.shape[0]
    rng = np.random.default_rng(seed)
    lo, hi = center - half_width, center + half_width
    # count [lo, hi] as all but the eigenvalues below lo and above hi; edges move outward, the shift up, if they must
    step = EDGE_STEP * half_width
    # Gershgorin: every eigenvalue lies in [-radius, radius]; n eps covers the row sums' rounding
    radius = float(abs(a).sum(axis=1).max()) * (1.0 + n * np.finfo(float).eps)

    def counted(edge):
        # an edge strictly outside [-radius, radius] needs no factorization
        return (0, n) if edge < -radius else (n, 0) if edge > radius else _count_below(a, edge, rng)

    lo_count, (below_lo, _) = _first_accepted(lo, -step, counted)
    hi_count, (_, above_hi) = _first_accepted(hi, step, counted)
    m = n - below_lo - above_hi
    if m == 0:
        return WindowSpectrum(np.empty(0), np.empty((n, 0), dtype))

    # a center outside [-radius, radius] would put the shift far from every eigenvalue, or past
    # the float range: it moves to the middle of the window's part inside the interval
    shift = center if abs(center) <= radius else 0.5 * (max(lo, -radius) + min(hi, radius))
    sigma, lu = _first_accepted(shift, step, lambda x: _factor(a, x, rng))

    b = min(KRYLOV_BLOCK, n)
    size = min(n, 2 * m + 4 * b)
    # column-major, so a column block is contiguous and unused columns are never touched
    basis = np.empty((n, 0), dtype, order="F")
    proj = np.empty((0, 0), dtype)
    block = rng.standard_normal((n, b)).astype(dtype)
    coeffs = np.zeros((0, b), dtype)
    norms = np.linalg.norm(block, axis=0)
    j, check = 0, min(n, 2 * m)
    while True:
        width = min(b, n - j)
        if j + width > basis.shape[1]:
            size = min(n, max(size, 2 * basis.shape[1]))
            _check_memory(_footprint(lu, dtype, n, m, size, basis.shape[1]), "LU factors, Krylov basis and Ritz vectors")
            grown = np.empty((n, size), dtype, order="F")
            grown[:, :j] = basis[:, :j]
            basis = grown
            grown = np.zeros((size, size), dtype)
            grown[:j, :j] = proj[:j, :j]
            proj = grown
        q = _orthonormal_block(basis[:, :j], block[:, :width], coeffs[:, :width], rng, norms[:width])
        basis[:, j : j + width] = q
        block = lu.solve(q)
        norms = np.linalg.norm(block, axis=0)
        # T is Hermitian, so T q's large parts lie along q and the block before it (the
        # block three-term recurrence): take them out first, then make one full pass
        near = slice(max(0, j - b), j + width)
        local = _adjoint_times(basis[:, near], block)
        block -= _times(basis[:, near], local)
        coeffs = _adjoint_times(basis[:, : j + width], block)
        # V^H T q, a column block of the projection: the full pass plus the local part
        proj[: j + width, j : j + width] = coeffs
        proj[near, j : j + width] += local
        j += width
        if j >= check or j == n:
            pairs = _ritz_in_window(a, basis[:, :j], proj[:j, :j], sigma, lo_count, hi_count, m)
            if pairs is not None:
                vals, vecs, residuals = pairs
                # a pair within the residual of [lo, hi] may be an eigenvalue on an edge; vals is sorted,
                # so these pairs are a column range of vecs
                tol = residuals.max()
                keep = slice(np.searchsorted(vals, lo - tol, "left"), np.searchsorted(vals, hi + tol, "right"))
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
                    f"{m} of pairs in [{lo_count:.17g}, {hi_count:.17g}] with residuals <= {EIGENPAIR_RESIDUAL:.0e}"
                )
            check = j + max(b, m // 8)


def write_curve_csv(curve: DOSCurve, path: str) -> None:
    """CSV of (energy, value) plus a JSON metadata sidecar."""
    write_csv(path, ["energy", "value"], [curve.energies, curve.values])
    write_json(path + ".meta.json", curve.metadata)


def write_spectrum_csv(spec: SpectrumResult, path: str) -> None:
    write_csv(path, ["index", "eigenvalue"], [np.arange(spec.dim), spec.eigenvalues])
