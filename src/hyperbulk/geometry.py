"""Numerical hyperbolic geometry.

The reflection representation preserves a symmetric bilinear form B of
signature (+,+,-).  Its negative-norm cone carries a two-sheet hyperboloid;
the positive sheet projects onto the Poincare disk.  This module provides
the form, the eigenbasis used to read off Minkowski coordinates, the
disk projection and its inverse, the group action on disk points, hyperbolic
distances and geodesic midpoints, and site-position generation for balls
and quotient groups.

All distances use curvature -1: d(0, z) = 2 artanh|z|.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NumericalContractError
from .outputs import write_csv
from .tolerances import SHEET_DRIFT
from .triangle import Ball, DiscoveryTree, GroupMatrix, TessellationParams, build_generators


def bilinear_form(p: int, q: int) -> np.ndarray:
    """Symmetric form with unit diagonal, -cos(pi/p) on (x,y), -cos(pi/q) on (y,z)."""
    TessellationParams(p, q)
    eta = math.cos(math.pi / p)
    zeta = math.cos(math.pi / q)
    return np.array(
        [
            [1.0, -eta, 0.0],
            [-eta, 1.0, -zeta],
            [0.0, -zeta, 1.0],
        ]
    )


@dataclass(frozen=True)
class GammaBasis:
    """Eigenbasis of the bilinear form plus the frames used for coordinates.

    gamma1, gamma2, gamma3 are the raw eigenvectors (eigenvalues 1, 1+upsilon,
    1-upsilon).  frame has columns u3, u1, u2 normalized to B-norm -1, +1, +1,
    so that frame @ (q0, q1, q2) expands Minkowski coordinates in the
    reflection basis and frame_inv reads them back.
    """

    p: int
    q: int
    eta: float
    zeta: float
    upsilon: float
    gamma1: np.ndarray
    gamma2: np.ndarray
    gamma3: np.ndarray
    form: np.ndarray
    frame: np.ndarray
    frame_inv: np.ndarray

    def coordinates(self, vectors: np.ndarray) -> np.ndarray:
        """Minkowski coordinates (q0,q1,q2) of vectors given in the reflection basis."""
        return vectors @ self.frame_inv.T

    def embed(self, coords: np.ndarray) -> np.ndarray:
        return coords @ self.frame.T


@lru_cache(maxsize=None)
def gamma_basis(p: int, q: int) -> GammaBasis:
    TessellationParams(p, q)  # rejects non-hyperbolic pairs
    eta = math.cos(math.pi / p)
    zeta = math.cos(math.pi / q)
    upsilon = math.sqrt(eta * eta + zeta * zeta)
    form = bilinear_form(p, q)

    gamma1 = np.array([-zeta / eta, 0.0, 1.0])
    gamma2 = np.array([eta / zeta, -upsilon / zeta, 1.0])
    gamma3 = np.array([eta / zeta, upsilon / zeta, 1.0])

    # Normalize each eigenvector to B-norm +-1.  The eigenvalue scalings alone
    # do not produce the Minkowski form; the Euclidean norms enter as well.
    def unit(v, sign):
        norm = float(v @ form @ v)
        if sign * norm <= 0:
            raise NumericalContractError("eigenvector norm has unexpected sign")
        return v / math.sqrt(abs(norm))

    u1 = unit(gamma1, +1)
    u2 = unit(gamma2, +1)
    u3 = unit(gamma3, -1)

    frame = np.column_stack([u3, u1, u2])
    frame_inv = np.linalg.inv(frame)
    return GammaBasis(
        p=p,
        q=q,
        eta=eta,
        zeta=zeta,
        upsilon=upsilon,
        gamma1=gamma1,
        gamma2=gamma2,
        gamma3=gamma3,
        form=form,
        frame=frame,
        frame_inv=frame_inv,
    )


def hyperboloid_to_disk(coords) -> complex:
    """(q0, q1, q2) on the positive sheet -> (q1 + i q2)/(1 + q0)."""
    q0, q1, q2 = (float(c) for c in coords)
    residual = q1 * q1 + q2 * q2 - q0 * q0 + 1.0
    if q0 <= 0 or abs(residual) > 1e-9 * (1.0 + q0 * q0):
        raise ConfigError(f"point ({q0}, {q1}, {q2}) is not on the positive hyperboloid sheet")
    return complex(q1, q2) / (1.0 + q0)


def disk_to_hyperboloid(z: complex):
    """Inverse projection: q0 = (1+|z|^2)/(1-|z|^2), q1+iq2 = 2z/(1-|z|^2)."""
    z = complex(z)
    r2 = z.real * z.real + z.imag * z.imag
    if r2 >= 1.0:
        raise ConfigError(f"|z| = {math.sqrt(r2)} is not inside the unit disk")
    denom = 1.0 - r2
    return ((1.0 + r2) / denom, 2.0 * z.real / denom, 2.0 * z.imag / denom)


def _coords_to_disk_array(coords: np.ndarray) -> np.ndarray:
    """Vectorized sheet check + projection for an (N,3) coordinate array."""
    q0 = coords[..., 0]
    q1 = coords[..., 1]
    q2 = coords[..., 2]
    if np.any(q0 <= 0):
        raise NumericalContractError("group action left the positive hyperboloid sheet")
    norm = q0 * q0 - q1 * q1 - q2 * q2
    drift = np.abs(norm - 1.0)
    bad = drift > SHEET_DRIFT * (1.0 + q0 * q0)
    if np.any(bad):
        warnings.warn(
            f"hyperboloid drift up to {float(drift.max()):.3e} exceeded {SHEET_DRIFT:.1e}; renormalizing",
            RuntimeWarning,
            stacklevel=3,
        )
    # cheap insurance against float creep on long words
    scale = np.sqrt(np.maximum(norm, 1e-300))
    q0 = q0 / scale
    q1 = q1 / scale
    q2 = q2 / scale
    return (q1 + 1j * q2) / (1.0 + q0)


def _numeric_matrix(g) -> np.ndarray:
    if isinstance(g, GroupMatrix):
        return g.numeric()
    arr = np.asarray(g, dtype=float)
    if arr.shape != (3, 3):
        raise ConfigError(f"expected a 3x3 matrix, got shape {arr.shape}")
    return arr


def act(g, z, basis: GammaBasis):
    """Apply a group element to one or many disk points.

    The point is lifted to the hyperboloid, mapped with the numeric matrix in
    the reflection basis, and projected back.  Scalar in, scalar out; array
    in, array out.
    """
    mat = _numeric_matrix(g)
    zs = np.asarray(z, dtype=complex)
    scalar = zs.ndim == 0
    zs = np.atleast_1d(zs)
    r2 = zs.real**2 + zs.imag**2
    if np.any(r2 >= 1.0):
        raise ConfigError("disk points must satisfy |z| < 1")
    denom = 1.0 - r2
    coords = np.empty(zs.shape + (3,))
    coords[..., 0] = (1.0 + r2) / denom
    coords[..., 1] = 2.0 * zs.real / denom
    coords[..., 2] = 2.0 * zs.imag / denom
    vecs = basis.embed(coords)
    moved = vecs @ mat.T
    out = _coords_to_disk_array(basis.coordinates(moved))
    return complex(out[0]) if scalar else out


def incenter(p: int, q: int) -> complex:
    """Disk image of the point equidistant from all three triangle walls.

    The walls are the fixed planes of the reflections; equal B-pairing with
    all three wall normals pins the point up to scale.  Used as the default
    seed z0 for site positions.
    """
    basis = gamma_basis(p, q)
    form = basis.form
    rows = np.array([form[0] - form[1], form[0] - form[2]])
    v = np.cross(rows[0], rows[1])
    norm = float(v @ form @ v)
    if norm >= 0:
        raise NumericalContractError("incenter solve produced a non-timelike vector")
    v = v / math.sqrt(-norm)
    coords = basis.coordinates(v)
    if coords[0] < 0:
        coords = -coords
    return hyperboloid_to_disk(coords)


def _ball_numeric_matrices(ball: Ball) -> np.ndarray:
    """(N,3,3) float matrices from the exact coefficient batch."""
    ctx = ball.gens.ctx
    pows = ctx.xi_numeric ** np.arange(ctx.d)
    coeffs = np.asarray(ball.index.rows, dtype=float).reshape(len(ball), 3, 3, ctx.d)
    return coeffs @ pows


def site_positions(elements, z0: complex) -> np.ndarray:
    """Disk positions g . z0, one per element, in element-index order.

    Accepts a Ball (exact coefficients, preferred) or a quotient group,
    whose float matrices are a fill along its discovery tree,
    mat(x t) = mat(x) t (positions wrap under the periodic identification).
    """
    if isinstance(elements, Ball):
        p, q = elements.gens.p, elements.gens.q
        mats = _ball_numeric_matrices(elements)
    elif isinstance(elements, DiscoveryTree):
        p, q = elements.p, elements.q
        gens = build_generators(p, q)
        step = np.array([gens.token_matrix(t).numeric() for t in range(4)])
        mats = elements.fill(np.eye(3), lambda m, t: m @ step[t])
    else:
        raise ConfigError("site_positions expects a Ball or a quotient group")
    basis = gamma_basis(p, q)
    v0 = basis.embed(np.asarray(disk_to_hyperboloid(z0)))
    moved = mats @ v0
    return _coords_to_disk_array(basis.coordinates(moved))


def hyp_distance(z, w):
    """Geodesic distance at curvature -1.

    Equals arccosh(1 + 2|z-w|^2 / ((1-|z|^2)(1-|w|^2))) but is evaluated
    as 2 artanh of the Moebius ratio |z-w| / |1 - conj(z) w|, which keeps
    full precision for nearly coincident points where the arccosh argument
    would round to 1.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    ratio = np.abs(z - w) / np.abs(1.0 - np.conjugate(z) * w)
    return 2.0 * np.arctanh(np.minimum(ratio, 1.0 - 1e-16))


def midpoint(z, w):
    """Geodesic midpoint in closed form.

    The square root is taken over the full product A[z,w]*(1-|z|^2)*(1-|w|^2),
    A[z,w] = (1-|z|^2)*(1-|w|^2) + |z-w|^2 the Ahlfors bracket (bracket below);
    this variant satisfies midpoint(z, z) = z and the equal-distance property
    d(z, mu) = d(w, mu) = d(z, w)/2, which is the contract enforced by tests.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    scalar = z.ndim == 0 and w.ndim == 0
    az = 1.0 - (z.real**2 + z.imag**2)
    aw = 1.0 - (w.real**2 + w.imag**2)
    bracket = az * aw + np.abs(z - w) ** 2
    numer = w * az + z * aw
    denom = 1.0 - (np.abs(z) * np.abs(w)) ** 2 + np.sqrt(bracket * az * aw)
    out = numer / denom
    return complex(out) if scalar else out


def export_positions_csv(path, positions) -> None:
    write_csv(path, ["index", "re", "im"], [np.arange(len(positions)), np.real(positions), np.imag(positions)])
