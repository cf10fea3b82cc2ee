"""Three-phase Y-junction on an open ball.

Three rays from the origin split the disk into 120-degree wedges, each
carrying one gapped model.  A sigmoid partition of unity with domain-wall
width ell blends the three Hamiltonians; every hopping entry is weighted
by the partition evaluated at the geodesic midpoint of its endpoints, so
the assembled operator stays Hermitian and interpolates smoothly in space.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import geometry, operators
from .errors import ConfigError
from .outputs import write_csv

if TYPE_CHECKING:
    import scipy.sparse as sp

DEFAULT_WALL_WIDTH = 0.1
DEFAULT_EPS = 0.8
# one model per cyclic subgroup, first nontrivial character each
DEFAULT_MODELS = ((1, 1), (2, 1), (3, 1))
INTERFACE_RADIUS = 0.75
# bulk sites lie at least this many word layers inside the ball's rim
BULK_MARGIN = 2


@dataclass(frozen=True)
class JunctionConfig:
    """Alignment angle, wall width, model strength, and the three model specs.

    phi_y = None resolves to pi/(2p), half the rotation angle of the p-fold
    generator, which centers the rays between lattice directions.
    """

    phi_y: float | None = None
    ell: float = DEFAULT_WALL_WIDTH
    eps: float = DEFAULT_EPS
    models: tuple = DEFAULT_MODELS

    def __post_init__(self):
        if self.ell <= 0:
            raise ConfigError(f"wall width ell must be positive, got {self.ell}")
        if not 0.0 <= self.eps <= 1.0:
            raise ConfigError(f"eps must lie in [0, 1], got {self.eps}")
        if len(self.models) != 3:
            raise ConfigError("a junction needs exactly three model specs")

    def resolve_phi(self, p: int) -> float:
        return math.pi / (2 * p) if self.phi_y is None else float(self.phi_y)


def junction_rays(phi_y: float) -> np.ndarray:
    """Unit boundary points at angles phi_y, phi_y + 2pi/3, phi_y + 4pi/3."""
    base = cmath.exp(1j * phi_y)
    rot = cmath.exp(2j * math.pi / 3)
    return np.array([base, base * rot, base * rot * rot])


def kappa(z, rays) -> np.ndarray:
    """Relative angles arg(z* Y_i), principal branch, shape (..., 3)."""
    z = np.asarray(z, dtype=complex)
    return np.angle(np.conjugate(z)[..., None] * np.asarray(rays))


def sector_label(z, rays):
    """Wedge label 1, 2 or 3; region i lies between rays i and i+1.

    The defining inequalities are kappa_i <= 0 < kappa_{i+1}, cyclically;
    they are exclusive and exhaustive away from the origin.  z = 0 is
    assigned label 1 (all angles collapse there and any constant works).
    """
    z = np.asarray(z, dtype=complex)
    k = kappa(z, rays)
    k1, k2, k3 = k[..., 0], k[..., 1], k[..., 2]
    lab = np.select(
        [(k1 <= 0) & (k2 > 0), (k2 <= 0) & (k3 > 0), (k3 <= 0) & (k1 > 0)],
        [1, 2, 3],
        default=1,
    )
    # signed zeros make arg(0 * Y) land on either branch end; pin the origin
    lab = np.where(z == 0, 1, lab)
    return int(lab) if z.ndim == 0 else lab


def boundary_distance(z, rays) -> np.ndarray:
    """Distances delta_i from z to each ray, shape (..., 3).

    For |kappa_i| < pi/2 the foot of the geodesic perpendicular lands on the
    ray and the hyperbolic sine law gives sinh(delta) = |sin kappa| sinh d(0,z);
    otherwise the nearest ray point is the origin itself.  Both branches agree
    at |kappa| = pi/2.
    """
    z = np.asarray(z, dtype=complex)
    k = kappa(z, rays)
    d0 = 2.0 * np.arctanh(np.abs(z))
    delta = np.arcsinh(np.abs(np.sin(k)) * np.sinh(d0)[..., None])
    return np.where(np.abs(k) >= math.pi / 2, d0[..., None], delta)


def signed_distance(z, rays) -> np.ndarray:
    """Signed distance D_i to phase region i: negative inside, positive outside.

    Region i is the closed wedge between rays i and i+1, so the distance from
    z to it (or from z to its boundary, when inside) is min(delta_i, delta_{i+1});
    only the sign depends on the sector label.  Flipping the sign exactly where
    the minimum vanishes keeps every D_i continuous across the rays; returning
    the bare delta_i outside the own sector would jump there.
    """
    delta = boundary_distance(z, rays)
    mag = np.minimum(delta, np.roll(delta, -1, axis=-1))
    lab = np.asarray(sector_label(z, rays))
    sign = np.where(np.arange(1, 4) == lab[..., None], -1.0, 1.0)
    return sign * mag


def partition(z, rays, ell: float = DEFAULT_WALL_WIDTH) -> np.ndarray:
    """Sigmoid partition of unity chi_i = sigma_i / sum sigma, shape (..., 3).

    sigma_i = 1 / (1 + exp(D_i / ell)); the normalization makes the row sums
    exactly 1 in floating arithmetic up to rounding.
    """
    from scipy.special import expit

    if ell <= 0:
        raise ConfigError(f"wall width ell must be positive, got {ell}")
    sig = expit(-signed_distance(z, rays) / ell)
    return sig / sig.sum(axis=-1, keepdims=True)


def ray_distance(z, rays) -> np.ndarray:
    """Distance from z to the nearest of the three rays: min_i delta_i."""
    return boundary_distance(z, rays).min(axis=-1)


def assemble_junction(ball, positions, config: JunctionConfig) -> sp.csr_matrix:
    """Interpolated junction Hamiltonian on an open ball.

    The models share one bond table; model i's weight on bond (r, c) is
    scaled by its partition value at the geodesic midpoint of z_r and z_c,
    summed in config order with exact zeros dropped.  The midpoint is
    symmetric in its arguments, so Hermiticity is preserved.
    """
    from scipy.sparse import csr_matrix

    p, q = ball.gens.p, ball.gens.q
    positions = np.asarray(positions, dtype=complex)
    if positions.shape[0] != len(ball):
        raise ConfigError("positions must match the ball, one per element")
    rays = junction_rays(config.resolve_phi(p))
    models = [operators.model_hamiltonian(alpha, kidx, config.eps, p, q) for alpha, kidx in config.models]
    rows, cols, coef = operators._open_bonds(models, ball)
    terms = coef * partition(geometry.midpoint(positions[rows], positions[cols]), rays, config.ell)
    mat = csr_matrix(((terms[:, 0] + terms[:, 1]) + terms[:, 2], (rows, cols)), shape=(len(ball), len(ball)))
    mat.eliminate_zeros()
    return mat


def bulk_sites(ball) -> np.ndarray:
    """Mask of sites at word distance >= BULK_MARGIN from the ball truncation edge.

    Open boundaries host their own in-gap edge states (the rim is an
    interface with vacuum); interface-localization measurements suppress
    them by restricting to word layers <= radius - BULK_MARGIN.
    """
    layers = np.repeat(np.arange(len(ball.layer_sizes)), ball.layer_sizes)
    return layers <= ball.radius - BULK_MARGIN


def export_partition_csv(path, chi) -> None:
    write_csv(path, ["index", "chi1", "chi2", "chi3"], [np.arange(len(chi)), chi])
