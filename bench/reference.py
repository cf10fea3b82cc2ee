"""Reference IDOS for the KPM output, from exact single-site moments.

A right-regular operator on a quotient commutes with left translations,
so its diagonal is constant and tr T_n(H~)/|G| = <delta_e|T_n(H~)|delta_e>
exactly.  The reference takes these moments at REF_FACTOR times the
output's moment count, applies the Jackson kernel, and integrates the
Chebyshev series in closed form.  The adjacency is rebuilt here from the
cached permutation tables, independently of hyperbulk.operators.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import scipy.sparse as sp

REF_FACTOR = 8
INTERIOR = 0.95          # C7: grid points with |x| < 0.95 ...
LEVEL_MARGIN = 0.03      # ... at least this far (scaled units) from a flat level
LEVEL_WEIGHT = 0.02      # a flat level holds more than this share of states
LEVEL_WIDTHS = 2.5       # a flat level's weight is collected over +-2.5 kernel widths pi/N


def adjacency_from_cache(npz_path: str) -> sp.csr_matrix:
    """(A + A^-1 + B + B^-1) / 4 in the right-regular representation."""
    with np.load(npz_path) as data:
        gen_perm = data["gen_perm"]
    n = gen_perm.shape[1]
    cols = np.tile(np.arange(n), len(gen_perm))
    rows = np.concatenate(list(gen_perm))
    return sp.csr_matrix((np.full(cols.size, 0.25), (rows, cols)), shape=(n, n))


def single_site_moments(mat, count: int, bounds) -> np.ndarray:
    """mu_n = <delta_e|T_n(H~)|delta_e>, n < count, by Chebyshev doubling.

    mu_2n = 2 <T_n|T_n> - mu_0 and mu_2n+1 = 2 <T_n+1|T_n> - mu_1, so
    count/2 matvecs give count moments.
    """
    lo, hi = bounds
    a, b = (hi - lo) / 2.0, (hi + lo) / 2.0
    n = mat.shape[0]
    scaled = ((mat - b * sp.identity(n, format="csr")) / a).tocsr()
    half = (count + 1) // 2
    mu = np.zeros(2 * half + 1)
    t_prev = np.zeros(n)
    t_prev[0] = 1.0
    t_cur = scaled @ t_prev
    mu[0], mu[1] = 1.0, t_cur[0]
    mu[2] = 2.0 * (t_cur @ t_cur) - mu[0]
    for m in range(1, half):
        t_next = 2.0 * (scaled @ t_cur) - t_prev
        mu[2 * m + 1] = 2.0 * (t_next @ t_cur) - mu[1]
        mu[2 * m + 2] = 2.0 * (t_next @ t_next) - mu[0]
        t_prev, t_cur = t_cur, t_next
    return mu[:count]


def cached_moments(cache_dir: str, npz_path: str, group_key: str, count: int, bounds) -> np.ndarray:
    key = json.dumps({"group": group_key, "bounds": [repr(float(v)) for v in bounds], "moments": count})
    path = os.path.join(cache_dir, f"moments_{hashlib.sha256(key.encode()).hexdigest()[:24]}.npy")
    if os.path.exists(path):
        return np.load(path)
    mu = single_site_moments(adjacency_from_cache(npz_path), count, bounds)
    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp.npy"
    np.save(tmp, mu)
    os.replace(tmp, path)
    return mu


def jackson(m: int) -> np.ndarray:
    k = np.arange(m)
    mp1 = m + 1
    return ((mp1 - k) * np.cos(np.pi * k / mp1) + np.sin(np.pi * k / mp1) / np.tan(np.pi / mp1)) / mp1


def idos(x, mu: np.ndarray) -> np.ndarray:
    """Jackson-damped IDOS at scaled energies x, integrated from -1 in closed form.

    With x = cos(theta): int_-1^x T_n / (pi sqrt(1 - t^2)) dt is
    (pi - theta) / pi for n = 0 and -sin(n theta) / (n pi) for n >= 1.
    """
    g = jackson(len(mu)) * mu
    theta = np.arccos(np.clip(np.asarray(x, dtype=float), -1.0, 1.0))
    n = np.arange(1, len(mu))
    out = np.empty(theta.shape)
    for start in range(0, theta.size, 512):
        th = theta.flat[start : start + 512]
        out.flat[start : start + 512] = g[0] * (np.pi - th) / np.pi - (2.0 / np.pi) * (
            np.sin(np.outer(th, n)) / n
        ) @ g[1:]
    return out


def level_window(mu: np.ndarray) -> float:
    """Half-width over which the Jackson kernel spreads one level, in scaled units."""
    return LEVEL_WIDTHS * np.pi / len(mu)


def flat_levels(mu: np.ndarray) -> list[float]:
    """Scaled energies of levels holding more than LEVEL_WEIGHT of the states."""
    w = level_window(mu)
    x = np.linspace(-1.0 + w, 1.0 - w, 4001)
    weight = idos(x + w, mu) - idos(x - w, mu)
    hits = np.nonzero(weight > LEVEL_WEIGHT)[0]
    if hits.size == 0:
        return []
    runs = np.split(hits, np.nonzero(np.diff(hits) > 1)[0] + 1)
    return [float(x[run[np.argmax(weight[run])]]) for run in runs]


def masked_error(energies, values, bounds, mu) -> float:
    """C7's L_inf IDOS error: interior points away from flat levels."""
    lo, hi = bounds
    a, b = (hi - lo) / 2.0, (hi + lo) / 2.0
    x = (np.asarray(energies) - b) / a
    mask = np.abs(x) < INTERIOR
    for level in flat_levels(mu):
        mask &= np.abs(x - level) >= LEVEL_MARGIN
    return float(np.abs(np.asarray(values) - idos(x, mu))[mask].max())


def kpm_idos_err(idos_csv: str, npz_path: str, group_key: str, cache_dir: str) -> float:
    with open(idos_csv + ".meta.json") as fh:
        meta = json.load(fh)
    data = np.loadtxt(idos_csv, delimiter=",", skiprows=1, ndmin=2)
    mu = cached_moments(cache_dir, npz_path, group_key, REF_FACTOR * meta["moments"], meta["bounds"])
    return masked_error(data[:, 0], data[:, 1], meta["bounds"], mu)
