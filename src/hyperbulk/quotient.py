"""Finite quotients of the rotation triangle group.

Reducing the exact matrix entries modulo s^k (coefficient-wise, onto
[0, s^k)) maps the infinite rotation group onto a finite matrix group
G_k over Z_{s^k}[xi].  The family k = 1, 2, ... forms a coherent tower
of quotients whose regular representations converge spectrally to the
infinite lattice.

The group is enumerated by triangle.bfs, the engine that also builds
word-metric balls: each layer is one batched matmul with the generator
tables mod s^k, deduplicated through sorted 64-bit row keys confirmed
row by row.  The same products fill the right-multiplication
permutations gen_perm, and every word the operator layer applies is a
walk through them (QuotientGroup.walk).

For k >= 2 the kernel N of G_k -> G_(k-1) is abelian, because
(1 + s^(k-1) X)(1 + s^(k-1) Y) = 1 + s^(k-1) (X + Y) mod s^k.  Its
characters split every right-regular operator into |N| blocks of size
|G_(k-1)| (twisted boundary conditions), and the blocks of one orbit of
characters under conjugation by G share their spectrum; see
QuotientGroup.sectors.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import zipfile
import zlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, NumericalContractError
from .triangle import (
    GEN_A,
    GEN_B,
    DiscoveryTree,
    RowIndex,
    TessellationParams,
    bfs,
    build_generators,
    inverse_token,
    mult_tables,
    unique_rows,
)

__all__ = ["QuotientGroup", "Sectors", "build_quotient"]

DEFAULT_ELEMENT_CAP = 500_000
CACHE_VERSION = 3  # version 1 files carry no version field; version 2 also held inv and left_perm


def _storage_dtype(m: int):
    if m <= 256:
        return np.uint8
    if m <= 65536:
        return np.uint16
    return np.int64


@dataclass
class QuotientGroup(DiscoveryTree):
    """Finite quotient with generator-action permutations.

    gen_perm[t][i] is the index of (element i) * (generator t), with t
    running over A, A^-1, B, B^-1.  elements[i] holds the canonical
    mod-s^k coefficients, shape (3, 3d).
    """

    p: int
    q: int
    s: int
    k: int
    order: int
    elements: np.ndarray
    gen_perm: np.ndarray          # (4, order) int64
    parents: np.ndarray           # discovery tree parent indices
    tokens: np.ndarray            # discovery tree generator tokens
    torsion: dict = field(default_factory=dict)

    @property
    def modulus(self) -> int:
        return self.s**self.k

    @property
    def torsion_preserved(self) -> bool:
        return all(v["order"] == v["expected"] for v in self.torsion.values())

    def walk(self, idx, word):
        """Index of (element idx) * (product of the word's generators), elementwise for an index array."""
        for t in word:
            idx = self.gen_perm[t][idx]
        return idx

    def project(self, word) -> int:
        """Image of a free word under the quotient map, as an index."""
        return int(self.walk(0, word))

    def element_order(self, i: int) -> int:
        if i == 0:
            return 1
        word = self.word(i)
        j = i
        order = 1
        while j != 0:
            j = self.walk(j, word)
            order += 1
            if order > self.order:
                raise RuntimeError("order exceeded group size; table corrupt")
        return order

    @cached_property
    def sectors(self) -> "Sectors":
        """Character sectors of ker(G_k -> G_(k-1)) and their conjugation orbits.

        Computed on first use and never saved.
        """
        return _sectors(self)

    def reduce_to(self, other: "QuotientGroup") -> np.ndarray:
        """Index map of the natural surjection onto a coarser quotient.

        other must be the same (p, q, s) at smaller k.
        """
        if (other.p, other.q, other.s) != (self.p, self.q, self.s) or other.k > self.k:
            raise ConfigError("target is not a coarser quotient of the same family")
        reduced = (self.elements % other.modulus).astype(other.elements.dtype)
        out = RowIndex(other.elements).find(reduced)
        if np.any(out < 0):
            raise NumericalContractError("an element has no image in the coarser quotient")
        return out

    def save(self, path: str) -> None:
        """Write the tables to path (".npz" is appended when missing), atomically.

        The file is written under a temporary name in the same directory
        and renamed into place, so a concurrent reader sees either no
        file or a complete one.
        """
        if not path.endswith(".npz"):
            path += ".npz"
        header = json.dumps(
            {
                "version": CACHE_VERSION,
                "p": self.p,
                "q": self.q,
                "s": self.s,
                "k": self.k,
                "order": self.order,
                "torsion": self.torsion,
            }
        )
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                np.savez(
                    fh,
                    header=np.frombuffer(header.encode(), dtype=np.uint8),
                    **{name: getattr(self, name) for name in _CACHE_ARRAYS},
                )
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: str) -> "QuotientGroup":
        """Read a file written by save and check its tables.

        Raises NumericalContractError when the file is unreadable, has
        another format version, or fails the table checks of _validate.
        """
        try:
            with np.load(path) as data:
                header = json.loads(bytes(data["header"]).decode())
                arrays = {name: data[name] for name in _CACHE_ARRAYS}
            if header.get("version") != CACHE_VERSION:
                raise NumericalContractError(
                    f"format version {header.get('version')!r}, expected {CACHE_VERSION}; "
                    "delete the file or use another --cache-dir"
                )
            group = cls(
                p=header["p"],
                q=header["q"],
                s=header["s"],
                k=header["k"],
                order=header["order"],
                torsion=dict(header["torsion"]),
                **arrays,
            )
            _validate(group)
        except (OSError, EOFError, ValueError, KeyError, TypeError, zipfile.BadZipFile, zlib.error,
                NumericalContractError) as exc:
            raise NumericalContractError(f"quotient cache {path} is unusable: {exc}") from exc
        return group


_CACHE_ARRAYS = ("elements", "gen_perm", "parents", "tokens")


def _validate(group: QuotientGroup) -> None:
    """Check a loaded quotient's tables, vectorized; raise NumericalContractError on a defect.

    Every gen_perm row is a permutation undone by the row of the inverse
    generator, and the elements rows are distinct.
    """
    n = group.order
    for name, shape in {"gen_perm": (4, n), "parents": (n,), "tokens": (n,)}.items():
        if getattr(group, name).shape != shape:
            raise NumericalContractError(f"{name} has shape {getattr(group, name).shape}, expected {shape}")
    if group.elements.ndim != 3 or len(group.elements) != n:
        raise NumericalContractError(f"elements has shape {group.elements.shape} for order {n}")
    ident = np.arange(n)
    perm = group.gen_perm
    if np.any(np.sort(perm, axis=1) != ident):
        raise NumericalContractError("a gen_perm row is not a permutation")
    if np.any(np.take_along_axis(perm, perm[[inverse_token(t) for t in range(4)]], axis=1) != ident):
        raise NumericalContractError("gen_perm rows of a generator and its inverse do not compose to 1")
    if len(unique_rows(group.elements)[0]) != n:
        raise NumericalContractError("two elements rows are equal")


@dataclass(frozen=True)
class Sectors:
    """Block structure of a quotient over the abelian kernel N of G_k -> G_(k-1).

    Each element factors uniquely as x = n t, with n in N and t the
    transversal element of its coset: the coset's first element in BFS
    order.  Right-regular operators commute with left translations, so
    each maps the sector of a character chi of N (the functions with
    psi(n x) = chi(n) psi(x)) into itself: one block of size |G_k| / |N|
    per character.  For k = 1, or an s that is not prime, N is taken
    trivial and the single block is the whole operator.

    G acts on N by conjugation, n -> g^-1 n g, and so on the characters,
    chi -> chi^g with chi^g(n) = chi(g^-1 n g).  Left translation by g
    maps the chi sector onto the chi^g sector and commutes with the
    operator, so all blocks of one orbit are isospectral (Clifford's
    theorem): a spectrum needs one block per orbit, repeated |O| times.

    transversal[c] is the element index of coset c's representative,
    coset[x] the coset of element x, kernel[x] the position in N of
    x t^-1, chars[j, n] the value of character j on N's element n, and
    orbit[j] the conjugation orbit of character j, orbits numbered by
    their smallest character.
    """

    transversal: np.ndarray
    coset: np.ndarray
    kernel: np.ndarray
    chars: np.ndarray
    orbit: np.ndarray

    @property
    def block_size(self) -> int:
        return len(self.transversal)

    @property
    def count(self) -> int:
        return len(self.chars)

    @property
    def representatives(self) -> np.ndarray:
        """The smallest character of each orbit, in orbit order."""
        return np.unique(self.orbit, return_index=True)[1]

    @property
    def orbit_sizes(self) -> np.ndarray:
        return np.bincount(self.orbit)


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def _row_reduce(rows: np.ndarray, s: int):
    """Pivot columns of the rows' reduced row echelon basis over GF(s), s prime.

    Since the basis is reduced, a row's coordinates in it are its entries
    at the pivot columns.  Also returns the indices of the rows that
    raised the rank, which span the same space.
    """
    basis = np.zeros((0, rows.shape[1]), dtype=np.int64)
    pivots, picked = [], []
    for i, row in enumerate(rows):
        v = row.copy()
        for b, p in zip(basis, pivots):
            v = (v - v[p] * b) % s
        nonzero = np.flatnonzero(v)
        if nonzero.size == 0:
            continue
        p = int(nonzero[0])
        v = v * pow(int(v[p]), -1, s) % s
        basis = np.vstack([(basis - np.outer(basis[:, p], v)) % s, v])
        pivots.append(p)
        picked.append(i)
    return pivots, picked


def _sectors(group: QuotientGroup) -> Sectors:
    s, order = group.s, group.order
    level = group.k - 1 if group.k >= 2 and _is_prime(s) else group.k

    # cosets of N are the fibres over G_level, numbered in BFS order of their first element
    # (at level = k the modulus s^k may not fit the rows' dtype; they are reduced already)
    transversal, coset = unique_rows(group.elements if level == group.k else group.elements % s**level)

    members = np.flatnonzero(coset == 0)  # N is the identity's coset; members[0] = 0
    position = np.full(order, -1, dtype=np.int64)
    position[members] = np.arange(len(members))
    # t = g_t1 ... g_tL has t^-1 = g_tL^-1 ... g_t1^-1: walk every element's
    # transversal word from its last token back to the root, all at once
    inverse = np.array([inverse_token(t) for t in range(4)])
    n = np.arange(order)
    node = transversal[coset]
    live = np.flatnonzero(node)
    while live.size:
        n[live] = group.gen_perm[inverse[group.tokens[node[live]]], n[live]]
        node[live] = group.parents[node[live]]
        live = live[node[live] > 0]
    kernel = position[n]
    if np.any(kernel < 0):
        raise NumericalContractError("x t^-1 left the kernel for some element; group tables are corrupt")

    # n = 1 + s^level X with X mod s; characters read X in a GF(s) basis of its span
    flat = group.elements[members].reshape(len(members), -1).astype(np.int64)
    X = ((flat - flat[0]) // s**level) % s
    pivots, gens = _row_reduce(X, s)
    coords = X[:, pivots]
    if len(members) != s ** len(pivots):
        raise NumericalContractError(
            f"kernel of order {len(members)} is not an elementary abelian group of rank {len(pivots)}"
        )
    # X must be a homomorphism: right multiplication by each basis element b
    # of N translates every X(a) by X(b)
    for b in gens:
        ab = position[group.walk(members, group.word(int(members[b])))]
        if np.any(ab < 0) or np.any(X[ab] != (X + X[b]) % s):
            raise NumericalContractError(
                f"kernel map is not a homomorphism: X(ab) != X(a) + X(b) mod {s} "
                f"for basis element b = {members[b]}"
            )
    digits = np.array(list(itertools.product(range(s), repeat=len(pivots))), dtype=np.int64)
    phase = (digits @ coords.T) % s
    if np.all(2 * phase % s == 0):
        chars = np.where(phase == 0, 1.0, -1.0)
    else:
        chars = np.exp(2j * np.pi * phase / s)
    return Sectors(transversal, coset, kernel, chars, _character_orbits(group, members, position, phase))


def _character_orbits(group: QuotientGroup, members, position, phase) -> np.ndarray:
    """Orbit label of each character under conjugation by A and B, which generate G.

    g^-1 n g is n's word walked from g^-1, then g; the conjugate of
    character j is the row phase[j] read at those positions, looked up in
    phase.  The orbits are the connected components of the graph joining
    each character to its conjugates, numbered in order of their smallest
    character.
    """
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components

    gens = np.array([GEN_A, GEN_B])
    starts = group.gen_perm[[inverse_token(t) for t in gens], 0]
    conj = np.array([group.gen_perm[gens, group.walk(starts, group.word(int(n)))] for n in members])
    conj = position[conj.T]
    if np.any(conj < 0):
        raise NumericalContractError("conjugation by a generator left the kernel; group tables are corrupt")
    table = RowIndex(phase)
    image = np.concatenate([table.find(phase[:, perm]) for perm in conj])
    if np.any(image < 0):
        raise NumericalContractError("a conjugated character is not a row of the character table")
    n = len(phase)
    edges = coo_array((np.ones(image.size), (np.tile(np.arange(n), len(conj)), image)), shape=(n, n))
    return connected_components(edges, directed=False)[1]


def build_quotient(
    p: int,
    q: int,
    s: int,
    k: int = 1,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> QuotientGroup:
    """Enumerate the mod-s^k quotient of the {p, q} rotation group."""
    TessellationParams(p, q)
    if s < 2:
        raise ConfigError("modulus base s must be at least 2")
    if k < 1:
        raise ConfigError("level k must be at least 1")
    m = s**k
    gens = build_generators(p, q)
    d = gens.ctx.d
    tables = mult_tables([gens.token_matrix(t) for t in range(4)], m)
    ident = np.zeros((3, 3 * d), dtype=_storage_dtype(m))
    ident[range(3), range(0, 3 * d, d)] = 1
    found = bfs(
        tables, ident, modulus=m, cap=element_cap, what=f"quotient of {{{p},{q}}} mod {s}^{k}"
    )
    group = QuotientGroup(
        p=p, q=q, s=s, k=k, order=len(found.index),
        elements=found.index.rows, gen_perm=found.gen_perm, parents=found.parents, tokens=found.tokens,
    )

    # torsion audit: the generators should keep their infinite-group orders
    idx_a = group.project((GEN_A,))
    idx_b = group.project((GEN_B,))
    idx_ab = group.project((GEN_A, GEN_B))
    group.torsion = {
        "A": {"expected": p, "order": group.element_order(idx_a)},
        "B": {"expected": q, "order": group.element_order(idx_b)},
        "AB": {"expected": 2, "order": group.element_order(idx_ab)},
    }
    return group
