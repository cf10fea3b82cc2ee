"""Finite quotients of the rotation triangle group.

Reducing the exact matrix entries modulo s^k (coefficient-wise, onto
[0, s^k)) maps the infinite rotation group onto a finite matrix group
G_k over Z_{s^k}[xi].  The family k = 1, 2, ... forms a coherent tower
of quotients whose regular representations converge spectrally to the
infinite lattice.

G_1 is enumerated by triangle.bfs, the engine that also builds
word-metric balls: each layer is one batched matmul with the generator
tables mod s, deduplicated through sorted 64-bit row keys confirmed row
by row.  The same products fill the right-multiplication permutations
gen_perm, and every word the operator layer applies is a walk through
them (QuotientGroup.walk).  A group holds only these index tables and
the lift coordinates below; its discovery tree is derived from gen_perm
(_tree), the element rows are recomputed from the tree when something
reads them (QuotientGroup.elements), and the cache holds no rows.

For k >= 2 the kernel N of G_k -> G_(k-1) is abelian, because
(1 + s^(k-1) X)(1 + s^(k-1) Y) = 1 + s^(k-1) (X + Y) mod s^k.  Each
level above G_1 is therefore lifted from the one below rather than
enumerated (_lift): G_(k-1)'s elements are lifted mod s^k along its
discovery tree, the Schreier cocycle of that lift generates N, and
G_k's tables follow from G_(k-1)'s and the cocycle, numbered as a BFS
over G_k would number them, and keeps each element's coordinates (t, n)
as QuotientGroup.lift.  The characters of N split every right-regular
operator into |N| blocks of size |G_(k-1)| (twisted boundary
conditions), and the blocks of one orbit of characters under
conjugation by G share their spectrum; see QuotientGroup.sectors.
The reflection A -> A^-1, B -> B^-1 is an automorphism of every level
(QuotientGroup.reflection); single-site KPM runs on its orbits when it
fixes the model, and composed with complex conjugation it makes the
character blocks it fixes real (Sectors).
"""

from __future__ import annotations

import contextlib
import json
import os
import zipfile
import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import __version__
from .errors import ConfigError, NumericalContractError, ResourceLimitError
from .triangle import (
    ELEMENT_CAP,
    GEN_A,
    GEN_B,
    DiscoveryTree,
    RowIndex,
    TessellationParams,
    bfs,
    build_generators,
    inverse_token,
    mult_tables,
    power_table,
    product_dtype,
    right_products,
    row_keys,
    unique_rows,
)

__all__ = ["QuotientGroup", "Sectors", "build_quotient"]

# version 1 files carry no version field; 2 held inv and left_perm, 3 no lift, 4 the rows, 5 tree and torsion
CACHE_VERSION = 6


def _storage_dtype(m: int):
    if m <= 256:
        return np.uint8
    if m <= 65536:
        return np.uint16
    return np.int64


def _index_dtype(order: int):
    """int32 for the element indices of a quotient whose order allows it, else int64."""
    return np.int32 if order < 2**31 else np.int64


@dataclass
class QuotientGroup(DiscoveryTree):
    """Finite quotient with generator-action permutations.

    gen_perm[t][i] is the index of (element i) * (generator t), with t
    running over A, A^-1, B, B^-1.  Element i is n L(t) with
    lift[i] = t |N| + n, |N| = kernel_order (see _lift; at k = 1 lift is
    the identity and |N| = 1).  Construction narrows both tables to int32
    (int64 from order 2^31 on), so built, lifted and loaded groups hold
    the same arrays, and derives the discovery tree from gen_perm (_tree);
    everything else is computed from them on first use.
    """

    p: int
    q: int
    s: int
    k: int
    gen_perm: np.ndarray          # (4, order), _index_dtype(order)
    lift: np.ndarray              # (order,) coordinates t * kernel_order + n, _index_dtype(order)
    kernel_order: int             # |ker(G_k -> G_(k-1))|

    def __post_init__(self):
        if np.ndim(self.gen_perm) != 2 or len(self.gen_perm) != 4:
            raise NumericalContractError(f"gen_perm has shape {np.shape(self.gen_perm)}, expected (4, order)")
        index = _index_dtype(self.order)
        self.gen_perm, self.lift = (_narrow(getattr(self, name), index, name) for name in ("gen_perm", "lift"))
        self.parents, self.tokens = _tree(self.gen_perm)

    @property
    def order(self) -> int:
        return self.gen_perm.shape[1]

    @property
    def modulus(self) -> int:
        return self.s**self.k

    @cached_property
    def torsion(self) -> dict:
        """Orders of A, B and AB here against the rotation group's p, q and 2, computed on first use."""
        words = {"A": ((GEN_A,), self.p), "B": ((GEN_B,), self.q), "AB": ((GEN_A, GEN_B), 2)}
        return {name: {"expected": e, "order": self.element_order(self.project(w))} for name, (w, e) in words.items()}

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
        word, j, order = self.word(i), i, 1
        while j != 0:
            j, order = self.walk(j, word), order + 1
            if order > self.order:
                raise RuntimeError("order exceeded group size; table corrupt")
        return order

    @cached_property
    def elements(self) -> np.ndarray:
        """(order, 3, 3d) canonical mod-s^k coefficients of every element, _storage_dtype(s^k).

        Computed from the discovery tree on first use and never saved;
        equal rows raise NumericalContractError (see _rows).
        """
        return _rows(self)

    @cached_property
    def sectors(self) -> "Sectors":
        """Character sectors of ker(G_k -> G_(k-1)) and their conjugation orbits.

        Read from lift (see _sectors), computed on first use and never saved.
        """
        return _sectors(self)

    @cached_property
    def reflection(self) -> np.ndarray:
        """Index of sigma(x) for every element x, sigma the automorphism A -> A^-1, B -> B^-1.

        sigma is conjugation by a reflection of the triangle group, so it
        preserves the relations A^p = B^q = (AB)^2 = 1 and acts on every
        quotient.  It is read from gen_perm and its discovery tree alone
        (see _reflection), computed on first use and never saved.
        """
        return _reflection(self)

    def reduce_to(self, other: "QuotientGroup") -> np.ndarray:
        """Index map of the natural surjection onto a coarser quotient; its zeros are the kernel.

        other must be the same (p, q, s) at smaller k.  f(x t) = f(x) t is
        a tree fill from other's gen_perm, with no element rows, then
        checked for every x and t in one linear pass (NumericalContractError).
        """
        if (other.p, other.q, other.s) != (self.p, self.q, self.s) or other.k > self.k:
            raise ConfigError("target is not a coarser quotient of the same family")
        out = self.fill(0, lambda v, t: other.gen_perm[t, v])
        for t, row in enumerate(self.gen_perm):
            if np.any(out[row] != other.gen_perm[t][out]):
                raise NumericalContractError(
                    f"the map onto level {other.k} breaks f(x g) = f(x) g for generator {t}; group tables are corrupt"
                )
        return out

    def save(self, path: str) -> None:
        """Write the tables to path (".npz" is appended when missing), atomically.

        The file is written under a temporary name in the same directory
        and renamed into place, so a concurrent reader sees either no
        file or a complete one.
        """
        if not path.endswith(".npz"):
            path += ".npz"
        header = json.dumps({"version": CACHE_VERSION, "hyperbulk": __version__, **{k: getattr(self, k) for k in _HEADER}})
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
                if header.get("version") != CACHE_VERSION:
                    raise NumericalContractError(
                        f"format version {header.get('version')!r}, expected {CACHE_VERSION}; "
                        "delete the file or use another --cache-dir"
                    )
                arrays = {name: data[name] for name in _CACHE_ARRAYS}
            group = cls(**{key: header[key] for key in _HEADER}, **arrays)
            _validate(group)
        except (OSError, EOFError, ValueError, KeyError, TypeError, zipfile.BadZipFile, zlib.error,
                NumericalContractError) as exc:
            raise NumericalContractError(f"quotient cache {path} is unusable: {exc}") from exc
        return group


_CACHE_ARRAYS = ("gen_perm", "lift")
_HEADER = ("p", "q", "s", "k", "kernel_order")


def _tree(perm: np.ndarray):
    """The discovery tree (parents, tokens) of BFS-numbered tables, -1 at the root.

    A BFS reaches i >= 1 first from its smallest neighbour j = i g_t^-1,
    which lies in the layer before all its others, and by the first such
    t.  Row selections and comparisons only: corrupt entries reach
    _validate's checks as they are.
    """
    parents = perm.min(axis=0)  # the rows i g_t^-1 are the four rows in another order
    tokens = np.full(parents.shape, 3, dtype=np.int8)
    for t in (2, 1, 0):  # the first t whose row holds the minimum, by arithmetic: a boolean mask is slower
        tokens -= (tokens - t) * (perm[inverse_token(t)] == parents)
    parents[:1], tokens[:1] = -1, -1
    return parents, tokens


def _narrow(table: np.ndarray, dtype, name: str) -> np.ndarray:
    """An integer table in dtype, copied only when it is wider; entries outside dtype raise.

    Tables of another kind are left for _validate to refuse.
    """
    if not np.issubdtype(table.dtype, np.integer) or table.dtype == dtype:
        return table
    info = np.iinfo(dtype)
    if table.size and (table.min() < info.min or table.max() > info.max):
        raise NumericalContractError(f"{name} has entries outside the range of {np.dtype(dtype).name}")
    return table.astype(dtype)


def _validate(group: QuotientGroup) -> None:
    """Check a loaded quotient's tables; raise NumericalContractError on a defect.

    Every gen_perm row is a permutation undone by the row of the inverse
    generator, the tables are numbered breadth-first (their tree passes
    layers, siblings in token order), and lift is a permutation.  Every
    check is a linear pass.  The tables must also be of the header's
    level k: exactly at k = 1 is the kernel trivial and lift the
    identity, and above it the |N| elements of coset 0, walked mod s^k
    along their tree words, are distinct and 1 mod s^(k-1), which costs
    |N| short walks (and the generator tables mod s^k, which level 1
    never builds).  Construction has narrowed the tables and checked
    gen_perm's shape; the element rows are checked in _rows.
    """
    n = group.order
    if group.lift.shape != (n,):
        raise NumericalContractError(f"lift has shape {group.lift.shape}, expected {(n,)}")
    for name in _CACHE_ARRAYS:
        if not np.issubdtype(getattr(group, name).dtype, np.integer):
            raise NumericalContractError(f"{name} is not an integer table")
    if type(group.kernel_order) is not int or group.kernel_order < 1 or n % group.kernel_order:
        raise NumericalContractError(f"kernel order {group.kernel_order!r} does not divide the order {n}")
    perm = group.gen_perm
    seen = np.empty(n, dtype=bool)
    for what, table in (("a gen_perm row", perm), ("lift", group.lift[None])):
        for row in table:
            # n entries in [0, n) that hit every index are a permutation
            seen[:] = False
            if row.min() >= 0 and row.max() < n:
                seen[row] = True
            if not seen.all():
                raise NumericalContractError(f"{what} is not a permutation")
    ident = np.arange(n, dtype=perm.dtype)
    for t, row in enumerate(perm):
        if np.any(row[perm[inverse_token(t)]] != ident):
            raise NumericalContractError("gen_perm rows of a generator and its inverse do not compose to 1")
    group.layers  # tables that are not numbered breadth-first raise here, or in the sibling check
    if np.any((group.parents[2:] == group.parents[1:-1]) & (group.tokens[2:] <= group.tokens[1:-1])):
        raise NumericalContractError("the tables are not numbered breadth-first: two siblings are out of token order")
    if (group.k == 1) != (group.kernel_order == 1 and np.array_equal(group.lift, ident)):
        raise NumericalContractError(f"level {group.k} with a kernel of order {group.kernel_order}: exactly level 1 "
                                     "has a trivial kernel and the identity lift")
    if group.kernel_order == 1:
        return  # level 1: N is the identity alone, whose walk checks nothing
    # N's rows mod s^k (coset 0), its tree words walked side by side from the identity
    tables, one = _tables(group)
    words = [group.word(int(x)) for x in np.flatnonzero(group.lift < group.kernel_order)]
    kernel = np.repeat(one[None], len(words), axis=0)
    for j in range(max(map(len, words))):
        at = [i for i, w in enumerate(words) if len(w) > j]
        kernel[at] = right_products(kernel[at], tables, group.modulus)[range(len(at)), [words[i][j] for i in at]]
    step = group.s ** (group.k - 1)
    if len({row.tobytes() for row in kernel}) < len(words) or np.any(kernel % step != one % step):
        raise NumericalContractError(f"the kernel's elements are not distinct mod {group.s}^{group.k} and 1 mod "
                                     f"{group.s}^{group.k - 1}; the tables are not those of level {group.k}")


def _rows(group: QuotientGroup) -> np.ndarray:
    """Element rows along the discovery tree: row(i) = row(parents[i]) g_tokens[i] mod s^k.

    The rows are a tree fill (_tree_rows) with the exact generator tables
    mod s^k.  They must then be distinct: one sort of a 64-bit key per
    element, and an exact compare of the rows whose keys tie.  A tree
    that is not breadth-first, or two equal rows, raise
    NumericalContractError.
    """
    rows = _tree_rows(group, *_tables(group), group.modulus)
    flat = rows.reshape(group.order, -1)
    keys = row_keys(flat)
    sorted_keys = np.sort(keys)
    tied = sorted_keys[1:][sorted_keys[1:] == sorted_keys[:-1]]
    if tied.size:
        # distinct rows can share a key: only an exact compare of the rows that do refuses
        members = flat[np.isin(keys, tied)]
        if len(np.unique(members, axis=0)) != len(members):
            raise NumericalContractError("two elements rows are equal; group tables are corrupt")
    return rows


def _tree_rows(tree: DiscoveryTree, tables, ident: np.ndarray, m: int) -> np.ndarray:
    """Element rows mod m as a tree fill from ident: one table product per layer and token."""

    def step(rows, tokens):
        out = np.empty_like(rows)
        for t, table in enumerate(tables):
            at = np.flatnonzero(tokens == t)
            out[at] = right_products(rows[at], [table], m)[:, 0]
        return out

    return tree.fill(ident, step)


def _tables(group: QuotientGroup):
    """The exact generator tables mod s^k, and the identity row (see _identity)."""
    gens = build_generators(group.p, group.q)
    return mult_tables([gens.token_matrix(t) for t in range(4)], group.modulus), _identity(gens.ctx.d, group.modulus)


def _identity(d: int, m: int) -> np.ndarray:
    """The identity matrix as a (3, 3d) row of coefficients mod m, in _storage_dtype(m)."""
    ident = np.zeros((3, 3 * d), dtype=_storage_dtype(m))
    ident[range(3), range(0, 3 * d, d)] = 1
    return ident


def _reflection(group: QuotientGroup) -> np.ndarray:
    """sigma as a tree fill: sigma(e) = e and sigma(x t) = sigma(x) t^-1.

    The result is then checked in linear time: sigma(x t) = sigma(x) t^-1
    for every element x and generator t makes sigma a homomorphism, and
    sigma sigma = 1 a bijection.  A tree that is not breadth-first, or a
    sigma that fails its check, raises NumericalContractError.
    """
    n, perm = group.order, group.gen_perm
    inverse = np.array([inverse_token(t) for t in range(4)])
    sigma = group.fill(perm.dtype.type(0), lambda v, t: perm[inverse[t], v])
    for t in range(len(inverse)):
        if np.any(perm[inverse[t]][sigma] != sigma[perm[t]]):
            raise NumericalContractError(
                f"sigma(x g) != sigma(x) g^-1 for generator {t}: A -> A^-1, B -> B^-1 is not an automorphism "
                "of these tables"
            )
    if np.any(sigma[sigma] != np.arange(n, dtype=sigma.dtype)):
        raise NumericalContractError("the reflection A -> A^-1, B -> B^-1 is not an involution of these tables")
    return sigma


@dataclass(frozen=True)
class Sectors:
    """Block structure of a quotient over the abelian kernel N of G_k -> G_(k-1).

    Each element factors uniquely as x = n t, with n in N and t the
    transversal element of its coset: the lift L(t) of element t of
    G_(k-1), which is also the coset's first element in BFS order.
    Right-regular operators commute with left translations, so each maps
    the sector of a character chi of N (the functions with
    psi(n x) = chi(n) psi(x)) into itself: one block of size |G_k| / |N|
    per character.  For k = 1, or an s that is not prime, N is taken
    trivial and the single block is the whole operator.

    G acts on N by conjugation, n -> g^-1 n g, and so on the characters,
    chi -> chi^g with chi^g(n) = chi(g^-1 n g).  Left translation by g
    maps the chi sector onto the chi^g sector and commutes with the
    operator, so all blocks of one orbit are isospectral (Clifford's
    theorem): a spectrum needs one block per orbit, repeated |O| times.
    On N's base-s coordinates conjugation by g is an integer matrix M_g,
    and character a (exp(2 pi i a.n / s) on n) goes to a M_g mod s.

    The reflection sigma: A -> A^-1, B -> B^-1 maps N onto itself, so
    the antiunitary C = K sigma, (C psi)(x) = conj(psi(sigma(x))), maps
    the chi sector onto the sector of conj(chi sigma).  C commutes with a
    model whose weight at sigma(y) is the conjugate of its weight at y,
    and C^2 = 1; on a sector that C fixes such a model has a real
    symmetric form (see operators.BlockOperator.real_block).  sigma pairs
    the cosets, c <-> c' = coset of sigma(t_c), and C reads
    (C v)_c = conj(chi(m_c)) conj(v_c') on a block vector v, with
    m_c = sigma(t_c) t_c'^-1 in N.

    transversal[c] is the element index of coset c's representative,
    coset[x] the coset of element x, kernel[x] the position in N of
    x t^-1, chars[j, n] the value of character j on N's element n,
    orbit[j] the conjugation orbit of character j, orbits numbered by
    their smallest character, mirror[c] the coset c', mirror_kernel[c]
    the position in N of m_c, and fixed[j] whether C fixes character j,
    conj(chi_j(sigma(n))) = chi_j(n) on N.
    """

    transversal: np.ndarray
    coset: np.ndarray
    kernel: np.ndarray
    chars: np.ndarray
    orbit: np.ndarray
    mirror: np.ndarray
    mirror_kernel: np.ndarray
    fixed: np.ndarray

    @property
    def block_size(self) -> int:
        return len(self.transversal)

    @property
    def count(self) -> int:
        return len(self.chars)

    @property
    def representatives(self) -> np.ndarray:
        """One character of each orbit, in orbit order: the smallest that C fixes, else the smallest."""
        key = np.arange(self.count) + self.count * ~self.fixed
        best = np.full(self.orbit.max() + 1, 2 * self.count)
        np.minimum.at(best, self.orbit, key)
        return best % self.count

    @property
    def orbit_sizes(self) -> np.ndarray:
        return np.bincount(self.orbit)


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def _sectors(group: QuotientGroup) -> Sectors:
    """Sectors read from lift: element x = (t, n) = n L(t) lies in coset t, and x L(t)^-1 = n.

    N's elements are numbered in _span's basis, every radix s (s prime),
    so n's base-s digits are its coordinates and character a takes
    exp(2 pi i a.n / s) on n.  One linear pass checks
    (t, n) g = (t g, n + c(t, g)) for every x and generator g, with t g
    and c(t, g) read at (t, 0); with one (t, 0) per coset, that makes the
    coordinates a bijection and n a homomorphism on N.  An automorphism
    that maps N's basis e_i = (0, s^i) into N is then the integer matrix
    M whose column i holds e_i's image, and takes character a to a M
    mod s: conjugation by A and B gives the orbits (_character_orbits),
    the reflection sigma the characters C fixes, a M_sigma + a = 0.
    sigma must also pair the cosets by an involution c <-> c' whose
    kernel parts satisfy m_c' = sigma(m_c)^-1, so that C's phases
    conj(chi(m_c)) agree on a pair for every character C fixes.
    Coordinates or a reflection that fail raise NumericalContractError.
    A composite s takes N trivial.
    """
    s, order = group.s, group.order
    lift, size = (group.lift, group.kernel_order) if _is_prime(s) else (np.arange(order), 1)
    places = round(np.log(size) / np.log(s))
    if s**places != size:
        raise NumericalContractError(f"kernel of order {size} is not an elementary abelian group of exponent {s}")
    coset, n = np.divmod(lift, size)
    transversal = np.flatnonzero(n == 0)
    count = order // size
    if lift[0] != 0 or len(transversal) != count or np.any(coset[transversal] != np.arange(count)):
        raise NumericalContractError("the lift's coordinates do not give one element (t, 0) per coset")
    steps = np.divmod(lift[group.gen_perm[:, transversal]], size)  # (t g, c(t, g)) for every t and g
    for t, row in enumerate(group.gen_perm):
        to_coset, to_n = np.divmod(lift[row], size)
        if np.any(to_coset != steps[0][t, coset]) or np.any(to_n != _digit_sum(n, steps[1][t, coset], s, size)):
            raise NumericalContractError(
                f"the lift's coordinates break (t, n) g = (t g, n + c(t, g)) for generator {t}; "
                "group tables are corrupt"
            )

    members = np.flatnonzero(coset == 0)  # N in BFS order; members[0] = 0
    rank = np.empty(size, dtype=np.int64)
    rank[n[members]] = np.arange(size)
    kernel = rank[n]
    digits = np.arange(size)[:, None] // s ** np.arange(places) % s
    phase = digits @ digits[n[members]].T % s
    if np.all(2 * phase % s == 0):
        chars = np.where(phase == 0, 1.0, -1.0)
    else:
        chars = np.exp(2j * np.pi * phase / s)
    basis = members[rank[s ** np.arange(places)]]  # e_i, whose coordinates are unit vectors
    orbit = _character_orbits(group, basis, np.where(coset == 0, n, -1), digits)

    sigma = group.reflection
    mirror, image = coset[sigma[transversal]], n[sigma[transversal]]  # c' and m_c's coordinates
    if np.any(coset[sigma[basis]] != 0) or np.any(mirror[mirror] != np.arange(count)):
        raise NumericalContractError("the reflection does not map the kernel onto itself and pair its cosets")
    if np.any(_digit_sum(image[mirror], n[sigma[members[rank[image]]]], s, size) != 0):
        raise NumericalContractError("the reflection's kernel parts break m_c' = sigma(m_c)^-1: the phases of "
                                     "a coset pair do not match")
    fixed = np.all((digits @ digits[n[sigma[basis]]].T + digits) % s == 0, axis=1)
    return Sectors(transversal, coset, kernel, chars, orbit, mirror, rank[image], fixed)


def _digit_sum(a: np.ndarray, b: np.ndarray, s: int, size: int) -> np.ndarray:
    """Index of the digit-wise sum mod s of a and b, read as base-s numbers below size."""
    out, place = np.zeros_like(a), 1
    while place < size:
        out += (a // place + b // place) % s * place
        place *= s
    return out


def _character_orbits(group: QuotientGroup, basis, coordinates, digits) -> np.ndarray:
    """Orbit label of each character under conjugation by A and B, which generate G.

    g^-1 e_i g, e_i's word walked from g^-1 and then g, must lie in N
    (coordinates[x] >= 0), and its coordinates are column i of M_g.  The
    orbits are the closures of the maps a -> a M_g mod s on the
    characters, numbered in order of their smallest character.
    """
    s, radix = group.s, group.s ** np.arange(digits.shape[1])
    maps = []
    for g in (GEN_A, GEN_B):
        start = group.gen_perm[inverse_token(g), 0]
        conj = [coordinates[group.gen_perm[g, group.walk(start, group.word(int(x)))]] for x in basis]
        if min(conj, default=0) < 0:
            raise NumericalContractError("conjugation by a generator left the kernel; group tables are corrupt")
        maps.append(digits @ digits[conj].T % s @ radix)
    label = np.arange(len(digits))
    while True:
        new = np.minimum.reduce([label, *(label[image] for image in maps)])
        if np.array_equal(new, label):
            return np.unique(label, return_inverse=True)[1]
        label = new


def build_quotient(
    p: int,
    q: int,
    s: int,
    k: int = 1,
    element_cap: int = ELEMENT_CAP,
) -> QuotientGroup:
    """The mod-s^k quotient of the {p, q} rotation group.

    G_1 is enumerated by triangle.bfs and every level above is lifted
    from the one below (_lift).  The tables equal those of a bfs over the
    mod-s^k generator tables, element for element.
    """
    TessellationParams(p, q)
    if s < 2:
        raise ConfigError("modulus base s must be at least 2")
    if k < 1:
        raise ConfigError("level k must be at least 1")
    gens = build_generators(p, q)
    d = gens.ctx.d
    tables = mult_tables([gens.token_matrix(t) for t in range(4)])
    product_dtype(3 * d * (s**k - 1) ** 2)  # refuse a modulus whose table products wrap int64 before any level
    what = f"quotient of {{{p},{q}}} mod {s}^{k}"
    found = bfs([t % s for t in tables], _identity(d, s), modulus=s, cap=element_cap, what=what)
    group = QuotientGroup(p=p, q=q, s=s, k=1, gen_perm=found.gen_perm, lift=np.arange(len(found.index)),
                          kernel_order=1)
    if k > 1:
        base = _Base(group, found.index.rows, tables, (power_table(gens.ctx) % s).astype(np.int64))
        for _ in range(2, k + 1):
            group = _lift(group, base, element_cap, what)
    return group


@dataclass
class _Base:
    """G_1 with what every lift reads: its rows from bfs, the exact generator tables and xi's powers mod s."""

    group: QuotientGroup
    rows: np.ndarray  # (|G_1|, 3, 3d), _storage_dtype(s)
    tables: list
    hankel: np.ndarray  # power_table mod s

    @cached_property
    def inverse(self) -> np.ndarray:
        """Index of each element's inverse.

        y = g_t1 ... g_tL has y^-1 = g_tL^-1 ... g_t1^-1: every word is
        walked from its last token back to the root, all at once.
        """
        g, inverse = self.group, np.array([inverse_token(t) for t in range(4)])
        out, node = np.zeros(g.order, dtype=np.int64), np.arange(g.order)
        live = np.flatnonzero(node)
        while live.size:
            out[live] = g.gen_perm[inverse[g.tokens[node[live]]], out[live]]
            node[live] = g.parents[node[live]]
            live = live[node[live] > 0]
        return out

    @cached_property
    def right(self) -> np.ndarray:
        """(|G_1|, 3d, 3d) tables of right multiplication by each element, mod s."""
        g, d = self.group, len(self.hankel)
        rows = self.rows.reshape(g.order, 3, 3, d).astype(np.int64)  # [v, l, j, t]
        tables = np.tensordot(rows, self.hankel, axes=([3], [1]))     # [v, l, j, r, s]
        tables = tables.transpose(0, 1, 3, 2, 4).reshape(g.order, 3 * d, 3 * d) % g.s
        return tables.astype(self.rows.dtype)

    def times(self, rows: np.ndarray, v: np.ndarray) -> np.ndarray:
        """rows[i] times element v[i] mod s, in the rows' dtype: one matmul per distinct v.

        Float64 sums of 3d products of entries below s are exact.
        """
        shape, width = rows.shape, rows.shape[-1]
        rows, v = rows.reshape(-1, 3, width), v.ravel()
        by_v = np.argsort(v, kind="stable")
        bounds = np.searchsorted(v[by_v], np.arange(self.group.order + 1))
        out = np.empty_like(rows)
        for w in np.flatnonzero(np.diff(bounds)):
            at = by_v[bounds[w] : bounds[w + 1]]
            prod = rows[at].reshape(-1, width) @ self.right[w].astype(np.float64)
            out[at] = (prod.astype(np.int64) % self.group.s).reshape(-1, 3, width)
        return out.reshape(shape)


def _lift(below: QuotientGroup, base: _Base, cap: int, what: str) -> QuotientGroup:
    """G_k from G_(k-1) = below, with no table product or key lookup over G_k.

    Every element of G_k is n L(t): L(t) lifts element t of G_(k-1) to a
    matrix mod s^k along below's discovery tree, and n = 1 + s^(k-1) X_n
    lies in the abelian kernel N.  The Schreier cocycle
    c(t, g) = L(t) g L(t g)^-1 is read as X mod s, N is the additive
    closure of its values, and (t, n) g = (t g, n + c(t, g)).  An integer
    BFS over those tables numbers G_k as bfs numbers it from its rows;
    its visit order t |N| + n is kept as G_k's lift coordinates.

    L is a tree fill of below (_tree_rows), its differences are taken one
    BFS layer at a time.  Returns G_k, whose element rows are left to
    QuotientGroup.elements.  A lift or cocycle that fails its check raises
    NumericalContractError; more than cap elements ResourceLimitError.
    """
    s, k = below.s, below.k + 1
    m, step = s**k, s ** (k - 1)
    count, width = below.order, base.rows.shape[2]
    tables = [t % m for t in base.tables]
    lift = _tree_rows(below, tables, _identity(width // 3, m), m)
    # D(t, g) = (L(t) g - L(t g)) / s^(k-1); then X(t, g) = D(t, g) L(t g)^-1 mod s
    shift = np.empty((count, 4, 3, width), dtype=base.rows.dtype)
    signed = np.min_scalar_type(-m)
    for lo, hi in zip(below.layers[:-1], below.layers[1:]):
        diff = right_products(lift[lo:hi], tables, m).astype(signed) - lift[below.gen_perm[:, lo:hi].T]
        diff %= m
        if np.any(diff % step):
            raise NumericalContractError(
                f"lift of {what}: L(t) g != L(t g) mod {s}^{k - 1}; the tables of level {k - 1} are corrupt"
            )
        shift[lo:hi] = diff // step

    targets = below.reduce_to(base.group)[below.gen_perm.T]  # the images in G_1 of every t g
    values = base.times(shift, base.inverse[targets]).reshape(-1, 3, width)
    first, labels = unique_rows(values)
    kernel, gens, radices = _span(values[first], s)
    size = len(kernel)
    if count * size > cap:
        raise ResourceLimitError(
            f"{what} exceeded the element cap {cap} (level {k} has {count} x {size} = {count * size} "
            f"elements); raise element_cap to continue"
        )
    index = RowIndex(kernel)
    distinct = index.find(values[first])  # position in N of each distinct cocycle value
    c = distinct[labels].reshape(count, 4)
    # X_n L(t) mod s depends on t only through its image v in G_1: image[n, v] = X_n v
    n1 = base.group.order
    image = np.zeros((1, n1, 3, width), dtype=kernel.dtype)
    products = base.times(np.repeat(gens, n1, axis=0), np.tile(np.arange(n1), len(gens)))
    for g, o in zip(products.reshape(-1, n1, 3, width), radices):
        image = _extend(image, g, o, s)
    if np.any(image[c, targets] != shift):
        raise NumericalContractError(
            f"cocycle of {what}: L(t) g != (1 + s^{k - 1} X) L(t g) mod {s}^{k} for some pair (t, g)"
        )
    del values, shift, image, lift

    # (t, n) g = (t g, n + c(t, g)); translation by each distinct value adds one generator of N at a time
    order = count * size
    index_dtype = _index_dtype(order)
    add = index.find(_mod_sum(kernel[None], gens[:, None], s).reshape(-1, 3, width)).reshape(len(gens), size)
    digits = distinct[:, None] // np.cumprod([1, *radices[:-1]]) % radices
    translate = np.tile(np.arange(size, dtype=index_dtype), (len(distinct), 1))
    for b, o in enumerate(radices):
        for j in range(1, o):
            rows = np.flatnonzero(digits[:, b] >= j)
            translate[rows] = add[b][translate[rows]]
    perm = translate[labels.reshape(count, 4).T]
    perm += (below.gen_perm.astype(index_dtype) * size)[:, :, None]
    visit, gen_perm = _renumber(perm.reshape(4, order))
    del perm
    if len(visit) != order:
        raise NumericalContractError(
            f"lift of {what} reaches {len(visit)} of its {order} elements from the identity"
        )
    return QuotientGroup(p=below.p, q=below.q, s=s, k=k, gen_perm=gen_perm, lift=visit, kernel_order=size)


def _renumber(perm: np.ndarray):
    """Breadth-first numbering from 0 of the integer tables perm, as bfs numbers rows.

    Returns (visit, gen_perm): visit[i] is the old index of new element
    i, and gen_perm holds the tables in the new numbering, written over
    perm's leading columns.  visit is shorter than perm's rows when 0
    does not reach them all.  Indices stay in perm's dtype.
    """
    label = np.full(perm.shape[1], -1, dtype=perm.dtype)
    label[0], visit, hi = 0, [np.zeros(1, dtype=perm.dtype)], 1
    while len(visit[-1]):
        cand = perm[:, visit[-1]].T.ravel()  # (frontier position, token) order
        miss = np.flatnonzero(label[cand] < 0)
        # the first occurrence of each unvisited target is a new element
        new = cand[miss[np.sort(np.unique(cand[miss], return_index=True)[1])]]
        label[new] = np.arange(hi, hi + len(new))
        visit.append(new)
        hi += len(new)
    visit = np.concatenate(visit)
    for row in perm:
        row[: len(visit)] = label[row[visit]]
    return visit, perm[:, : len(visit)]


def _mod_sum(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """(a + b) mod m for entries in [0, m), in a's dtype; widened only where the sum could wrap."""
    out = np.add(a, b, dtype=a.dtype if 2 * (m - 1) <= np.iinfo(a.dtype).max else np.int64)
    out -= np.asarray(m, dtype=out.dtype) * (out >= m)
    return out.astype(a.dtype, copy=False)


def _extend(rows: np.ndarray, g: np.ndarray, o: int, s: int) -> np.ndarray:
    """The rows + j g mod s for j = 0, ..., o - 1, stacked in blocks by j."""
    blocks = [rows]
    for _ in range(1, o):
        blocks.append(_mod_sum(blocks[-1], g, s))
    return np.concatenate(blocks)


def _span(values: np.ndarray, s: int):
    """Additive closure mod s of the values rows, built generator by generator.

    Returns (rows, gens, radices).  radices[b] is the order of gens[b]
    modulo the span of the generators before it, and
    rows[sum_b j_b R_b] = sum_b j_b gens[b] mod s for digits j_b < radices[b],
    where R_b is the product of the radices before b.
    """
    rows = np.zeros((1, *values.shape[1:]), dtype=values.dtype)
    gens, radices = [], []
    while True:
        index = RowIndex(rows)
        missing = np.flatnonzero(index.find(values) < 0)
        if not missing.size:
            return rows, np.array(gens, dtype=values.dtype).reshape(-1, *values.shape[1:]), radices
        g = values[missing[0]]
        # j g for j = 1, ..., s: the first one in the span gives the radix (s g = 0 always is)
        hits = index.find(_extend(g[None], g, s, s)) >= 0
        if not hits.any():
            raise NumericalContractError(f"a cocycle value has entries outside [0, {s})")
        o = 1 + int(np.argmax(hits))
        gens.append(g)
        radices.append(o)
        rows = _extend(rows, g, o, s)
