"""Hyperbolic {p,q} triangle groups as exact 3x3 matrices over Z[xi].

The full triangle group is generated by three reflections s_x, s_y, s_z
acting on a rank-3 lattice equipped with the Coxeter bilinear form; the
rotation subgroup is generated by A = s_x s_y (order p) and B = s_y s_z
(order q), with (AB)^2 = 1.  All matrix entries live in Z[xi_n] for a
single n = ring_index(p, q), so group elements compare exactly.

bfs is the one enumeration engine: word-metric balls (exact int64 rows,
stopped at a radius) and finite quotients (rows mod s^k, run to
closure) both grow layer by layer through batched table products and a
RowIndex of sorted 64-bit row keys, each key match confirmed by a full
row compare.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import ConfigError, NumericalContractError, ResourceLimitError
from .ring import RingContext, RingElem, make_context, rescaled_chebyshev

__all__ = [
    "GEN_A",
    "GEN_A_INV",
    "GEN_B",
    "GEN_B_INV",
    "TOKEN_CHARS",
    "inverse_token",
    "inverse_word",
    "word_str",
    "parse_word",
    "TessellationParams",
    "ring_index",
    "GroupMatrix",
    "reflection_generators",
    "rotation_generators",
    "Generators",
    "build_generators",
    "word_to_matrix",
    "power_table",
    "mult_tables",
    "product_dtype",
    "right_products",
    "row_keys",
    "unique_rows",
    "RowIndex",
    "DiscoveryTree",
    "ELEMENT_CAP",
    "bfs",
    "Ball",
    "ball_enumerate",
    "export_ball_jsonl",
]

# Generator tokens, in the fixed enumeration order used everywhere
GEN_A, GEN_A_INV, GEN_B, GEN_B_INV = 0, 1, 2, 3
TOKEN_CHARS = "aAbB"
_INVERSE = (GEN_A_INV, GEN_A, GEN_B_INV, GEN_B)


def inverse_token(t: int) -> int:
    return _INVERSE[t]


def inverse_word(word: tuple) -> tuple:
    return tuple(_INVERSE[t] for t in reversed(word))


def word_str(word: tuple) -> str:
    """Encode a word over {A, A^-1, B, B^-1} as 'a', 'A', 'b', 'B' chars."""
    return "".join(TOKEN_CHARS[t] for t in word)


def parse_word(s: str) -> tuple:
    try:
        return tuple(TOKEN_CHARS.index(ch) for ch in s)
    except ValueError:
        raise ConfigError(f"invalid word string {s!r}; alphabet is 'aAbB'") from None


@dataclass(frozen=True)
class TessellationParams:
    """Schläfli parameters {p, q} of a hyperbolic tessellation."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 3 or self.q < 3:
            raise ConfigError(f"need p, q >= 3, got p={self.p}, q={self.q}")
        # hyperbolic iff 1/p + 1/q < 1/2, checked in integers
        if 2 * (self.p + self.q) >= self.p * self.q:
            raise ConfigError(
                f"{{{self.p},{self.q}}} is not hyperbolic: "
                f"1/p + 1/q must be below 1/2"
            )


def ring_index(p: int, q: int) -> int:
    """Smallest n such that both 2cos(pi/p) and 2cos(pi/q) lie in Z[xi_n]."""
    if p < 3 or q < 3:
        raise ConfigError(f"need p, q >= 3, got p={p}, q={q}")
    if q == 3 or p == q:
        return 2 * p
    if p == 3:
        return 2 * q
    return 2 * p * q


def _cosine_pair(p: int, q: int, ctx: RingContext) -> tuple[RingElem, RingElem]:
    """(2cos(pi/p), 2cos(pi/q)) as exact elements of Z[xi_n]."""
    if q == 3 or p == q:
        a = ctx.xi()
        b = a if p == q else ctx.one()
    elif p == 3:
        a = ctx.one()
        b = ctx.xi()
    else:
        # 2cos(pi/p) = P_q(xi_2pq) and 2cos(pi/q) = P_p(xi_2pq)
        a = ctx.element(ctx.reduce_poly(rescaled_chebyshev(q).coeffs))
        b = ctx.element(ctx.reduce_poly(rescaled_chebyshev(p).coeffs))
    return a, b


class GroupMatrix:
    """3x3 matrix over Z[xi_n], row-major tuple of 9 RingElem."""

    __slots__ = ("ctx", "entries")

    def __init__(self, ctx: RingContext, entries):
        entries = tuple(entries)
        if len(entries) != 9:
            raise ValueError("expected 9 entries")
        self.ctx = ctx
        self.entries = entries

    @classmethod
    def identity(cls, ctx: RingContext) -> "GroupMatrix":
        one, zero = ctx.one(), ctx.zero()
        return cls(ctx, [one if i == j else zero for i in range(3) for j in range(3)])

    @classmethod
    def from_rows(cls, ctx: RingContext, rows) -> "GroupMatrix":
        return cls(ctx, [e for row in rows for e in row])

    def __getitem__(self, ij) -> RingElem:
        i, j = ij
        return self.entries[3 * i + j]

    def __matmul__(self, other: "GroupMatrix") -> "GroupMatrix":
        if self.ctx.n != other.ctx.n:
            raise ValueError("ring contexts differ")
        a, b = self.entries, other.entries
        out = []
        for i in range(3):
            for j in range(3):
                acc = a[3 * i] * b[j]
                acc = acc + a[3 * i + 1] * b[3 + j]
                acc = acc + a[3 * i + 2] * b[6 + j]
                out.append(acc)
        return GroupMatrix(self.ctx, out)

    def pow(self, k: int) -> "GroupMatrix":
        if k < 0:
            raise ValueError("negative powers need an explicit inverse")
        acc = GroupMatrix.identity(self.ctx)
        for _ in range(k):
            acc = acc @ self
        return acc

    def det(self) -> RingElem:
        e = self.entries
        return (
            e[0] * (e[4] * e[8] - e[5] * e[7])
            - e[1] * (e[3] * e[8] - e[5] * e[6])
            + e[2] * (e[3] * e[7] - e[4] * e[6])
        )

    def key(self) -> tuple:
        """Canonical hashable serialization: the 9*d exact coefficients."""
        return tuple(c for e in self.entries for c in e.coeffs)

    def numeric(self) -> np.ndarray:
        return np.array([e.eval_real() for e in self.entries], dtype=float).reshape(3, 3)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupMatrix)
            and other.ctx.n == self.ctx.n
            and other.entries == self.entries
        )

    def __hash__(self) -> int:
        return hash((self.ctx.n, self.key()))

    def __repr__(self) -> str:
        return f"GroupMatrix(n={self.ctx.n}, {[list(e.coeffs) for e in self.entries]})"


def reflection_generators(p: int, q: int, ctx: RingContext | None = None):
    """The three reflections (s_x, s_y, s_z) as exact matrices.

    Defined for any p, q >= 3; hyperbolicity is enforced by the
    tessellation-level entry points, not here.
    """
    if ctx is None:
        ctx = make_context(ring_index(p, q))
    a, b = _cosine_pair(p, q, ctx)
    one, zero = ctx.one(), ctx.zero()
    neg = -one
    sx = GroupMatrix.from_rows(ctx, [[neg, a, zero], [zero, one, zero], [zero, zero, one]])
    sy = GroupMatrix.from_rows(ctx, [[one, zero, zero], [a, neg, b], [zero, zero, one]])
    sz = GroupMatrix.from_rows(ctx, [[one, zero, zero], [zero, one, zero], [zero, b, neg]])
    return sx, sy, sz


def rotation_generators(p: int, q: int, ctx: RingContext | None = None):
    """Rotation generators A = s_x s_y (order p) and B = s_y s_z (order q)."""
    if ctx is None:
        ctx = make_context(ring_index(p, q))
    sx, sy, sz = reflection_generators(p, q, ctx)
    return sx @ sy, sy @ sz


@dataclass(frozen=True)
class Generators:
    """Bundle of exact generator data for one {p, q} group."""

    p: int
    q: int
    ctx: RingContext
    A: GroupMatrix
    A_inv: GroupMatrix
    B: GroupMatrix
    B_inv: GroupMatrix

    def token_matrix(self, t: int) -> GroupMatrix:
        return (self.A, self.A_inv, self.B, self.B_inv)[t]


@cache
def build_generators(p: int, q: int) -> Generators:
    ctx = make_context(ring_index(p, q))
    A, B = rotation_generators(p, q, ctx)
    # inverses via the torsion relations A^p = B^q = 1
    return Generators(p, q, ctx, A, A.pow(p - 1), B, B.pow(q - 1))


def word_to_matrix(word: tuple, gens: Generators) -> GroupMatrix:
    acc = GroupMatrix.identity(gens.ctx)
    for t in word:
        acc = acc @ gens.token_matrix(t)
    return acc


# ---------------------------------------------------------------------------
# Batched arithmetic and the breadth-first enumeration engine.
#
# A matrix is flattened to shape (3, 3d): row i, column l*d + r holds
# coefficient r of entry (i, l).  Right multiplication by a fixed matrix g
# is then a single integer matmul with a (3d, 3d) table
#     K[(l, r), (j, s)] = sum_t g[l][j].coeffs[t] * (xi^(r+t))_s
# which lets numpy process whole BFS frontiers at once.  Rows are exact
# int64 (balls) or reduced mod m (quotients); both go through the same
# products, keys and lookup.


_CHUNK = 4096  # rows per batched product: bounds the wide temporaries


def matrix_to_flat(mat: GroupMatrix) -> np.ndarray:
    d = mat.ctx.d
    out = np.zeros((3, 3 * d), dtype=object)
    for i in range(3):
        for l in range(3):
            out[i, l * d : (l + 1) * d] = mat.entries[3 * i + l].coeffs
    return out


def flat_to_matrix(ctx: RingContext, flat: np.ndarray) -> GroupMatrix:
    d = ctx.d
    entries = []
    for i in range(3):
        for l in range(3):
            entries.append(RingElem(ctx, [int(v) for v in flat[i, l * d : (l + 1) * d]]))
    return GroupMatrix(ctx, entries)


def power_table(ctx: RingContext) -> np.ndarray:
    """Exact (d, d, d) object array whose [r, t, s] entry is coefficient s of xi^(r+t)."""
    d = ctx.d
    powers = np.array([ctx.power(e) for e in range(2 * d - 1)], dtype=object)
    return powers[np.add.outer(np.arange(d), np.arange(d))]


def mult_tables(mats, modulus: int | None = None) -> list:
    """int64 (3d, 3d) tables of right multiplication by each matrix, exact or mod modulus."""
    ctx = mats[0].ctx
    d = ctx.d
    hankel = power_table(ctx)
    tables = []
    for mat in mats:
        entries = matrix_to_flat(mat).reshape(3, 3, d)  # [l, j, t]
        K = np.tensordot(entries, hankel, axes=([2], [1])).transpose(0, 2, 1, 3)
        K = K.reshape(3 * d, 3 * d)
        tables.append((K if modulus is None else K % modulus).astype(np.int64))
    return tables


def product_dtype(bound: int):
    """float64 while integer sums up to bound are exact there, int64 below 2^63.

    Larger bounds raise ResourceLimitError instead of wrapping.
    """
    if bound >= 2**63:
        raise ResourceLimitError(f"table products would overflow int64: sums up to {bound} >= 2^63")
    return np.float64 if bound < 2**53 else np.int64


def right_products(rows: np.ndarray, tables, modulus: int | None = None) -> np.ndarray:
    """(n, len(tables), 3, 3d) products of (n, 3, 3d) rows with each table, in the rows' dtype.

    BLAS matmuls in float64 while every sum is exact there (below 2^53),
    int64 below 2^63; larger sums raise ResourceLimitError instead of
    wrapping.  Rows and tables of a quotient are below the modulus m, so
    its sums stay below 3d (m - 1)^2 and the products are reduced mod m.
    Rows go through in chunks, which bounds the wide temporaries to about
    10 MB for d = 8.
    """
    n, _, width = rows.shape
    stacked = np.concatenate(tables, axis=1)
    if modulus is None:
        bound = int(np.abs(rows).max(initial=0)) * int(np.abs(stacked).sum(axis=0).max())
    else:
        bound = width * (modulus - 1) ** 2
    exact = product_dtype(bound)
    stacked = stacked.astype(exact)
    out = np.empty((n, len(tables), 3, width), dtype=rows.dtype)
    for start in range(0, n, _CHUNK):
        part = rows[start : start + _CHUNK]
        prod = (part.reshape(-1, width).astype(exact) @ stacked).astype(np.int64, copy=False)
        if modulus is not None:
            prod %= modulus
        prod = prod.reshape(len(part), 3, len(tables), width)
        out[start : start + len(part)] = prod.swapaxes(1, 2)
    return out


@cache
def _key_weights(width: int) -> np.ndarray:
    weights = np.random.default_rng(0x6B657973).integers(0, 2**64, size=width, dtype=np.uint64) | np.uint64(1)
    weights.flags.writeable = False
    return weights


def row_keys(rows: np.ndarray) -> np.ndarray:
    """uint64 key of each integer row: its bytes read as 8-byte words times fixed random weights, mod 2^64.

    Rows are keyed at their stored width, zero-padded to whole words, so
    only rows of one dtype compare (an int64 row's words are its entries).
    Equal rows get equal keys; distinct rows rarely share one, and
    RowIndex never trusts a key without a full row compare.
    """
    flat = np.ascontiguousarray(rows.reshape(len(rows), -1)).view(np.uint8)
    if flat.shape[1] % 8:
        flat = np.concatenate([flat, np.zeros((len(flat), -flat.shape[1] % 8), dtype=np.uint8)], axis=1)
    words = flat.view(np.uint64)
    return words @ _key_weights(words.shape[1])


def unique_rows(rows: np.ndarray, keys: np.ndarray | None = None):
    """Distinct integer rows, numbered by first occurrence.

    Returns (first, labels): first[j] is the index of distinct row j's
    first occurrence (ascending) and rows[i] equals rows[first[labels[i]]].
    Rows are grouped by 64-bit key and every group is confirmed row by
    row: two distinct rows sharing a key raise NumericalContractError.
    """
    keys = row_keys(rows) if keys is None else keys
    _, first, labels = np.unique(keys, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(first))
    first, labels = first[by_first], rank[labels.ravel()]
    if np.any(rows != rows[first[labels]]):
        raise NumericalContractError("two distinct elements share a 64-bit row key")
    return first, labels


class RowIndex:
    """Exact lookup of distinct integer rows through their sorted 64-bit keys.

    Each add keeps its rows as one more block, which find reads in place;
    rows joins the blocks when it is first read.  So bfs, which adds a
    layer at a time, never copies the rows it has indexed.
    """

    def __init__(self, rows: np.ndarray, keys: np.ndarray | None = None):
        keys = row_keys(rows) if keys is None else keys
        self._blocks, self._ends = [rows], [len(rows)]
        self.order = np.argsort(keys, kind="stable")
        self.keys = keys[self.order]
        if np.any(self.keys[1:] == self.keys[:-1]):
            raise NumericalContractError("two indexed rows share a 64-bit key")

    def __len__(self) -> int:
        return self._ends[-1]

    @property
    def rows(self) -> np.ndarray:
        """Every indexed row, in index order, as one array."""
        if len(self._blocks) > 1:
            self._blocks, self._ends = [np.concatenate(self._blocks)], self._ends[-1:]
        return self._blocks[0]

    def _take(self, idx: np.ndarray) -> np.ndarray:
        """The rows at positions idx: one gather from each block that holds some of them."""
        if len(self._blocks) == 1:
            return self._blocks[0][idx]
        block = np.searchsorted(self._ends, idx, side="right")
        out = np.empty((len(idx), *self._blocks[0].shape[1:]), dtype=self._blocks[0].dtype)
        for b in np.flatnonzero(np.bincount(block, minlength=len(self._blocks))):
            sel = np.flatnonzero(block == b)
            out[sel] = self._blocks[b][idx[sel] - (self._ends[b] - len(self._blocks[b]))]
        return out

    def _slots(self, keys):
        """Insertion points of the keys among the sorted ones, and which keys are present."""
        at = np.searchsorted(self.keys, keys)
        present = at < len(self.keys)
        present[present] = self.keys[at[present]] == keys[present]
        return at, present

    def find(self, rows: np.ndarray, keys: np.ndarray | None = None) -> np.ndarray:
        """Index of each row, or -1 where it is not indexed.

        A key match counts only when the full rows are equal, so a row
        whose key collides with another row's is reported absent.  Rows of
        another dtype than the indexed ones raise TypeError.
        """
        if rows.dtype != self._blocks[0].dtype:
            raise TypeError(f"{rows.dtype} rows queried in an index of {self._blocks[0].dtype} rows")
        keys = row_keys(rows) if keys is None else keys
        at, hit = self._slots(keys)
        hit = np.flatnonzero(hit)
        match = self.order[at[hit]]
        same = np.all(self._take(match) == rows[hit], axis=tuple(range(1, rows.ndim)))
        idx = np.full(len(keys), -1, dtype=np.int64)
        idx[hit[same]] = match[same]
        return idx

    def add(self, rows: np.ndarray, keys: np.ndarray) -> None:
        """Append rows with distinct keys, none of them indexed yet, as one block.

        A key that is already indexed belongs to another row here, so two
        distinct elements would share it: NumericalContractError.
        """
        by_key = np.argsort(keys, kind="stable")
        at, taken = self._slots(keys[by_key])
        if np.any(taken):
            raise NumericalContractError("two distinct elements share a 64-bit row key")
        self.keys = np.insert(self.keys, at, keys[by_key])
        self.order = np.insert(self.order, at, len(self) + by_key)
        self._blocks.append(rows)
        self._ends.append(len(self) + len(rows))


class DiscoveryTree:
    """Words of elements numbered by a BFS.

    Element i is reached from element parents[i] by generator tokens[i];
    element 0 is the identity.  Every walk along the tree is a fill, one
    vectorized step per BFS layer; an element's BFS depth is its layer.
    """

    parents: np.ndarray
    tokens: np.ndarray

    def word(self, i: int) -> tuple:
        out = []
        while i > 0:
            out.append(int(self.tokens[i]))
            i = int(self.parents[i])
        return tuple(reversed(out))

    @cached_property
    def layers(self) -> np.ndarray:
        """Start of every BFS layer, then the order: layer j + 1 holds the children of layer j.

        One searchsorted a layer over parents[1:], which must rise from 0
        with every parent before its child (no empty layer), and tokens
        must lie in [0, 4); else NumericalContractError, once per tree.
        """
        parents, tokens, n = self.parents[1:], self.tokens[1:], len(self.parents)
        layers = [0, 1]
        ordered = not parents.size or bool(parents[0] == 0 and np.all(np.diff(parents) >= 0)
                                           and tokens.min() >= 0 and tokens.max() < 4)
        while ordered and layers[-1] < n:
            layers.append(1 + int(np.searchsorted(parents, layers[-1])))
            ordered = layers[-1] > layers[-2]
        if not ordered:
            raise NumericalContractError("the discovery tree is not breadth-first; group tables are corrupt")
        return np.array(layers)

    def fill(self, root, step) -> np.ndarray:
        """value(e) = root, value(x t) = step(value(x), t): one vectorized step per layer, in root's dtype."""
        root = np.asarray(root)
        out = np.empty((len(self.parents), *root.shape), dtype=root.dtype)
        out[0] = root
        for lo, hi in zip(self.layers[1:-1], self.layers[2:]):
            out[lo:hi] = step(out[self.parents[lo:hi]], self.tokens[lo:hi])
        return out


@dataclass
class Enumeration:
    """Result of bfs.

    index.rows[i] is element i, reached from parents[i] by tokens[i].
    gen_perm[t][i] indexes (element i) * g_t for every element that was in
    a frontier: all of them once the set is closed.
    """

    index: RowIndex
    parents: np.ndarray
    tokens: np.ndarray
    gen_perm: np.ndarray


# the most elements a quotient or a ball may hold; the {5,4} ball of radius 23 has 331,584, that of radius 24 more
ELEMENT_CAP = 500_000


def bfs(tables, ident: np.ndarray, modulus: int | None = None, radius: int | None = None,
        cap: int | None = None, what: str = "enumeration") -> Enumeration:
    """Breadth-first closure of ident under right multiplication by the tables.

    One layer at a time, _CHUNK frontier rows at a time: a chunk's products
    with every table (one matmul) are looked up by key in index, then in
    fresh (the layer's new elements so far).  The rest are numbered by
    first occurrence in (frontier position, token) order and join fresh,
    which becomes the next frontier and one block of index.  Stops at
    closure or after radius layers; a chunk that passes cap elements
    raises ResourceLimitError.  Rows are stored in ident's dtype.
    """
    index = fresh = RowIndex(ident[None])
    parents, tokens = [[-1]], [[-1]]
    perms = [np.zeros((len(tables), 0), dtype=np.int64)]
    depth = 0
    while len(fresh) and (radius is None or depth < radius):
        hi, frontier = len(index), fresh.rows
        fresh = RowIndex(ident[None][:0], np.zeros(0, dtype=np.uint64))
        for start in range(0, len(frontier), _CHUNK):
            cand = right_products(frontier[start : start + _CHUNK], tables, modulus).reshape(-1, *ident.shape)
            keys = row_keys(cand)
            idx = index.find(cand, keys)
            miss = np.flatnonzero(idx < 0)
            known = fresh.find(cand[miss], keys[miss])
            idx[miss] = hi + known  # set again below where known < 0
            # the first occurrence of each distinct product found in neither index is a new element
            miss = miss[known < 0]
            first, labels = unique_rows(cand[miss], keys[miss])
            new = miss[first]
            if cap is not None and hi + len(fresh) + len(new) > cap:
                raise ResourceLimitError(
                    f"{what} exceeded the element cap {cap} (BFS had {hi} elements with an unfinished frontier)"
                )
            idx[miss] = hi + len(fresh) + labels
            fresh.add(cand[new], keys[new])
            parents.append(hi - len(frontier) + start + new // len(tables))
            tokens.append(new % len(tables))
            perms.append(idx.reshape(-1, len(tables)).T)
        index.add(fresh.rows, fresh.keys[np.argsort(fresh.order)])
        depth += 1
    return Enumeration(
        index,
        np.concatenate(parents).astype(np.int64),
        np.concatenate(tokens).astype(np.int64),
        np.concatenate(perms, axis=1),
    )


class Ball(DiscoveryTree):
    """Word-metric ball in the rotation group, enumerated breadth-first.

    Elements are stored exactly as int64 rows; index 0 is the identity and
    layers are ordered by increasing word length, with the generator
    order A, A^-1, B, B^-1 fixing the order inside a layer.  index looks
    rows up exactly; index.rows holds them as an (n, 3, 3d) int64 array.
    """

    def __init__(self, gens: Generators, radius: int, found: Enumeration):
        self.gens = gens
        self.radius = radius
        self.index = found.index
        self.parents = found.parents
        self.tokens = found.tokens

    def __len__(self) -> int:
        return len(self.index)

    @property
    def layer_sizes(self) -> list:  # elements per word length 0..radius
        return np.diff(self.layers).tolist()

    def matrix(self, i: int) -> GroupMatrix:
        return flat_to_matrix(self.gens.ctx, self.index.rows[i])


def ball_enumerate(p: int, q: int, radius: int) -> Ball:
    """All group elements of word length <= radius, by exact BFS.

    A ball of more than ELEMENT_CAP elements raises ResourceLimitError.
    """
    TessellationParams(p, q)
    if radius < 0:
        raise ConfigError("radius must be nonnegative")
    gens = build_generators(p, q)
    tables = mult_tables([gens.token_matrix(t) for t in range(4)])
    ident = matrix_to_flat(GroupMatrix.identity(gens.ctx)).astype(np.int64)
    return Ball(gens, radius, bfs(tables, ident, radius=radius, cap=ELEMENT_CAP, what=f"ball of radius {radius}"))


def export_ball_jsonl(ball: Ball, path: str) -> None:
    """One JSON object per element: index, word, and exact entries.

    Words use 'a'/'A'/'b'/'B' for A, A^-1, B, B^-1; entries are 9 lists
    of d decimal coefficient strings, row-major.
    """
    d = ball.gens.ctx.d
    with open(path, "w") as fh:
        for i in range(len(ball)):
            flat = ball.index.rows[i]
            entries = [
                [str(int(c)) for c in flat[row, l * d : (l + 1) * d]]
                for row in range(3)
                for l in range(3)
            ]
            rec = {"index": i, "word": word_str(ball.word(i)), "entries": entries}
            fh.write(json.dumps(rec) + "\n")
