"""Group-algebra elements and their sparse matrix representations.

A tight-binding model on the {p, q} lattice is a finite formal sum
h = sum_g w_g |g> of group elements with complex weights, encoded here
by free words in the rotation generators.  Representing h on a finite
quotient G uses the right regular action

    (H psi)(g') = sum_g w_g psi(g' g^{-1})

so H commutes with all left translations; on a word-metric ball the
same action is truncated to pairs that stay inside the ball.

Cyclic-subgroup projections and the flat-band models built from them
follow the lattice conventions: x_1 = A, x_2 = B, x_3 = AB with
rotation orders nu = (p, q, 2).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError
from .quotient import QuotientGroup, Sectors
from .tolerances import HERMITICITY
from .triangle import (
    GEN_A,
    GEN_A_INV,
    GEN_B,
    GEN_B_INV,
    Ball,
    inverse_word,
    mult_tables,
    product_dtype,
    right_products,
    word_str,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "AlgebraElement",
    "adjacency",
    "cyclic_projection",
    "model_hamiltonian",
    "interpolate",
    "represent_periodic",
    "BlockOperator",
    "represent_blocks",
    "represent_open",
    "hermiticity_defect",
    "save_matrix_market",
]

_COEFF_EPS = 1e-15


class AlgebraElement:
    """Formal complex combination of free words in A, A^-1, B, B^-1.

    Terms with negligible coefficients are dropped; words are kept as
    written (no group-relation rewriting), so distinct words that happen
    to represent the same group element simply accumulate when the
    element is represented on a concrete group.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for w, c in dict(terms).items():
                c = complex(c)
                if abs(c) > _COEFF_EPS:
                    self.terms[tuple(w)] = c

    @classmethod
    def identity(cls, coeff=1.0) -> "AlgebraElement":
        return cls({(): coeff})

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0.0) + c
        return AlgebraElement(out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "AlgebraElement":
        return AlgebraElement({w: scalar * c for w, c in self.terms.items()})

    __mul__ = __rmul__

    def dagger(self) -> "AlgebraElement":
        """Formal adjoint: each word is inverted and conjugated."""
        return AlgebraElement(
            {inverse_word(w): c.conjugate() for w, c in self.terms.items()}
        )

    def items(self):
        return self.terms.items()

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        body = ", ".join(
            f"'{word_str(w)}': {c:.6g}" for w, c in sorted(self.terms.items())
        )
        return f"AlgebraElement({{{body}}})"


def adjacency(p: int, q: int) -> AlgebraElement:
    """Nearest-neighbor hopping (x_1 + x_1^-1 + x_2 + x_2^-1) / 4.

    The weights do not depend on p, q; the signature mirrors the other
    model builders.
    """
    if p < 3 or q < 3:
        raise ConfigError("need p, q >= 3")
    quarter = 0.25
    return AlgebraElement(
        {
            (GEN_A,): quarter,
            (GEN_A_INV,): quarter,
            (GEN_B,): quarter,
            (GEN_B_INV,): quarter,
        }
    )


_CYCLIC_BASE = {1: (GEN_A,), 2: (GEN_B,), 3: (GEN_A, GEN_B)}


def cyclic_projection(alpha: int, kidx: int, p: int, q: int) -> AlgebraElement:
    """Spectral projection of the cyclic rotation x_alpha onto e^(2 pi i kidx / nu).

    p_alpha(lambda) = (1/nu) sum_j lambda^j x_alpha^j with nu the order
    of x_alpha, i.e. nu = p, q, 2 for alpha = 1, 2, 3.
    """
    if alpha not in (1, 2, 3):
        raise ConfigError(f"alpha must be 1, 2 or 3, got {alpha}")
    nu = {1: p, 2: q, 3: 2}[alpha]
    if not 1 <= kidx <= nu:
        raise ConfigError(f"kidx must lie in 1..{nu} for alpha={alpha}, got {kidx}")
    lam = cmath.exp(2j * cmath.pi * kidx / nu)
    base = _CYCLIC_BASE[alpha]
    terms = {}
    for j in range(nu):
        terms[base * j] = lam**j / nu
    return AlgebraElement(terms)


def model_hamiltonian(alpha: int, kidx: int, eps: float, p: int, q: int) -> AlgebraElement:
    """h_alpha(lambda, eps) = eps (1 - 2 p_alpha(lambda)) + (1 - eps) * adjacency.

    Gapped at E = 0 whenever eps > 1/2, with the lower band spanned by
    the projection's image.
    """
    if not 0.0 <= eps <= 1.0:
        raise ConfigError(f"eps must lie in [0, 1], got {eps}")
    proj = cyclic_projection(alpha, kidx, p, q)
    return (
        AlgebraElement.identity(eps)
        + (-2.0 * eps) * proj
        + (1.0 - eps) * adjacency(p, q)
    )


def interpolate(models, weights) -> AlgebraElement:
    """Convex combination of algebra elements over simplex weights."""
    weights = [float(x) for x in weights]
    if len(weights) != len(models):
        raise ConfigError("weights and models must have equal length")
    if any(x < -1e-12 for x in weights) or abs(sum(weights) - 1.0) > 1e-9:
        raise ConfigError(f"weights must be a simplex point, got {weights}")
    out = AlgebraElement()
    for lam, h in zip(weights, models):
        out = out + lam * h
    return out


def _is_real(h: AlgebraElement) -> bool:
    return all(abs(c.imag) <= _COEFF_EPS for c in h.terms.values())


def _row_e(h: AlgebraElement, project) -> dict:
    """Row e of h's operator: {y: weight} over the distinct elements y = project(w).

    Elements are keyed in order of first occurrence.  Each weight sums, in
    h's term order, the coefficients of the words that name y, cast to
    h's dtype (real for a real h); sums that cancel stay as zeros.
    """
    real, row = _is_real(h), {}
    for w, c in h.items():
        y, c = project(w), (c.real if real else c)
        row[y] = row[y] + c if y in row else c
    return row


def _reflection_fixes(row: dict, sigma: np.ndarray, conjugate: bool) -> bool:
    """Whether row e's weight at sigma(y) is w_y, or conj(w_y) with conjugate, for every y (to within HERMITICITY).

    Without conjugate this says sigma fixes the model, with it that the
    antiunitary K sigma does.
    """
    return not any(abs(row.get(int(sigma[y]), 0.0) - (c.conjugate() if conjugate else c)) > HERMITICITY
                   for y, c in row.items())


def represent_periodic(h: AlgebraElement, group: QuotientGroup, fold: bool = False) -> sp.csr_matrix:
    """Right-regular representation of h on a finite quotient.

    (H psi)(x) = sum_y w_y psi(x y) over row e (_row_e): row x holds w_y at
    column x y, one walk of y's tree word per element y, so the CSR is
    filled directly; its arrays equal those of a COO assembly of h.

    With fold=True, an h whose row e the reflection sigma: A -> A^-1,
    B -> B^-1 fixes (to within HERMITICITY) is represented on the
    sigma-even functions, which hold delta_e and are invariant under H.
    Rows are the orbits {x, sigma(x)} of the representatives
    x <= sigma(x) in index order (orbit e is row 0), each the unit vector
    of the orbit's c_x = 1 or 2 elements; y puts sqrt(c_x / c_(x y)) w_y
    at column orbit(x y), and columns that coincide (x y' = sigma(x y))
    are summed.  Other models (sigma(AB) = BA, so no h_3, nor a complex
    h_1 or h_2) give the full operator.
    """
    from scipy.sparse import csr_matrix

    row = _row_e(h, group.project)
    n, width, dtype = group.order, len(row), np.float64 if _is_real(h) else np.complex128
    if not width:
        return csr_matrix((n, n), dtype=dtype)
    sigma = group.reflection if fold else None
    if sigma is None or not _reflection_fixes(row, sigma, conjugate=False):
        sigma, rows = None, np.arange(n, dtype=group.gen_perm.dtype)
    else:
        rep = np.arange(n, dtype=sigma.dtype) <= sigma
        rows = np.flatnonzero(rep).astype(sigma.dtype)
        orbit = np.cumsum(rep, dtype=sigma.dtype) - 1
        orbit = np.where(rep, orbit, orbit[sigma])
        root = np.where(sigma[rows] == rows, 1.0, np.sqrt(2.0))
    m = len(rows)
    index = np.int32 if m * width < 2**31 else np.int64
    indices = np.empty((m, width), dtype=index)
    data = np.empty((m, width), dtype=dtype)
    for j, (y, c) in enumerate(row.items()):
        indices[:, j] = group.walk(rows, group.word(y))
        if sigma is not None:
            indices[:, j] = orbit[indices[:, j]]
            c = c * (root / root[indices[:, j]])
        data[:, j] = c
    indptr = np.arange(0, m * width + 1, width, dtype=index)
    mat = csr_matrix((data.ravel(), indices.ravel(), indptr), shape=(m, m))
    if sigma is None:
        mat.sort_indices()
    else:
        mat.sum_duplicates()
    return mat


@dataclass(frozen=True)
class BlockOperator:
    """A right-regular operator split over the character sectors of a quotient.

    Entry e adds values[e] * chi(kernel[e]) to block chi at (rows[e],
    cols[e]); rows and columns index the sectors' transversal.
    antiunitary says whether C = K sigma fixes the operator: its weight
    at sigma(y) is the conjugate of its weight at y (see Sectors).

    Both block methods write into out when it is given, a C-ordered
    b x b array of the block's dtype that they zero first, and fill it
    with the block's transpose: the block they return is out.T, in the
    Fortran order LAPACK reads in place.
    """

    sectors: Sectors
    rows: np.ndarray
    cols: np.ndarray
    kernel: np.ndarray
    values: np.ndarray
    antiunitary: bool

    @property
    def dtype(self) -> np.dtype:
        """The dtype of block(j), complex when the model or the characters are."""
        return np.result_type(self.values, self.sectors.chars)

    def folds(self, j: int) -> bool:
        """Whether block j is complex and C fixes it, so that real_block(j) is its real symmetric form."""
        return self.antiunitary and bool(self.sectors.fixed[j]) and self.dtype.kind == "c"

    def block(self, j: int, out: np.ndarray | None = None) -> np.ndarray:
        """Dense block of character j."""
        return self._fill(self.cols, self.rows, self.values * self.sectors.chars[j][self.kernel], out)

    def real_block(self, j: int, out: np.ndarray | None = None) -> np.ndarray:
        """Block j as the real symmetric W^H B W, for a character j that C fixes.

        W's columns are unit vectors that C fixes: sqrt(phi_c) e_c on a
        coset with c' = c, and on a pair c < c' column c is
        sqrt(phi_c) (e_c + e_c') / sqrt(2) and column c' is
        i sqrt(phi_c) (e_c - e_c') / sqrt(2), with phi_c = conj(chi(m_c)),
        equal on the pair (Sectors).  C commutes with B, so W^H B W is
        real: each coset meets at most two columns, and each entry of B
        adds the real parts of at most four terms to it.
        """
        sec = self.sectors
        c = np.arange(sec.block_size)
        lo, hi = np.minimum(c, sec.mirror), np.maximum(c, sec.mirror)
        root = np.sqrt(np.conj(sec.chars[j][sec.mirror_kernel]).astype(np.complex128))[lo]
        half = np.sqrt(0.5)
        coef = np.stack([root * np.where(lo == hi, 1.0, half),
                         root * np.select([lo == hi, c == lo], [0.0, 1j * half], -1j * half)])
        column = np.stack([lo, hi])
        vals = self.values * sec.chars[j][self.kernel]
        terms = (coef[:, None, self.rows].conj() * vals * coef[None, :, self.cols]).real
        shape = terms.shape
        return self._fill(np.broadcast_to(column[None, :, self.cols], shape).ravel(),
                          np.broadcast_to(column[:, None, self.rows], shape).ravel(), terms.ravel(), out)

    def _fill(self, rows, cols, vals, out):
        """out (allocated when None) zeroed and summed vals at (rows, cols), returned transposed."""
        b = self.sectors.block_size
        if out is None:
            out = np.empty((b, b), dtype=vals.dtype)
        out.fill(0)
        np.add.at(out.reshape(-1), rows * b + cols, vals)
        return out.T


def represent_blocks(h: AlgebraElement, group: QuotientGroup) -> BlockOperator:
    """Character blocks of represent_periodic(h, group).

    The periodic operator has (H psi)(x) = sum_y w_y psi(x y) over row e
    (_row_e).  On a sector, psi(n t) = chi(n) psi(t), so for each
    transversal row t and element y, t y = n t'' adds w_y chi(n) to the
    block entry (t, t''): one walk of the transversal per element y.
    """
    sec, row = group.sectors, _row_e(h, group.project)
    b = sec.block_size
    target = np.array([group.walk(sec.transversal, group.word(y)) for y in row], dtype=np.int64).reshape(-1)
    return BlockOperator(
        sec,
        np.tile(np.arange(b, dtype=np.int64), len(row)),
        sec.coset[target],
        sec.kernel[target],
        np.repeat(list(row.values()), b),
        _reflection_fixes(row, group.reflection, conjugate=True),
    )


def _inverse_table(gens):
    """word -> bytes of its inverse's exact int64 right-multiplication table; equal tables, one element.

    The table is the product of the letters' tables (mult_tables), each step refused (product_dtype) before it wraps.
    """
    letters = mult_tables([gens.token_matrix(t) for t in range(4)])

    def table(word) -> bytes:
        out = np.eye(len(letters[0]), dtype=np.int64)
        for t in inverse_word(word):
            product_dtype(int(np.abs(out).max()) * int(np.abs(letters[t]).sum(axis=0).max()))
            out = out @ letters[t]
        return out.tobytes()

    return table


def represent_open(h: AlgebraElement, ball: Ball) -> sp.csr_matrix:
    """Hard-truncated representation of h on a word-metric ball.

    Matrix entries couple ball elements z, z' with z = z' g^-1 for each
    distinct element g that h's words name (_row_e over _inverse_table);
    pairs whose endpoint falls outside the ball are dropped.  Because the
    model is Hermitian, surviving entries come in conjugate pairs, so the
    truncation preserves Hermiticity.  Each g is one exact batched product
    of the ball with g^-1 and one key lookup of the results.
    """
    from scipy.sparse import csr_matrix

    row, n, width = _row_e(h, _inverse_table(ball.gens)), len(ball), 3 * ball.gens.ctx.d
    tables = [np.frombuffer(g, dtype=np.int64).reshape(width, width) for g in row]
    # one product and lookup per g, not one for all: n x len(row) products at once raised the junction's peak RSS
    found = np.array([ball.index.find(right_products(ball.batch(), [t])[:, 0]) for t in tables], dtype=np.int64)
    found = found.reshape(len(row), n)
    g, cols = np.nonzero(found >= 0)
    weights = np.array(list(row.values()), dtype=np.float64 if _is_real(h) else np.complex128)
    return csr_matrix((weights[g], (found[g, cols], cols)), shape=(n, n))


def _open_bonds(models, ball: Ball):
    """The open ball's bond table for a list of models: rows, cols and a (bonds, models) weight array.

    The models' words name distinct elements g, numbered 1, 2, ... in
    order of first occurrence; represent_open of the element whose weight
    at g is g's number (any word naming g will do) gives every bond once,
    its entry naming its g.  Column m of the weights holds model m's row e
    (_row_e) at the bond's g.
    """
    table = _inverse_table(ball.gens)
    rows_e = [_row_e(h, table) for h in models]
    words = {table(w): w for h in models for w, _ in h.items()}
    bonds = represent_open(AlgebraElement({w: i + 1 for i, w in enumerate(words.values())}), ball).tocoo()
    dtype = np.float64 if all(map(_is_real, models)) else np.complex128
    coef = np.array([[row.get(g, 0) for row in rows_e] for g in words], dtype=dtype).reshape(len(words), len(models))
    return bonds.row, bonds.col, coef[bonds.data.astype(np.int64) - 1]


def hermiticity_defect(mat: sp.spmatrix) -> float:
    diff = (mat - mat.getH()).tocoo()
    return float(np.abs(diff.data).max()) if diff.nnz else 0.0


def save_matrix_market(mat: sp.spmatrix, path: str, comment: str = "") -> None:
    from scipy.io import mmwrite

    mmwrite(path, mat, comment=comment)
