"""Exact arithmetic in the ring Z[xi_n], where xi_n = 2*cos(2*pi/n).

xi_n is an algebraic integer whose minimal polynomial Psi_n has degree
phi(n)/2 for n > 2 (phi = Euler totient), so Z[xi_n] is a free Z-module
with basis xi^0, ..., xi^(d-1).  Elements are stored as integer
coefficient vectors of length d and multiplied exactly.  Arithmetic mod
s^k for finite quotients runs on whole batches of matrices, through the
multiplication tables in triangle.

All integer arithmetic uses native Python ints: coefficients of long
products overflow 64-bit machine words.
"""

from __future__ import annotations

import json
import math
from functools import cache

from .errors import ConfigError

__all__ = [
    "IntPolynomial",
    "RingContext",
    "RingElem",
    "rescaled_chebyshev",
    "minimal_polynomial",
    "euler_totient",
    "make_context",
    "psi_json",
]


class IntPolynomial:
    """Polynomial with integer coefficients, lowest degree first.

    Immutable; trailing zero coefficients are stripped so the zero
    polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPolynomial(out)

    def divmod_exact(self, divisor: "IntPolynomial") -> "IntPolynomial":
        """Divide by a monic divisor, requiring zero remainder."""
        if not divisor.is_monic():
            raise ArithmeticError("divisor must be monic")
        rem = list(self.coeffs)
        dd = divisor.degree
        quot = [0] * max(0, len(rem) - dd)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            quot[k - dd] = c
            for j, dj in enumerate(divisor.coeffs):
                rem[k - dd + j] -= c * dj
        if any(rem):
            raise ArithmeticError("division left a nonzero remainder")
        return IntPolynomial(quot)

    def evaluate(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            mag = abs(c)
            if e == 0:
                term = str(mag)
            elif e == 1:
                term = "x" if mag == 1 else f"{mag}*x"
            else:
                term = f"x^{e}" if mag == 1 else f"{mag}*x^{e}"
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)


@cache
def rescaled_chebyshev(n: int) -> IntPolynomial:
    """P_n with P_0 = 2, P_1 = x, P_(n+1) = x*P_n - P_(n-1).

    Satisfies P_n(y + 1/y) = y^n + y^(-n), hence P_n(2*cos t) = 2*cos(n*t).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return IntPolynomial([2])
    prev, cur = IntPolynomial([2]), IntPolynomial([0, 1])
    x = IntPolynomial([0, 1])
    for _ in range(n - 1):
        prev, cur = cur, x * cur - prev
    return cur


@cache
def minimal_polynomial(n: int) -> IntPolynomial:
    """Minimal polynomial Psi_n of xi_n = 2*cos(2*pi/n) over Z.

    Uses the divisor recursion: the product of Psi_d over all divisors
    d of n equals P_(s+1) - P_(s-1) for n = 2s and P_(s+1) - P_s for
    n = 2s + 1.  Psi_n is recovered by exact division by the proper
    divisors' polynomials (memoized).
    """
    if n < 1:
        raise ConfigError(f"ring index n must be positive, got {n}")
    if n % 2 == 0:
        s = n // 2
        rhs = rescaled_chebyshev(s + 1) - rescaled_chebyshev(s - 1)
    else:
        s = (n - 1) // 2
        rhs = rescaled_chebyshev(s + 1) - rescaled_chebyshev(s)
    for d in range(1, n):
        if n % d == 0:
            rhs = rhs.divmod_exact(minimal_polynomial(d))
    return rhs


def euler_totient(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


class RingContext:
    """Container for the ring Z[xi_n]: basis size d = deg Psi_n, the
    reduction polynomial r_n = x^d - Psi_n, and the numeric value of xi.

    Also caches the reduced representations of the powers xi^0 ..
    xi^(2d-2) needed to multiply basis monomials.
    """

    __slots__ = ("n", "d", "psi", "r", "xi_numeric", "_powers")

    def __init__(self, n: int):
        psi = minimal_polynomial(n)
        if not psi.is_monic():
            raise AssertionError(f"Psi_{n} is not monic")
        d = psi.degree
        self.n = n
        self.d = d
        self.psi = psi
        # x^d = r(x) modulo Psi, with deg r < d
        self.r = IntPolynomial([0] * d + [1]) - psi
        self.xi_numeric = 2.0 * math.cos(2.0 * math.pi / n)
        powers = [tuple([0] * e + [1] + [0] * (d - 1 - e)) for e in range(d)]
        for e in range(d, 2 * d - 1):
            shifted = [0] + list(powers[-1])
            powers.append(self.reduce_poly(shifted))
        self._powers = tuple(powers)

    def reduce_poly(self, coeffs) -> tuple:
        """Reduce arbitrary-degree coefficients into the length-d basis.

        Folds powers >= d down via x^d = r(x), starting from the largest
        exponent and descending.
        """
        d = self.d
        c = [int(v) for v in coeffs]
        if len(c) < d:
            c += [0] * (d - len(c))
        rc = self.r.coeffs
        for e in range(len(c) - 1, d - 1, -1):
            ce = c[e]
            if ce:
                c[e] = 0
                base = e - d
                for l, rl in enumerate(rc):
                    c[base + l] += ce * rl
        return tuple(c[:d])

    def power(self, e: int) -> tuple:
        """Reduced coefficient tuple of xi^e for 0 <= e <= 2d-2."""
        return self._powers[e]

    def element(self, coeffs) -> "RingElem":
        return RingElem(self, coeffs)

    def zero(self) -> "RingElem":
        return RingElem(self, [0] * self.d)

    def one(self) -> "RingElem":
        return RingElem(self, [1] + [0] * (self.d - 1))

    def from_int(self, k: int) -> "RingElem":
        return RingElem(self, [k] + [0] * (self.d - 1))

    def xi(self) -> "RingElem":
        if self.d == 1:
            # n in {1, 2}: xi = +/-2 is rational
            return self.from_int(2 if self.n == 1 else -2)
        return RingElem(self, [0, 1] + [0] * (self.d - 2))

    def __eq__(self, other) -> bool:
        return isinstance(other, RingContext) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("RingContext", self.n))

    def __repr__(self) -> str:
        return f"RingContext(n={self.n}, d={self.d})"


@cache
def make_context(n: int) -> RingContext:
    return RingContext(n)


class RingElem:
    """Element of Z[xi_n] as an exact length-d integer coefficient vector."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: RingContext, coeffs):
        cs = tuple(int(c) for c in coeffs)
        if len(cs) != ctx.d:
            raise ValueError(f"expected {ctx.d} coefficients, got {len(cs)}")
        self.ctx = ctx
        self.coeffs = cs

    def _check(self, other: "RingElem"):
        if self.ctx.n != other.ctx.n:
            raise ValueError("ring contexts differ")

    def __mul__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        prod = [0] * (2 * len(a) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        return RingElem(self.ctx, self.ctx.reduce_poly(prod))

    def __add__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        return RingElem(self.ctx, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        return RingElem(self.ctx, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "RingElem":
        return RingElem(self.ctx, [-a for a in self.coeffs])

    def __rmul__(self, k: int) -> "RingElem":
        if not isinstance(k, int):
            return NotImplemented
        return RingElem(self.ctx, [k * a for a in self.coeffs])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingElem)
            and other.ctx.n == self.ctx.n
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.ctx.n, self.coeffs))

    def eval_real(self) -> float:
        xi = self.ctx.xi_numeric
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * xi + c
        return acc

    def __repr__(self) -> str:
        return f"RingElem(n={self.ctx.n}, {list(self.coeffs)})"


def psi_json(n: int) -> str:
    """Debug dump of Psi_n as a JSON array of decimal coefficient strings."""
    return json.dumps([str(c) for c in minimal_polynomial(n).coeffs])
