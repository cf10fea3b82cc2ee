import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbulk import ring
from hyperbulk.tolerances import EVAL_HOMOMORPHISM
from hyperbulk.triangle import GroupMatrix, matrix_to_flat, mult_tables, right_products

# Frozen minimal polynomials, coefficients lowest degree first.
KNOWN_PSI = {
    1: (-2, 1),
    2: (2, 1),
    4: (0, 1),
    8: (-2, 0, 1),
    10: (-1, -1, 1),
    12: (-3, 0, 1),
    14: (1, -2, -1, 1),
    16: (2, 0, -4, 0, 1),
    40: (1, 0, -12, 0, 19, 0, -8, 0, 1),
}


def poly(coeffs):
    return ring.IntPolynomial(coeffs)


def test_known_minimal_polynomials():
    for n, coeffs in KNOWN_PSI.items():
        assert ring.minimal_polynomial(n) == poly(coeffs), f"Psi_{n}"


def test_pretty_printing():
    assert str(ring.minimal_polynomial(40)) == "x^8 - 8*x^6 + 19*x^4 - 12*x^2 + 1"
    assert str(ring.minimal_polynomial(8)) == "x^2 - 2"


def test_rescaled_chebyshev_base_cases():
    assert ring.rescaled_chebyshev(0) == poly((2,))
    assert ring.rescaled_chebyshev(1) == poly((0, 1))
    # P_2 = x^2 - 2, P_3 = x^3 - 3x
    assert ring.rescaled_chebyshev(2) == poly((-2, 0, 1))
    assert ring.rescaled_chebyshev(3) == poly((0, -3, 0, 1))


@given(st.integers(min_value=1, max_value=30))
def test_rescaled_chebyshev_trig_identity(n):
    # P_n(2 cos t) = 2 cos(n t); float Horner limits the usable n range
    t = 0.7310529
    x = 2.0 * math.cos(t)
    assert ring.rescaled_chebyshev(n).evaluate(x) == pytest.approx(
        2.0 * math.cos(n * t), abs=1e-7
    )


def brute_totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


@given(st.integers(min_value=1, max_value=500))
def test_euler_totient(n):
    assert ring.euler_totient(n) == brute_totient(n)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=3, max_value=200))
def test_minimal_polynomial_properties(n):
    psi = ring.minimal_polynomial(n)
    assert psi.is_monic()
    assert psi.degree == ring.euler_totient(n) // 2
    xi = 2.0 * math.cos(2.0 * math.pi / n)
    # backward-error bound for float Horner: residual small relative to
    # the coefficient mass at |xi| (coefficients grow fast with degree)
    scale = sum(abs(c) * abs(xi) ** e for e, c in enumerate(psi.coeffs))
    assert abs(psi.evaluate(xi)) < 1e-11 * max(scale, 1.0)


def test_context_basics():
    ctx = ring.make_context(40)
    assert ctx.n == 40 and ctx.d == 8
    assert ctx.xi_numeric == pytest.approx(2.0 * math.cos(math.pi / 20))
    assert ctx.one().coeffs[0] == 1
    assert ctx.xi().coeffs[1] == 1


def test_star_product_backfold():
    # xi * xi^7 reduces through Psi_40: x^8 = 8x^6 - 19x^4 + 12x^2 - 1
    ctx = ring.make_context(40)
    a = ctx.element([0, 1, 0, 0, 0, 0, 0, 0])
    b = ctx.element([0, 0, 0, 0, 0, 0, 0, 1])
    assert (a * b).coeffs == (-1, 0, 12, 0, -19, 0, 8, 0)


coeff_vec = st.lists(st.integers(min_value=-50, max_value=50), min_size=8, max_size=8)


@settings(deadline=None, max_examples=60)
@given(coeff_vec, coeff_vec, coeff_vec)
def test_ring_laws(a, b, c):
    ctx = ring.make_context(40)
    x, y, z = ctx.element(a), ctx.element(b), ctx.element(c)
    assert (x * y).coeffs == (y * x).coeffs
    assert ((x * y) * z).coeffs == (x * (y * z)).coeffs
    assert (x * (y + z)).coeffs == (x * y + x * z).coeffs
    assert (x * ctx.one()).coeffs == x.coeffs


@settings(deadline=None, max_examples=60)
@given(coeff_vec, coeff_vec, st.sampled_from([2, 3, 4, 8, 9]), st.integers(1, 3))
def test_mod_path_matches_exact(a, b, s, k):
    # the batched mod-m table products that build quotients, against exact RingElem products
    ctx = ring.make_context(40)
    m = s**k
    one, zero = ctx.one(), ctx.zero()
    x = GroupMatrix(ctx, [ctx.element(a), zero, zero, zero, one, zero, zero, zero, one])
    y = GroupMatrix(ctx, [ctx.element(b), one, zero, zero, one, zero, zero, zero, one])
    row = (matrix_to_flat(x) % m).astype(np.int64)
    got = right_products(row[None], mult_tables([y], m), m)[0, 0]
    assert np.array_equal(got, (matrix_to_flat(x @ y) % m).astype(np.int64))
    assert tuple(got[0, :8]) == tuple(v % m for v in (ctx.element(a) * ctx.element(b)).coeffs)


@settings(deadline=None, max_examples=60)
@given(coeff_vec, coeff_vec)
def test_eval_real_is_homomorphism(a, b):
    ctx = ring.make_context(40)
    x, y = ctx.element(a), ctx.element(b)
    lhs = (x * y).eval_real()
    rhs = x.eval_real() * y.eval_real()
    scale = max(1.0, abs(rhs))
    assert abs(lhs - rhs) / scale < EVAL_HOMOMORPHISM


def test_psi_json_round_trip():
    import json

    coeffs = [int(c) for c in json.loads(ring.psi_json(40))]
    assert coeffs == [1, 0, -12, 0, 19, 0, -8, 0, 1]


def test_divmod_exact_requires_monic_and_exact():
    with pytest.raises(ArithmeticError):
        poly((1, 1)).divmod_exact(poly((0, 2)))  # non-monic divisor
    with pytest.raises(ArithmeticError):
        poly((1, 1)).divmod_exact(poly((0, 1)))  # nonzero remainder
    # x^3 - 2x = x * (x^2 - 2) divides exactly
    assert poly((0, -2, 0, 1)).divmod_exact(poly((0, 1))) == poly((-2, 0, 1))

