"""The lifted quotient tower against a breadth-first enumeration of G_k itself.

build_quotient enumerates G_1 and lifts every level above it through the
Schreier cocycle of G_(k-1)'s discovery tree.  triangle.bfs over the
mod-s^k generator tables stays the oracle: every table, and the
discovery tree the quotient derives from gen_perm, must equal its output
array for array, in the quotient's narrowed index dtypes.  A
corrupted lift or cocycle must stop the build with a contract error
(exit 4), never return tables.
"""

import os

import numpy as np
import pytest

from hyperbulk import cli, quotient, triangle
from hyperbulk.errors import NumericalContractError

from conftest import check_layers

# every s = 2 family of the k = 2 survey (|G_2| <= 65536), plus deeper levels and other moduli
ROWS = [(p, q, 2, 2) for p, q in [(5, 4), (5, 5), (6, 4), (6, 5), (6, 6), (7, 3), (7, 4),
                                  (7, 6), (7, 7), (8, 3), (8, 4), (8, 6), (8, 8)]]
ROWS += [(5, 4, 2, 3), (6, 6, 3, 2), (6, 6, 3, 3), (6, 4, 3, 2), (6, 4, 3, 3), (6, 6, 4, 2)]
ROWS += [(6, 6, 2, k) for k in range(3, 7)]


def enumerated(p, q, s, k):
    """G_k by bfs over the mod-s^k generator tables, with no lift."""
    gens = triangle.build_generators(p, q)
    d, m = gens.ctx.d, s**k
    tables = triangle.mult_tables([gens.token_matrix(t) for t in range(4)], m)
    ident = np.zeros((3, 3 * d), dtype=quotient._storage_dtype(m))
    ident[range(3), range(0, 3 * d, d)] = 1
    return triangle.bfs(tables, ident, modulus=m)


# {5,4} at k = 4 has 5,242,880 elements, past the default element cap; at one thread the
# lift takes about 4 s and 280 MB of RSS, its element rows about 5 s and 440 MB more, the
# enumeration about 50 s and 1.2 GB more
LONG_ROWS = [pytest.param((5, 4, 2, 4), marks=pytest.mark.skipif(not os.environ.get("RUN_LONG"),
                                                                   reason="set RUN_LONG"))]


@pytest.mark.parametrize("key", ROWS + LONG_ROWS, ids=lambda key: "{}_{}_s{}_k{}".format(*key))
def test_lift_equals_enumeration(key):
    group = quotient.build_quotient(*key, element_cap=2**23)
    found = enumerated(*key)
    want = {"elements": found.index.rows, "gen_perm": found.gen_perm,
            "parents": found.parents, "tokens": found.tokens}
    # the quotient derives its tree from gen_perm, bfs records the edges it discovered: they must agree;
    # bfs returns int64 indices, a quotient of order below 2^31 holds them as int32, tokens as int8
    dtypes = {"elements": found.index.rows.dtype, "gen_perm": np.int32, "parents": np.int32, "tokens": np.int8}
    assert group.order == len(found.index)
    check_layers(group)
    for name in ("elements", "gen_perm", "parents", "tokens"):  # bfs gives no lift coordinates
        got = getattr(group, name)
        assert got.dtype == dtypes[name], name
        assert np.array_equal(got, want[name]), name


def corrupt_first_call(monkeypatch, owner, name, modulus):
    """Replace owner.name by a version whose first result with a modulus has one entry moved by 1 mod it.

    modulus(*args) is None for calls that are left alone.
    """
    original = getattr(owner, name)
    calls = []

    def corrupted(*args, **kwargs):
        out = original(*args, **kwargs)
        if not calls and modulus(*args) is not None:
            out = out.copy()
            out.flat[0] = (out.flat[0] + 1) % modulus(*args)
            calls.append(True)
        return out

    monkeypatch.setattr(owner, name, corrupted)


# the cocycle values X(t, g) mod s, or the lift's first layer of products mod s^k (G_1's element
# rows, which the lift reads first, are products mod s)
CORRUPTIONS = {
    "cocycle": (quotient._Base, "times", lambda base, rows, v: base.group.s, "cocycle"),
    "lift": (quotient, "right_products", lambda rows, tables, m: m if m > 2 else None, "lift"),
}


@pytest.mark.parametrize("where", sorted(CORRUPTIONS))
def test_corrupted_lift_is_refused(monkeypatch, where):
    owner, name, modulus, message = CORRUPTIONS[where]
    corrupt_first_call(monkeypatch, owner, name, modulus)
    with pytest.raises(NumericalContractError, match=message):
        quotient.build_quotient(5, 4, 2, 2)


@pytest.mark.parametrize("where", sorted(CORRUPTIONS))
def test_corrupted_lift_exits_4(tmp_path, capsys, monkeypatch, where):
    owner, name, modulus, _ = CORRUPTIONS[where]
    corrupt_first_call(monkeypatch, owner, name, modulus)
    assert cli.main(["--out", str(tmp_path), "group", "5", "4", "--k", "2"]) == 4
    assert "{5,4} mod 2^2" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_sums_that_would_wrap_the_storage_dtype_are_widened():
    # mod 243 = 3^5 the rows are uint8, where 200 + 100 would wrap to 44
    a = np.array([200, 10, 242], dtype=np.uint8)
    got = quotient._mod_sum(a, np.array([100, 20, 242], dtype=np.uint8), 243)
    assert got.dtype == np.uint8
    assert list(got) == [57, 30, 241]
