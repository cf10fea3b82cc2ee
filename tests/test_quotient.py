import dataclasses
import json
import struct
import zipfile

import numpy as np
import pytest

import hyperbulk
from hyperbulk import quotient
from hyperbulk.errors import NumericalContractError, ResourceLimitError
from hyperbulk.triangle import GEN_A, GEN_B, inverse_word

from conftest import QUOTIENT_ORDERS, fixing_0, left_translation, relabelled


@pytest.mark.parametrize("p,q", sorted(QUOTIENT_ORDERS))
def test_quotient_orders_mod_2(p, q):
    group = quotient.build_quotient(p, q, 2, 1)
    assert group.order == QUOTIENT_ORDERS[(p, q)]


def test_torsion_audit_flags_collapses(tmp_path):
    # {5,4} mod 2 keeps the full rotation orders
    g54 = quotient.build_quotient(5, 4, 2, 1)
    assert g54.torsion_preserved
    orders = {name: v["order"] for name, v in g54.torsion.items()}
    assert orders == {"A": 5, "B": 4, "AB": 2}
    # {6,6} mod 2 halves both rotation orders; the audit must say so
    g66 = quotient.build_quotient(6, 6, 2, 1)
    assert not g66.torsion_preserved
    orders = {name: v["order"] for name, v in g66.torsion.items()}
    assert orders == {"A": 3, "B": 3, "AB": 2}
    # the cache holds no audit: a loaded group computes it from its tables
    g66.save(str(tmp_path / "g.npz"))
    loaded = quotient.QuotientGroup.load(str(tmp_path / "g.npz"))
    assert "torsion" not in vars(loaded) and loaded.torsion == quotient.build_quotient(6, 6, 2, 1).torsion
    # {8,4} and {8,6} collapse partially
    g84 = quotient.build_quotient(8, 4, 2, 1)
    assert {n: v["order"] for n, v in g84.torsion.items()} == {"A": 4, "B": 4, "AB": 2}
    g86 = quotient.build_quotient(8, 6, 2, 1)
    assert {n: v["order"] for n, v in g86.torsion.items()} == {"A": 8, "B": 3, "AB": 2}


def test_group_axioms_via_permutations(q54_k1):
    g = q54_k1
    n = g.order
    for t in range(4):
        perm = g.gen_perm[t]
        assert np.array_equal(np.sort(perm), np.arange(n))  # bijective
    # inverse table really inverts
    for t, tinv in ((GEN_A, 1), (GEN_B, 3)):
        assert np.array_equal(g.gen_perm[tinv][g.gen_perm[t]], np.arange(n))
    # walking a word and then its inverse returns every element to itself
    word = g.word(n - 1)
    assert np.array_equal(g.walk(g.walk(np.arange(n), word), inverse_word(word)), np.arange(n))


def test_left_and_right_actions_commute(q54_k1):
    g = q54_k1
    right = g.gen_perm[GEN_A]
    left = left_translation(g, GEN_B)
    assert np.array_equal(left[right], right[left])


def test_identity_word_and_projection(q54_k1):
    g = q54_k1
    assert g.project(()) == 0
    # A^5 collapses to the identity coset
    assert g.project((GEN_A,) * 5) == 0
    assert g.project((GEN_B,) * 4) == 0
    i = g.project((GEN_A, GEN_B))
    assert g.element_order(i) == 2


def test_element_orders_divide_group_order(q54_k1):
    g = q54_k1
    rng = np.random.default_rng(3)
    for i in rng.integers(0, g.order, size=12):
        assert g.order % g.element_order(int(i)) == 0


def test_coherence_surjection(q54_k1, q54_k2):
    red = q54_k2.reduce_to(q54_k1)
    assert red.shape == (q54_k2.order,)
    assert set(np.unique(red)) == set(range(q54_k1.order))
    # reduction is a homomorphism on generator moves
    rng = np.random.default_rng(5)
    for t in range(4):
        idx = rng.integers(0, q54_k2.order, size=40)
        assert np.array_equal(
            red[q54_k2.gen_perm[t][idx]], q54_k1.gen_perm[t][red[idx]]
        )


def test_element_cap_enforced():
    with pytest.raises(ResourceLimitError):
        quotient.build_quotient(5, 4, 2, 2, element_cap=100)


def test_int64_overflow_refused():
    # {5,4} has d = 8: 3d (2^30 - 1)^2 >= 2^63 would wrap the table products
    with pytest.raises(ResourceLimitError, match="int64"):
        quotient.build_quotient(5, 4, 2, 30)


def test_save_load_round_trip(tmp_path, q54_k1):
    path = str(tmp_path / "g.npz")
    q54_k1.save(path)
    loaded = quotient.QuotientGroup.load(path)
    assert loaded.order == q54_k1.order
    for name in (*quotient._CACHE_ARRAYS, "parents", "tokens"):  # the tree is derived from gen_perm
        assert np.array_equal(getattr(loaded, name), getattr(q54_k1, name))
    assert loaded.torsion == q54_k1.torsion
    assert loaded.word(5) == q54_k1.word(5)


def test_level_1_load_builds_no_generator_tables(q54_k1, q54_k2, tmp_path, monkeypatch):
    # N is the identity alone at k = 1: the kernel walk, and the tables mod s^k it needs, are skipped
    built = []
    tables = quotient._tables
    monkeypatch.setattr(quotient, "_tables", lambda group: built.append(group.k) or tables(group))
    for group in (q54_k1, q54_k2):
        group.save(str(tmp_path / f"g{group.k}.npz"))
        quotient.QuotientGroup.load(str(tmp_path / f"g{group.k}.npz"))
    assert built == [2]
    # level 1 still needs the identity lift
    dataclasses.replace(q54_k1, lift=np.roll(q54_k1.lift, 1)).save(str(tmp_path / "bad.npz"))
    with pytest.raises(NumericalContractError, match="exactly level 1 has a trivial kernel and the identity lift"):
        quotient.QuotientGroup.load(str(tmp_path / "bad.npz"))


def test_save_is_atomic_and_versioned(q54_k1, tmp_path):
    q54_k1.save(str(tmp_path / "g"))  # the suffix is appended, as np.savez does
    assert [p.name for p in tmp_path.iterdir()] == ["g.npz"]
    with np.load(tmp_path / "g.npz") as data:
        assert json.loads(bytes(data["header"]).decode())["version"] == quotient.CACHE_VERSION


def test_cache_holds_only_the_index_tables(q54_k2, tmp_path):
    # the element rows, the discovery tree and the torsion audit are computed from the tables, never written
    q54_k2.save(str(tmp_path / "g.npz"))
    with np.load(tmp_path / "g.npz") as data:
        assert sorted(data.files) == ["gen_perm", "header", "lift"]
        header = json.loads(bytes(data["header"]).decode())
    assert sorted(header) == ["hyperbulk", "k", "kernel_order", "p", "q", "s", "version"]


@pytest.mark.parametrize("pqsk", [(5, 4, 2, 1), (5, 4, 2, 2), (5, 4, 2, 3), (6, 6, 3, 2)],
                         ids=lambda key: "{}_{}_s{}_k{}".format(*key))
def test_loaded_group_computes_the_built_rows(tmp_path, pqsk):
    group = quotient.build_quotient(*pqsk)
    group.save(str(tmp_path / "g.npz"))
    loaded = quotient.QuotientGroup.load(str(tmp_path / "g.npz"))
    assert "elements" not in vars(loaded)  # not read from the file
    assert loaded.elements.dtype == group.elements.dtype == quotient._storage_dtype(group.modulus)
    assert np.array_equal(loaded.elements, group.elements)


def test_cache_header_names_the_package_version(q54_k1, tmp_path):
    path = tmp_path / "g.npz"
    q54_k1.save(str(path))
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
        arrays = {name: data[name] for name in data.files}
    assert header["hyperbulk"] == hyperbulk.__version__
    # load ignores it: the tables of another release load unchanged
    header["hyperbulk"] = "0.0.0"
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
    loaded = quotient.QuotientGroup.load(str(path))
    for name in quotient._CACHE_ARRAYS:
        assert np.array_equal(getattr(loaded, name), getattr(q54_k1, name))


def test_cache_is_stored_uncompressed(q54_k1, tmp_path):
    path = str(tmp_path / "g.npz")
    q54_k1.save(path)
    with zipfile.ZipFile(path) as zf:
        assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_STORED}


def test_compressed_cache_still_loads(q54_k1, tmp_path):
    # earlier versions wrote the same arrays with np.savez_compressed
    q54_k1.save(str(tmp_path / "g.npz"))
    with np.load(tmp_path / "g.npz") as data:
        np.savez_compressed(tmp_path / "old.npz", **{name: data[name] for name in data.files})
    old = quotient.QuotientGroup.load(str(tmp_path / "old.npz"))
    for name in quotient._CACHE_ARRAYS:
        assert np.array_equal(getattr(old, name), getattr(q54_k1, name))


def test_flipped_cache_byte_fails_the_zip_crc(q54_k1, tmp_path):
    path = tmp_path / "g.npz"
    q54_k1.save(str(path))
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo("gen_perm.npy")
    raw = bytearray(path.read_bytes())
    name_len, extra_len = struct.unpack("<HH", raw[info.header_offset + 26 : info.header_offset + 30])
    raw[info.header_offset + 30 + name_len + extra_len + info.file_size - 1] ^= 1
    path.write_bytes(raw)
    with pytest.raises(NumericalContractError, match="CRC"):
        quotient.QuotientGroup.load(str(path))


def _swap(rows, t, i, j):
    rows = rows.copy()
    rows[t, [i, j]] = rows[t, [j, i]]
    return rows


def _leaf_siblings(g):
    """Siblings i and i + 1, the second a leaf, exchanged: the parents stay sorted and two tokens swap."""
    leaf = ~np.isin(np.arange(g.order), g.parents)
    i = 1 + int(np.flatnonzero((g.parents[1:-1] == g.parents[2:]) & leaf[2:])[0])
    new = np.arange(g.order)
    new[[i, i + 1]] = [i + 1, i]
    return new


# defect message -> the tables that carry it
BROKEN = {
    "gen_perm row is not a permutation": lambda g: {"gen_perm": np.where(g.gen_perm == 1, 0, g.gen_perm)},
    "gen_perm rows .* do not compose to 1": lambda g: {"gen_perm": _swap(g.gen_perm, 0, 5, 9)},
    # valid group tables, numbered otherwise than by a BFS
    "the discovery tree is not breadth-first": lambda g: {"gen_perm": relabelled(g.gen_perm, fixing_0(g.order))},
    "two siblings are out of token order": lambda g: {"gen_perm": relabelled(g.gen_perm, _leaf_siblings(g))},
    "lift is not a permutation": lambda g: {"lift": np.zeros_like(g.lift)},
}


@pytest.mark.parametrize("defect", sorted(BROKEN))
def test_load_rejects_broken_tables(q54_k1, tmp_path, defect):
    path = str(tmp_path / "g.npz")
    dataclasses.replace(q54_k1, **BROKEN[defect](q54_k1)).save(path)
    with pytest.raises(NumericalContractError, match=f"unusable: .*{defect}"):
        quotient.QuotientGroup.load(path)


@pytest.mark.parametrize("weaken", [lambda keys: keys & np.uint64(3), lambda keys: keys * np.uint64(0)], ids=["4-keys", "1-key"])
@pytest.mark.parametrize("pqsk", [(5, 4, 2, 1), (6, 6, 3, 2)], ids=["72-byte-rows", "18-byte-rows"])
def test_load_checks_tied_keys_row_by_row(tmp_path, monkeypatch, weaken, pqsk):
    # distinct rows that share a key are computed; equal rows are refused whatever their keys
    group = quotient.build_quotient(*pqsk)
    want = group.elements
    path = str(tmp_path / "g.npz")
    group.save(path)
    row_keys = quotient.row_keys
    monkeypatch.setattr(quotient, "row_keys", lambda rows: weaken(row_keys(rows)))
    assert np.array_equal(quotient.QuotientGroup.load(path).elements, want)
    # the last element reached by the tree edge of the one before it: two equal rows
    bad = dataclasses.replace(group)
    bad.parents, bad.tokens = group.parents.copy(), group.tokens.copy()
    bad.parents[-1], bad.tokens[-1] = bad.parents[-2], bad.tokens[-2]
    with pytest.raises(NumericalContractError, match="two elements rows are equal"):
        bad.elements


def test_load_refuses_int64_entries_that_int32_cannot_hold(q54_k1, tmp_path):
    # entries moved by 2^32 would wrap back onto a valid table if they were narrowed unchecked
    path = tmp_path / "g.npz"
    q54_k1.save(str(path))
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    arrays["gen_perm"] = arrays["gen_perm"] + np.int64(2**32)
    np.savez(path, **arrays)
    with pytest.raises(NumericalContractError, match="unusable: gen_perm has entries outside the range of int32"):
        quotient.QuotientGroup.load(str(path))
