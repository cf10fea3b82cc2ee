import argparse
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from hyperbulk import cli, geometry, junction, outputs, quotient, spectral, triangle
from hyperbulk.errors import NumericalContractError

from conftest import fixing_0, relabelled, window_and_factors


def run(argv):
    return cli.main(argv)


def strict_json(text):
    """json.loads that refuses NaN and infinity, which are not JSON."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_minpoly_by_index(tmp_path, capsys):
    code = run(["--out", str(tmp_path), "minpoly", "-n", "8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "x^2 - 2" in out
    coeffs = json.loads((tmp_path / "minpoly_8.json").read_text())
    assert [int(c) for c in coeffs] == [-2, 0, 1]
    assert (tmp_path / "minpoly_config.json").exists()


def test_minpoly_by_pair(tmp_path, capsys):
    code = run(["--out", str(tmp_path), "minpoly", "--pq", "5", "4"])
    assert code == 0
    assert "n = 40" in capsys.readouterr().out
    assert (tmp_path / "minpoly_40.json").exists()


def test_minpoly_nonpositive_index_exits_2(tmp_path, capsys):
    assert run(["--out", str(tmp_path), "minpoly", "-n", "0"]) == 2
    assert "must be positive" in capsys.readouterr().err


def test_group_reports_torsion(tmp_path, capsys):
    code = run(["--out", str(tmp_path), "group", "5", "4", "--s", "2", "--k", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "|G_1| = 160" in out
    report = json.loads((tmp_path / "group_5_4_s2_k1.json").read_text())
    assert report["order"] == 160
    assert report["torsion_preserved"] is True


# run in a fresh interpreter: argv[1] is the directory holding the hyperbulk package, argv[2] the output directory
IMPORT_CONTRACT = """
import sys

sys.path.insert(0, sys.argv[1])
from hyperbulk import cli

assert "numpy" not in sys.modules, "hyperbulk.cli loaded numpy"
from hyperbulk import geometry, junction, operators, quotient, spectral


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


assert not scipy_modules(), f"importing the modules loaded {scipy_modules()}"
for argv in (["group", "5", "4", "--k", "3"], ["group", "7", "3", "--k", "2"], ["minpoly", "--pq", "5", "4"]):
    assert cli.main(["--out", sys.argv[2], *argv]) == 0
    assert not scipy_modules(), f"{argv} loaded {scipy_modules()}"
# the check sees scipy once a command uses it: exact spectra and flows load scipy.linalg and no scipy.sparse
for argv in (["spectrum", "5", "4", "--k", "1", "2"], ["flow", "5", "4", "--k", "2", "--samples", "2"]):
    assert cli.main(["--out", sys.argv[2], *argv]) == 0
    assert "scipy.linalg" in scipy_modules(), scipy_modules()
    sparse = [m for m in scipy_modules() if m.startswith("scipy.sparse")]
    assert not sparse, f"{argv} loaded {sparse}"
"""


def test_quotient_tower_loads_no_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, "-c", IMPORT_CONTRACT, src, str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_group_cache_round_trip(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["--out", str(tmp_path), "--cache-dir", str(cache), "group", "5", "4"]
    assert run(args) == 0
    assert (cache / "quotient_5_4_s2_k1.npz").exists()
    assert run(args) == 0  # second run loads from cache
    out = capsys.readouterr().out
    assert out.count("|G_1| = 160") == 2


def test_invalid_tessellation_exits_2(tmp_path, capsys):
    code = run(["--out", str(tmp_path), "group", "4", "4"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_element_cap_exits_3(tmp_path, capsys):
    code = run(["--out", str(tmp_path), "group", "5", "4", "--k", "9"])
    assert code == 3
    assert "resource limit" in capsys.readouterr().err


def test_spectrum_exact_outputs(tmp_path, capsys):
    code = run(
        ["--out", str(tmp_path), "spectrum", "5", "4", "--k", "1", "--method", "exact"]
    )
    assert code == 0
    assert (tmp_path / "spectrum_adj_5_4_s2_k1.csv").exists()
    assert (tmp_path / "idos_adj_5_4_s2_k1.csv").exists()
    gaps = json.loads((tmp_path / "gaps_adj_5_4_s2_k1.json").read_text())
    assert len(gaps) > 0


def test_spectrum_reports_diagonalized_blocks(tmp_path, capsys):
    assert run(["--out", str(tmp_path), "spectrum", "5", "4", "--k", "1", "2", "--method", "exact"]) == 0
    out = capsys.readouterr().out
    assert "k=1: dim 160, 1 of 1 character blocks of 160," in out
    assert "k=2: dim 2560, 4 of 16 character blocks of 160," in out
    # stdout only: no output file names the blocks
    assert not any("character blocks" in path.read_text() for path in tmp_path.iterdir())


def test_spectrum_model_selection(tmp_path):
    code = run(
        [
            "--out",
            str(tmp_path),
            "spectrum",
            "5",
            "4",
            "--k",
            "1",
            "--model",
            "h",
            "1",
            "1",
            "--eps",
            "0.8",
            "--method",
            "exact",
        ]
    )
    assert code == 0
    assert (tmp_path / "spectrum_h1_1_5_4_s2_k1.csv").exists()


@pytest.mark.parametrize(
    "argv, written",
    [
        pytest.param(["minpoly", "--pq", "5", "4"], "minpoly_40.json", id="minpoly"),
        pytest.param(["group", "5", "4", "--k", "2"], "group_5_4_s2_k2.json", id="group"),
        pytest.param(["spectrum", "5", "4", "--k", "1", "2"], "mse_adj_s2.json", id="spectrum-exact"),
        pytest.param(
            ["spectrum", "5", "4", "--k", "1", "--method", "kpm", "--moments", "64", "--grid", "128"],
            "dos_kpm_adj_5_4_s2_k1.csv",
            id="spectrum-kpm",
        ),
        pytest.param(["flow", "5", "4", "--k", "1", "--samples", "2"], "flow_5_4_s2_k1.csv", id="flow"),
        pytest.param(["junction", "--radius", "8"], "junction_5_4_r8_ldos_E+0.000.csv", id="junction"),
    ],
)
def test_rerun_byte_identical(tmp_path, argv, written):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["--out", str(a), "--seed", "11"] + argv) == 0
    assert run(["--out", str(b), "--seed", "11"] + argv) == 0
    names = sorted(path.name for path in a.iterdir())
    assert names == sorted(path.name for path in b.iterdir())
    assert written in names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_output_files_keep_the_format_contract(tmp_path):
    for argv in (
        ["minpoly", "--pq", "5", "4"],
        ["group", "5", "4"],
        ["spectrum", "5", "4", "--k", "1", "--method", "exact"],
        ["spectrum", "5", "4", "--k", "1", "2", "--method", "kpm", "--moments", "32", "--grid", "64"],
        ["flow", "5", "4", "--k", "1", "--samples", "2"],
        ["junction", "--radius", "4"],
    ):
        assert run(["--out", str(tmp_path)] + argv) == 0
    csvs = sorted(tmp_path.glob("*.csv"))
    jsons = sorted(tmp_path.glob("*.json"))
    # spectrum, idos, dos_kpm x2, idos_kpm x2, flow, sites, chi, ldos
    assert len(csvs) == 10
    for path in csvs:
        data = path.read_bytes()
        assert b"\r" not in data, path.name
        header, *rows = data.decode().split("\n")[:-1]
        assert header.split(",")[0] in ("index", "energy"), path.name
        assert rows and all(len(row.split(",")) == len(header.split(",")) for row in rows), path.name
        for value in ",".join(rows).split(","):
            assert "%.17g" % float(value) == value, (path.name, value)
    assert len(jsons) > 10
    for path in jsons:
        strict_json(path.read_text())


def test_write_json_refuses_nan(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(NumericalContractError, match="report.json"):
        outputs.write_json(str(path), {"tol": float("nan")})
    assert not path.exists()


def _subcommand_flags(command):
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions if a.dest != "help"}


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "5", "4", "--k", "1", "--method", "kpm", "--moments", "16", "--grid", "32"],
        ["flow", "5", "4", "--k", "1", "--samples", "2", "--crossing-tol", "0.02"],
    ],
    ids=["spectrum", "flow"],
)
def test_config_echo_holds_every_flag_and_the_seed(tmp_path, argv):
    assert run(["--out", str(tmp_path), "--seed", "5"] + argv) == 0
    echo = json.loads((tmp_path / f"{argv[0]}_config.json").read_text())
    parsed = vars(cli.build_parser().parse_args(["--seed", "5"] + argv))
    assert echo == {key: parsed[key] for key in _subcommand_flags(argv[0]) | {"seed"}}


def test_flow_report(tmp_path, capsys):
    code = run(
        ["--out", str(tmp_path), "flow", "5", "4", "--k", "1", "--samples", "4"]
    )
    assert code == 0
    report = json.loads((tmp_path / "flow_5_4_s2_k1_report.json").read_text())
    # at this quotient level the three phases are connected without a gap
    # closing only at the vertices: interior crossings exist
    assert report["interior_min_abs_energy"] < 0.01
    assert len(report["vertex_gap_widths"]) == 3
    csv_lines = (tmp_path / "flow_5_4_s2_k1.csv").read_text().strip().split("\n")
    assert len(csv_lines) == 1 + 3 * 4 + 1


def test_flow_single_sample_exits_2(tmp_path, capsys):
    code = run(["--out", str(tmp_path), "flow", "5", "4", "--k", "1", "--samples", "1"])
    assert code == 2
    assert "--samples" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["exact", "kpm"])
@pytest.mark.parametrize("grid", ["0", "1"])
def test_spectrum_grid_below_2_exits_2(tmp_path, capsys, method, grid):
    # an IDOS curve needs two grid points, whichever method fills it; nothing is written
    code = run(["--out", str(tmp_path), "spectrum", "5", "4", "--method", method, "--moments", "16", "--grid", grid])
    assert code == 2
    assert f"--grid must be at least 2, got {grid}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_flow_past_the_element_cap_exits_3(tmp_path, capsys):
    # {8,5} G_2 has 2560 x 1024 elements
    code = run(["--out", str(tmp_path), "flow", "8", "5", "--k", "2", "--samples", "2"])
    assert code == 3
    assert "resource limit" in capsys.readouterr().err


@pytest.mark.skipif(not os.environ.get("RUN_LONG"), reason="set RUN_LONG")
def test_flow_k3_counts_match_c6(tmp_path):
    # the cap bounds each block of 2560, so G_3 (81,920 elements) flows; six distinct points, about a minute
    assert run(["--out", str(tmp_path), "flow", "5", "4", "--k", "3", "--samples", "2"]) == 0
    flows = np.loadtxt(tmp_path / "flow_5_4_s2_k3.csv", delimiter=",", skiprows=1)
    assert flows.shape == (7, 4 + 81920)
    # |G_3| / nu_alpha states below the gap at the vertices h_1, h_2, h_3 (C6)
    assert [int((flows[i, 4:] < 0).sum()) for i in (0, 2, 4)] == [81920 // 5, 81920 // 4, 81920 // 2]
    report = json.loads((tmp_path / "flow_5_4_s2_k3_report.json").read_text())
    assert report["interior_min_abs_energy"] < 0.01


def test_ball_past_the_element_cap_exits_3_before_any_output(tmp_path, capsys, monkeypatch):
    # the radius-6 ball has 161 elements
    monkeypatch.setattr(triangle, "ELEMENT_CAP", 100)
    assert run(["--out", str(tmp_path), "junction", "--radius", "6"]) == 3
    assert "ball of radius 6 exceeded the element cap 100" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_spectrum_mse_reuses_each_level(tmp_path):
    exact = tmp_path / "exact"
    assert run(["--out", str(exact), "spectrum", "5", "4", "--k", "1", "2"]) == 0
    table = json.loads((exact / "mse_adj_s2.json").read_text())
    # frozen from the dense re-diagonalization this table used to come from
    assert table["mse"]["1"] == pytest.approx(3.224126994609833e-04, abs=1e-12)

    kpm = tmp_path / "kpm"
    argv = ["spectrum", "5", "4", "--k", "1", "2", "--method", "kpm", "--moments", "64", "--grid", "128"]
    assert run(["--out", str(kpm)] + argv) == 0
    curves = {
        k: np.loadtxt(kpm / f"idos_kpm_adj_5_4_s2_k{k}.csv", delimiter=",", skiprows=1)
        for k in (1, 2)
    }
    want = np.mean((np.interp(curves[2][:, 0], curves[1][:, 0], curves[1][:, 1]) - curves[2][:, 1]) ** 2)
    table = json.loads((kpm / "mse_adj_s2.json").read_text())
    assert table["mse"]["1"] == pytest.approx(want, rel=1e-9)


def test_corrupt_kernel_in_cache_exits_4(tmp_path, capsys):
    cache = tmp_path / "cache"
    path = cache / "quotient_5_4_s2_k2.npz"
    assert run(["--out", str(tmp_path), "--cache-dir", str(cache), "group", "5", "4", "--k", "2"]) == 0
    group = quotient.QuotientGroup.load(str(path))
    # two kernel elements of coset 0 with exchanged coordinates: the kernel map is no longer additive
    kernel = np.flatnonzero(group.sectors.coset == 0)
    group.lift[kernel[[1, -1]]] = group.lift[kernel[[-1, 1]]]
    group.save(str(path))
    code = run(["--out", str(tmp_path), "--cache-dir", str(cache), "flow", "5", "4", "--k", "2", "--samples", "2"])
    assert code == 4
    assert "break (t, n) g = (t g, n + c(t, g))" in capsys.readouterr().err


def _cached_k2(tmp_path):
    cache = tmp_path / "cache"
    assert run(["--out", str(tmp_path), "--cache-dir", str(cache), "group", "5", "4", "--k", "2"]) == 0
    return cache, cache / "quotient_5_4_s2_k2.npz"


def _written(out):
    return sorted(out.rglob("*")) if out.exists() else []


def _rewrite(path, header=None, **tables):
    """Rewrite the cache file at path with header entries and arrays replaced (None deletes one)."""
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    head = json.loads(bytes(arrays["header"]).decode())
    for entries, new in ((head, header or {}), (arrays, tables)):
        entries.update(new)
        for name in [name for name, value in new.items() if value is None]:
            del entries[name]
    arrays["header"] = np.frombuffer(json.dumps(head).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


@pytest.mark.parametrize(
    "argv",
    [["group", "5", "4", "--k", "2"], ["spectrum", "5", "4", "--k", "2", "--method", "kpm", "--moments", "16"]],
    ids=["group", "spectrum-kpm"],
)
def test_relabelled_gen_perm_in_cache_exits_4(tmp_path, capsys, argv):
    # valid group tables under another numbering: the tree derived from them is not breadth-first
    cache, path = _cached_k2(tmp_path)
    group = quotient.QuotientGroup.load(str(path))
    _rewrite(path, gen_perm=relabelled(group.gen_perm, fixing_0(group.order)))
    capsys.readouterr()
    assert run(["--out", str(tmp_path / "out"), "--cache-dir", str(cache)] + argv) == 4
    assert "the discovery tree is not breadth-first" in capsys.readouterr().err
    assert _written(tmp_path / "out") == []


@pytest.mark.parametrize("rows, shape", [(slice(3), "(3, 2560)"), (0, "(2560,)")], ids=["three-rows", "one-row"])
def test_gen_perm_of_another_shape_in_cache_exits_4(tmp_path, capsys, rows, shape):
    # the shape is checked before the order is read or the tree derived from the rows
    cache, path = _cached_k2(tmp_path)
    _rewrite(path, gen_perm=quotient.QuotientGroup.load(str(path)).gen_perm[rows])
    capsys.readouterr()
    assert run(["--out", str(tmp_path / "out"), "--cache-dir", str(cache), "group", "5", "4", "--k", "2"]) == 4
    assert f"gen_perm has shape {shape}" in capsys.readouterr().err
    assert _written(tmp_path / "out") == []


def test_torsion_in_a_cache_header_is_not_read(tmp_path, capsys):
    # the audit is computed from the tables: a header that claims A has order 99 changes nothing
    cache, path = _cached_k2(tmp_path)
    want = (tmp_path / "group_5_4_s2_k2.json").read_bytes()
    torsion = {"A": {"expected": 5, "order": 99}, "B": {"expected": 4, "order": 4}, "AB": {"expected": 2, "order": 2}}
    _rewrite(path, header={"torsion": torsion})
    capsys.readouterr()
    assert run(["--out", str(tmp_path / "out"), "--cache-dir", str(cache), "group", "5", "4", "--k", "2"]) == 0
    assert "A: expected 5, got 5  [preserved]" in capsys.readouterr().out
    assert (tmp_path / "out" / "group_5_4_s2_k2.json").read_bytes() == want


def test_version_5_cache_exits_4(tmp_path, capsys):
    # version-5 files also held the discovery tree, the order and the torsion audit
    cache, path = _cached_k2(tmp_path)
    group = quotient.QuotientGroup.load(str(path))
    _rewrite(path, header={"version": 5, "order": group.order, "torsion": group.torsion},
             parents=group.parents, tokens=group.tokens)
    capsys.readouterr()
    assert run(["--out", str(tmp_path / "out"), "--cache-dir", str(cache), "group", "5", "4", "--k", "2"]) == 4
    assert f"format version 5, expected {quotient.CACHE_VERSION}" in capsys.readouterr().err
    assert _written(tmp_path / "out") == []


@pytest.mark.parametrize(
    "argv", [["spectrum", "5", "4", "--k", "2"], ["flow", "5", "4", "--k", "2", "--samples", "2"]], ids=["spectrum", "flow"]
)
def test_altered_coordinates_in_cache_exit_4(tmp_path, capsys, argv):
    # two kernel elements with exchanged coordinates load (lift is still a permutation) and fail in the sectors
    cache, path = _cached_k2(tmp_path)
    group = quotient.QuotientGroup.load(str(path))
    kernel = np.flatnonzero(group.sectors.coset == 0)
    group.lift[kernel[[1, 2]]] = group.lift[kernel[[2, 1]]]
    group.save(str(path))
    quotient.QuotientGroup.load(str(path))
    capsys.readouterr()
    assert run(["--out", str(tmp_path / "out"), "--cache-dir", str(cache)] + argv) == 4
    assert "break (t, n) g = (t g, n + c(t, g))" in capsys.readouterr().err
    assert _written(tmp_path / "out") == []


def test_version_3_cache_exits_4(tmp_path, capsys):
    # version-3 files held no lift and no kernel order
    cache, path = _cached_k2(tmp_path)
    _rewrite(path, header={"version": 3, "kernel_order": None}, lift=None)
    assert run(["--out", str(tmp_path), "--cache-dir", str(cache), "group", "5", "4", "--k", "2"]) == 4
    assert f"format version 3, expected {quotient.CACHE_VERSION}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["group", "5", "4", "--k", "2"],
        ["spectrum", "5", "4", "--k", "2", "--method", "kpm", "--moments", "16"],
    ],
)
def test_corrupt_elements_in_cache_exit_4_for_group_and_kpm(tmp_path, capsys, argv):
    # version-4 files also held the element rows, which are now computed from the tables:
    # such a file, here with two equal rows, is refused before anything reads them
    cache, path = _cached_k2(tmp_path)
    group = quotient.QuotientGroup.load(str(path))
    elements = group.elements.copy()
    kernel = np.flatnonzero(group.sectors.coset == 0)
    elements[kernel[-1]] = elements[kernel[1]]
    _rewrite(path, header={"version": 4}, elements=elements)
    capsys.readouterr()
    assert run(["--out", str(tmp_path / "out"), "--cache-dir", str(cache)] + argv) == 4
    assert f"format version 4, expected {quotient.CACHE_VERSION}" in capsys.readouterr().err
    assert _written(tmp_path / "out") == []


@pytest.mark.parametrize(
    "index, value, message",
    [
        pytest.param((0, 3), 2560, "a gen_perm row is not a permutation", id="entry-out-of-range"),
        pytest.param((2, 3), -1, "a gen_perm row is not a permutation", id="negative-entry"),
        pytest.param((1, 3), lambda perm: perm[1, 4], "a gen_perm row is not a permutation", id="repeated-entry"),
        pytest.param((0, [5, 9]), lambda perm: perm[0, [9, 5]],
                     "gen_perm rows of a generator and its inverse do not compose to 1", id="inverse-mismatch"),
    ],
)
def test_corrupt_gen_perm_in_cache_exits_4(tmp_path, capsys, index, value, message):
    # tables numbered otherwise than by a BFS: test_relabelled_gen_perm_in_cache_exits_4
    cache, path = _cached_k2(tmp_path)
    group = quotient.QuotientGroup.load(str(path))
    group.gen_perm[index] = value(group.gen_perm) if callable(value) else value
    group.save(str(path))
    capsys.readouterr()
    assert run(["--out", str(tmp_path / "out"), "--cache-dir", str(cache), "group", "5", "4", "--k", "2"]) == 4
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cache_with_int64_tables_gives_the_same_kpm_bytes(tmp_path):
    # tables written as int64 are narrowed as they load
    cache, path = _cached_k2(tmp_path)
    built = quotient.build_quotient(5, 4, 2, 2)
    _rewrite(path, **{name: getattr(built, name).astype(np.int64) for name in quotient._CACHE_ARRAYS})
    loaded = quotient.QuotientGroup.load(str(path))
    for name in (*quotient._CACHE_ARRAYS, "parents", "tokens"):
        assert getattr(loaded, name).dtype == getattr(built, name).dtype, name
        assert np.array_equal(getattr(loaded, name), getattr(built, name)), name
    argv = ["spectrum", "5", "4", "--k", "2", "--method", "kpm", "--moments", "64"]
    assert run(["--out", str(tmp_path / "loaded"), "--cache-dir", str(cache)] + argv) == 0
    assert run(["--out", str(tmp_path / "built")] + argv) == 0
    with np.load(path) as data:
        assert data["gen_perm"].dtype == np.int64  # the file was read, not rewritten
    names = sorted(p.name for p in (tmp_path / "built").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "loaded").iterdir())
    for name in names:
        assert (tmp_path / "loaded" / name).read_bytes() == (tmp_path / "built" / name).read_bytes(), name


def test_truncated_cache_exits_4(tmp_path, capsys):
    cache, path = _cached_k2(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    assert run(["--out", str(tmp_path), "--cache-dir", str(cache), "group", "5", "4", "--k", "2"]) == 4
    assert "unusable" in capsys.readouterr().err


def test_cache_of_another_version_exits_4(tmp_path, capsys, monkeypatch):
    cache, path = _cached_k2(tmp_path)
    group = quotient.QuotientGroup.load(str(path))
    monkeypatch.setattr(quotient, "CACHE_VERSION", quotient.CACHE_VERSION + 1)
    group.save(str(path))
    monkeypatch.undo()
    assert run(["--out", str(tmp_path), "--cache-dir", str(cache), "group", "5", "4", "--k", "2"]) == 4
    assert "format version" in capsys.readouterr().err


def test_cache_of_another_quotient_exits_4(tmp_path, capsys):
    cache, path = _cached_k2(tmp_path)
    path.rename(cache / "quotient_5_4_s2_k1.npz")
    assert run(["--out", str(tmp_path), "--cache-dir", str(cache), "group", "5", "4", "--k", "1"]) == 4
    assert "holds {5,4} mod 2^2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "built, label, message",
    [(2, 1, "level 1 with a kernel of order 16"), (3, 2, "the tables are not those of level 2")],
    ids=["k2-as-k1", "k3-as-k2"],
)
def test_cache_labelled_with_another_level_exits_4(tmp_path, capsys, built, label, message):
    # G_k's tables under G_(k-1)'s name and header: consistent tables of the wrong level
    cache = tmp_path / "cache"
    assert run(["--out", str(tmp_path), "--cache-dir", str(cache), "group", "5", "4", "--k", str(built)]) == 0
    path = cache / f"quotient_5_4_s2_k{label}.npz"
    (cache / f"quotient_5_4_s2_k{built}.npz").rename(path)
    _rewrite(path, header={"k": label})
    capsys.readouterr()
    argv = ["--out", str(tmp_path / "out"), "--cache-dir", str(cache)]
    assert run(argv + ["group", "5", "4", "--k", str(label)]) == 4
    assert message in capsys.readouterr().err
    assert run(argv + ["spectrum", "5", "4", "--k", str(label), "--method", "kpm", "--moments", "16"]) == 4
    assert message in capsys.readouterr().err
    assert _written(tmp_path / "out") == []


def test_junction_command(tmp_path, capsys):
    code = run(
        ["--out", str(tmp_path), "junction", "--radius", "5", "--energies", "0.0"]
    )
    assert code == 0
    report = json.loads((tmp_path / "junction_5_4_r5_report.json").read_text())
    assert report["sites"] == 97
    assert report["energies"][0]["states_in_window"] > 0
    # the solve is reported on stdout only: the report keeps its fields
    out = capsys.readouterr().out
    assert "inertia count" in out and "Krylov basis" in out and "max residual" in out
    assert set(report) == {"sites", "nnz", "energies"}
    assert set(report["energies"][0]) == {
        "energy",
        "delta_e",
        "states_in_window",
        "interface_ratio_bulk",
        "interface_ratio_raw",
    }
    assert (tmp_path / "junction_5_4_r5_sites.csv").exists()
    assert (tmp_path / "junction_5_4_r5_chi.csv").exists()
    assert (tmp_path / "junction_5_4_r5_H.mtx").exists()


def test_junction_empty_window_writes_null_ratios(tmp_path, capsys):
    assert run(["--out", str(tmp_path), "junction", "--radius", "4", "--energies", "5.0"]) == 0
    assert "interface ratio undefined" in capsys.readouterr().out
    entry = strict_json((tmp_path / "junction_5_4_r4_report.json").read_text())["energies"][0]
    assert entry["states_in_window"] == 0
    assert entry["interface_ratio_bulk"] is None
    assert entry["interface_ratio_raw"] is None


def test_junction_ldos_far_from_zero_energy(tmp_path, capsys):
    # |E_n - E| near 1.5e154 squares past the float range; the ratio to delta_e does not
    argv = ["--out", str(tmp_path), "junction", "--radius", "3", "--energies", "1.5e154", "--delta-e", "3e153"]
    assert run(argv) == 0
    assert "20 states in window" in capsys.readouterr().out
    ldos = np.loadtxt(next(tmp_path.glob("junction_5_4_r3_ldos_*.csv")), delimiter=",", skiprows=1)[:, 1]
    # every state sits about 5 delta_e below E: Gaussian weight exp(-12.5) each
    assert ldos.sum() == pytest.approx(20 * np.exp(-12.5), rel=0.05)


def test_junction_memory_limit_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(spectral, "EIGENPAIRS_MEMORY", 1000)
    assert run(["--out", str(tmp_path), "junction", "--radius", "5"]) == 3
    assert "resource limit" in capsys.readouterr().err


def test_junction_ritz_step_beyond_the_memory_limit_exits_3(tmp_path, capsys, monkeypatch):
    # room for the LU factors, the basis and the projection, not for the Ritz vectors as well
    ball = triangle.ball_enumerate(5, 4, 5)
    pos = geometry.site_positions(ball, geometry.incenter(5, 4))
    ham = sp.csc_matrix(junction.assemble_junction(ball, pos, junction.JunctionConfig()))
    pairs, factors = window_and_factors(ham, center=0.0, half_width=0.25)
    n, m, lu = ham.shape[0], pairs.count, factors[-1]
    size = min(n, 2 * m + 4 * spectral.KRYLOV_BLOCK)
    lu_and_basis = spectral._lu_bytes(lu, ham.dtype) + (n + size) * size * ham.dtype.itemsize
    footprint = spectral._footprint(lu, ham.dtype, n, m, size)
    monkeypatch.setattr(spectral, "EIGENPAIRS_MEMORY", (lu_and_basis + footprint) // 2)
    assert run(["--out", str(tmp_path), "junction", "--radius", "5"]) == 3
    assert "resource limit" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_ldos_*"))


def test_junction_releases_each_energy_before_the_next(tmp_path):
    # the same window twice: the second solve needs no more memory than the first did
    def peak(*energies):
        tracemalloc.start()
        try:
            run(["--out", str(tmp_path), "junction", "--radius", "8", "--delta-e", "0.1", "--energies", *energies])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak("0")
    assert peak("0", "0") <= peak("0") + 128 * 1024


def miscount(monkeypatch):
    """One eigenvalue fewer above each positive edge: one more in the window than there is."""
    count = spectral._count_below

    def miscounting(a, x, rng):
        below, above = count(a, x, rng)
        return below, above - (x > 0)

    monkeypatch.setattr(spectral, "_count_below", miscounting)


def test_junction_count_mismatch_exits_4(tmp_path, capsys, monkeypatch):
    # no basis can reproduce the count
    miscount(monkeypatch)
    assert run(["--out", str(tmp_path), "junction", "--radius", "5"]) == 4
    assert "inertia count" in capsys.readouterr().err
    assert not (tmp_path / "junction_5_4_r5_report.json").exists()


def test_junction_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"radius": 4, "ell": 0.15}))
    code = run(["--out", str(tmp_path), "junction", "--config", str(cfg)])
    assert code == 0
    echo = json.loads((tmp_path / "junction_config.json").read_text())
    assert echo["radius"] == 4
    assert echo["ell"] == 0.15


def test_threads_validation(capsys):
    assert cli.main(["--threads", "0", "minpoly", "-n", "8"]) == 2


KPM = ["spectrum", "5", "4", "--method", "kpm", "--moments", "16", "--grid", "8"]
THREAD_DEFAULTS = {
    "kpm": ([], KPM, {}, "1"),
    "auto": ([], ["spectrum", "5", "4", "--grid", "8"], {}, "1"),
    "exact": ([], ["spectrum", "5", "4", "--method", "exact", "--grid", "8"], {}, None),
    "flow": ([], ["flow", "5", "4", "--samples", "2"], {}, None),
    "threads-given": (["--threads", "2"], KPM, {}, "2"),
    "environment-set": ([], KPM, {"OPENBLAS_NUM_THREADS": "3"}, "1"),
}


@pytest.mark.parametrize("case", sorted(THREAD_DEFAULTS))
def test_kpm_and_auto_spectra_default_to_one_thread(tmp_path, monkeypatch, case):
    flags, argv, env, want = THREAD_DEFAULTS[case]
    for var in cli._THREAD_VARS:
        monkeypatch.setitem(os.environ, var, "")  # restored on teardown, whatever main sets
        monkeypatch.delitem(os.environ, var)
    for var, value in env.items():
        monkeypatch.setitem(os.environ, var, value)
    assert run(flags + ["--out", str(tmp_path)] + argv) == 0
    for var in cli._THREAD_VARS:
        assert os.environ.get(var) == env.get(var, want), var


def test_junction_config_pairs_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"radius": 12, "ell": 0.15, "models": [[1, 1], [2, 1], [3, 1]]}))
    assert run(["--out", str(tmp_path), "junction", "--config", str(cfg), "--radius", "4", "--ell", "0.2"]) == 0
    echo = json.loads((tmp_path / "junction_config.json").read_text())
    assert (echo["radius"], echo["ell"], echo["models"]) == (4, 0.2, [[1, 1], [2, 1], [3, 1]])


def test_non_integer_model_token_exits_2(tmp_path, capsys):
    assert run(["--out", str(tmp_path), "spectrum", "5", "4", "--model", "h", "x", "1"]) == 2
    assert "--model" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(["flow", "5", "4", "--samples", "2", "--crossing-tol", "nan"], "--crossing-tol", id="flow-nan"),
        pytest.param(["junction", "--radius", "4", "--energies", "nan"], "--energies", id="junction-nan"),
        pytest.param(["spectrum", "5", "4", "--eps", "inf"], "--eps", id="spectrum-inf"),
    ],
)
def test_non_finite_float_flag_exits_2(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        run(["--out", str(tmp_path)] + argv)
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "text, named",
    [
        pytest.param(None, "cannot read", id="missing"),
        pytest.param("{bad", "cannot read", id="not-json"),
        pytest.param("[4]", "JSON object", id="not-an-object"),
        pytest.param('{"radious": 4}', "'radious'", id="unknown-key"),
        pytest.param('{"radius": 4.7}', "'radius'", id="float-for-int"),
        pytest.param('{"radius": "four"}', "'radius'", id="string-for-int"),
        pytest.param('{"radius": 4, "energies": 0.1}', "'energies'", id="energies-not-a-list"),
        pytest.param('{"radius": 4, "ell": NaN}', "'ell'", id="nan"),
        pytest.param('{"radius": 4, "ell": 1' + "0" * 400 + "}", "'ell'", id="int-overflows-float"),
        pytest.param('{"radius": 4, "models": [1, 1, 2, 1, 3]}', "'models'", id="five-models"),
    ],
)
def test_bad_junction_config_exits_2(tmp_path, capsys, text, named):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    assert run(["--out", str(tmp_path / "out"), "junction", "--config", str(cfg)]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_MODEL_PAIRS = {"models": [[1, 1], [2, 1], [3, 1]]}


@pytest.mark.parametrize(
    "argv, files, frozen",
    [
        pytest.param(["minpoly", "-n", "12"], {}, {"n": 12, "seed": 11}, id="minpoly-n"),
        pytest.param(["minpoly", "--pq", "5", "4"], {}, {"n": 40, "seed": 11}, id="minpoly-pq"),
        pytest.param(
            ["group", "5", "4", "--k", "2"],
            {},
            {
                "k": 2, "order": 2560, "p": 5, "q": 4, "s": 2, "seed": 11,
                "torsion": {
                    "A": {"expected": 5, "order": 5},
                    "AB": {"expected": 2, "order": 2},
                    "B": {"expected": 4, "order": 4},
                },
                "torsion_preserved": True,
            },
            id="group",
        ),
        pytest.param(
            ["junction", "--radius", "4", "--phi-y", "0.3", "--models", "1", "1", "1", "1", "2", "1",
             "--energies", "0", "0.2", "--delta-e", "0.04", "--ell", "0.2", "--eps", "0.9"],
            {},
            {
                "delta_e": 0.04, "ell": 0.2, "energies": [0.0, 0.2], "eps": 0.9,
                "models": [[1, 1], [1, 1], [2, 1]], "p": 5, "phi_y": 0.3, "q": 4, "radius": 4, "seed": 11,
            },
            id="junction-flags",
        ),
        pytest.param(
            ["junction", "--config", "cfg.json"],
            {"radius": 4, "ell": 1, "eps": 1, **_MODEL_PAIRS, "energies": [0, 1], "delta_e": 1, "phi_y": 0},
            {
                "delta_e": 1.0, "ell": 1.0, "energies": [0.0, 1.0], "eps": 1.0, **_MODEL_PAIRS,
                "p": 5, "phi_y": 0.0, "q": 4, "radius": 4, "seed": 11,
            },
            id="junction-file-integers-and-pairs",
        ),
        pytest.param(
            ["junction", "--config", "cfg.json", "--radius", "4", "--eps", "0.7"],
            {"radius": 5, "models": [2, 1, 3, 1, 1, 1], "eps": 0.5},
            {
                "delta_e": 0.05, "ell": 0.1, "energies": [0.0], "eps": 0.7, "models": [[2, 1], [3, 1], [1, 1]],
                "p": 5, "phi_y": 0.3141592653589793, "q": 4, "radius": 4, "seed": 11,
            },
            id="junction-flat-file-and-flags",
        ),
    ],
)
def test_config_echo_matches_frozen(tmp_path, monkeypatch, argv, files, frozen):
    # compared as text, so an int where the echo holds a float (1 for 1.0) fails
    monkeypatch.chdir(tmp_path)
    if files:
        (tmp_path / "cfg.json").write_text(json.dumps(files))
    assert run(["--out", "out", "--seed", "11"] + argv) == 0
    text = (tmp_path / "out" / f"{argv[0]}_config.json").read_text()
    assert text == json.dumps(frozen, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "flag, text",
    [
        pytest.param(["--delta-e", "-0.1"], None, id="negative-flag"),
        pytest.param(["--delta-e", "0"], None, id="zero-flag"),
        pytest.param([], '{"radius": 4, "delta_e": 0}', id="zero-in-file"),
        pytest.param([], '{"radius": 4, "delta_e": -1}', id="negative-in-file"),
    ],
)
def test_nonpositive_delta_e_exits_2_before_any_output(tmp_path, capsys, flag, text):
    argv = ["--out", str(tmp_path / "out"), "junction", "--radius", "4"] + flag
    if text is not None:
        (tmp_path / "cfg.json").write_text(text)
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert run(argv) == 2
    assert "delta_e must be positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flag, text",
    [
        pytest.param(["--delta-e", "1e300"], None, id="flag"),
        pytest.param([], '{"radius": 3, "delta_e": 1e160}', id="in-file"),
    ],
)
def test_delta_e_whose_square_overflows_gives_unit_ldos(tmp_path, capsys, flag, text):
    # 2 delta_e^2 overflows, but ldos divides by delta_e before squaring; the window (5 delta_e wide)
    # holds all 30 states of the ball, each weighs exp(-0) = 1, and the LDOS is the completeness sum 1
    argv = ["--out", str(tmp_path), "junction", "--radius", "3"] + flag
    if text is not None:
        (tmp_path / "cfg.json").write_text(text)
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert run(argv) == 0
    assert "30 states in window" in capsys.readouterr().out
    ldos = np.loadtxt(tmp_path / "junction_5_4_r3_ldos_E+0.000.csv", delimiter=",", skiprows=1)
    assert ldos.shape == (30, 2)
    assert np.abs(ldos[:, 1] - 1.0).max() <= 1e-12


def test_junction_energy_far_outside_the_spectrum(tmp_path, capsys):
    # H - 1e308 I overflows; the window lies outside the Gershgorin interval and holds no state
    assert run(["--out", str(tmp_path), "junction", "--radius", "3", "--energies", "1e308"]) == 0
    assert "0 states in window" in capsys.readouterr().out
    entry = strict_json((tmp_path / "junction_5_4_r3_report.json").read_text())["energies"][0]
    assert entry["states_in_window"] == 0
    # the file name keeps to the 255-byte limit
    assert (tmp_path / "junction_5_4_r3_ldos_E+1.000e+308.csv").exists()


def _bad_junction_file(tmp_path, monkeypatch):
    (tmp_path / "cfg.json").write_text('{"radius": "four"}')
    return ["junction", "--config", str(tmp_path / "cfg.json")], 2


def _flow_past_the_cap(tmp_path, monkeypatch):
    return ["flow", "8", "5", "--k", "2", "--samples", "2"], 3


def _count_mismatch(tmp_path, monkeypatch):
    miscount(monkeypatch)
    return ["junction", "--radius", "5"], 4


@pytest.mark.parametrize("failing", [_bad_junction_file, _flow_past_the_cap, _count_mismatch], ids=["exit-2", "exit-3", "exit-4"])
def test_failed_run_writes_no_config_echo(tmp_path, monkeypatch, capsys, failing):
    out = tmp_path / "out"
    out.mkdir()
    argv, code = failing(tmp_path, monkeypatch)
    assert run(["--out", str(out)] + argv) == code
    assert not list(out.glob("*_config.json"))
