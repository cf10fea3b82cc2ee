import json

import numpy as np
import pytest

from hyperbulk import cli, quotient, spectral


def run(argv):
    return cli.main(argv)


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


def test_group_reports_torsion(tmp_path, capsys):
    code = run(["--out", str(tmp_path), "group", "5", "4", "--s", "2", "--k", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "|G_1| = 160" in out
    report = json.loads((tmp_path / "group_5_4_s2_k1.json").read_text())
    assert report["order"] == 160
    assert report["torsion_preserved"] is True


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


def test_spectrum_kpm_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["spectrum", "5", "4", "--k", "1", "--method", "kpm", "--moments", "64", "--grid", "128"]
    assert run(["--out", str(a), "--seed", "11"] + argv) == 0
    assert run(["--out", str(b), "--seed", "11"] + argv) == 0
    for name in ("dos_kpm_adj_5_4_s2_k1.csv", "idos_kpm_adj_5_4_s2_k1.csv", "spectrum_config.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_junction_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["junction", "--radius", "8"]
    assert run(["--out", str(a), "--seed", "11"] + argv) == 0
    assert run(["--out", str(b), "--seed", "11"] + argv) == 0
    names = sorted(path.name for path in a.iterdir())
    assert names == sorted(path.name for path in b.iterdir())
    assert "junction_5_4_r8_ldos_E+0.000.csv" in names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


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


def test_flow_k3_exits_3(tmp_path, capsys):
    code = run(["--out", str(tmp_path), "flow", "5", "4", "--k", "3", "--samples", "2"])
    assert code == 3
    assert "resource limit" in capsys.readouterr().err


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
    # one kernel element stored with another's coefficients: the kernel map is no longer additive
    kernel = np.flatnonzero(group.sectors.coset == 0)
    group.elements[kernel[-1]] = group.elements[kernel[1]]
    group.save(str(path))
    code = run(["--out", str(tmp_path), "--cache-dir", str(cache), "flow", "5", "4", "--k", "2", "--samples", "2"])
    assert code == 4
    assert "numerical contract" in capsys.readouterr().err


def _cached_k2(tmp_path):
    cache = tmp_path / "cache"
    assert run(["--out", str(tmp_path), "--cache-dir", str(cache), "group", "5", "4", "--k", "2"]) == 0
    return cache, cache / "quotient_5_4_s2_k2.npz"


@pytest.mark.parametrize(
    "argv",
    [
        ["group", "5", "4", "--k", "2"],
        ["spectrum", "5", "4", "--k", "2", "--method", "kpm", "--moments", "16"],
    ],
)
def test_corrupt_elements_in_cache_exit_4_for_group_and_kpm(tmp_path, capsys, argv):
    cache, path = _cached_k2(tmp_path)
    group = quotient.QuotientGroup.load(str(path))
    kernel = np.flatnonzero(group.sectors.coset == 0)
    group.elements[kernel[-1]] = group.elements[kernel[1]]
    group.save(str(path))
    assert run(["--out", str(tmp_path), "--cache-dir", str(cache)] + argv) == 4
    assert "elements rows are equal" in capsys.readouterr().err


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

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    text = (tmp_path / "junction_5_4_r4_report.json").read_text()
    entry = json.loads(text, parse_constant=refuse)["energies"][0]
    assert entry["states_in_window"] == 0
    assert entry["interface_ratio_bulk"] is None
    assert entry["interface_ratio_raw"] is None


def test_junction_memory_limit_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(spectral, "EIGENPAIRS_MEMORY", 1000)
    assert run(["--out", str(tmp_path), "junction", "--radius", "5"]) == 3
    assert "resource limit" in capsys.readouterr().err


def test_junction_count_mismatch_exits_4(tmp_path, capsys, monkeypatch):
    count = spectral._count_below
    # one eigenvalue more in the window than there is: no basis can reproduce the count
    monkeypatch.setattr(spectral, "_count_below", lambda a, x, rng: count(a, x, rng) + (x > 0))
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
