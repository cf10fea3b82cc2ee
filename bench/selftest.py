"""Tests of the benchmark itself, at smoke sizes (k=1, radius 4).

Run from the repository root:

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import reference  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.fixture(scope="module")
def smoke():
    """Result line and results file of every workload, untraced and traced."""
    out = {}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            done = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
            assert done.returncode == 0, done.stderr
            tag = f"{workload}-smoke-seed3-trace{trace}"
            with open(os.path.join(run.WORK, "results", f"BENCH_{tag}.json")) as fh:
                saved = json.load(fh)
            spans_path = os.path.join(run.WORK, "results", f"SPANS_{tag}.json")
            spans = None
            if trace:
                with open(spans_path) as fh:
                    spans = json.load(fh)
            out[workload, trace] = (json.loads(done.stdout.strip().splitlines()[-1]), saved, spans)
    return out


def test_result_lines_match_benchmark_json(smoke):
    for (workload, trace), (result, _, _) in smoke.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, workload
        declared = BENCHMARK["per_layer" if trace else "end_to_end"]
        assert {m["name"]: m["unit"] for m in declared} == {
            name: entry["unit"] for name, entry in result["metrics"].items()
        }
        assert all(isinstance(e["value"], (int, float)) for e in result["metrics"].values())


def test_every_named_span_fires(smoke):
    fired = {span["name"] for (_, trace), (_, _, spans) in smoke.items() if trace for span in spans}
    fired_layers = {name.split(".")[0] for name in fired}
    for metric in run.PER_LAYER:
        owner = metric.rsplit(".", 1)[0]
        if owner == "trace":
            continue
        if "." in owner:
            assert owner in fired, metric
        else:
            assert owner in fired_layers, metric
    assert fired_layers == set(tracing.LAYERS)


def test_no_wrapper_left_in_untraced_runs(smoke):
    for (workload, trace), (_, saved, _) in smoke.items():
        assert saved["wrappers_left"] == [], workload


def test_uninstall_restores_every_binding():
    import hyperbulk.cli  # noqa: F401

    modules = tracing._hyperbulk_modules()
    before = [(m, dict(vars(m))) for m in modules]
    methods = dict(vars(sys.modules["hyperbulk.quotient"].QuotientGroup))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        present = tracing.wrappers_present()
        assert "hyperbulk.geometry.build_generators" in present
        assert "hyperbulk.quotient.QuotientGroup.load" in present
    finally:
        tracer.uninstall()
    assert tracing.wrappers_present() == []
    for mod, snapshot in before:
        assert all(vars(mod)[k] is v for k, v in snapshot.items()), mod.__name__
    assert all(vars(sys.modules["hyperbulk.quotient"].QuotientGroup)[k] is v for k, v in methods.items())


@pytest.fixture(scope="module")
def level2(tmp_path_factory):
    from hyperbulk import operators, quotient, spectral

    group = quotient.build_quotient(5, 4, 2, 2)
    path = str(tmp_path_factory.mktemp("cache") / "quotient_5_4_s2_k2.npz")
    group.save(path)
    mat = reference.adjacency_from_cache(path)
    assert abs(mat - operators.represent_periodic(operators.adjacency(5, 4), group)).max() == 0.0
    bounds = spectral.spectral_bounds(mat, seed=11)
    return mat, bounds, np.linalg.eigvalsh(mat.toarray())


def test_single_site_moments_match_dense_spectrum(level2):
    mat, (lo, hi), ev = level2
    count = reference.REF_FACTOR * 500
    a, b = (hi - lo) / 2.0, (hi + lo) / 2.0
    theta = np.arccos((ev - b) / a)
    dense = np.array([np.cos(n * theta).mean() for n in range(count)])
    assert np.abs(reference.single_site_moments(mat, count, (lo, hi)) - dense).max() <= 1e-10


def test_flat_levels_match_dense_spectrum(level2):
    mat, (lo, hi), ev = level2
    a, b = (hi - lo) / 2.0, (hi + lo) / 2.0
    vals, counts = np.unique(np.round(ev, 9), return_counts=True)
    exact = (vals[counts / ev.size > reference.LEVEL_WEIGHT] - b) / a
    mu = reference.single_site_moments(mat, reference.REF_FACTOR * 500, (lo, hi))
    found = reference.flat_levels(mu)
    assert len(found) == len(exact) >= 1
    assert np.abs(np.array(found) - exact).max() < reference.level_window(mu) / 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = _bench("--workload", "periodic_kpm", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
