"""hyperbulk benchmark: CLI workloads timed end to end, with per-layer spans.

Usage (from the repository root):

    python3 bench/run.py --workload periodic_kpm --seed 11 --seconds 20 --trace 0

Each workload runs in this one fresh process, which pins BLAS/OpenMP to
one thread before numpy loads, imports hyperbulk from src/ and calls
hyperbulk.cli.main(argv) for each command.  --trace 0 prints the
end-to-end metrics; --trace 1 runs the same commands once untraced and
once with spans around every layer's public functions, and prints the
per-layer metrics.  Every command's outputs are checked outside the
timed region.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

import tracer as tracing
from environment import PinningError, check_pinned, describe, pin_threads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
THREADS = 1
SETUP_REPEATS = 3
PROBE_TIMEOUT = 120

GROUP = ["group", "5", "4", "--k"]
WORKLOADS = {
    "periodic_exact": {
        "setup": [GROUP + ["1"], GROUP + ["2"]],
        "solve": [
            ["spectrum", "5", "4", "--k", "1", "2"],
            ["flow", "5", "4", "--k", "2", "--samples", "2"],
        ],
    },
    "periodic_kpm": {
        "setup": [GROUP + ["3"]],
        # one random state keeps a solve near 3 s, so a run takes the median of several
        "solve": [["spectrum", "5", "4", "--k", "3", "--method", "kpm", "--states", "1"]],
        "warmup": 1,
    },
    "junction_open": {"setup": [], "solve": [["junction", "--radius", "12"]]},
}
# tiny sizes for the benchmark's own tests
SMOKE = {
    "periodic_exact": {
        "setup": [GROUP + ["1"]],
        "solve": [["spectrum", "5", "4", "--k", "1"], ["flow", "5", "4", "--k", "1", "--samples", "2"]],
    },
    "periodic_kpm": {
        "setup": [GROUP + ["1"]],
        "solve": [["spectrum", "5", "4", "--k", "1", "--method", "kpm"]],
        "warmup": 1,
    },
    "junction_open": {"setup": [], "solve": [["junction", "--radius", "4"]]},
}

END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}

_S, _N, _B = "s", "count", "bytes"
PER_LAYER = {
    "cli.import_s": _S,
    "cli.cmd_group.s": _S,
    "cli.cmd_spectrum.s": _S,
    "cli.cmd_flow.s": _S,
    "cli.cmd_junction.s": _S,
    "cli.self_s": _S,
    "cli.output_bytes": _B,
    "cli.errors": _N,
    "ring.self_s": _S,
    "ring.calls": _N,
    "ring.errors": _N,
    "triangle.self_s": _S,
    "triangle.build_generators.self_s": _S,
    "triangle.ball_enumerate.self_s": _S,
    "triangle.ball_enumerate.sites": _N,
    "triangle.errors": _N,
    "quotient.self_s": _S,
    "quotient.build_quotient.self_s": _S,
    "quotient.build_quotient.elements": _N,
    "quotient.save.self_s": _S,
    "quotient.cache_bytes": _B,
    "quotient.load.self_s": _S,
    "quotient.errors": _N,
    "operators.self_s": _S,
    "operators.represent_periodic.self_s": _S,
    "operators.represent_periodic.calls": _N,
    "operators.represent_periodic.nnz": _N,
    "operators.interpolate.calls": _N,
    "operators.represent_open.self_s": _S,
    "operators.represent_open.nnz": _N,
    "operators.errors": _N,
    "spectral.self_s": _S,
    "spectral.exact_spectrum.self_s": _S,
    "spectral.exact_spectrum.cpu_s": _S,
    "spectral.exact_spectrum.calls": _N,
    "spectral.exact_spectrum.dim_sum": _N,
    "spectral.spectral_flow.self_s": _S,
    "spectral.spectral_bounds.self_s": _S,
    "spectral.kpm_dos.self_s": _S,
    "spectral.kpm_dos.matvecs": _N,
    "spectral.kpm_dos.idos_err": "fraction",
    "spectral.eigenpairs_near.self_s": _S,
    "spectral.eigenpairs_near.kept_ratio": "fraction",
    "spectral.write.self_s": _S,
    "spectral.errors": _N,
    "geometry.self_s": _S,
    "geometry.site_positions.self_s": _S,
    "geometry.midpoint.self_s": _S,
    "geometry.midpoint.pairs": _N,
    "geometry.errors": _N,
    "junction.self_s": _S,
    "junction.assemble_junction.self_s": _S,
    "junction.assemble_junction.nnz": _N,
    "junction.partition.self_s": _S,
    "junction.errors": _N,
    "trace.solve_s": _S,
    "trace.overhead_s": _S,
    "trace.unaccounted_s": _S,
    "trace.spans": _N,
}
# layer counters named by the tracer's "<span>.<counter>" convention
_RENAMED = {"quotient.cache_bytes": "quotient.save.cache_bytes"}


class Ops:
    """Commands attempted and the problems found in each."""

    def __init__(self):
        self.records: list[dict] = []

    def add(self, what: str, code: int, problems=()) -> dict:
        rec = {"op": what, "exit": code, "problems": list(problems)}
        self.records.append(rec)
        return rec

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["exit"] != 0 or r["problems"])


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes (k=1, radius 4)")
    return ap.parse_args(argv)


def _cli_argv(argv, out, cache, seed):
    return ["--out", out, "--cache-dir", cache, "--seed", str(seed), *argv]


def _run_cli(cli, argv, log) -> int:
    """One CLI command in this process; an uncaught exception counts as exit code 1."""
    try:
        with contextlib.redirect_stdout(log):
            return cli.main(argv)
    except Exception:  # the command failed; record it and go on with the workload
        traceback.print_exc()
        return 1


def _check(checks, cli, argv, out) -> list[str]:
    args = cli.build_parser().parse_args(["--out", out, *argv])
    try:
        return checks.CHECKS[args.command](out, args)
    except (OSError, ValueError, KeyError, IndexError, RuntimeError) as exc:
        return [f"{args.command} outputs failed to check: {exc!r}"]


def _dir_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(b, f)) for b, _, fs in os.walk(path) for f in fs)


def _setup_probes(spec, run_dir, seed, ops) -> tuple[list[float], str, list[dict]]:
    """Cold set-ups in fresh processes: import plus cache fill, timed from process start."""
    times, cache, records = [], None, []
    for i in range(SETUP_REPEATS):
        out = os.path.join(run_dir, f"setup{i}", "out")
        cache = os.path.join(run_dir, f"setup{i}", "cache")
        argvs = [_cli_argv(a, out, cache, seed) for a in spec["setup"]]
        cmd = [sys.executable, os.path.join(HERE, "probe.py"), SRC, str(THREADS), json.dumps(argvs)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        # a wait with a timeout polls in steps of up to 50 ms; a blocking wait returns at exit
        timer = threading.Timer(PROBE_TIMEOUT, proc.kill)
        timer.start()
        code = proc.wait()
        times.append(time.perf_counter() - t0)
        timer.cancel()
        records.append(ops.add(f"setup probe {i}", code))
    return times, cache, records


def _check_probes(checks, cli, spec, run_dir, probes) -> None:
    """Oracle checks on the first probe's outputs; the others must match it byte for byte."""
    first_out = os.path.join(run_dir, "setup0", "out")
    for argv in spec["setup"]:
        probes[0]["problems"] += _check(checks, cli, argv, first_out)
    first = checks.output_hashes(first_out)
    for i, rec in enumerate(probes[1:], start=1):
        if checks.output_hashes(os.path.join(run_dir, f"setup{i}", "out")) != first:
            rec["problems"].append("set-up outputs differ from the first set-up")


def _solve(args, spec, run_dir, cache, cli, checks, tracer, ops, log):
    """Solve iterations after the workload's untimed warm-up ones.

    Untraced: timed iterations repeat while the next one, estimated by the
    last, would end within --seconds; at least one is timed.  Traced: one
    untraced and one traced iteration, both timed.  Returns the timed
    iterations' times and the first iteration's (op, argv, out dir).
    """
    warmup = spec.get("warmup", 0)
    times, first, first_hashes = [], [], None
    start = time.perf_counter()
    for iteration in itertools.count():
        traced = tracer is not None and iteration == warmup + 1
        if traced:
            tracer.phase = "solve"
            tracer.install()
        outs = [os.path.join(run_dir, f"it{iteration}", f"cmd{j}") for j in range(len(spec["solve"]))]
        t0 = time.perf_counter()
        codes = [_run_cli(cli, _cli_argv(a, o, cache, args.seed), log) for a, o in zip(spec["solve"], outs)]
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            tracer.output_bytes = sum(_dir_bytes(o) for o in outs)
        if iteration >= warmup:
            times.append(elapsed)
        hashes = [checks.output_hashes(o) for o in outs]
        for j, argv in enumerate(spec["solve"]):
            rec = ops.add(f"{' '.join(argv)} (run {iteration})", codes[j])
            if first_hashes is None:
                first.append((rec, argv, outs[j]))
            elif hashes[j] != first_hashes[j]:
                rec["problems"].append("outputs differ from the first run")
        first_hashes = first_hashes or hashes
        if iteration:  # only the first iteration's outputs are checked after the loop
            shutil.rmtree(os.path.join(run_dir, f"it{iteration}"))
        if tracer is not None:
            if len(times) == 2:
                return times, first
        elif times and time.perf_counter() - start + elapsed > args.seconds:
            return times, first


def _kpm_error(reference, parsed, out, cache) -> float:
    errs = []
    for k in parsed.k:
        key = f"{parsed.p}_{parsed.q}_s{parsed.s}_k{k}"
        errs.append(reference.kpm_idos_err(
            os.path.join(out, f"idos_kpm_adj_{key}.csv"),
            os.path.join(cache, f"quotient_{key}.npz"),
            key,
            os.path.join(WORK, "refcache"),
        ))
    return max(errs)


def measure(args, spec, run_dir) -> tuple[dict, Ops, dict]:
    ops = Ops()
    setup_times, cache, probes = ([], None, []) if args.trace else _setup_probes(spec, run_dir, args.seed, ops)

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    from hyperbulk import cli, geometry, junction, operators, quotient, spectral  # noqa: F401

    import_s = time.perf_counter() - t0
    facts = {"env": describe(ROOT, THREADS, check_pinned(THREADS)), "import_s": import_s}

    import checks
    import reference

    tracer = tracing.Tracer() if args.trace else None
    with open(os.path.join(run_dir, "cli_stdout.log"), "w") as log:
        if tracer is None:
            _check_probes(checks, cli, spec, run_dir, probes)
        else:
            # set-up in this process, traced, so the per-layer numbers cover it
            cache = os.path.join(run_dir, "cache")
            out = os.path.join(run_dir, "setup_out")
            tracer.install()
            codes = [_run_cli(cli, _cli_argv(a, out, cache, args.seed), log) for a in spec["setup"]]
            tracer.uninstall()
            for argv, code in zip(spec["setup"], codes):
                ops.add(" ".join(argv), code, _check(checks, cli, argv, out))
        solve_times, first = _solve(args, spec, run_dir, cache, cli, checks, tracer, ops, log)
    kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))

    facts["wrappers_left"] = tracing.wrappers_present()
    if facts["wrappers_left"]:
        raise RuntimeError(f"tracer wrappers left in hyperbulk: {facts['wrappers_left']}")

    for rec, argv, out in first:
        rec["problems"] += _check(checks, cli, argv, out)
        parsed = cli.build_parser().parse_args(argv)
        if parsed.command == "spectrum" and parsed.method == "kpm" and not rec["problems"]:
            facts["kpm_idos_err"] = err = _kpm_error(reference, parsed, out, cache)
            if err > checks.KPM_IDOS_GATE:
                rec["problems"].append(f"KPM IDOS error {err:.4f} > {checks.KPM_IDOS_GATE}")

    facts.update(setup_times=setup_times, solve_times=solve_times)
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "solve_s": statistics.median(solve_times),
            "peak_rss_mb": kib / 1024.0,
        }
    else:
        metrics = _layer_metrics(tracer, facts, solve_times)
        facts["spans"] = tracer.export()
    return metrics, ops, facts


def _layer_metrics(tracer, facts, solve_times) -> dict:
    raw = tracer.layer_metrics()
    untraced, traced = solve_times
    # layer self times sum to the time covered by top-level spans
    in_spans = sum(tracer.totals("solve").get(f"{layer}.self_s", 0.0) for layer in tracing.LAYERS)
    raw.update({
        "cli.import_s": facts["import_s"],
        "cli.output_bytes": tracer.output_bytes,
        "spectral.kpm_dos.idos_err": facts.get("kpm_idos_err", 0.0),
        "trace.solve_s": traced,
        "trace.overhead_s": traced - untraced,
        "trace.unaccounted_s": traced - in_spans,
        "trace.spans": len(tracer.spans),
    })
    return {name: raw.get(_RENAMED.get(name, name), 0) for name in PER_LAYER}


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "hyperbulk")):
        print(f"error: no hyperbulk sources under {SRC}", file=sys.stderr)
        return 2
    try:
        pin_threads(THREADS)
    except PinningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    tag = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(WORK, f"{tag}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        metrics, ops, facts = measure(args, spec, run_dir)
    except PinningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": ops.failed == 0,
        "attempted": len(ops.records),
        "failed": ops.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    facts["env"].update(workload=args.workload, seed=args.seed, trace=args.trace, smoke=args.smoke)
    spans = facts.pop("spans", None)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"BENCH_{tag}.json"), "w") as fh:
        json.dump({**facts, "ops": ops.records, **result}, fh, indent=1)
    if spans is not None:
        with open(os.path.join(WORK, "results", f"SPANS_{tag}.json"), "w") as fh:
            json.dump(spans, fh)

    for rec in ops.records:
        for problem in rec["problems"]:
            print(f"FAILED {rec['op']}: {problem}", file=sys.stderr)
    print("env " + json.dumps(facts["env"], sort_keys=True))
    print(f"workload {tag}: ops_failed {ops.failed} of ops_total {len(ops.records)}")
    if "kpm_idos_err" in facts:
        print(f"  {'kpm_idos_err':<40} {facts['kpm_idos_err']:.6g} fraction")
    for name, entry in result["metrics"].items():
        print(f"  {name:<40} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
