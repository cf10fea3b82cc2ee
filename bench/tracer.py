"""Spans around hyperbulk's public functions, installed from the benchmark.

Tracer.install() replaces each traced function in every hyperbulk module
namespace that binds it (geometry and quotient, for example, import
build_generators by name), and Tracer.uninstall() puts the originals
back.  Spans (name, start, end, parent, wall and CPU time) stay in
memory until the benchmark writes them out.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# Traced public functions per layer; "Class.method" names a method.
LAYERS = {
    "cli": ("cmd_minpoly", "cmd_group", "cmd_spectrum", "cmd_flow", "cmd_junction"),
    "ring": ("minimal_polynomial", "rescaled_chebyshev", "euler_totient", "make_context", "psi_json"),
    "triangle": (
        "build_generators",
        "rotation_generators",
        "reflection_generators",
        "ball_enumerate",
        "export_ball_jsonl",
    ),
    "quotient": ("build_quotient", "QuotientGroup.save", "QuotientGroup.load"),
    "operators": (
        "adjacency",
        "cyclic_projection",
        "model_hamiltonian",
        "interpolate",
        "represent_periodic",
        "represent_open",
        "hermiticity_defect",
        "save_matrix_market",
    ),
    "spectral": (
        "exact_spectrum",
        "idos_curve",
        "cumulative_curve",
        "spectral_bounds",
        "kpm_dos",
        "detect_gaps",
        "simplex_path",
        "spectral_flow",
        "ldos",
        "eigenpairs_near",
        "write_curve_csv",
        "write_spectrum_csv",
    ),
    "geometry": (
        "gamma_basis",
        "incenter",
        "site_positions",
        "midpoint",
        "hyp_distance",
        "export_positions_csv",
    ),
    "junction": (
        "junction_rays",
        "partition",
        "ray_distance",
        "assemble_junction",
        "bulk_sites",
        "export_partition_csv",
    ),
}

# Span names that differ from "<layer>.<function>".
ALIASES = {
    "spectral.write_curve_csv": "spectral.write",
    "spectral.write_spectrum_csv": "spectral.write",
    "quotient.QuotientGroup.save": "quotient.save",
    "quotient.QuotientGroup.load": "quotient.load",
}


def _saved_bytes(args, kwargs, result):
    path = args[1]
    return {"cache_bytes": os.path.getsize(path if os.path.exists(path) else path + ".npz")}


def _kpm_matvecs(args, kwargs, result):
    # computed from the output's metadata: one matvec per moment after the first, per state
    meta = result.metadata
    return {"matvecs": (meta["moments"] - 1) * meta["random_states"]}


# Sizes read from a traced call's arguments and result, added to "<span>.<key>".
PROBES = {
    "triangle.ball_enumerate": lambda a, kw, r: {"sites": len(r)},
    "quotient.build_quotient": lambda a, kw, r: {"elements": r.order},
    "quotient.save": _saved_bytes,
    "operators.represent_periodic": lambda a, kw, r: {"nnz": r.nnz},
    "operators.represent_open": lambda a, kw, r: {"nnz": r.nnz},
    "spectral.exact_spectrum": lambda a, kw, r: {"dim_sum": r.dim},
    "spectral.kpm_dos": _kpm_matvecs,
    "spectral.eigenpairs_near": lambda a, kw, r: {"kept": r.dim, "dim": a[0].shape[0]},
    "geometry.midpoint": lambda a, kw, r: {"pairs": int(getattr(r, "size", 1))},
    "junction.assemble_junction": lambda a, kw, r: {"nnz": r.nnz},
}

MARKER = "_bench_span"


def _hyperbulk_modules() -> list:
    for layer in LAYERS:
        importlib.import_module(f"hyperbulk.{layer}")
    return [mod for name, mod in sorted(sys.modules.items()) if name.split(".")[0] == "hyperbulk"]


def wrappers_present() -> list[str]:
    """Names in hyperbulk's namespaces that still hold a tracer wrapper."""
    found = []
    for mod in _hyperbulk_modules():
        for attr, val in vars(mod).items():
            if hasattr(val, MARKER):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(val, type) and val.__module__ == mod.__name__:
                for meth, raw in vars(val).items():
                    if hasattr(getattr(raw, "__func__", raw), MARKER):
                        found.append(f"{mod.__name__}.{attr}.{meth}")
    return found


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.phase = "setup"
        self._stack: list[dict] = []
        self._patched: list[tuple] = []

    def _wrap(self, fn, name: str, layer: str):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = {
                "name": name,
                "layer": layer,
                "phase": self.phase,
                "parent": None if parent is None else parent["id"],
                "id": len(self.spans),
                "child_wall": 0.0,
                "child_cpu": 0.0,
            }
            self.spans.append(span)
            self._stack.append(span)
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                t1 = time.perf_counter()
                cpu1 = time.process_time()
                self._stack.pop()
                span.update(start=t0, end=t1, wall=t1 - t0, cpu=cpu1 - cpu0)
                if parent is not None:
                    parent["child_wall"] += span["wall"]
                    parent["child_cpu"] += span["cpu"]
            if probe is not None:
                for key, value in probe(args, kwargs, result).items():
                    self.counters[f"{name}.{key}"] += value
            return result

        setattr(wrapper, MARKER, name)
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = _hyperbulk_modules()
        for layer, names in LAYERS.items():
            mod = sys.modules[f"hyperbulk.{layer}"]
            for fname in names:
                full = f"{layer}.{fname}"
                span_name = ALIASES.get(full, full)
                if "." in fname:
                    cls_name, meth = fname.split(".")
                    cls = getattr(mod, cls_name)
                    raw = vars(cls)[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(raw.__func__, span_name, layer))
                    else:
                        new = self._wrap(raw, span_name, layer)
                    setattr(cls, meth, new)
                    self._patched.append((cls, meth, raw))
                    continue
                orig = getattr(mod, fname)
                wrapper = self._wrap(orig, span_name, layer)
                for ns in modules:
                    for attr, val in list(vars(ns).items()):
                        if val is orig:
                            setattr(ns, attr, wrapper)
                            self._patched.append((ns, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def totals(self, phase: str | None = None) -> dict[str, float]:
        """Self time, self CPU, inclusive time and calls per span name and per layer."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if "wall" not in span or (phase is not None and span["phase"] != phase):
                continue
            own = span["wall"] - span["child_wall"]
            for key in (span["name"], span["layer"]):
                out[f"{key}.self_s"] += own
                out[f"{key}.calls"] += 1
            out[f"{span['name']}.cpu_s"] += span["cpu"] - span["child_cpu"]
            out[f"{span['name']}.s"] += span["wall"]
        return out

    def layer_metrics(self) -> dict[str, float]:
        out = self.totals()
        out.update(self.counters)
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors.get(layer, 0)
        kept = out.get("spectral.eigenpairs_near.kept", 0)
        dim = out.get("spectral.eigenpairs_near.dim", 0)
        out["spectral.eigenpairs_near.kept_ratio"] = kept / dim if dim else 0.0
        return out

    def export(self) -> list[dict]:
        return [
            {k: span[k] for k in ("id", "parent", "name", "layer", "phase", "start", "end", "wall", "cpu")}
            | {"self_wall": span["wall"] - span["child_wall"]}
            for span in self.spans
            if "wall" in span
        ]
