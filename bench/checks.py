"""Output checks for each CLI command, against frozen oracles and exact identities.

Each check reads only the files a command wrote and returns a list of
problems; an empty list means the outputs passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np
import scipy.io
import scipy.sparse.linalg as spla

# |G_k| of {5,4} mod 2^k (C2) and (sites, nnz) of the r-ball junction (C10)
ORDERS = {1: 160, 2: 2560, 3: 81920}
BALLS = {4: (56, 376), 12: (2541, 18375)}
EXACT_TOL = 1e-10        # moment identities of the adjacency spectrum
HERMITICITY = 1e-12
PARTITION = 1e-12
VERTEX_GAP = 0.05        # C8
CROSSING = 0.01          # C8
MIDGAP = 0.05            # C10: |E| below this counts as a midgap state
KPM_IDOS_GATE = 0.02     # C7


def _json(path):
    with open(path) as fh:
        return json.load(fh)


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def check_group(out, args) -> list[str]:
    name = f"group_{args.p}_{args.q}_s{args.s}_k{args.k}.json"
    report = _json(os.path.join(out, name))
    problems = []
    if report["order"] != ORDERS[args.k]:
        problems.append(f"{name}: |G_{args.k}| = {report['order']}, expected {ORDERS[args.k]}")
    lost = [g for g, t in report["torsion"].items() if t["order"] != t["expected"]]
    if lost or not report["torsion_preserved"]:
        problems.append(f"{name}: torsion collapsed for {lost}")
    return problems


def check_spectrum(out, args) -> list[str]:
    if args.model not in (None, ["adj"]):
        return [f"no oracle for model {args.model}"]
    problems = []
    for k in args.k:
        tag = f"adj_{args.p}_{args.q}_s{args.s}_k{k}"
        if args.method == "kpm":
            problems += _check_kpm(out, tag)
            continue
        ev = np.array([float(r[1]) for r in _rows(os.path.join(out, f"spectrum_{tag}.csv"))])
        # A = (a + a^-1 + b + b^-1)/4 has tr A = 0, tr A^2 / N = 4/16, and top eigenvalue 1
        facts = {
            "size": (ev.size, ORDERS[k]),
            "mean": (ev.mean(), 0.0),
            "mean square": (np.mean(ev**2), 0.25),
            "max": (ev.max(), 1.0),
        }
        for fact, (got, want) in facts.items():
            if abs(got - want) > EXACT_TOL:
                problems.append(f"spectrum {tag}: {fact} {got!r}, expected {want}")
    return problems


def _check_kpm(out, tag) -> list[str]:
    problems = []
    for kind in ("dos", "idos"):
        path = os.path.join(out, f"{kind}_kpm_{tag}.csv")
        lo, hi = _json(path + ".meta.json")["bounds"]
        if not lo < 1.0 <= hi:
            problems.append(f"{kind} {tag}: bounds [{lo}, {hi}] do not enclose 1.0")
        data = np.array([[float(v) for v in r] for r in _rows(path)])
        total = np.trapezoid(data[:, 1], data[:, 0]) if kind == "dos" else data[-1, 1]
        if abs(total - 1.0) > 1e-9:
            problems.append(f"{kind} {tag}: integrates to {total!r}, expected 1")
    return problems


def check_flow(out, args) -> list[str]:
    name = f"flow_{args.p}_{args.q}_s{args.s}_k{args.k}"
    rows = _rows(os.path.join(out, f"{name}.csv"))
    flows = np.array([[float(v) for v in r[4:]] for r in rows])
    n = args.samples
    if flows.shape != (3 * n + 1, ORDERS[args.k]):
        return [f"{name}: shape {flows.shape}"]
    problems = []
    for vi in (0, n, 2 * n):
        ev = flows[vi]
        below, above = ev[ev < 0.0], ev[ev > 0.0]
        width = above.min() - below.max() if below.size and above.size else 0.0
        if width < VERTEX_GAP:
            problems.append(f"{name}: vertex {vi} gap {width:.3g} < {VERTEX_GAP}")
    interior = [i for i in range(3 * n + 1) if i not in (0, n, 2 * n, 3 * n)]
    min_abs = np.abs(flows[interior]).min()
    if min_abs > CROSSING:
        problems.append(f"{name}: interior min |E| {min_abs:.3g} > {CROSSING}")
    return problems


def check_junction(out, args) -> list[str]:
    radius = args.radius
    sites, nnz = BALLS[radius]
    name = f"junction_{args.p or 5}_{args.q or 4}_r{radius}"
    report = _json(os.path.join(out, f"{name}_report.json"))
    ham = scipy.io.mmread(os.path.join(out, f"{name}_H.mtx")).tocsr()
    chi = np.array([[float(v) for v in r[1:]] for r in _rows(os.path.join(out, f"{name}_chi.csv"))])
    problems = []
    if (report["sites"], report["nnz"], ham.shape[0], ham.nnz) != (sites, nnz, sites, nnz):
        problems.append(f"{name}: sites/nnz {report['sites']}/{report['nnz']}, expected {sites}/{nnz}")
    herm = abs(ham - ham.getH()).max()
    if herm > HERMITICITY:
        problems.append(f"{name}: Hermiticity defect {herm:.2e}")
    if np.abs(chi.sum(axis=1) - 1.0).max() > PARTITION:
        problems.append(f"{name}: partition of unity broken")
    # states nearest E = 0 by shift-invert, independent of the CLI's dense path; the
    # shift sits just off 0 so that an exact zero mode cannot make the factorization singular
    near = spla.eigsh(ham.tocsc(), k=min(6, sites - 2), sigma=1e-3, which="LM",
                      v0=np.ones(sites), return_eigenvectors=False)
    if not np.any(np.abs(near) < MIDGAP):
        problems.append(f"{name}: no midgap state with |E| < {MIDGAP}")
    ratio = report["energies"][0]["interface_ratio_bulk"]
    if not ratio > 1.0:
        problems.append(f"{name}: bulk interface ratio {ratio} <= 1")
    return problems


CHECKS = {"group": check_group, "spectrum": check_spectrum, "flow": check_flow, "junction": check_junction}


def output_hashes(out) -> dict[str, str]:
    """sha256 of every output file, sidecar metrics excluded."""
    hashes = {}
    for base, _, files in os.walk(out):
        for fname in files:
            if fname.endswith("_metrics.json"):
                continue
            path = os.path.join(base, fname)
            with open(path, "rb") as fh:
                hashes[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    return hashes
