"""Command-line interface.

Subcommands: minpoly, group, spectrum, flow, junction.  Every command is
deterministic given its config and seed; reruns produce byte-identical
files.  Each output directory receives a fully resolved config echo as
JSON.  Exit codes: 0 success, 2 invalid config, 3 resource cap exceeded,
4 numerical contract violation.

Thread pinning must happen before the numerics stack loads, so this module
imports no numpy at the top level and the handlers import lazily.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ConfigError, NumericalContractError, ResourceLimitError

DEFAULT_SEED = 11


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _echo_config(out_dir: str, name: str, config: dict) -> None:
    with open(os.path.join(out_dir, f"{name}_config.json"), "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_model(tokens, eps: float):
    """Model spec from CLI tokens: ["adj"] or ["h", alpha, kidx]."""
    if tokens is None or tokens == ["adj"]:
        return ("adj", None, None, None)
    if len(tokens) == 3 and tokens[0] == "h":
        return ("h", int(tokens[1]), int(tokens[2]), eps)
    raise ConfigError(f"bad --model {tokens}; expected 'adj' or 'h ALPHA KIDX'")


def _model_element(kind_tuple, p: int, q: int):
    from . import operators

    kind, alpha, kidx, eps = kind_tuple
    if kind == "adj":
        return operators.adjacency(p, q)
    return operators.model_hamiltonian(alpha, kidx, eps, p, q)


def _load_quotient(p: int, q: int, s: int, k: int, cache_dir: str | None):
    from . import quotient

    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        path = os.path.join(cache_dir, f"quotient_{p}_{q}_s{s}_k{k}.npz")
        if os.path.exists(path):
            group = quotient.QuotientGroup.load(path)
            if (group.p, group.q, group.s, group.k) != (p, q, s, k):
                raise NumericalContractError(
                    f"quotient cache {path} holds {{{group.p},{group.q}}} mod {group.s}^{group.k}"
                )
            return group
        group = quotient.build_quotient(p, q, s, k)
        group.save(path)
        return group
    return quotient.build_quotient(p, q, s, k)


def cmd_minpoly(args) -> int:
    from . import ring, triangle

    if args.n is not None:
        n = args.n
    else:
        n = triangle.ring_index(args.pq[0], args.pq[1])
    poly = ring.minimal_polynomial(n)
    print(f"n = {n}")
    print(f"Psi_{n} = {poly}")
    out = _ensure_out(args.out)
    with open(os.path.join(out, f"minpoly_{n}.json"), "w") as fh:
        fh.write(ring.psi_json(n))
        fh.write("\n")
    _echo_config(out, "minpoly", {"n": n, "seed": args.seed})
    return 0


def cmd_group(args) -> int:
    group = _load_quotient(args.p, args.q, args.s, args.k, args.cache_dir)
    print(f"|G_{args.k}| = {group.order}  (p={args.p}, q={args.q}, s={args.s})")
    print("torsion orders:")
    for name, info in group.torsion.items():
        status = "preserved" if info["order"] == info["expected"] else "collapsed"
        print(f"  {name}: expected {info['expected']}, got {info['order']}  [{status}]")
    out = _ensure_out(args.out)
    report = {
        "p": args.p,
        "q": args.q,
        "s": args.s,
        "k": args.k,
        "order": group.order,
        "torsion": group.torsion,
        "torsion_preserved": group.torsion_preserved,
    }
    with open(os.path.join(out, f"group_{args.p}_{args.q}_s{args.s}_k{args.k}.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _echo_config(out, "group", {**report, "seed": args.seed})
    return 0


def cmd_spectrum(args) -> int:
    import numpy as np

    from . import spectral

    model = _parse_model(args.model, args.eps)
    element = _model_element(model, args.p, args.q)
    out = _ensure_out(args.out)
    tag = "adj" if model[0] == "adj" else f"h{model[1]}_{model[2]}"

    curves, spectra = {}, {}
    for k in args.k:
        group = _load_quotient(args.p, args.q, args.s, k, args.cache_dir)
        name = f"{tag}_{args.p}_{args.q}_s{args.s}_k{k}"
        use_kpm = args.method == "kpm" or (
            args.method == "auto" and group.order > spectral.DENSE_CAP
        )
        if use_kpm:
            density = spectral.kpm_dos(
                element, group, moments=args.moments, grid_points=args.grid, seed=args.seed
            )
            idos = spectral.cumulative_curve(density)
            spectral.write_curve_csv(density, os.path.join(out, f"dos_kpm_{name}.csv"))
            spectral.write_curve_csv(idos, os.path.join(out, f"idos_kpm_{name}.csv"))
            curves[k] = idos
            print(f"k={k}: dim {group.order}, KPM curve written")
        else:
            spec = spectral.block_spectrum(element, group)
            spectra[k] = spec
            spectral.write_spectrum_csv(spec, os.path.join(out, f"spectrum_{name}.csv"))
            lo, hi = spec.eigenvalues[0], spec.eigenvalues[-1]
            pad = 0.05 * (hi - lo)
            grid = np.linspace(lo - pad, hi + pad, args.grid)
            idos = spectral.idos_curve(spec, grid)
            spectral.write_curve_csv(idos, os.path.join(out, f"idos_{name}.csv"))
            curves[k] = idos
            gaps = spectral.detect_gaps(spec)
            gap_report = [
                {"lower": g.lower, "upper": g.upper, "width": g.width} for g in gaps
            ]
            with open(os.path.join(out, f"gaps_{name}.json"), "w") as fh:
                json.dump(gap_report, fh, indent=2, sort_keys=True)
                fh.write("\n")
            sec = group.sectors
            print(
                f"k={k}: dim {group.order}, {len(sec.representatives)} of {sec.count} character blocks "
                f"of {sec.block_size}, {len(gaps)} gap(s) of width >= 0.05"
            )

    if len(args.k) > 1:
        # convergence table against the largest run, on its grid, from each level's own result
        k_ref = max(args.k)
        ref = curves[k_ref]
        table = {}
        for k in sorted(args.k):
            if k == k_ref:
                continue
            if k in spectra:
                vals = spectral.idos_curve(spectra[k], ref.energies).values
            else:
                vals = np.interp(ref.energies, curves[k].energies, curves[k].values)
            table[str(k)] = float(np.mean((vals - ref.values) ** 2))
        with open(os.path.join(out, f"mse_{tag}_s{args.s}.json"), "w") as fh:
            json.dump({"reference_k": k_ref, "mse": table}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("MSE vs k =", k_ref, ":", table)

    _echo_config(
        out,
        "spectrum",
        {
            "p": args.p,
            "q": args.q,
            "s": args.s,
            "k": args.k,
            "model": list(args.model) if args.model else ["adj"],
            "eps": args.eps,
            "method": args.method,
            "grid": args.grid,
            "moments": args.moments,
            "states": args.states,
            "seed": args.seed,
        },
    )
    return 0


def cmd_flow(args) -> int:
    import numpy as np

    from . import operators, spectral

    if len(args.models) != 6:
        raise ConfigError("--models needs six integers: a1 k1 a2 k2 a3 k3")
    if args.samples < 2:
        # with one sample per edge the loop has no interior point to report on
        raise ConfigError(f"--samples must be at least 2, got {args.samples}")
    specs = [(args.models[0], args.models[1]), (args.models[2], args.models[3]), (args.models[4], args.models[5])]
    group = _load_quotient(args.p, args.q, args.s, args.k, args.cache_dir)
    models = [operators.model_hamiltonian(a, kk, args.eps, args.p, args.q) for a, kk in specs]
    path = spectral.simplex_path(args.samples)
    flows = spectral.spectral_flow(models, path, group)

    out = _ensure_out(args.out)
    name = f"flow_{args.p}_{args.q}_s{args.s}_k{args.k}"
    csv_path = os.path.join(out, f"{name}.csv")
    with open(csv_path, "w") as fh:
        fh.write("index,w1,w2,w3," + ",".join(f"e{i}" for i in range(flows.shape[1])) + "\n")
        for i, (w, row) in enumerate(zip(path, flows)):
            fh.write(
                f"{i},{w[0]:.17g},{w[1]:.17g},{w[2]:.17g},"
                + ",".join(f"{v:.17g}" for v in row)
                + "\n"
            )

    vertices = {0, args.samples, 2 * args.samples, 3 * args.samples}
    interior = [i for i in range(len(path)) if i not in vertices]
    min_abs = np.abs(flows[interior]).min(axis=1)
    crossings = [
        {"index": int(i), "weights": list(path[i]), "min_abs_energy": float(m)}
        for i, m in zip(interior, min_abs)
        if m < args.crossing_tol
    ]
    report = {
        "interior_min_abs_energy": float(min_abs.min()),
        "crossings": crossings,
        "vertex_gap_widths": [],
    }
    for vi in sorted(vertices - {3 * args.samples}):
        ev = flows[vi]
        below = ev[ev < 0]
        above = ev[ev > 0]
        width = float(above.min() - below.max()) if below.size and above.size else 0.0
        report["vertex_gap_widths"].append(width)
    with open(os.path.join(out, f"{name}_report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"flow over {len(path)} points: interior min |E| = {report['interior_min_abs_energy']:.3e}, "
        f"{len(crossings)} crossing point(s) below {args.crossing_tol}"
    )

    _echo_config(
        out,
        "flow",
        {
            "p": args.p,
            "q": args.q,
            "s": args.s,
            "k": args.k,
            "models": args.models,
            "eps": args.eps,
            "samples": args.samples,
            "crossing_tol": args.crossing_tol,
            "seed": args.seed,
        },
    )
    return 0


def cmd_junction(args) -> int:
    import numpy as np

    from . import geometry, junction, operators, spectral

    cfg_file = {}
    if args.config:
        with open(args.config) as fh:
            cfg_file = json.load(fh)

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        return cfg_file.get(key, default)

    p = int(pick(args.p, "p", 5))
    q = int(pick(args.q, "q", 4))
    radius = int(pick(args.radius, "radius", 12))
    phi_y = pick(args.phi_y, "phi_y", None)
    ell = float(pick(args.ell, "ell", junction.DEFAULT_WALL_WIDTH))
    eps = float(pick(args.eps, "eps", junction.DEFAULT_EPS))
    raw_models = pick(args.models, "models", None)
    if raw_models is None:
        models = junction.DEFAULT_MODELS
    else:
        flat = [int(v) for v in np.ravel(raw_models)]
        if len(flat) != 6:
            raise ConfigError("junction models need six integers: a1 k1 a2 k2 a3 k3")
        models = ((flat[0], flat[1]), (flat[2], flat[3]), (flat[4], flat[5]))
    energies = pick(args.energies, "energies", [0.0])
    delta_e = float(pick(args.delta_e, "delta_e", 0.05))

    cfg = junction.JunctionConfig(
        phi_y=None if phi_y is None else float(phi_y), ell=ell, eps=eps, models=models
    )

    from . import triangle

    ball = triangle.ball_enumerate(p, q, radius)
    z0 = geometry.incenter(p, q)
    pos = geometry.site_positions(ball, z0)
    rays = junction.junction_rays(cfg.resolve_phi(p))
    chi = junction.partition(pos, rays, cfg.ell)
    ham = junction.assemble_junction(ball, pos, cfg)

    out = _ensure_out(args.out)
    name = f"junction_{p}_{q}_r{radius}"
    geometry.export_positions_csv(os.path.join(out, f"{name}_sites.csv"), pos)
    junction.export_partition_csv(os.path.join(out, f"{name}_chi.csv"), chi)
    operators.save_matrix_market(ham, os.path.join(out, f"{name}_H.mtx"))

    bulk = junction.bulk_sites(ball)
    tube = junction.ray_distance(pos, rays) <= junction.INTERFACE_RADIUS
    report = {"sites": len(ball), "nnz": int(ham.nnz), "energies": []}
    for energy in energies:
        window = max(0.25, 5.0 * delta_e)
        pairs = spectral.eigenpairs_near(ham, center=float(energy), half_width=window, seed=args.seed)
        weights = spectral.ldos(pairs, energy=float(energy), delta_e=delta_e)
        ldos_path = os.path.join(out, f"{name}_ldos_E{energy:+.3f}.csv")
        with open(ldos_path, "w") as fh:
            fh.write("index,ldos\n")
            for i, v in enumerate(weights):
                fh.write(f"{i},{v:.17g}\n")
        # a ratio whose denominator carries no LDOS weight is undefined: null in the report
        on_bulk, off_bulk = weights[bulk & tube].sum(), weights[bulk & ~tube].sum()
        on_raw, off_raw = weights[tube].sum(), weights[~tube].sum()
        ratio = float(on_bulk / off_bulk) if off_bulk > 0 else None
        raw_ratio = float(on_raw / off_raw) if off_raw > 0 else None
        report["energies"].append(
            {
                "energy": float(energy),
                "delta_e": delta_e,
                "states_in_window": int(pairs.eigenvalues.size),
                "interface_ratio_bulk": ratio,
                "interface_ratio_raw": raw_ratio,
            }
        )
        print(
            f"E={energy}: inertia count {pairs.count}, Krylov basis {pairs.basis_size} columns, "
            f"max residual {pairs.residual:.1e}"
        )
        if ratio is None or raw_ratio is None:
            shown = "undefined (no LDOS weight off the interface)"
        else:
            shown = f"{ratio:.2f} on bulk sites ({raw_ratio:.3f} with the rim included)"
        print(f"E={energy}: {pairs.eigenvalues.size} states in window, interface ratio {shown}")
    with open(os.path.join(out, f"{name}_report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")

    _echo_config(
        out,
        "junction",
        {
            "p": p,
            "q": q,
            "radius": radius,
            "phi_y": cfg.resolve_phi(p),
            "ell": ell,
            "eps": eps,
            "models": [list(m) for m in models],
            "energies": [float(e) for e in energies],
            "delta_e": delta_e,
            "seed": args.seed,
        },
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperbulk",
        description="Exact-arithmetic hyperbolic lattices: rings, quotients, spectra, junctions.",
    )
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--cache-dir", default=None, help="quotient cache directory")
    parser.add_argument("--threads", type=int, default=None, help="pin BLAS/OpenMP threads")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="PRNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("minpoly", help="minimal polynomial of xi_n")
    mx = sp.add_mutually_exclusive_group(required=True)
    mx.add_argument("-n", type=int, help="ring index n")
    mx.add_argument("--pq", nargs=2, type=int, metavar=("P", "Q"), help="tessellation pair")
    sp.set_defaults(func=cmd_minpoly)

    sp = sub.add_parser("group", help="build a finite quotient and report torsion")
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    sp.add_argument("--s", type=int, default=2)
    sp.add_argument("--k", type=int, default=1)
    sp.set_defaults(func=cmd_group)

    sp = sub.add_parser("spectrum", help="exact or KPM spectra and IDOS curves")
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    sp.add_argument("--s", type=int, default=2)
    sp.add_argument("--k", type=int, nargs="+", default=[1])
    sp.add_argument("--model", nargs="+", default=None, help="'adj' or 'h ALPHA KIDX'")
    sp.add_argument("--eps", type=float, default=0.8)
    sp.add_argument("--method", choices=["auto", "exact", "kpm"], default="auto")
    sp.add_argument("--grid", type=int, default=1024)
    sp.add_argument("--moments", type=int, default=500)
    sp.add_argument(
        "--states",
        type=int,
        default=10,
        help="ignored: periodic KPM reads the single identity site; kept for config echo",
    )
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("flow", help="spectral flow along the simplex loop")
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    sp.add_argument("--s", type=int, default=2)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument(
        "--models",
        nargs=6,
        type=int,
        metavar=("A1", "K1", "A2", "K2", "A3", "K3"),
        default=[1, 1, 2, 1, 3, 1],
    )
    sp.add_argument("--eps", type=float, default=0.8)
    sp.add_argument("--samples", type=int, default=40, help="path samples per edge")
    sp.add_argument("--crossing-tol", type=float, default=0.01)
    sp.set_defaults(func=cmd_flow)

    sp = sub.add_parser("junction", help="three-phase Y-junction on an open ball")
    sp.add_argument("--config", default=None, help="JSON config file")
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--radius", type=int, default=None)
    sp.add_argument("--phi-y", type=float, default=None)
    sp.add_argument("--ell", type=float, default=None)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--models", nargs=6, type=int, default=None)
    sp.add_argument("--energies", nargs="+", type=float, default=None)
    sp.add_argument("--delta-e", type=float, default=None)
    sp.set_defaults(func=cmd_junction)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            print("error: --threads must be positive", file=sys.stderr)
            return 2
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            os.environ[var] = str(args.threads)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except NumericalContractError as exc:
        print(f"numerical contract violated: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
