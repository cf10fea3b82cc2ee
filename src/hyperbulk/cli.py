"""Command-line interface.

Subcommands: minpoly, group, spectrum, flow, junction.  Every command is
deterministic given its config and seed; reruns produce byte-identical
files.  Each handler returns the config it resolved, and main writes it
with the seed as ``<command>_config.json``, once the handler has
succeeded: a run that exits non-zero leaves no echo.  Exit codes: 0
success, 2 invalid config, 3 resource cap exceeded, 4 numerical
contract violation.

Thread pinning must happen before the numerics stack loads, so this module
imports no numpy at the top level and the handlers import lazily.  The
library modules import scipy inside the functions that use it, so group
and minpoly never load it, and spectrum, flow and junction load it on
first use.
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


def _flags(args) -> dict:
    """The subcommand's parsed flags; the seed and where and how it runs are left out."""
    skip = ("func", "command", "out", "cache_dir", "threads", "seed")
    return {k: v for k, v in vars(args).items() if k not in skip}


def _is_number(v) -> bool:
    # type() leaves out bools; the bound refuses nan, +-inf and ints that overflow a float
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _finite_float(text: str) -> float:
    value = float(text)
    if not _is_number(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _resolve_model(tokens, eps: float, p: int, q: int):
    """File tag and algebra element of a --model spec: ["adj"] or ["h", alpha, kidx]."""
    from . import operators

    if tokens == ["adj"]:
        return "adj", operators.adjacency(p, q)
    if len(tokens) == 3 and tokens[0] == "h":
        try:
            alpha, kidx = int(tokens[1]), int(tokens[2])
        except ValueError:
            pass
        else:
            return f"h{alpha}_{kidx}", operators.model_hamiltonian(alpha, kidx, eps, p, q)
    raise ConfigError(f"bad --model {tokens}; expected 'adj' or 'h ALPHA KIDX' with integers ALPHA, KIDX")


def _pairs(models) -> list:
    """Six model integers, flat or as three pairs, as three [alpha, kidx] pairs."""
    import numpy as np

    flat = np.ravel(models).tolist()
    return [flat[i : i + 2] for i in (0, 2, 4)]


def _is_models(v) -> bool:
    if isinstance(v, list) and len(v) == 3 and all(isinstance(x, list) and len(x) == 2 for x in v):
        v = [x for pair in v for x in pair]
    return isinstance(v, list) and len(v) == 6 and all(type(x) is int for x in v)


_INTEGER = (lambda v: type(v) is int, "an integer")
_NUMBER = (_is_number, "a finite number")
# junction --config keys: the check on each value and what it expects
_JUNCTION_KEYS = {
    **dict.fromkeys(("p", "q", "radius"), _INTEGER),
    **dict.fromkeys(("phi_y", "ell", "eps", "delta_e"), _NUMBER),
    "energies": (lambda v: isinstance(v, list) and all(map(_is_number, v)), "a list of finite numbers"),
    "models": (_is_models, "six integers, flat or as three pairs"),
}


def _read_junction_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read --config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"--config {path} must hold a JSON object")
    for key, value in cfg.items():
        if key not in _JUNCTION_KEYS:
            raise ConfigError(f"--config {path}: unknown key {key!r}; known keys are {sorted(_JUNCTION_KEYS)}")
        check, expected = _JUNCTION_KEYS[key]
        if not check(value):
            raise ConfigError(f"--config {path}: {key!r} must be {expected}, got {value!r}")
    return cfg


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


def cmd_minpoly(args) -> dict:
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
    return {"n": n}


def cmd_group(args) -> dict:
    from . import outputs

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
    outputs.write_json(os.path.join(out, f"group_{args.p}_{args.q}_s{args.s}_k{args.k}.json"), report)
    return report


def cmd_spectrum(args) -> dict:
    import numpy as np

    from . import outputs, spectral

    if args.grid < 2:
        raise ConfigError(f"--grid must be at least 2, got {args.grid}")
    tag, element = _resolve_model(args.model, args.eps, args.p, args.q)
    out = _ensure_out(args.out)

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
            run = density.lanczos
            folded = f" on {run.dim} reflection orbits" if run.dim < group.order else ""
            print(f"k={k}: dim {group.order}{folded}, {run.alpha.size} Lanczos steps, edges {run.edges[0]:.6f} / "
                  f"{run.edges[1]:.6f} with Ritz residuals {run.residuals[0]:.1e} / {run.residuals[1]:.1e}")
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
            outputs.write_json(os.path.join(out, f"gaps_{name}.json"), gap_report)
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
                curve = spectral.idos_curve(spectra[k], ref.energies)
            else:
                curve = spectral.DOSCurve(ref.energies, np.interp(ref.energies, curves[k].energies, curves[k].values))
            table[str(k)] = spectral.idos_mse(curve, ref)
        outputs.write_json(os.path.join(out, f"mse_{tag}_s{args.s}.json"), {"reference_k": k_ref, "mse": table})
        print("MSE vs k =", k_ref, ":", table)
    return _flags(args)


def cmd_flow(args) -> dict:
    import numpy as np

    from . import operators, outputs, spectral

    if args.samples < 2:
        # with one sample per edge the loop has no interior point to report on
        raise ConfigError(f"--samples must be at least 2, got {args.samples}")
    group = _load_quotient(args.p, args.q, args.s, args.k, args.cache_dir)
    models = [operators.model_hamiltonian(a, kk, args.eps, args.p, args.q) for a, kk in _pairs(args.models)]
    path = spectral.simplex_path(args.samples)
    flows = spectral.spectral_flow(models, path, group)

    out = _ensure_out(args.out)
    name = f"flow_{args.p}_{args.q}_s{args.s}_k{args.k}"
    header = ["index", "w1", "w2", "w3"] + [f"e{i}" for i in range(flows.shape[1])]
    outputs.write_csv(os.path.join(out, f"{name}.csv"), header, [np.arange(len(path)), path, flows])

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
    outputs.write_json(os.path.join(out, f"{name}_report.json"), report)
    print(
        f"flow over {len(path)} points: interior min |E| = {report['interior_min_abs_energy']:.3e}, "
        f"{len(crossings)} crossing point(s) below {args.crossing_tol}"
    )
    return _flags(args)


def cmd_junction(args) -> dict:
    import numpy as np

    from . import geometry, junction, operators, outputs, spectral, triangle

    config = dict(
        p=5, q=4, radius=12, phi_y=None, ell=junction.DEFAULT_WALL_WIDTH, eps=junction.DEFAULT_EPS,
        models=junction.DEFAULT_MODELS, energies=[0.0], delta_e=0.05,
    )
    if args.config:
        config.update(_read_junction_config(args.config))
    # flags override the file
    config.update((key, value) for key, value in vars(args).items() if key in config and value is not None)
    labels = config["energies"]  # as given, which is how stdout names them
    config.update(
        {key: float(config[key]) for key in ("ell", "eps", "delta_e")},
        models=_pairs(config["models"]),
        energies=[float(e) for e in labels],
    )
    if config["delta_e"] <= 0:
        raise ConfigError(f"delta_e must be positive, got {config['delta_e']}")
    cfg = junction.JunctionConfig(**{key: config[key] for key in ("phi_y", "ell", "eps", "models")})
    config["phi_y"] = cfg.resolve_phi(config["p"])
    p, q, radius, delta_e = (config[key] for key in ("p", "q", "radius", "delta_e"))

    ball = triangle.ball_enumerate(p, q, radius)
    z0 = geometry.incenter(p, q)
    pos = geometry.site_positions(ball, z0)
    rays = junction.junction_rays(config["phi_y"])
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
    for label, energy in zip(labels, config["energies"]):
        window = max(0.25, 5.0 * delta_e)
        pairs = spectral.eigenpairs_near(ham, center=energy, half_width=window, seed=args.seed)
        weights = spectral.ldos(pairs, energy=energy, delta_e=delta_e)
        # the fixed form of |E| >= 1e200 would pass the 255-byte limit on a file name
        tag = f"{energy:+.3f}" if abs(energy) < 1e200 else f"{energy:+.3e}"
        ldos_path = os.path.join(out, f"{name}_ldos_E{tag}.csv")
        outputs.write_csv(ldos_path, ["index", "ldos"], [np.arange(weights.size), weights])
        # a ratio whose denominator carries no LDOS weight is undefined: null in the report
        on_bulk, off_bulk = weights[bulk & tube].sum(), weights[bulk & ~tube].sum()
        on_raw, off_raw = weights[tube].sum(), weights[~tube].sum()
        ratio = float(on_bulk / off_bulk) if off_bulk > 0 else None
        raw_ratio = float(on_raw / off_raw) if off_raw > 0 else None
        report["energies"].append(
            {
                "energy": energy,
                "delta_e": delta_e,
                "states_in_window": int(pairs.eigenvalues.size),
                "interface_ratio_bulk": ratio,
                "interface_ratio_raw": raw_ratio,
            }
        )
        print(
            f"E={label}: inertia count {pairs.count}, Krylov basis {pairs.basis_size} columns, "
            f"max residual {pairs.residual:.1e}"
        )
        if ratio is None or raw_ratio is None:
            shown = "undefined (no LDOS weight off the interface)"
        else:
            shown = f"{ratio:.2f} on bulk sites ({raw_ratio:.3f} with the rim included)"
        print(f"E={label}: {pairs.eigenvalues.size} states in window, interface ratio {shown}")
        # the next energy's solve must not hold this one's eigenvectors as well
        del pairs, weights
    outputs.write_json(os.path.join(out, f"{name}_report.json"), report)

    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperbulk",
        description="Exact-arithmetic hyperbolic lattices: rings, quotients, spectra, junctions.",
    )
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--cache-dir", default=None, help="quotient cache directory")
    parser.add_argument("--threads", type=int, default=None, help="pin BLAS/OpenMP threads (kpm/auto spectra: 1)")
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
    sp.add_argument("--model", nargs="+", default=["adj"], help="'adj' or 'h ALPHA KIDX'")
    sp.add_argument("--eps", type=_finite_float, default=0.8)
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
    sp.add_argument("--eps", type=_finite_float, default=0.8)
    sp.add_argument("--samples", type=int, default=40, help="path samples per edge")
    sp.add_argument("--crossing-tol", type=_finite_float, default=0.01)
    sp.set_defaults(func=cmd_flow)

    sp = sub.add_parser("junction", help="three-phase Y-junction on an open ball")
    sp.add_argument("--config", default=None, help="JSON config file")
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--radius", type=int, default=None)
    sp.add_argument("--phi-y", type=_finite_float, default=None)
    sp.add_argument("--ell", type=_finite_float, default=None)
    sp.add_argument("--eps", type=_finite_float, default=None)
    sp.add_argument("--models", nargs=6, type=int, default=None)
    sp.add_argument("--energies", nargs="+", type=_finite_float, default=None)
    sp.add_argument("--delta-e", type=_finite_float, default=None)
    sp.set_defaults(func=cmd_junction)

    return parser


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None and args.threads < 1:
        print("error: --threads must be positive", file=sys.stderr)
        return 2
    for var in _THREAD_VARS:
        if args.threads is not None:
            os.environ[var] = str(args.threads)
        elif args.command == "spectrum" and args.method != "exact":
            # KPM's Lanczos vectors gain nothing from BLAS threads and lose much to their overhead;
            # auto runs exact only on orders up to DENSE_CAP, whose blocks are small
            os.environ.setdefault(var, "1")
    from .outputs import write_json  # loads numpy, so only after the threads are pinned

    try:
        config = args.func(args)
        write_json(os.path.join(args.out, f"{args.command}_config.json"), {**config, "seed": args.seed})
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except NumericalContractError as exc:
        print(f"numerical contract violated: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
