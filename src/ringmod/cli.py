"""Command-line entry point.

Subcommands: special, modulus, dilatation, bounds, verify, sweep.
Global flags --json/--csv write the primary output to files in addition to
stdout; --tol-scale (>= 1) tightens every verification tolerance; --jobs
(default from RINGMOD_JOBS) parallelizes scenario execution.  An optional
config file holds ``key = value`` lines mirroring the long flag names.

Exit codes: 0 all checks passed, 1 at least one violation, 2 bad
configuration or I/O.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import bounds as bd
from . import discrete, geometry, harness, maps, special
from .dilatation import directional_sample


def _load_config_file(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {raw!r}: expected key = value")
            k, v = (part.strip() for part in line.split("=", 1))
            out[k.replace("-", "_")] = v
    return out


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    print(text)
    if getattr(args, "json", None):
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        a, b = text.lower().split("x")
        return int(a), int(b)
    except Exception as exc:
        raise ValueError(f"bad grid {text!r}, expected RxA like 64x256") from exc


def _cmd_special(args) -> int:
    if args.what == "a2":
        res = special.compute_A2()
        _emit({"value": res.value, "argmax": res.argmax_t,
               "attained_at_boundary": res.attained_at_boundary, "method": res.method}, args)
    elif args.what == "constants":
        c = special.constants_for(args.n)
        _emit({"value": c.a_value, "lambda_lower": c.lambda_lower,
               "lambda_upper": c.lambda_upper, "a_is_exact": c.a_is_exact,
               "q_value": c.q_value, "method": "closed-form bounds"}, args)
    elif args.what == "psi2":
        _emit({"value": special.psi2(args.t), "method": "agm"}, args)
    return 0


def _cmd_modulus(args) -> int:
    shape = geometry.parse_shape(args.shape)
    K, A = _parse_grid(args.grid)
    if args.map:
        mapping = maps.parse_map(args.map)
        graph = discrete.build_image_grid(mapping, shape, (K, A))
    else:
        graph = discrete.build_grid(shape, K, A)
    est = discrete.modulus_connect(graph)
    payload = {
        "m_gamma": est.m_gamma,
        "mo": est.mo,
        "iterations": est.iterations,
        "residual": est.residual,
        "resolution": list(est.resolution),
        "n_paths": est.n_paths,
    }
    if args.emit_density:
        n = graph.nodes.shape[1]
        cols = [f"x{i+1}_tail" for i in range(n)] + [f"x{i+1}_head" for i in range(n)] + ["rho", "length"]
        rows = []
        for eid, (a, b) in enumerate(graph.edges):
            rows.append(list(graph.nodes[a]) + list(graph.nodes[b])
                        + [float(est.rho[eid]), float(graph.lengths[eid])])
        harness.emit_csv(args.emit_density, cols, rows)
        payload["density_csv"] = args.emit_density
    _emit(payload, args)
    return 0


def _cmd_dilatation(args) -> int:
    mapping = maps.parse_map(args.map)
    x = maps.parse_vector(args.x)
    x0 = maps.parse_vector(args.x0)
    sample = directional_sample(mapping, x, x0)
    _emit(sample.to_json(), args)
    return 0


def _cmd_bounds(args) -> int:
    spec = bd.QuadratureSpec()
    mapping = maps.parse_map(args.map) if args.map else maps.Identity()
    shape = geometry.parse_shape(args.shape) if args.shape else None

    if args.which in ("eq1est", "eq2est"):
        if shape is None:
            raise ValueError(f"{args.which} needs --shape")
        image_mo = None
        if args.with_image:
            K, A = _parse_grid(args.image_grid)
            image_mo = discrete.image_modulus(mapping, shape, (K, A)).mo
        fn = bd.eq1est_bounds if args.which == "eq1est" else bd.eq2est_bounds
        rep = fn(mapping, shape, spec, image_mo=image_mo,
                 image_mo_error=0.02 * image_mo if image_mo else 0.0)
    elif args.which == "modintbound":
        if shape is None:
            raise ValueError("modintbound needs --shape")
        val, err = bd.modintbound_with_error(mapping, shape.x0, shape.r0, shape.r1, spec,
                                             full_sphere=(shape.kind == "ring"))
        rep = bd.BoundReport("modintbound", val, None, err, "holds",
                             details={"r": shape.r0, "R": shape.r1})
    elif args.which == "domfac":
        H = bd.DominatingFactor.linear(args.gamma)
        res = bd.dominated_modulus_bound(args.m, args.M, args.r0, args.n, H)
        rep = bd.BoundReport("domfac", res.value, res.closed_form,
                             abs(res.value - (res.closed_form or res.value)), "holds",
                             details={"sigma": res.sigma, **res.constants,
                                      "divergence": bd.is_divergence_type(H, args.n)})
    elif args.which == "holder":
        if shape is None:
            raise ValueError("holder needs --shape (a half semiring)")
        rep = bd.holder_identity_check(mapping, shape.x0, shape.r0, shape.r1, spec)
    elif args.which == "infinity":
        radii = [float(v) for v in args.radii.split(",")]
        trend = bd.infinity_check(mapping, args.r0, radii, n=args.n)
        rep = bd.BoundReport("infinity", trend.values[-1], None, 0.0, trend.verdict,
                             details={"values": list(trend.values), "radii": list(trend.radii)})
    elif args.which == "continuity":
        res = bd.continuity_bounds(args.n, args.gamma, args.M, args.r0, args.dist, args.d)
        rep = bd.BoundReport("continuity", res.value, None, 0.0, "holds",
                             details={"is_log_bound": res.is_log_bound,
                                      "conservative": res.conservative, **res.constants})
    elif args.which == "separation":
        val = bd.separation_bound(args.mo, args.n)
        details = {}
        if args.dist is not None:
            details["boundary_estimate"] = bd.boundary_estimate(args.mo, args.dist, args.n)
        rep = bd.BoundReport("separation", val, None, 0.0, "holds", details=details)
    else:
        raise ValueError(f"unknown bounds subcommand {args.which}")

    _emit(rep.to_json(), args)
    return 1 if rep.verdict == "violated" else 0


def _cmd_verify(args) -> int:
    cfg = harness.HarnessConfig(tol_scale=args.tol_scale, jobs=args.jobs)
    agg = harness.run_all(tag=args.filter, config=cfg)
    text = harness.report_to_json(agg)
    print(text, end="")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.csv:
        cols, rows = harness.report_rows(agg)
        harness.emit_csv(args.csv, cols, rows)
    return 0 if agg["passed"] else 1


def _cmd_sweep(args) -> int:
    cols, rows = harness.sweep(args.name)
    payload = {"sweep": args.name, "columns": cols, "rows": len(rows)}
    if args.csv:
        harness.emit_csv(args.csv, cols, rows)
        payload["csv"] = args.csv
    if args.svg:
        xs = [r[0] for r in rows]
        ys = [r[1] for r in rows]
        harness.emit_svg(args.svg, xs, ys, cols[0], cols[1], args.name)
        payload["svg"] = args.svg
    if not args.csv and not args.svg:
        payload["preview"] = rows[:5]
    _emit(payload, args)
    return 0


def _add_globals(p, suppress=False):
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    p.add_argument("--json", help="write primary JSON output to this path",
                   **(kw or {"default": None}))
    p.add_argument("--csv", help="write CSV output to this path (verify)",
                   **(kw or {"default": None}))
    p.add_argument("--jobs", type=int, help="parallel scenarios (default: RINGMOD_JOBS or 1)",
                   **(kw or {"default": None}))
    p.add_argument("--tol-scale", type=float, dest="tol_scale",
                   help="tighten every check tolerance by this factor (>= 1)",
                   **(kw or {"default": 1.0}))
    p.add_argument("--config", help="key = value file mirroring the long flags",
                   **(kw or {"default": None}))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ringmod",
                                description="moduli of rings/semirings, dilatations, and bounds")
    _add_globals(p)
    # the same flags are accepted after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    _add_globals(common, suppress=True)
    sub = p.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    sp = sub.add_parser("special", help="planar ring functions and constants",
                        parents=[common])
    spsub = sp.add_subparsers(dest="what", required=True)
    spsub.add_parser("a2")
    c = spsub.add_parser("constants")
    c.add_argument("--n", type=int, required=True)
    t = spsub.add_parser("psi2")
    t.add_argument("--t", type=float, required=True)
    sp.set_defaults(fn=_cmd_special)

    mo = sub.add_parser("modulus", help="discrete modulus of a shape (or its image)",
                        parents=[common])
    mo.add_argument("--shape", required=True)
    mo.add_argument("--map", default=None)
    mo.add_argument("--grid", required=True, help="RxA, e.g. 64x256")
    mo.add_argument("--emit-density", dest="emit_density", default=None,
                    help="write the extremal density CSV here")
    mo.set_defaults(fn=_cmd_modulus)

    di = sub.add_parser("dilatation", help="all dilatations of a map at a point",
                        parents=[common])
    di.add_argument("--map", required=True)
    di.add_argument("--x", required=True)
    di.add_argument("--x0", required=True)
    di.set_defaults(fn=_cmd_dilatation)

    bo = sub.add_parser("bounds", help="evaluate one explicit bound", parents=[common])
    bo.add_argument("which", choices=["eq1est", "eq2est", "modintbound", "domfac",
                                      "holder", "infinity", "continuity", "separation"])
    bo.add_argument("--map", default=None)
    bo.add_argument("--shape", default=None)
    bo.add_argument("--gamma", type=float, default=1.0)
    bo.add_argument("--M", type=float, default=math.pi)
    bo.add_argument("--r0", type=float, default=1.0)
    bo.add_argument("--n", type=int, default=2)
    bo.add_argument("--m", type=float, default=10.0)
    bo.add_argument("--mo", type=float, default=10.0)
    bo.add_argument("--dist", type=float, default=None)
    bo.add_argument("--d", type=float, default=1e-3)
    bo.add_argument("--radii", default="100,10000,1000000")
    bo.add_argument("--with-image", action="store_true", dest="with_image",
                    help="also estimate the image modulus with the solver")
    bo.add_argument("--image-grid", dest="image_grid", default="48x97")
    bo.set_defaults(fn=_cmd_bounds)

    ve = sub.add_parser("verify", help="run the named verification scenarios",
                        parents=[common])
    ve.add_argument("--filter", default=None, help="only scenarios carrying this tag")
    ve.set_defaults(fn=_cmd_verify)

    sw = sub.add_parser("sweep", help="emit a parameter sweep as CSV/SVG", parents=[common])
    sw.add_argument("name")
    sw.add_argument("--svg", default=None)
    sw.set_defaults(fn=_cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            file_cfg = _load_config_file(args.config)
            for key, raw in file_cfg.items():
                if not hasattr(args, key):
                    raise ValueError(f"unknown config key {key!r}")
                # CLI flags win over the config file
                current = getattr(args, key)
                default = parser.get_default(key)
                if current == default:
                    cast = type(default) if default is not None else str
                    setattr(args, key, cast(raw) if default is not None else raw)
        if args.jobs is None:
            args.jobs = int(os.environ.get("RINGMOD_JOBS", "1"))
        if args.jobs < 1 or args.tol_scale < 1.0:
            raise ValueError("--jobs must be >= 1 and --tol-scale >= 1")
        return args.fn(args)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
