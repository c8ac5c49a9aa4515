"""Command-line entry point.

Subcommands: special, modulus, dilatation, bounds, verify, sweep.
Global flags --json/--csv write the primary output to files in addition to
stdout; --tol-scale (>= 1) tightens every verification tolerance; --jobs
(default 1) parallelizes scenario execution.  An optional
config file holds ``key = value`` lines mirroring the long flag names of the
chosen subcommand and the global flags; each value is read as the flag's
type (switches take ``true`` or ``false``) and becomes that flag's default,
so flags on the command line win.

Exit codes: 0 all checks passed, 1 at least one violation, 2 bad
configuration or I/O.  Output a closed stdout cannot take is dropped
quietly; the exit code and the files written stay those of the command.
Each ``bounds`` subcommand takes only the flags it reads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

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
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed stdout (as `| head` does): drop the rest quietly, as
        # the Python docs advise for SIGPIPE, with stdout on devnull so that the
        # interpreter's last flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
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
        "cg_iterations": est.cg_iterations,
        "residual": est.residual,
        "resolution": list(est.resolution),
    }
    if args.emit_density:
        n = graph.nodes.shape[1]
        cols = [f"x{i+1}_tail" for i in range(n)] + [f"x{i+1}_head" for i in range(n)] + ["rho", "length"]
        tail, head = graph.edges.T
        length = np.linalg.norm(graph.nodes[head] - graph.nodes[tail], axis=1)
        rho = np.abs(est.potential[head] - est.potential[tail]) / length
        rows = np.hstack([graph.nodes[tail], graph.nodes[head], rho[:, None], length[:, None]])
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
    # each subcommand's parser holds only the flags its branch reads
    mapping = maps.parse_map(args.map) if getattr(args, "map", None) else maps.Identity()
    shape = geometry.parse_shape(args.shape) if getattr(args, "shape", None) else None

    if args.which in ("eq1est", "eq2est"):
        if shape is None:
            raise ValueError(f"{args.which} needs --shape")
        image_mo = None
        if args.with_image:
            K, A = _parse_grid(args.image_grid)
            image_mo = discrete.image_modulus(mapping, shape, (K, A)).mo
        fn = bd.eq1est_bounds if args.which == "eq1est" else bd.eq2est_bounds
        rep = fn(mapping, shape, image_mo=image_mo,
                 image_mo_error=0.02 * image_mo if image_mo else 0.0)
    elif args.which == "modintbound":
        if not isinstance(shape, (geometry.Annulus, geometry.HalfSemiring)):
            raise ValueError("modintbound needs --shape annulus:... or semiring:...")
        rep = bd.modintbound(mapping, shape.x0, shape.r0, shape.r1,
                             full_sphere=(shape.kind == "ring"))
    elif args.which == "domfac":
        rep = bd.dominated_modulus_bound(args.m, args.M, args.r0, args.n,
                                         bd.DominatingFactor.linear(args.gamma))
    elif args.which == "holder":
        if not isinstance(shape, geometry.HalfSemiring):
            raise ValueError("holder needs --shape semiring:... (a half semiring)")
        rep = bd.holder_identity_check(mapping, shape.x0, shape.r0, shape.r1)
    elif args.which == "infinity":
        radii = [float(v) for v in args.radii.split(",")]
        rep = bd.infinity_check(mapping, args.r0, radii, np.zeros(args.n))
    elif args.which == "continuity":
        if args.dist is None:
            raise ValueError("continuity needs --dist")
        rep = bd.continuity_bounds(args.n, args.gamma, args.M, args.r0, args.dist, args.d)
    elif args.which == "separation":
        rep = bd.separation_bound(args.mo, args.n)
        if args.dist is not None:
            rep.details["boundary_estimate"] = bd.boundary_estimate(args.mo, args.dist, args.n)
    else:
        raise ValueError(f"unknown bounds subcommand {args.which}")

    _emit(rep.to_json(), args)
    return 1 if rep.verdict == "violated" else 0


def _cmd_verify(args) -> int:
    cfg = harness.HarnessConfig(tol_scale=args.tol_scale, jobs=args.jobs)
    agg = harness.run_all(tag=args.filter, config=cfg)
    _emit(agg, args)
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
    p.add_argument("--jobs", type=int, help="parallel scenarios (default 1)",
                   **(kw or {"default": 1}))
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
                    help="write a per-edge density CSV here: rho = |dphi| / length of the "
                         "potential phi, admissible by telescoping; the extremal density "
                         "only on 3D grids")
    mo.set_defaults(fn=_cmd_modulus)

    di = sub.add_parser("dilatation", help="all dilatations of a map at a point",
                        parents=[common])
    di.add_argument("--map", required=True)
    di.add_argument("--x", required=True)
    di.add_argument("--x0", required=True)
    di.set_defaults(fn=_cmd_dilatation)

    bo = sub.add_parser("bounds", help="evaluate one explicit bound", parents=[common])
    bsub = bo.add_subparsers(dest="which", required=True)
    # each bound takes only the flags it reads, so a foreign flag exits 2
    flags = {
        "--map": dict(default=None),
        "--shape": dict(default=None),
        "--gamma": dict(type=float, default=1.0),
        "--M": dict(type=float, default=math.pi),
        "--r0": dict(type=float, default=1.0),
        "--n": dict(type=int, default=2),
        "--m": dict(type=float, default=10.0),
        "--mo": dict(type=float, default=10.0),
        "--dist": dict(type=float, default=None),
        "--d": dict(type=float, default=1e-3),
        "--radii": dict(default="100,10000,1000000"),
        "--with-image": dict(action="store_true", dest="with_image",
                             help="also estimate the image modulus with the solver"),
        "--image-grid": dict(dest="image_grid", default="48x97"),
    }
    image = "--map --shape --with-image --image-grid"
    for which, names in (("eq1est", image), ("eq2est", image), ("modintbound", "--map --shape"),
                         ("domfac", "--m --M --r0 --n --gamma"), ("holder", "--map --shape"),
                         ("infinity", "--map --r0 --radii --n"),
                         ("continuity", "--n --gamma --M --r0 --dist --d"),
                         ("separation", "--mo --n --dist")):
        q = bsub.add_parser(which, parents=[common])
        for flag in names.split():
            q.add_argument(flag, **flags[flag])
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


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Make each config entry the default of the flag that owns it.

    The owner is looked up in the parser and the subparsers selected by
    ``args``; global flags belong to the top-level parser.  Values are cast
    by the flag's type; switches take ``true`` or ``false``.
    """
    chain = [parser]
    while True:
        sub = next((a for a in chain[-1]._actions
                    if isinstance(a, argparse._SubParsersAction)), None)
        if sub is None:
            break
        chain.append(sub.choices[getattr(args, sub.dest)])
    for key, raw in _load_config_file(args.config).items():
        owner = next(((p, a) for p in chain for a in p._actions
                      if a.dest == key and a.option_strings and a.default is not argparse.SUPPRESS),
                     None)
        if owner is None:
            raise ValueError(f"unknown config key {key!r}")
        p, action = owner
        if action.nargs == 0:
            if raw not in ("true", "false"):
                raise ValueError(f"config key {key!r} takes true or false, got {raw!r}")
            value = raw == "true"
        else:
            try:
                value = action.type(raw) if action.type else raw
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from exc
        p.set_defaults(**{key: value})


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config(parser, args)
            # flags on the command line win over the new defaults
            args = parser.parse_args(argv)
        # written so that a NaN --tol-scale fails it too
        if args.jobs < 1 or not 1.0 <= args.tol_scale < math.inf:
            raise ValueError("--jobs must be >= 1 and --tol-scale finite and >= 1")
        return args.fn(args)
    except (ValueError, KeyError, TypeError, OSError, NotImplementedError) as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
