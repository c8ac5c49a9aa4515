"""Spans around ringmod's public functions, and the per-layer metrics.

``Tracer.install`` replaces every public function of the traced layers at
each name a caller looks it up by (the defining module and every ringmod
module that imported it by name), so later callers pick up the wrapper.
Spans carry a name, start, end (on the clock the tracer is given), parent
and a few counts; they are kept in memory and written out by the caller when
the run ends.  ``uninstall``
restores the original objects, so untraced passes run the plain library.

Self time of a span is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import weakref
from collections import defaultdict

import ringmod
from ringmod import bounds, dilatation, discrete, harness, maps, special

# geometry and constants cost microseconds and carry no metric
LAYERS = (discrete, dilatation, bounds, maps, special, harness)

DISCRETE_CASES = ("planar", "large", "apollonian", "image", "3d")
LARGE_NODES = 100_000     # 256x1024 grids have 262144 nodes, the harness's at most 16384
NORMAL_DIMS = (2, 3)

# counts that must repeat exactly from pass to pass
COUNT_METRICS = (
    "discrete.edges", "discrete.rounds", "discrete.paths",
    *(f"dilatation.normal_points.n{n}" for n in NORMAL_DIMS),
    "dilatation.angular_points", "dilatation.sample_calls", "dilatation.matrix_calls",
    "bounds.quad_calls", "bounds.quad_levels", "bounds.cap_hits",
    "maps.jacobian_points", "maps.eval_points",
    "harness.checks", "harness.checks_failed",
)


def _points(x) -> int:
    shape = getattr(x, "shape", None)
    if not shape:
        return 1
    size = 1
    for s in shape[:-1]:
        size *= s
    return size


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._graph_case = weakref.WeakKeyDictionary()

    # -- spans -------------------------------------------------------------

    def _call(self, name: str, fn, args, kwargs, attrs: dict | None = None):
        rec = {"name": name, "parent": self._stack[-1] if self._stack else None,
               "attrs": {} if attrs is None else attrs}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec["start"] = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            rec["end"] = self.clock()
            self._stack.pop()

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    # -- installation --------------------------------------------------------

    def _replace(self, original, replacement) -> None:
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("ringmod"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._restore.append((mod, key, original))

    def _wrapper(self, name: str, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                return hook(name, fn, args, kwargs)
            return self._call(name, fn, args, kwargs)

        return wrapper

    def install(self) -> None:
        # functions whose arguments or results carry the per-layer counts
        hooks = {
            "discrete.build_grid": self._build,
            "discrete.build_image_grid": self._build,
            "discrete.modulus_connect": self._solve,
            "dilatation.normal_dilatation_field": self._field("dilatation.normal"),
            "dilatation.angular_dilatation_field": self._field("dilatation.angular"),
            "bounds.quad_weighted_with_error": self._quad,
            "harness.run_scenario": self._scenario,
        }
        for mod in LAYERS:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for key, fn in list(vars(mod).items()):
                if (key.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{key}"
                self._replace(fn, self._wrapper(name, fn, hooks.get(name)))
        for key in ("jacobian", "__call__"):
            original = vars(maps.Mapping)[key]
            name = f"maps.Mapping.{key}"

            def method(obj, x, *args, _fn=original, _name=name, **kwargs):
                return self._call(_name, _fn, (obj, x, *args), kwargs, {"points": _points(x)})

            setattr(maps.Mapping, key, functools.wraps(original)(method))
            self._restore.append((maps.Mapping, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    # -- hooks -----------------------------------------------------------------

    def _build(self, name, fn, args, kwargs):
        attrs = {}
        graph = self._call(name, fn, args, kwargs, attrs)
        bound = inspect.signature(fn).bind(*args, **kwargs).arguments
        shape = bound["shape"]
        if name.endswith("build_image_grid"):
            case = "image"
        elif shape.n == 3:
            case = "3d"
        elif isinstance(shape, ringmod.ApollonianSemiring):
            case = "apollonian"
        elif len(graph.nodes) > LARGE_NODES:
            case = "large"
        else:
            case = "planar"
        attrs["case"] = case
        self._graph_case[graph] = case
        return graph

    def _solve(self, name, fn, args, kwargs):
        graph = args[0] if args else kwargs["graph"]
        attrs = {"case": self._graph_case.get(graph, "planar"), "edges": len(graph.edges)}
        est = self._call(name, fn, args, kwargs, attrs)
        attrs.update(rounds=int(est.iterations), paths=int(est.n_paths))
        return est

    def _field(self, span_name):
        def hook(name, fn, args, kwargs):
            field = self._call(name, fn, args, kwargs)

            @functools.wraps(field)
            def traced_field(X):
                return self._call(span_name, field, (X,), {},
                                  {"points": _points(X), "dim": X.shape[-1]})

            return traced_field

        return hook

    def _quad(self, name, fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        attrs = {"levels": 0, "max_refine": bound.arguments["spec"].max_refine}
        g = bound.arguments["g"]

        def counted(X):
            attrs["levels"] += 1
            return g(X)

        bound.arguments["g"] = counted
        return self._call(name, fn, bound.args, bound.kwargs, attrs)

    def _scenario(self, name, fn, args, kwargs):
        attrs = {"scenario": args[0] if args else kwargs["sid"]}
        report = self._call(name, fn, args, kwargs, attrs)
        attrs.update(checks=len(report.checks),
                     failed=sum(1 for c in report.checks if not c.passed))
        return report


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]

    def parent_name(s):
        return spans[s["parent"]]["name"] if s["parent"] is not None else ""

    m: dict[str, float] = defaultdict(float)
    for name in (*COUNT_METRICS, "bounds.quad_self_s", "maps.jacobian_s", "maps.eval_s",
                 "special.s"):
        m[name] = 0.0
    for case in DISCRETE_CASES:
        m[f"discrete.build_s.{case}"] = m[f"discrete.solve_s.{case}"] = 0.0
    for sid in harness.SCENARIOS:
        m[f"harness.scenario_s.{sid}"] = 0.0
    normal_self = defaultdict(float)
    angular_self = sample_s = matrix_s = solve_s = 0.0
    solves = 0

    for i, s in enumerate(spans):
        name, a = s["name"], s["attrs"]
        dur = s["end"] - s["start"]
        own = dur - child[i]
        if name in ("discrete.build_grid", "discrete.build_image_grid"):
            m[f"discrete.build_s.{a['case']}"] += dur
        elif name == "discrete.modulus_connect":
            m[f"discrete.solve_s.{a['case']}"] += dur
            solve_s += dur
            solves += 1
            m["discrete.edges"] += a["edges"]
            m["discrete.rounds"] += a["rounds"]
            m["discrete.paths"] += a["paths"]
        elif name == "dilatation.normal":
            m[f"dilatation.normal_points.n{a['dim']}"] += a["points"]
            normal_self[a["dim"]] += own
        elif name == "dilatation.angular":
            m["dilatation.angular_points"] += a["points"]
            angular_self += own
        elif name == "dilatation.directional_sample":
            m["dilatation.sample_calls"] += 1
            sample_s += dur
        elif name == "dilatation.matrix_dilatations":
            m["dilatation.matrix_calls"] += 1
            matrix_s += dur
        elif name == "bounds.quad_weighted_with_error":
            m["bounds.quad_calls"] += 1
            m["bounds.quad_levels"] += a["levels"]
            m["bounds.cap_hits"] += a["levels"] == 1 + a["max_refine"]
            m["bounds.quad_self_s"] += own
        elif name.startswith("maps.Mapping.") and not parent_name(s).startswith("maps.Mapping."):
            kind = "jacobian" if name.endswith("jacobian") else "eval"
            m[f"maps.{kind}_points"] += a["points"]
            m[f"maps.{kind}_s"] += dur
        elif name.startswith("special.") and not parent_name(s).startswith("special."):
            m["special.s"] += dur
        elif name == "harness.run_scenario":
            m[f"harness.scenario_s.{a['scenario']}"] += dur
            m["harness.checks"] += a["checks"]
            m["harness.checks_failed"] += a["failed"]

    def per(total_s, count, scale=1e6):
        return total_s * scale / count if count else 0.0

    m["discrete.rounds_per_solve"] = per(m["discrete.rounds"], solves, 1.0)
    m["discrete.solve_us_per_edge"] = per(solve_s, m["discrete.edges"])
    for n in NORMAL_DIMS:
        m[f"dilatation.normal_us_per_point.n{n}"] = per(normal_self[n],
                                                        m[f"dilatation.normal_points.n{n}"])
    m["dilatation.angular_us_per_point"] = per(angular_self, m["dilatation.angular_points"])
    m["dilatation.sample_us_per_call"] = per(sample_s, m["dilatation.sample_calls"])
    m["dilatation.matrix_us_per_call"] = per(matrix_s, m["dilatation.matrix_calls"])
    return dict(m)
