"""Span tracer for the benchmark: wraps wfano's public functions from outside.

Nothing under ``src/`` is edited.  :func:`install` replaces each traced
function in *every* ``wfano`` module namespace that holds a reference to it
(``engine`` keeps its own ``fano_index``, ``delta_eckardt`` and
``unstable_check``; ``wpoly`` keeps its own ``build``; the package
``__init__`` re-exports most of them), and wraps ``__init__`` of the traced
classes.  Each call records a span (name, parent, start, end, raised) in
flat in-memory arrays.  Leaving the ``with`` block of a traced pass folds
them into per-layer totals with self time (a span's duration minus its
children's); :meth:`Tracer.write` dumps the first pass's spans once the run
is over.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, attribute, kind, end-to-end metrics the layer should move).
# kind: "func" wraps a function, "init" wraps a class constructor, "count"
# only counts calls of a method (too hot to time without distorting it).
LAYERS = [
    ("cli", "build_parser", "func",
     "op_p50_ms, items_per_s on certify_stream and geometry_mix; not sweep or moments_table"),
    ("cli", "run", "func",
     "op_p50_ms, items_per_s on certify_stream and geometry_mix; not sweep or moments_table"),
    ("engine", "certify", "func",
     "wall_s, peak_rss_mb, first_output_s on sweep; certify_stream once parser cost is gone"),
    ("engine", "derive_b1", "func",
     "wall_s, peak_rss_mb, first_output_s on sweep; certify_stream once parser cost is gone"),
    ("engine", "enumerate_data", "func",
     "wall_s, peak_rss_mb, first_output_s on sweep"),
    ("lattice", "WeightVector", "init", "sweep wall_s; geometry_mix through the strata"),
    ("lattice", "fano_index", "func", "sweep wall_s"),
    ("lattice", "normalize", "func", "geometry_mix"),
    ("lattice", "stratum", "func", "geometry_mix"),
    ("lattice", "base_locus", "func", "geometry_mix"),
    ("lattice", "top_intersection", "func", "geometry_mix"),
    ("snf", "QuotientLattice", "init", "geometry_mix only"),
    ("snf", "smith_normal_form", "func", "geometry_mix only"),
    ("blowup", "build", "func", "geometry_mix only"),
    ("blowup", "intersection_bi", "func", "geometry_mix only"),
    ("blowup", "exceptional_class", "func", "geometry_mix only"),
    ("blowup", "restrict_to_divisor", "func", "geometry_mix only"),
    ("blowup", "finite_cover_pull", "func", "geometry_mix only"),
    ("moments", "s_value", "func",
     "moments_table wall_s, items_per_s; no change on certify_stream and sweep"),
    ("moments", "s_value_closed_form", "func", "moments_table"),
    ("moments", "delta_eckardt", "func", "moments_table; no change on certify_stream and sweep"),
    ("moments", "unstable_check", "func", "moments_table; no change on certify_stream and sweep"),
    ("moments", "Poly1D.mul", "count", "moments_table wall_s, items_per_s"),
    ("wpoly", "parse", "func", "geometry_mix; raised moves fail_frac"),
    ("wpoly", "strict_transform", "func", "geometry_mix; raised moves fail_frac"),
    ("wpoly", "restrict", "func", "geometry_mix; raised moves fail_frac"),
    ("wpoly", "qsm_at_point", "func", "geometry_mix; raised moves fail_frac"),
    ("wpoly", "qsm_at_coordinate_points", "func", "geometry_mix; raised moves fail_frac"),
    ("wpoly", "eckardt_analyze", "func", "geometry_mix; raised moves fail_frac"),
    ("convex", "okounkov_body_surface", "func", "geometry_mix; raised moves fail_frac"),
    ("convex", "zariski_decompose", "func", "geometry_mix; raised moves fail_frac"),
    ("convex", "gravity_bounds", "func", "geometry_mix; raised moves fail_frac"),
    ("convex", "delta_lower_gravity", "func", "geometry_mix; raised moves fail_frac"),
    ("convex", "barycenter", "func", "geometry_mix; raised moves fail_frac"),
]

OUT_WRITE = "cli.out.write"
ENUMERATE = "engine.enumerate_data"
WEIGHT_VECTOR = "lattice.WeightVector"


def layer_name(module: str, attr: str) -> str:
    return f"{module}.{attr}"


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for module, attr, kind, _ in LAYERS:
        base = layer_name(module, attr)
        if kind == "count":
            out.append((f"{base}.calls", "count", "lower"))
            continue
        out += [(f"{base}.calls", "count", "lower"),
                (f"{base}.self_s", "s", "lower"),
                (f"{base}.raised", "count", "lower")]
        if base == ENUMERATE:
            out += [(f"{base}.candidates", "count", "lower"),
                    (f"{base}.rows", "count", "higher"),
                    (f"{base}.yield_ratio", "ratio", "higher")]
    out += [("cli.out.bytes", "B", "lower"), ("cli.out.write_s", "s", "lower"),
            ("trace.overhead_frac", "frac", "lower")]
    return out


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.counts: dict[str, int] = {}
        self.totals: dict[str, list] = {}     # name -> [calls, self_s, raised]
        self.candidates = 0
        self.rows = 0
        self.kept = None
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        """A wrapper of ``fn`` that records one span per call."""
        nid = self._id(name)
        names, parents, starts, ends, raised = (
            self.name, self.parent, self.start, self.end, self.raised)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            raised.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()

        return wrapper

    def _generator_span(self, name: str, fn):
        """Like :meth:`span` for a generator function: the span runs from the
        first pull to exhaustion, and yielded items are counted as rows."""
        nid = self._id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self.raised.append(0)
            self._stack.append(i)
            self.start.append(clock())
            try:
                for item in fn(*args, **kwargs):
                    self.rows += 1
                    yield item
            except GeneratorExit:
                raise
            except BaseException:
                self.raised[i] = 1
                raise
            finally:
                self.end[i] = clock()
                self._stack.remove(i)

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every traced name in every wfano namespace that holds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "wfano" or n.startswith("wfano."))]
        for module, attr, kind, _ in LAYERS:
            name = layer_name(module, attr)
            home = sys.modules[f"wfano.{module}"]
            if kind == "init":
                cls = getattr(home, attr)
                self._set(cls, "__init__", self.span(name, cls.__init__))
            elif kind == "count":
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                dunder = f"__{method}__"
                self._set(cls, dunder, self._counter(name, getattr(cls, dunder)))
            else:
                original = getattr(home, attr)
                if name == ENUMERATE:
                    wrapped = self._generator_span(name, original)
                else:
                    wrapped = self.span(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def wrap_write(self, write):
        """Span around the benchmark's output sink, so sink time is not
        charged to the caller's self time."""
        return self.span(OUT_WRITE, write)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        self._fold()

    def _fold(self) -> None:
        """Add the spans recorded since the last fold to the totals, derive
        self time, and start empty arrays; the first batch is kept for
        :meth:`write`."""
        n = len(self.name)
        child = [0.0] * n
        inside_enum = [False] * n
        enum_id = self._ids.get(ENUMERATE)
        wv_id = self._ids.get(WEIGHT_VECTOR)
        for i in range(n):
            p = self.parent[i]
            nid = self.name[i]
            inside_enum[i] = nid == enum_id or (p >= 0 and inside_enum[p])
            if nid == wv_id and inside_enum[i]:
                self.candidates += 1
        for i in range(n - 1, -1, -1):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                child[p] += dur
            total = self.totals.setdefault(self.names[self.name[i]], [0, 0.0, 0])
            total[0] += 1
            total[1] += dur - child[i]
            total[2] += self.raised[i]
        if self.kept is None:
            self.kept = (self.name, self.parent, self.start, self.end, self.raised)
        self.name, self.parent = array("i"), array("i")
        self.start, self.end, self.raised = array("d"), array("d"), array("b")

    def summary(self, passes: int, out_bytes: int) -> dict[str, float]:
        """Per-pass means of every per-layer metric except the overhead."""
        out: dict[str, float] = {}
        for name, _, _ in metric_names():
            base, _, field = name.rpartition(".")
            calls, self_s, raised = self.totals.get(base, (0, 0.0, 0))
            if field == "calls":
                out[name] = self.counts.get(base, calls) / passes
            elif field == "self_s":
                out[name] = self_s / passes
            elif field == "raised":
                out[name] = raised / passes
        out[f"{ENUMERATE}.candidates"] = self.candidates / passes
        out[f"{ENUMERATE}.rows"] = self.rows / passes
        out[f"{ENUMERATE}.yield_ratio"] = self.rows / self.candidates if self.candidates else 0.0
        out["cli.out.bytes"] = out_bytes / passes
        out["cli.out.write_s"] = self.totals.get(OUT_WRITE, (0, 0.0, 0))[1] / passes
        return out

    def write(self, path) -> None:
        """Dump the first traced pass's spans as columns; times are seconds
        from its first span."""
        name, parent, start, end, raised = self.kept
        t0 = start[0] if len(start) else 0.0
        doc = {
            "names": self.names,
            "name": name.tolist(),
            "parent": parent.tolist(),
            "start": [round(t - t0, 9) for t in start],
            "end": [round(t - t0, 9) for t in end],
            "raised": raised.tolist(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))
