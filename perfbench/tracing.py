"""Span tracing of latmodal's public functions, installed from outside.

`Tracer.install` wraps every public function of every latmodal module, and
a few methods, so that each call records one span: name, start, end and
parent span.  latmodal's modules import each other's functions by name
(`search` holds its own `frame_valid`), so each wrapper replaces the name
in every module that holds it.  A generator function records one span per
resumption, since the caller's work runs between them.  A call of a
function that is already running inside the same wrapper (recursion) is not
a span of its own.

Spans stay in memory, in flat arrays, and are written out once, when the
run ends.  `layer_metrics` turns them into the benchmark's per-layer
figures.
"""

from __future__ import annotations

import array
import gzip
import importlib
import inspect
import json
import statistics
import time

MODULES = (
    "cli",
    "constructions",
    "enumeration",
    "errors",
    "formula",
    "harness",
    "kripke",
    "lattice",
    "search",
    "serialize",
)
METHODS = (
    ("kripke", "Frame", "successors"),
    ("kripke", "CounterexampleReport", "recheck"),
    ("kripke", "CounterexampleReport", "to_dict"),
)
HARNESS_CHECKS = (
    "regularity",
    "eq1_implicative",
    "disj_dist",
    "k_linear",
    "k_material",
    "twist_k",
    "k5_regression",
)


def _formula_vars(f) -> set[str]:
    names, todo = set(), [f]
    while todo:
        g = todo.pop()
        if hasattr(g, "name"):
            names.add(g.name)
        elif hasattr(g, "child"):
            todo.append(g.child)
        else:
            todo += [g.left, g.right]
    return names


def _note_frame_valid(arguments, result):
    domain = arguments.get("var_domain")
    names = set(domain) if domain is not None else _formula_vars(arguments["f"])
    worlds = len(arguments["frame"].worlds)
    return {"valuations": arguments["matrix"].lattice.n ** (worlds * len(names))}


def _note_verify_theorem(arguments, result):
    return {"check": arguments["theorem"], "cases": result.cases}


def _note_k5(arguments, result):
    return {"check": "k5_regression", "cases": result.cases}


def _note_dumps(arguments, result):
    return {"bytes": len(result.encode("utf-8"))}


def _finish_enumerate_frames(arguments, last, exhausted):
    """Relation masks tried: frames of n worlds come from the 2^(n*n)
    masks in ascending order, so the last frame yielded tells how far the
    scan went."""
    max_worlds = arguments["max_worlds"]
    if exhausted or last is None:
        top = max_worlds if exhausted else 0
        return {"masks": sum(1 << (m * m) for m in range(1, top + 1))}
    n = len(last.worlds)
    mask = sum(1 << (i * n + j) for i, j in last.rel)
    return {"masks": sum(1 << (m * m) for m in range(1, n)) + mask + 1}


NOTES = {
    "kripke.frame_valid": _note_frame_valid,
    "harness.verify_theorem": _note_verify_theorem,
    "harness.k5_regression": _note_k5,
    "serialize.dumps": _note_dumps,
}
FINISHES = {"search.enumerate_frames": _finish_enumerate_frames}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._nid(name)
        note = NOTES.get(name)
        signature = inspect.signature(fn)
        running = [False]

        def traced(*args, **kwargs):
            if running[0]:
                return fn(*args, **kwargs)
            running[0] = True
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
                running[0] = False
            if note is not None:
                self.attrs[i] = note(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        nid = self._nid(name)
        finish = FINISHES.get(name)
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            return self._iterate(nid, fn(*args, **kwargs), finish, signature, args, kwargs)

        return traced

    def _iterate(self, nid, gen, finish, signature, args, kwargs):
        first, last, exhausted, items = None, None, False, 0
        try:
            while True:
                i = self._open(nid)
                if first is None:
                    first = i
                try:
                    item = next(gen)
                except StopIteration:
                    exhausted = True
                    return
                finally:
                    self._close(i)
                items += 1
                last = item
                yield item
        finally:
            if first is not None:
                note = {"call": 1, "items": items}
                if finish is not None:
                    arguments = signature.bind(*args, **kwargs)
                    arguments.apply_defaults()
                    note.update(finish(arguments.arguments, last, exhausted))
                self.attrs[first] = note

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"latmodal.{m}") for m in MODULES}
        replacement = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if inspect.isgeneratorfunction(obj):
                    replacement[obj] = self._wrap_generator(name, obj)
                else:
                    replacement[obj] = self._wrap(name, obj)
        for module in [importlib.import_module("latmodal"), *modules.values()]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replacement:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, replacement[obj])
        for short, cls_name, method in METHODS:
            cls = getattr(modules[short], cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, self._wrap(f"{short}.{cls_name}.{method}", original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "names": self.names,
            "spans": [
                [self.name_of[i], self.start[i], self.end[i], self.parent[i]]
                for i in range(len(self.start))
            ],
            "attrs": {str(i): a for i, a in self.attrs.items()},
        }


def write_traces(path, traces: list[dict]) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(traces, fh)


def _per_name(traces: list[dict]) -> dict[str, dict]:
    """Totals per span name over all traces: s, self_s, spans, calls, and
    the sums of numeric span attributes."""
    out: dict[str, dict] = {}
    for trace in traces:
        names, spans = trace["names"], trace["spans"]
        attrs = {int(k): v for k, v in trace["attrs"].items()}
        children = [0.0] * len(spans)
        for nid, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (nid, start, end, parent) in enumerate(spans):
            name = names[nid]
            a = attrs.get(i, {})
            if "check" in a:  # one row per harness check
                name = "harness." + a["check"]
            row = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "spans": 0})
            row["s"] += end - start
            row["self_s"] += end - start - children[i]
            row["spans"] += 1
            for key, value in a.items():
                if isinstance(value, (int, float)):
                    row[key] = row.get(key, 0) + value
    return out


def layer_metrics(traces: list[dict], rounds: int, startups: list[float], overhead_s: float) -> dict:
    """The per-layer figures, by metric name, per traced round, from the
    traces of `rounds` traced rounds."""
    rows = _per_name(traces)

    def get(name, key):
        return rows.get(name, {}).get(key, 0) / rounds

    def calls(name):
        # a generator call marks its first span; any other call is one span
        row = rows.get(name, {})
        return row.get("call", row.get("spans", 0)) / rounds

    frames = get("search.enumerate_frames", "items")
    masks = get("search.enumerate_frames", "masks")
    fv_self = get("kripke.frame_valid", "self_s")
    valuations = get("kripke.frame_valid", "valuations")
    m = {
        "search.enumerate_frames.s": get("search.enumerate_frames", "s"),
        "search.enumerate_frames.calls": calls("search.enumerate_frames"),
        "search.enumerate_frames.frames": frames,
        "search.enumerate_frames.kept_per_mask": frames / masks if masks else 0.0,
        "kripke.frame_valid.self_s": fv_self,
        "kripke.frame_valid.calls": calls("kripke.frame_valid"),
        "kripke.frame_valid.valuations": valuations,
        "kripke.frame_valid.valuations_per_s": valuations / fv_self if fv_self else 0.0,
        "search.find_frame_counterexample.self_s": get("search.find_frame_counterexample", "self_s"),
        "search.find_frame_counterexample.calls": calls("search.find_frame_counterexample"),
        "search.check_regularity.self_s": get("search.check_regularity", "self_s"),
        "search.construct_witness.s": get("search.construct_witness", "s"),
        "kripke.evaluate.s": get("kripke.evaluate", "s"),
        "kripke.evaluate.calls": calls("kripke.evaluate"),
        "kripke.Frame.successors.s": get("kripke.Frame.successors", "s"),
        "kripke.Frame.successors.calls": calls("kripke.Frame.successors"),
        "lattice.check_designated.s": get("lattice.check_designated", "s"),
        "lattice.check_designated.calls": calls("lattice.check_designated"),
        "lattice.build_implication.s": get("lattice.build_implication", "s"),
        "lattice.check_lattice_properties.s": get("lattice.check_lattice_properties", "s"),
        "enumeration.enumerate_lattices.s": get("enumeration.enumerate_lattices", "s"),
        "enumeration.enumerate_upsets.s": get("enumeration.enumerate_upsets", "s"),
        "enumeration.enumerate_complementations.s": get("enumeration.enumerate_complementations", "s"),
        "formula.parse.s": get("formula.parse", "s"),
        "formula.render.s": get("formula.render", "s"),
        "serialize.load_model.s": get("serialize.load_model", "s"),
        "serialize.load_lattice.s": get("serialize.load_lattice", "s"),
        "serialize.dumps.s": get("serialize.dumps", "s"),
        "serialize.dumps.bytes": get("serialize.dumps", "bytes"),
    }
    for check in HARNESS_CHECKS:
        m[f"harness.{check}.s"] = get(f"harness.{check}", "s")
        m[f"harness.{check}.cases"] = get(f"harness.{check}", "cases")
    m["cli.startup_s"] = statistics.median(startups) if startups else 0.0
    m["trace.overhead_s"] = overhead_s
    return m


def unit_of(metric: str) -> str:
    """Unit of an end-to-end or per-layer metric, from its name."""
    if metric == "peak_rss_mb":
        return "MB"
    suffix = metric.rsplit(".", 1)[-1]
    return {
        "calls": "count",
        "frames": "count",
        "cases": "count",
        "valuations": "count",
        "bytes": "B",
        "valuations_per_s": "1/s",
        "kept_per_mask": "frames/mask",
    }.get(suffix, "s")
