"""Spans recorded from outside the library, and the per-layer arithmetic.

`install` wraps the public functions of each pathgauge module in every
pathgauge namespace that bound them (so `pathspace`'s own `reduce_word`
reference is traced too), the methods of each `GroupCtx` subclass on the
class, and a few named methods of other classes.  Each call becomes a span:
name, start, end, parent span, job id and an optional size (vertex count or
input bytes).  Spans stay in flat arrays until the run ends.  `uninstall`
puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("words", "complexes", "groups", "gauge", "pathspace", "reconstruct", "numeric", "fileio", "cli")

# Methods outside GroupCtx worth a span of their own, as (module, class, methods).
EXTRA_METHODS = (
    ("complexes", "BaseComplex", ("is_connected", "out_steps", "word")),
    ("complexes", "SpanningTree", ("chords",)),
    ("groups", "HoloSpec", ("eval",)),
)

GROUP_OPS = ("mul", "inv")
SEARCHES = ("reconstruct.find_conjugator", "reconstruct.gauge_morphism_exists")
KINDS = ("cyclic", "permutation", "rational_matrix")
MARK = "_perfbench_span"


def _vertex_count(args) -> int:
    return len(args[0].vertices) if args else 0


def _text_bytes(args) -> int:
    return len(args[0].encode()) if args and isinstance(args[0], str) else 0


SIZERS = {
    "complexes.build_tree": _vertex_count,
    "complexes.chord_loops": _vertex_count,
    "fileio.parse_complex": _text_bytes,
    "fileio.parse_gauge": _text_bytes,
    "fileio.parse_holospec": _text_bytes,
}


class Tracer:
    """Flat span storage: one entry per call in each of six arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.size = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.job_id = -1
        self._installed: list[tuple[object, str, object, bool]] = []

    def __len__(self) -> int:
        return len(self.end)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        """Start a span outside the wrappers, such as one for a whole job."""
        idx = len(self.end)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1])
        self.job.append(self.job_id)
        self.size.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        sizer = SIZERS.get(name)
        clock = time.perf_counter
        stack = self.stack
        end = self.end
        add_name, add_parent, add_job = self.name.append, self.parent.append, self.job.append
        add_size, add_start, add_end = self.size.append, self.start.append, self.end.append

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(end)
            add_name(nid)
            add_parent(stack[-1])
            add_job(self.job_id)
            add_size(sizer(args) if sizer is not None else 0)
            add_end(0.0)
            stack.append(idx)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        setattr(wrapper, MARK, name)
        return wrapper

    # Installing and removing the wrappers

    def _replace(self, owner, attr: str, new) -> None:
        existed = attr in vars(owner)
        self._installed.append((owner, attr, getattr(owner, attr), existed))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer is already installed")
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "pathgauge" or n.startswith("pathgauge.")]
        for layer in LAYERS:
            module = importlib.import_module(f"pathgauge.{layer}")
            for attr, fn in sorted(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                wrapper = self.wrap(fn, f"{layer}.{attr}")
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            self._replace(ns, bound, wrapper)
        groups = importlib.import_module("pathgauge.groups")
        for cls in _subclasses(groups.GroupCtx):
            for meth in _public_methods(cls, groups.GroupCtx):
                self._replace(cls, meth, self.wrap(getattr(cls, meth), f"groups.{cls.kind}.{meth}"))
        for layer, cls_name, methods in EXTRA_METHODS:
            cls = getattr(importlib.import_module(f"pathgauge.{layer}"), cls_name)
            for meth in methods:
                self._replace(cls, meth, self.wrap(getattr(cls, meth), f"{layer}.{meth}"))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original, existed = self._installed.pop()
            if existed:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def write(self, path: Path, job_kinds: list[str]) -> None:
        """Spans as raw arrays in `path`, described by a JSON header next to it
        that also names the kind of each job id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "parent", "job", "size", "start", "end")
        with open(path, "wb") as f:
            for field in fields:
                getattr(self, field).tofile(f)
        header = {
            "count": len(self),
            "names": self.names,
            "jobs": job_kinds,
            "fields": [[fld, getattr(self, fld).typecode] for fld in fields],
        }
        path.with_suffix(".json").write_text(json.dumps(header) + "\n")


def _subclasses(cls) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _public_methods(cls, root) -> list[str]:
    names = set()
    for klass in cls.__mro__:
        if klass is object or not issubclass(klass, root):
            continue
        for attr, value in vars(klass).items():
            if not attr.startswith("_") and inspect.isfunction(value):
                names.add(attr)
    return sorted(names)


def installed_wrappers() -> list[str]:
    """Every traced wrapper still reachable from a pathgauge module or class."""
    found = []
    for name, module in sorted(sys.modules.items()):
        if name != "pathgauge" and not name.startswith("pathgauge."):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, MARK):
                found.append(f"{name}.{attr}")
            if inspect.isclass(value) and value.__module__ == name:
                found.extend(f"{name}.{attr}.{m}" for m, v in vars(value).items() if hasattr(v, MARK))
    return found


def self_times(start, end, parent) -> array:
    """Each span's duration minus the part of it its children cover.

    Children are visited in index order, which is start order for spans
    recorded by one thread, so the covered part is a running union of
    intervals clipped to the parent.
    """
    n = len(start)
    own = array("d", (end[i] - start[i] for i in range(n)))
    reach = array("d", start)  # end of the union of children seen so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            own[p] -= hi - lo
            reach[p] = hi
    return own


def layer_metrics(tracer: Tracer, cache: dict, overhead_ratio: float) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from the recorded spans."""
    names = tracer.names
    own = self_times(tracer.start, tracer.end, tracer.parent)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    incl: dict[str, float] = {}
    by_size: dict[str, dict[int, list[float]]] = {}
    layer_s = {layer: 0.0 for layer in LAYERS}
    parse_bytes = 0
    search_ops = 0
    search_ids = {tracer.name_id(s) for s in SEARCHES}
    op_ids = {i for i, nm in enumerate(names) if nm.startswith("groups.") and nm.rsplit(".", 1)[-1] in GROUP_OPS}
    in_search = bytearray(len(tracer))
    for i in range(len(tracer)):
        nid = tracer.name[i]
        nm = names[nid]
        p = tracer.parent[i]
        in_search[i] = nid in search_ids or (p >= 0 and in_search[p])
        if nid in op_ids and p >= 0 and in_search[p]:
            search_ops += 1
        calls[nm] = calls.get(nm, 0) + 1
        self_s[nm] = self_s.get(nm, 0.0) + own[i]
        incl[nm] = incl.get(nm, 0.0) + tracer.end[i] - tracer.start[i]
        layer = nm.split(".", 1)[0]
        if layer in layer_s:
            layer_s[layer] += own[i]
        if nm.startswith("fileio.parse_"):
            parse_bytes += tracer.size[i]
        if nm in ("complexes.build_tree", "complexes.chord_loops"):
            by_size.setdefault(nm, {}).setdefault(tracer.size[i], []).append(own[i])

    def c(nm):
        return calls.get(nm, 0)

    def s(nm):
        return self_s.get(nm, 0.0)

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_s[layer]
    for k in KINDS:
        mul = f"groups.{k}.mul"
        out[f"groups.{k}.mul.calls"] = c(mul)
        out[f"groups.{k}.mul.mean_us"] = 1e6 * incl.get(mul, 0.0) / c(mul) if c(mul) else 0.0
        out[f"groups.{k}.inv.calls"] = c(f"groups.{k}.inv")
        out[f"groups.{k}.check.calls"] = c(f"groups.{k}.check")
        out[f"groups.{k}.check.self_s"] = s(f"groups.{k}.check")
    out["groups.subgroup_closure.self_s"] = s("groups.subgroup_closure")
    out["words.reduce_word.calls"] = c("words.reduce_word")
    out["words.reduce_word.self_s"] = s("words.reduce_word")
    for fn in ("is_connected", "build_tree", "chord_loops", "tree_path"):
        out[f"complexes.{fn}.self_s"] = s(f"complexes.{fn}")
    out["complexes.tree_path.calls"] = c("complexes.tree_path")
    for fn in ("build_tree", "chord_loops"):
        out[f"complexes.{fn}.growth"] = growth(by_size.get(f"complexes.{fn}", {}))
    out["gauge.transport.calls"] = c("gauge.transport")
    out["gauge.transport.self_s"] = s("gauge.transport")
    out["gauge.holonomy_rep.calls"] = c("gauge.holonomy_rep")
    out["gauge.project_horizontal.self_s"] = s("gauge.project_horizontal")
    out["gauge.transport_cache.hit_ratio"] = cache.get("hit_ratio", 0.0)
    out["gauge.transport_cache.size"] = cache.get("size", 0)
    for fn in ("universal_connection", "associated_connection", "canonicalize"):
        out[f"pathspace.{fn}.self_s"] = s(f"pathspace.{fn}")
    out["pathspace.canonicalize.calls"] = c("pathspace.canonicalize")
    for fn in (
        "holonomy_of_bundle",
        "reconstruct_iso",
        "conjugation_iso",
        "verify_reconstruction",
        "find_conjugator",
        "gauge_morphism_exists",
    ):
        out[f"reconstruct.{fn}.self_s"] = s(f"reconstruct.{fn}")
    out["reconstruct.search.group_ops"] = search_ops
    out["numeric.u1_holonomy.calls"] = c("numeric.u1_holonomy")
    out["numeric.u1_holonomy.self_s"] = s("numeric.u1_holonomy")
    out["fileio.parse.bytes"] = parse_bytes
    out["trace.overhead_ratio"] = overhead_ratio
    out["trace.spans"] = len(tracer)
    return out


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".mean_us"):
        return "us"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith((".growth", "ratio")):
        return "ratio"
    return "count"


def growth(samples: dict[int, list[float]]) -> float:
    """Mean self time per call at the largest V over that at the largest V <= V/2.

    Quadratic code gives about 4 when V doubles, linear code about 2; 0 means
    the run saw no pair of sizes to compare.
    """
    if not samples:
        return 0.0
    hi = max(samples)
    lower = [v for v in samples if 0 < v <= hi / 2]
    if not lower:
        return 0.0
    lo = max(lower)
    mean_hi = sum(samples[hi]) / len(samples[hi])
    mean_lo = sum(samples[lo]) / len(samples[lo])
    return mean_hi / mean_lo if mean_lo > 0 else 0.0
