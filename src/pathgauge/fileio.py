"""JSON document formats: complexes, gauge fields, holonomy specs, reports.

All documents carry `"format": 1`.  Group elements travel as string literals
(residues as "2", permutations as one-line images "[2,1,3]", matrices as
row-major fraction strings).  Serialization is canonical: sorted keys, fixed
separators, trailing newline, so identical inputs give identical bytes.
"""

from __future__ import annotations

import json
from typing import Any

from .complexes import BaseComplex, Edge, SpanningTree, build_tree
from .errors import DomainMismatch, ParseError
from .gauge import GaugeField
from .groups import GroupCtx, HoloSpec, ctx_from_spec


def _load_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    if doc.get("format") != 1:
        raise ParseError(f"unsupported or missing format field: {doc.get('format')!r}")
    return doc


def _require(doc: dict, field: str, kind, where: str):
    if field not in doc:
        raise ParseError(f"{where}: missing field {field!r}")
    value = doc[field]
    if not isinstance(value, kind):
        raise ParseError(f"{where}: field {field!r} has wrong type")
    return value


def parse_complex(text: str) -> BaseComplex:
    doc = _load_document(text)
    vertices = _require(doc, "vertices", list, "complex")
    basepoint = _require(doc, "basepoint", str, "complex")
    raw_edges = _require(doc, "edges", list, "complex")
    edges = []
    for item in raw_edges:
        if not isinstance(item, dict):
            raise ParseError(f"complex: edge entry {item!r} must be an object")
        for key in ("id", "src", "dst"):
            if key not in item or not isinstance(item[key], str):
                raise ParseError(f"complex: edge entry {item!r} needs string field {key!r}")
        edges.append(Edge(item["id"], item["src"], item["dst"]))
    for v in vertices:
        if not isinstance(v, str):
            raise ParseError(f"complex: vertex id {v!r} must be a string")
    return BaseComplex(tuple(vertices), tuple(edges), basepoint)


def dump_complex(cx: BaseComplex) -> str:
    doc = {
        "format": 1,
        "vertices": list(cx.vertices),
        "basepoint": cx.basepoint,
        "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in cx.edges],
    }
    return canonical_json(doc)


def parse_group(doc: dict, where: str) -> GroupCtx:
    group = _require(doc, "group", dict, where)
    return ctx_from_spec(group)


def parse_gauge(text: str, cx: BaseComplex, default_identity: bool = False) -> GaugeField:
    doc = _load_document(text)
    ctx = parse_group(doc, "gauge")
    assignments = _require(doc, "assignments", dict, "gauge")
    labels = {}
    for edge_id, literal in assignments.items():
        if not cx.has_edge(edge_id):
            raise ParseError(f"gauge: assignment for unknown edge {edge_id!r}")
        try:
            labels[edge_id] = ctx.from_literal(literal)
        except (ParseError, DomainMismatch) as exc:
            raise ParseError(f"gauge: edge {edge_id!r}: {exc}") from exc
    for e in cx.edges:
        if e.id not in labels:
            if default_identity:
                labels[e.id] = ctx.identity()
            else:
                raise ParseError(f"gauge: edge {e.id!r} has no assignment")
    return GaugeField(cx, ctx, labels)


def dump_gauge(field: GaugeField) -> str:
    doc = {
        "format": 1,
        "group": field.ctx.spec(),
        "assignments": {
            e.id: field.ctx.to_literal(field.labels[e.id]) for e in field.complex.edges
        },
    }
    return canonical_json(doc)


def parse_holospec(text: str, cx: BaseComplex, tree: SpanningTree | None = None) -> HoloSpec:
    doc = _load_document(text)
    ctx = parse_group(doc, "holospec")
    chords_doc = _require(doc, "chords", dict, "holospec")
    if tree is None:
        tree = build_tree(cx)
    chords = set(tree.chords())
    assignment = {}
    for chord, literal in chords_doc.items():
        if chord not in chords:
            raise ParseError(f"holospec: {chord!r} is not a chord of the spanning tree")
        try:
            assignment[chord] = ctx.from_literal(literal)
        except (ParseError, DomainMismatch) as exc:
            raise ParseError(f"holospec: chord {chord!r}: {exc}") from exc
    for chord in sorted(chords - set(assignment)):
        raise ParseError(f"holospec: chord {chord!r} has no assignment")
    return HoloSpec(cx, tree, ctx, assignment)


def dump_holospec(spec: HoloSpec) -> str:
    doc = {
        "format": 1,
        "group": spec.ctx.spec(),
        "chords": {
            chord: spec.ctx.to_literal(el) for chord, el in sorted(spec.assignment.items())
        },
    }
    return canonical_json(doc)


def canonical_json(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
