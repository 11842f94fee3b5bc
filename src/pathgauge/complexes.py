"""Pointed directed multigraphs: the computable base space.

A complex is a finite set of vertices, a set of directed edges (parallel
edges and self-loops allowed), and a chosen basepoint.  Spanning trees give
every vertex a canonical path from the basepoint, and the edges left out of
the tree (chords) generate every based loop.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterator

from .errors import EndpointMismatch, NonEquivariantSpec, NotConnected, ParseError, UnknownEdge
from .words import EdgeStep, PathWord, empty_word, parse_step, reverse_word

# Characters that would make an edge id ambiguous inside a word literal.
_LITERAL_SYNTAX = (",", "~", "@")


@dataclass(frozen=True)
class Edge:
    id: str
    src: str
    dst: str


@dataclass(frozen=True)
class BaseComplex:
    """Pointed directed multigraph with lexicographically ordered ids, built
    with its vertex set and each vertex's incident steps indexed."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    basepoint: str
    _by_id: dict[str, Edge] = field(init=False, repr=False, compare=False, hash=False)
    _vertex_set: frozenset[str] = field(init=False, repr=False, compare=False, hash=False)
    _steps_at: dict[str, list[EdgeStep]] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            dup = next(v for v in sorted(vset) if self.vertices.count(v) > 1)
            raise ParseError(f"duplicate vertex id {dup!r}")
        object.__setattr__(self, "vertices", tuple(sorted(vset)))
        object.__setattr__(self, "edges", tuple(sorted(self.edges, key=lambda e: e.id)))
        by_id: dict[str, Edge] = {}
        steps_at: dict[str, list[EdgeStep]] = {v: [] for v in self.vertices}
        for e in self.edges:
            if e.id in by_id:
                raise ParseError(f"duplicate edge id {e.id!r}")
            if e.id != e.id.strip() or any(c in e.id for c in _LITERAL_SYNTAX):
                raise ParseError(f"edge id {e.id!r} has surrounding spaces or one of , ~ @")
            if e.src not in vset:
                raise ParseError(f"edge {e.id!r} has unknown source vertex {e.src!r}")
            if e.dst not in vset:
                raise ParseError(f"edge {e.id!r} has unknown target vertex {e.dst!r}")
            by_id[e.id] = e
            # edges are in id order, so each vertex's steps are in (edge id, forward first) order
            steps_at[e.src].append(EdgeStep(e.id, True))
            steps_at[e.dst].append(EdgeStep(e.id, False))
        if self.basepoint not in vset:
            raise ParseError(f"basepoint {self.basepoint!r} is not a vertex")
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_vertex_set", frozenset(vset))
        object.__setattr__(self, "_steps_at", steps_at)

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._by_id[edge_id]
        except KeyError:
            raise UnknownEdge(f"edge {edge_id!r} not in complex") from None

    def has_edge(self, edge_id: str) -> bool:
        return edge_id in self._by_id

    def has_vertex(self, vertex: str) -> bool:
        return vertex in self._vertex_set

    def step_tail(self, step: EdgeStep) -> str:
        e = self.edge(step.edge)
        return e.src if step.forward else e.dst

    def step_head(self, step: EdgeStep) -> str:
        e = self.edge(step.edge)
        return e.dst if step.forward else e.src

    def out_steps(self, vertex: str) -> list[EdgeStep]:
        """All steps leaving `vertex`, ordered by (edge id, forward first)."""
        return list(self._steps_at.get(vertex, ()))

    def word(self, steps, at: str | None = None) -> PathWord:
        """Build a word from steps, checking incidence; `at` anchors the empty word."""
        steps = tuple(steps)
        if not steps:
            if at is None:
                raise EndpointMismatch("empty word needs an anchor vertex")
            if not self.has_vertex(at):
                raise ParseError(f"unknown vertex {at!r}")
            return empty_word(at)
        verts = [self.step_tail(steps[0])]
        for step in steps:
            if self.step_tail(step) != verts[-1]:
                raise EndpointMismatch(
                    f"step {step} starts at {self.step_tail(step)!r}, expected {verts[-1]!r}"
                )
            verts.append(self.step_head(step))
        if at is not None and at != verts[0]:
            raise EndpointMismatch(f"word starts at {verts[0]!r}, not at {at!r}")
        return PathWord(steps, tuple(verts))

    def word_from_literal(self, text: str) -> PathWord:
        text = text.strip()
        if text.startswith("@"):
            return self.word((), at=text[1:].strip())
        return self.word(parse_step(tok) for tok in text.split(","))

    def is_connected(self) -> bool:
        """Every vertex reachable from the basepoint, ignoring edge direction."""
        seen = {self.basepoint}
        stack = [self.basepoint]
        while stack:
            for step in self._steps_at[stack.pop()]:
                other = self.step_head(step)
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        return len(seen) == len(self.vertices)


@dataclass(frozen=True)
class SpanningTree:
    """A spanning tree with parent steps pointing toward the basepoint.

    `parent[v]` is the step that moves from v one tree edge closer to the
    basepoint; following parents from any vertex reaches the basepoint.  The
    dict is filled in visit order, so parents come first.
    """

    complex: BaseComplex
    tree_edges: frozenset[str]
    parent: dict[str, EdgeStep] = field(compare=False)  # determined by the other two

    def chords(self) -> list[str]:
        return [e.id for e in self.complex.edges if e.id not in self.tree_edges]


def build_tree(cx: BaseComplex) -> SpanningTree:
    """Deterministic spanning tree grown from the basepoint.

    Repeatedly attach the frontier edge minimizing (new vertex id, edge id);
    self-loops never enter the tree.  Identical inputs give identical trees.
    The frontier is a heap of such keys, each edge pushed at most once (keys
    never tie) and skipped once its new vertex is attached: O(E log E).
    """
    visited = {cx.basepoint}
    parent: dict[str, EdgeStep] = {}
    frontier: list[tuple[str, str, EdgeStep]] = []
    vertex = cx.basepoint
    while True:
        for step in cx._steps_at[vertex]:
            w = cx.step_head(step)
            if w not in visited:
                heapq.heappush(frontier, (w, step.edge, step.flipped()))  # step w -> tree
        if len(visited) == len(cx.vertices):
            break
        while frontier and frontier[0][0] in visited:
            heapq.heappop(frontier)
        if not frontier:
            raise NotConnected("complex is not connected")
        vertex, _, step = heapq.heappop(frontier)
        visited.add(vertex)
        parent[vertex] = step
    return SpanningTree(cx, frozenset(s.edge for s in parent.values()), parent)


def tree_path(tree: SpanningTree, vertex: str) -> PathWord:
    """Reduced word from the basepoint to `vertex` using only tree edges."""
    cx = tree.complex
    if not cx.has_vertex(vertex):
        raise ParseError(f"unknown vertex {vertex!r}")
    return _parent_chain_word(cx, tree.parent, cx.basepoint, vertex)


def _parent_chain_word(
    cx: BaseComplex, parent: dict[str, EdgeStep], origin: str, vertex: str
) -> PathWord:
    """Word from `origin` to `vertex`, walking `parent` steps back toward origin."""
    steps: list[EdgeStep] = []
    verts = [vertex]
    while verts[-1] != origin:
        step = parent[verts[-1]]
        steps.append(step.flipped())
        verts.append(cx.step_head(step))
    return PathWord(tuple(reversed(steps)), tuple(reversed(verts)))


def chord_loops(cx: BaseComplex, tree: SpanningTree) -> dict[str, PathWord]:
    """Generating based loops, one per chord.

    The loop for a chord e runs from the basepoint to the chord's tail along
    the tree, across e forward, and back along the tree; it traverses e
    exactly once and no other chord.  It is already reduced: both tree paths
    are, and the chord step cancels neither tree step beside it.
    """
    loops: dict[str, PathWord] = {}
    for chord in tree.chords():
        e = cx.edge(chord)
        out, back = tree_path(tree, e.src), reverse_word(tree_path(tree, e.dst))
        steps = out.steps + (EdgeStep(chord, True),) + back.steps
        loops[chord] = PathWord(steps, out.vertices + back.vertices)
    return loops


def radial_paths(cx: BaseComplex, origin: str) -> dict[str, PathWord]:
    """Shortest-path family from `origin`: one word per vertex, empty at origin.

    Layered breadth-first search with lexicographic (vertex id, edge id)
    tie-breaking, so the family is deterministic.
    """
    if not cx.has_vertex(origin):
        raise ParseError(f"unknown vertex {origin!r}")
    parent: dict[str, EdgeStep] = {}
    seen = {origin}
    frontier = [origin]
    while frontier:
        candidates = []
        for v in frontier:
            for step in cx._steps_at[v]:
                w = cx.step_head(step)
                if w not in seen:
                    candidates.append((w, step.edge, step))
        candidates.sort(key=lambda c: (c[0], c[1]))
        next_frontier = []
        for w, _, step in candidates:
            if w in seen:
                continue
            seen.add(w)
            parent[w] = step.flipped()  # step from w back toward origin
            next_frontier.append(w)
        frontier = next_frontier
    if len(seen) < len(cx.vertices):
        raise NotConnected("complex is not connected")
    return {v: _parent_chain_word(cx, parent, origin, v) for v in cx.vertices}


def factor_loop(tree: SpanningTree, loop: PathWord) -> list[tuple[str, int]]:
    """Chord occurrences of a based loop, in traversal order, with signs.

    Every reduced based loop is the product of its chord loops in this order;
    tree steps contribute nothing.
    """
    return [
        (s.edge, 1 if s.forward else -1)
        for s in loop.steps
        if s.edge not in tree.tree_edges
    ]


# Word enumerators


def enumerate_words(cx: BaseComplex, max_len: int, starts=None) -> Iterator[PathWord]:
    """Every incidence-valid word of length at most max_len, shortest first."""
    if starts is None:
        starts = cx.vertices
    layer = [empty_word(v) for v in starts]
    for w in layer:
        yield w
    for _ in range(max_len):
        nxt = []
        for w in layer:
            for step in cx.out_steps(w.dst):
                grown = PathWord(w.steps + (step,), w.vertices + (cx.step_head(step),))
                nxt.append(grown)
                yield grown
        layer = nxt


def reduced_words_from(cx: BaseComplex, start: str, max_len: int) -> list[PathWord]:
    """Every reduced word out of `start` with length at most max_len."""
    out = [empty_word(start)]
    layer = [empty_word(start)]
    for _ in range(max_len):
        nxt = []
        for w in layer:
            for step in cx.out_steps(w.dst):
                if w.steps and w.steps[-1].cancels(step):
                    continue
                grown = PathWord(w.steps + (step,), w.vertices + (cx.step_head(step),))
                nxt.append(grown)
                out.append(grown)
        layer = nxt
    return out


def enumerate_reduced_loops(cx: BaseComplex, max_len: int) -> list[PathWord]:
    """Every reduced based loop of length at most max_len (the empty one first)."""
    return [
        w for w in reduced_words_from(cx, cx.basepoint, max_len) if w.dst == cx.basepoint
    ]


# Graph maps.  A graph map is any object with a `vertex_map` and an
# `edge_map` (a bundle map or a holonomy morphism); it acts on words stepwise.


def identity_graph_map(cx: BaseComplex) -> tuple[dict[str, str], dict[str, str]]:
    """Vertex and edge maps of the identity on `cx`."""
    return {v: v for v in cx.vertices}, {e.id: e.id for e in cx.edges}


def compose_graph_maps(second, first) -> tuple[dict[str, str], dict[str, str]]:
    """Vertex and edge maps of `second` after `first`."""
    return (
        {v: second.vertex_map[w] for v, w in first.vertex_map.items()},
        {e: second.edge_map[d] for e, d in first.edge_map.items()},
    )


def map_word(f, dst: BaseComplex, word: PathWord) -> PathWord:
    """Image of a word under a graph map, checked for incidence in `dst`."""
    steps = tuple(EdgeStep(f.edge_map[s.edge], s.forward) for s in word.steps)
    return dst.word(steps, at=f.vertex_map[word.src])


def check_graph_map(f, src: BaseComplex, dst: BaseComplex) -> None:
    """Raise NonEquivariantSpec unless f is a pointed, incidence-preserving map."""
    for v in src.vertices:
        if not dst.has_vertex(f.vertex_map.get(v)):
            raise NonEquivariantSpec(f"vertex {v!r} has no valid image")
    for e in src.edges:
        if e.id not in f.edge_map or not dst.has_edge(f.edge_map[e.id]):
            raise NonEquivariantSpec(f"edge {e.id!r} has no valid image (edges must map to edges)")
        image = dst.edge(f.edge_map[e.id])
        if image.src != f.vertex_map[e.src] or image.dst != f.vertex_map[e.dst]:
            raise NonEquivariantSpec(f"edge {e.id!r} image breaks incidence")
    if f.vertex_map[src.basepoint] != dst.basepoint:
        raise NonEquivariantSpec("map does not preserve the basepoint")
