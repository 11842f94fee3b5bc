"""Gauge fields on a complex: parallel transport, horizontal lifts, holonomy.

The total space is carried in trivialized form vertex x group.  A gauge
field labels each edge with a group element on its stored orientation;
reverse traversal contributes the exact inverse, which makes retrace
invariance of transport structural rather than numerical.  The structure
group acts on fibers by right multiplication, transport acts on the left,
and the two commute, which is all the equivariance below amounts to.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    BaseComplex,
    SpanningTree,
    build_tree,
    check_graph_map,
    chord_loops,
    compose_graph_maps,
    identity_graph_map,
    map_word,
    tree_path,
)
from .errors import BaseMismatch, DomainMismatch, IndexOutOfRange, NonEquivariantSpec, ParseError, UnknownEdge
from .groups import GroupCtx, GroupElement, subgroup_closure
from .words import PathWord, concat, word_along_walk

Walk = tuple[int, ...] | list[int]


@dataclass(frozen=True)
class BundlePoint:
    """A point of the trivialized total space: base vertex plus fiber element."""

    base: str
    fiber: GroupElement


@dataclass(frozen=True)
class GaugeField:
    """Edge labeling into a group; the transport data of a connection."""

    complex: BaseComplex
    ctx: GroupCtx
    labels: dict[str, GroupElement]

    def __post_init__(self) -> None:
        edge_ids = {e.id for e in self.complex.edges}
        for missing in sorted(edge_ids - set(self.labels)):
            raise ParseError(f"edge {missing!r} has no assignment")
        for extra in sorted(set(self.labels) - edge_ids):
            raise ParseError(f"assignment for unknown edge {extra!r}")
        for edge_id, el in self.labels.items():
            try:
                self.ctx.check(el)
            except DomainMismatch as exc:
                raise ParseError(f"edge {edge_id!r}: {exc}") from exc

    def step_transport(self, step) -> GroupElement:
        if step.edge not in self.labels:
            raise UnknownEdge(f"edge {step.edge!r} not labeled")
        g = self.labels[step.edge]
        return g if step.forward else self.ctx.inv(g)


def position_transports(field: GaugeField, word: PathWord) -> list[GroupElement]:
    """P[i] = transport of the first i steps; then transport from r to s is
    P[s] * P[r]^-1 for every pair, in either direction."""
    ctx = field.ctx
    out = [ctx.identity()]
    for step in word.steps:
        out.append(ctx.mul(field.step_transport(step), out[-1]))
    return out


def transport(field: GaugeField, word: PathWord) -> GroupElement:
    """Fiber displacement along a word; later steps multiply on the left."""
    return position_transports(field, word)[-1]


def tree_transports(field: GaugeField, tree: SpanningTree) -> dict[str, GroupElement]:
    """T(v): transport along the tree path from the basepoint to each vertex."""
    return {v: transport(field, tree_path(tree, v)) for v in field.complex.vertices}


@dataclass(frozen=True)
class EPath:
    """A path in the total space: base word plus one fiber per position."""

    word: PathWord
    fibers: tuple[GroupElement, ...]

    def __post_init__(self) -> None:
        if len(self.fibers) != len(self.word.steps) + 1:
            raise ValueError(
                f"need {len(self.word.steps) + 1} fibers, got {len(self.fibers)}"
            )

    def point(self, i: int) -> BundlePoint:
        if not 0 <= i < len(self.fibers):
            raise IndexOutOfRange(f"position {i} outside lift of length {len(self.word.steps)}")
        return BundlePoint(self.word.vertex_at(i), self.fibers[i])


def horizontal_lift(field: GaugeField, word: PathWord, t0: int, xi: BundlePoint) -> EPath:
    """The unique horizontal path over `word` passing through `xi` at `t0`."""
    n = len(word.steps)
    if not 0 <= t0 <= n:
        raise IndexOutOfRange(f"start index {t0} outside word of length {n}")
    if xi.base != word.vertex_at(t0):
        raise BaseMismatch(
            f"point over {xi.base!r} cannot start a lift at {word.vertex_at(t0)!r}"
        )
    ctx = field.ctx
    ctx.check(xi.fiber)
    pos = position_transports(field, word)
    start = ctx.mul(ctx.inv(pos[t0]), xi.fiber)
    fibers = tuple(ctx.mul(pos[s], start) for s in range(n + 1))
    return EPath(word, fibers)


def project_horizontal(field: GaugeField, path: EPath, t: int) -> EPath:
    """Horizontal projection at index t: the lift through the path's point at t."""
    if not 0 <= t < len(path.fibers):
        raise IndexOutOfRange(f"index {t} outside lift of length {len(path.word.steps)}")
    return horizontal_lift(field, path.word, t, path.point(t))


def is_horizontal(field: GaugeField, path: EPath) -> bool:
    return project_horizontal(field, path, 0) == path


def holonomy_rep(field: GaugeField, xi0: BundlePoint, loop: PathWord) -> GroupElement:
    """The unique g with lift-of-loop endpoint equal to xi0 . g.

    Equals fiber^-1 * transport(loop) * fiber: conjugating transport by the
    chosen fiber.
    """
    if loop.src != xi0.base or loop.dst != xi0.base:
        raise BaseMismatch(
            f"loop from {loop.src!r} to {loop.dst!r} is not based at {xi0.base!r}"
        )
    ctx = field.ctx
    a = ctx.check(xi0.fiber)
    return ctx.mul(ctx.inv(a), ctx.mul(transport(field, loop), a))


def holonomy_group(field: GaugeField, xi0: BundlePoint, tree: SpanningTree | None = None):
    """All holonomies at xi0: the closure of the chord-loop holonomies.

    Chords generate every based loop, so their holonomies generate the whole
    group of holonomies.  Returns the closed set for finite contexts and the
    generator list for infinite ones.
    """
    cx = field.complex
    if xi0.base != cx.basepoint:
        raise BaseMismatch(f"holonomy group is based at {cx.basepoint!r}, got {xi0.base!r}")
    if tree is None:
        tree = build_tree(cx)
    gens = [holonomy_rep(field, xi0, loop) for _, loop in sorted(chord_loops(cx, tree).items())]
    if field.ctx.is_finite:
        return subgroup_closure(field.ctx, gens)
    return gens


def act_fibers(ctx: GroupCtx, path: EPath, rho: tuple[GroupElement, ...]) -> EPath:
    """Pointwise right action of a fiber-valued sequence on a lift."""
    if len(rho) != len(path.fibers):
        raise ValueError(f"need {len(path.fibers)} fiber factors, got {len(rho)}")
    return EPath(path.word, tuple(ctx.mul(f, r) for f, r in zip(path.fibers, rho)))


def epath_along_walk(path: EPath, walk: Walk) -> EPath:
    """Reparameterize a lift by an index walk with unit steps."""
    word = word_along_walk(path.word, walk)
    return EPath(word, tuple(path.fibers[p] for p in walk))


def concat_epaths(first: EPath, second: EPath) -> EPath:
    """Join two lifts whose junction points agree."""
    if second.point(0) != first.point(len(first.fibers) - 1):
        raise BaseMismatch("lifts do not meet at the junction point")
    return EPath(concat(first.word, second.word), first.fibers + second.fibers[1:])


@dataclass(frozen=True, eq=False)
class BundleMap:
    """Bundle morphism data: a base graph map plus one fiber adjuster per vertex.

    Acts by (x, h) -> (vertex_map[x], fiber_adjust[x] * h); left adjusters
    commute with the right group action, so equivariance is automatic.
    """

    vertex_map: dict[str, str]
    edge_map: dict[str, str]
    fiber_adjust: dict[str, GroupElement]


def identity_bundle_map(cx: BaseComplex, ctx: GroupCtx) -> BundleMap:
    return BundleMap(*identity_graph_map(cx), {v: ctx.identity() for v in cx.vertices})


def compose_bundle_maps(ctx: GroupCtx, second: BundleMap, first: BundleMap) -> BundleMap:
    return BundleMap(
        *compose_graph_maps(second, first),
        {
            v: ctx.mul(second.fiber_adjust[first.vertex_map[v]], first.fiber_adjust[v])
            for v in first.vertex_map
        },
    )


def bundle_morphism_apply(F: BundleMap, ctx: GroupCtx, xi: BundlePoint) -> BundlePoint:
    if xi.base not in F.vertex_map:
        raise NonEquivariantSpec(f"morphism not defined at vertex {xi.base!r}")
    return BundlePoint(F.vertex_map[xi.base], ctx.mul(F.fiber_adjust[xi.base], xi.fiber))


def bundle_morphism_on_epath(F: BundleMap, ctx: GroupCtx, dst_cx: BaseComplex, path: EPath) -> EPath:
    word = map_word(F, dst_cx, path.word)
    fibers = tuple(
        ctx.mul(F.fiber_adjust[path.word.vertex_at(i)], f) for i, f in enumerate(path.fibers)
    )
    return EPath(word, fibers)


def check_bundle_morphism(F: BundleMap, src: GaugeField, dst: GaugeField) -> bool:
    """True iff F is a pointed bundle morphism intertwining the two transports.

    Malformed data (missing vertices or edges, broken incidence, fibers
    outside the context) raises NonEquivariantSpec; a well-formed map that
    fails the transport relation k_head * U(e) = U'(F(e)) * k_tail on some
    edge returns False.
    """
    if src.ctx != dst.ctx:
        raise NonEquivariantSpec("source and target contexts differ")
    ctx = src.ctx
    check_graph_map(F, src.complex, dst.complex)
    for v in src.complex.vertices:
        if v not in F.fiber_adjust:
            raise NonEquivariantSpec(f"no fiber adjuster at vertex {v!r}")
        try:
            ctx.check(F.fiber_adjust[v])
        except DomainMismatch as exc:
            raise NonEquivariantSpec(f"vertex {v!r}: {exc}") from exc
    for e in src.complex.edges:
        lhs = ctx.mul(F.fiber_adjust[e.dst], src.labels[e.id])
        rhs = ctx.mul(dst.labels[F.edge_map[e.id]], F.fiber_adjust[e.src])
        if lhs != rhs:
            return False
    return True
