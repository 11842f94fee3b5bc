"""Bundle reconstruction from holonomy data, classification, and round trips.

`bundle_from_holonomy` realizes a chord-presented homomorphism as a gauge
field whose holonomy representation is that homomorphism: chords get their
assigned elements, tree edges the identity, and the marked point sits over
the basepoint with identity fiber.  `holonomy_of_bundle` goes the other way
by measuring chord-loop holonomies.  One round trip is literally the
identity; the other is witnessed by an explicit fiber-adjusting isomorphism
(`reconstruct_iso`).  Bundles whose holonomies agree up to conjugation are
isomorphic (`conjugation_iso`).  For finite groups classification reduces to
simultaneous conjugacy of the chord holonomies, which `GroupCtx.conjugator`
decides without enumerating the group: `find_conjugator` returns the
lexicographically least conjugator, and when there is none no gauge morphism
exists at all (`gauge_morphism_exists` asks the same question of the
holonomies at the identity fiber).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from .complexes import (
    BaseComplex,
    SpanningTree,
    build_tree,
    check_graph_map,
    compose_graph_maps,
    enumerate_reduced_loops,
    enumerate_words,
    identity_graph_map,
    map_word,
    reduced_words_from,
    tree_path,
)
from .errors import (
    BaseMismatch,
    ConjugacyViolated,
    HolonomyIncompatible,
    NonEquivariantSpec,
)
from .gauge import (
    BundleMap,
    BundlePoint,
    EPath,
    GaugeField,
    check_bundle_morphism,
    chord_holonomies,
    holonomy_rep,
    horizontal_lift,
    tree_transports,
)
from .groups import GroupCtx, GroupElement, HoloSpec
from .pathspace import AssociatedPoint, AssocPath, associated_connection
from .words import PathWord


@dataclass(frozen=True)
class HolObject:
    """A pointed complex together with a chord-presented loop homomorphism."""

    spec: HoloSpec

    @property
    def complex(self) -> BaseComplex:
        return self.spec.complex

    @property
    def tree(self) -> SpanningTree:
        return self.spec.tree


def hol_object(spec: HoloSpec) -> HolObject:
    return HolObject(spec)


@dataclass(frozen=True)
class BCObject:
    """A gauge field with a marked point over the basepoint."""

    tree: SpanningTree
    gauge: GaugeField
    xi0: BundlePoint

    def __post_init__(self) -> None:
        if self.tree.complex != self.gauge.complex:
            raise ValueError("spanning tree was built over a different complex")
        if self.xi0.base != self.complex.basepoint:
            raise BaseMismatch(
                f"marked point over {self.xi0.base!r}, basepoint is {self.complex.basepoint!r}"
            )
        self.ctx.check(self.xi0.fiber)

    @property
    def complex(self) -> BaseComplex:
        return self.gauge.complex

    @property
    def ctx(self) -> GroupCtx:
        return self.gauge.ctx


def bc_object(gauge: GaugeField, xi0: BundlePoint | None = None, tree: SpanningTree | None = None) -> BCObject:
    if tree is None:
        tree = build_tree(gauge.complex)
    if xi0 is None:
        xi0 = BundlePoint(gauge.complex.basepoint, gauge.ctx.identity())
    return BCObject(tree, gauge, xi0)


def bundle_from_holonomy(obj: HolObject) -> BCObject:
    """Build the bundle-plus-field whose holonomy representation is the input.

    Chord labels are the assigned elements, tree labels the identity; with
    the marked point at identity fiber, every tree path transports trivially,
    so each chord loop's holonomy is exactly its label.
    """
    labels = {e.id: obj.spec.label(e.id) for e in obj.complex.edges}
    gauge = GaugeField(obj.complex, obj.spec.ctx, labels)
    xi0 = BundlePoint(obj.complex.basepoint, obj.spec.ctx.identity())
    return BCObject(obj.tree, gauge, xi0)


def holonomy_of_bundle(bc: BCObject) -> HolObject:
    """Measure the holonomy representation of a bundle on its chord loops."""
    assignment = chord_holonomies(bc.gauge, bc.xi0, bc.tree)
    return HolObject(HoloSpec(bc.complex, bc.tree, bc.ctx, assignment))


@dataclass(frozen=True, eq=False)
class ReconstructionIso:
    """The fiber-adjusting isomorphism from the rebuilt bundle onto a bundle.

    `adjust[x]` is transport along the tree path to x applied to the marked
    fiber; forward sends a class (word, g) to (endpoint, T(word) * a * g) and
    the inverse solves that fiber equation back to a canonical class.
    """

    bc: BCObject
    spec: HoloSpec
    adjust: dict[str, GroupElement]

    def forward(self, ap: AssociatedPoint) -> BundlePoint:
        bc = self.bc
        factors = [*bc.gauge.step_transports(ap.word), bc.xi0.fiber, ap.g]
        return BundlePoint(ap.base, bc.ctx.product(factors))

    def forward_canonical(self, vertex: str, g: GroupElement) -> BundlePoint:
        return BundlePoint(vertex, self.bc.ctx.mul(self.adjust[vertex], g))

    def inverse(self, xi: BundlePoint) -> tuple[str, GroupElement]:
        """Canonical class of a bundle point: fiber equation solved exactly."""
        ctx = self.bc.ctx
        return xi.base, ctx.mul(ctx.inv(self.adjust[xi.base]), xi.fiber)

    def forward_path(self, path: AssocPath) -> EPath:
        return EPath(path.word, tuple(self.forward(p).fiber for p in path.points))


def reconstruct_iso(bc: BCObject) -> ReconstructionIso:
    obj = holonomy_of_bundle(bc)
    ctx = bc.ctx
    adjust = {
        v: ctx.mul(t, bc.xi0.fiber) for v, t in tree_transports(bc.gauge, bc.tree).items()
    }
    return ReconstructionIso(bc, obj.spec, adjust)


def _on_tree_of(bc: BCObject, other: BCObject) -> BCObject:
    """`other` on `bc`'s spanning tree, once both live over one complex with
    one group.  Chord loops of any tree generate the based loops, so the
    tree changes no conjugacy, and the two bundles' chords then match."""
    if bc.complex != other.complex:
        raise BaseMismatch("bundles live over different complexes")
    if bc.ctx != other.ctx:
        raise BaseMismatch("bundles have different structure groups")
    return other if other.tree == bc.tree else BCObject(bc.tree, other.gauge, other.xi0)


def conjugation_iso(bc: BCObject, other: BCObject, g: GroupElement) -> BundleMap:
    """Bundle isomorphism from the relation H(loop) = g * H'(loop) * g^-1.

    Checks the relation on every chord loop of `bc`'s spanning tree, which
    `other` is measured on too, and raises ConjugacyViolated at the first
    failure; on success returns the fiber-adjusting map obtained by pushing
    left multiplication by g^-1 through both reconstruction isomorphisms,
    whose adjusters at v are T(v) a and T'(v) a' (`reconstruct_iso`).  Each
    bundle's tree transports are computed once and serve both.
    """
    other = _on_tree_of(bc, other)
    ctx = bc.ctx
    ctx.check(g)
    g_inv = ctx.inv(g)
    t, t2 = tree_transports(bc.gauge, bc.tree), tree_transports(other.gauge, other.tree)
    H = chord_holonomies(bc.gauge, bc.xi0, bc.tree, t)
    H2 = chord_holonomies(other.gauge, other.xi0, other.tree, t2)
    for chord in sorted(H):
        if H[chord] != ctx.product([g, H2[chord], g_inv]):
            raise ConjugacyViolated(chord)
    # (T'(v) a') g^-1 (T(v) a)^-1, with the constant middle a' g^-1 a^-1 taken once.
    middle = ctx.product([other.xi0.fiber, g_inv, ctx.inv(bc.xi0.fiber)])
    adjust = {v: ctx.product([t2[v], middle, ctx.inv(t[v])]) for v in bc.complex.vertices}
    return BundleMap(*identity_graph_map(bc.complex), adjust)


def find_conjugator(bc: BCObject, other: BCObject) -> GroupElement | None:
    """The least g, in `ctx.elements()` order, with H(c) = g H'(c) g^-1 on
    every chord c, or None when the holonomies are not conjugate.

    H and H' are the chord holonomies of the two bundles at their marked
    points, both on `bc`'s spanning tree; `ctx.conjugator` solves the
    simultaneous conjugacy without enumerating the group (O(n^2 k) for k
    chords in degree n, equality for cyclic groups).  Infinite contexts
    raise InfiniteContext.
    """
    other = _on_tree_of(bc, other)
    H = chord_holonomies(bc.gauge, bc.xi0, bc.tree)
    H2 = chord_holonomies(other.gauge, other.xi0, other.tree)
    return bc.ctx.conjugator(list(H.values()), list(H2.values()))


def gauge_morphism_exists(bc: BCObject, other: BCObject) -> bool:
    """Decide whether any fiber-adjusting morphism over the identity map
    sends `bc`'s field to `other`'s.

    Such a morphism is pinned by its adjuster s at the basepoint: along the
    tree of `bc` it must be T2(v) s T1(v)^-1, with Ti the tree transports, so
    every tree edge holds and each chord e reads s h1(e) s^-1 = h2(e), where
    hi(e) = Ti(dst)^-1 Ui(e) Ti(src) is the chord holonomy at the identity
    fiber.  A morphism exists exactly when the h1 are simultaneously
    conjugate to the h2, which `ctx.conjugator` decides without enumerating
    the group.  Infinite contexts raise InfiniteContext.
    """
    other = _on_tree_of(bc, other)
    at_identity = BundlePoint(bc.complex.basepoint, bc.ctx.identity())
    h1 = chord_holonomies(bc.gauge, at_identity, bc.tree)
    h2 = chord_holonomies(other.gauge, at_identity, other.tree)
    return bc.ctx.conjugator(list(h2.values()), list(h1.values())) is not None


@dataclass(frozen=True, eq=False)
class HolMorphism:
    """A basepoint-preserving graph map: vertices to vertices, edges to edges."""

    vertex_map: dict[str, str]
    edge_map: dict[str, str]

    def on_word(self, dst_cx: BaseComplex, word: PathWord) -> PathWord:
        return map_word(self, dst_cx, word)


def check_hol_morphism(f: HolMorphism, src: BaseComplex, dst: BaseComplex) -> None:
    """Raise NonEquivariantSpec unless f is a pointed, incidence-preserving map."""
    check_graph_map(f, src, dst)


def identity_hol_morphism(cx: BaseComplex) -> HolMorphism:
    return HolMorphism(*identity_graph_map(cx))


def compose_hol_morphisms(second: HolMorphism, first: HolMorphism) -> HolMorphism:
    return HolMorphism(*compose_graph_maps(second, first))


def hol_morphism_to_bundle(f: HolMorphism, src: HolObject, dst: HolObject) -> BundleMap:
    """Push a holonomy-compatible base map to a morphism of rebuilt bundles.

    The rebuilt target field pulled back along f transports every source
    word w as H'(f ∘ w), since target tree edges carry the identity.  So its
    chord holonomies at the identity fiber are H'(f ∘ chord loop), checked
    against H in chord order, and its tree potentials are the fiber
    adjusters: the image of the source tree path to x, closed up by the
    target tree path to f(x).  O(V+E) group operations.
    """
    check_hol_morphism(f, src.complex, dst.complex)
    if src.spec.ctx != dst.spec.ctx:
        raise NonEquivariantSpec("holonomy objects use different groups")
    ctx, cx = src.spec.ctx, src.complex
    pulled = GaugeField(cx, ctx, {e.id: dst.spec.label(f.edge_map[e.id]) for e in cx.edges})
    at_identity = BundlePoint(cx.basepoint, ctx.identity())
    for chord, got in chord_holonomies(pulled, at_identity, src.tree).items():
        expected = src.spec.assignment[chord]
        if got != expected:
            raise HolonomyIncompatible(
                f"chord {chord!r}: image loop evaluates to "
                f"{ctx.to_literal(got)}, expected {ctx.to_literal(expected)}"
            )
    return BundleMap(dict(f.vertex_map), dict(f.edge_map), tree_transports(pulled, src.tree))


def bundle_morphism_to_hol(F: BundleMap, src: BCObject, dst: BCObject) -> HolMorphism:
    """Forget the fiber data of a bundle morphism, keeping the base map."""
    if not check_bundle_morphism(F, src.gauge, dst.gauge):
        raise NonEquivariantSpec("bundle map does not intertwine the transports")
    return HolMorphism(dict(F.vertex_map), dict(F.edge_map))


# Round-trip verification


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail"
    witness: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status == "pass"


@dataclass
class Report:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, ok: bool, witness: dict | None = None) -> None:
        self.checks.append(CheckResult(name, "pass" if ok else "fail", None if ok else witness))

    def sorted(self) -> Report:
        return Report(sorted(self.checks, key=lambda c: c.name))

    def to_jsonable(self) -> dict:
        out = []
        for c in self.checks:
            entry: dict[str, Any] = {"name": c.name, "status": c.status}
            if c.witness is not None:
                entry["witness"] = c.witness
            out.append(entry)
        return {"format": 1, "checks": out}


def first_unrealized_loop(bc: BCObject, spec: HoloSpec, max_len: int) -> PathWord | None:
    """The first reduced based loop of length at most max_len whose holonomy
    at the marked point differs from the spec's value, or None."""
    for loop in enumerate_reduced_loops(bc.complex, max_len):
        if holonomy_rep(bc.gauge, bc.xi0, loop) != spec.eval(loop):
            return loop
    return None


def verify_reconstruction(
    bc: BCObject,
    report: Report,
    prefix: str,
    max_word_len: int = 3,
    anchor_max_len: int | None = None,
) -> None:
    """Check the four isomorphism conditions for the rebuilt bundle of `bc`.

    Bijectivity and equivariance are exhaustive for finite groups; base
    compatibility holds by construction, so it is not reported.  The
    connection square is checked on horizontal projections of associated
    paths over every base word up to `max_word_len`; the anchor class at the
    projection index ranges over all reduced words up to `anchor_max_len`
    when given, otherwise over the tree paths.
    """
    ctx = bc.ctx
    iso = reconstruct_iso(bc)
    spec = iso.spec
    cx = bc.complex
    paths = {v: tree_path(bc.tree, v) for v in cx.vertices}

    test_elements = ctx.elements() if ctx.is_finite else [ctx.identity(), *spec.assignment.values()]
    inputs = [(v, g) for v in cx.vertices for g in test_elements]
    images = [iso.forward_canonical(v, g) for v, g in inputs]
    if ctx.is_finite:
        # V * |G| inputs are injective exactly when they have that many images.
        report.add(prefix + "/bijective", len(set(images)) == len(inputs))
    round_ok = all(iso.inverse(im) == vg for im, vg in zip(images, inputs))
    report.add(prefix + "/inverse-roundtrip", round_ok)

    equivariant = True
    witness = None
    for v, path in paths.items():
        for g in test_elements:
            image = iso.forward(AssociatedPoint(path, g)).fiber
            for h in test_elements:
                lhs = iso.forward(AssociatedPoint(path, ctx.mul(g, h)))
                rhs = BundlePoint(lhs.base, ctx.mul(image, h))
                if lhs != rhs:
                    equivariant = False
                    witness = {"vertex": v, "g": ctx.to_literal(g), "h": ctx.to_literal(h)}
    report.add(prefix + "/equivariant", equivariant, witness)

    intertwine_ok = True
    witness = None
    if anchor_max_len is None:
        anchors = {v: [path] for v, path in paths.items()}
    else:
        pool = reduced_words_from(cx, cx.basepoint, anchor_max_len)
        anchors = {v: [w for w in pool if w.dst == v] for v in cx.vertices}
    fiber_sample = test_elements if len(test_elements) <= 8 else [ctx.identity()] + list(
        spec.assignment.values()
    )
    tree_anchor = {v: AssociatedPoint(path, ctx.identity()) for v, path in paths.items()}
    for base_word in enumerate_words(cx, max_word_len):
        n = len(base_word.steps)
        for r in range(n + 1):
            v_r = base_word.vertex_at(r)
            for anchor_word in anchors[v_r]:
                for g in fiber_sample:
                    points = tuple(
                        AssociatedPoint(anchor_word, g)
                        if i == r
                        else tree_anchor[base_word.vertex_at(i)]
                        for i in range(n + 1)
                    )
                    apath = AssocPath(base_word, points)
                    projected = associated_connection(apath, r)
                    lhs = iso.forward_path(projected)
                    start = iso.forward(apath.points[r])
                    rhs = horizontal_lift(bc.gauge, base_word, r, start)
                    if lhs != rhs:
                        intertwine_ok = False
                        witness = {
                            "base": base_word.literal(),
                            "r": r,
                            "anchor": anchor_word.literal(),
                            "g": ctx.to_literal(g),
                        }
    report.add(prefix + "/connection-intertwining", intertwine_ok, witness)


def roundtrip_check(
    hol_objects: Sequence[HolObject] = (),
    bc_objects: Sequence[BCObject] = (),
    max_loop_len: int = 4,
    ids: Iterable[str] | None = None,
) -> Report:
    """Run both round trips and the isomorphism verification (base words up
    to length 2), one report entry per check, entries sorted by name."""
    report = Report()
    names = list(ids) if ids is not None else None

    for i, obj in enumerate(hol_objects):
        label = names[i] if names else f"hol-{i:03d}"
        bc = bundle_from_holonomy(obj)
        back = holonomy_of_bundle(bc)
        report.add(
            label + "/hol-bc-hol-identity",
            back == obj,
            {
                "chords": {
                    c: {
                        "expected": obj.spec.ctx.to_literal(obj.spec.assignment[c]),
                        "got": obj.spec.ctx.to_literal(back.spec.assignment[c]),
                    }
                    for c in obj.spec.assignment
                }
            },
        )
        bad = first_unrealized_loop(bc, obj.spec, max_loop_len)
        report.add(
            label + "/holonomy-realized",
            bad is None,
            None if bad is None else {"loop": bad.literal()},
        )

    offset = len(hol_objects)
    for i, bc in enumerate(bc_objects):
        label = names[offset + i] if names else f"bc-{i:03d}"
        obj = holonomy_of_bundle(bc)
        rebuilt = bundle_from_holonomy(obj)
        again = holonomy_of_bundle(rebuilt)
        report.add(label + "/bc-hol-bc-holonomy", again.spec == obj.spec)
        verify_reconstruction(bc, report, label + "/iso", max_word_len=2)
        bad = first_unrealized_loop(bc, obj.spec, max_loop_len)
        report.add(
            label + "/extracted-holonomy-consistent",
            bad is None,
            None if bad is None else {"loop": bad.literal()},
        )

    return report.sorted()
