"""The linear graph layer against its naive oracles, and its scaling.

`build_tree` (heap frontier), `out_steps` and `is_connected` (incidence
index), `tree_transports` (one pass over the parent map) and
`chord_holonomies` (tree potentials) must agree with the edge scans in
`oracles.py` and with word-by-word transport, on random multigraphs with
self-loops, parallel edges and disconnected inputs.  `chord_loops` (one
word from two tree paths), `canonicalize` (`eval` on the word itself),
`hol_morphism_to_bundle` (pullback onto tree potentials) and the three
horizontal lifts (one outward walk) must agree with the word-building and
from-scratch oracles.
"""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathgauge.complexes import BaseComplex, Edge, build_tree, chord_loops, tree_path
from pathgauge.errors import ConjugacyViolated, HolonomyIncompatible, NotConnected
from pathgauge.gauge import (
    BundlePoint,
    GaugeField,
    check_bundle_morphism,
    chord_holonomies,
    holonomy_rep,
    horizontal_lift,
    transport,
    tree_transports,
)
from pathgauge.groups import CyclicCtx, HoloSpec, PermutationCtx, RationalMatrixCtx
from pathgauge.pathspace import (
    AssociatedPoint,
    AssocPath,
    FPath,
    FPoint,
    associated_lift,
    canonicalize,
    fpoint,
    universal_lift,
)
from pathgauge.reconstruct import (
    HolMorphism,
    bc_object,
    bundle_from_holonomy,
    conjugation_iso,
    hol_morphism_to_bundle,
    hol_object,
    holonomy_of_bundle,
    identity_hol_morphism,
    reconstruct_iso,
)
from pathgauge.words import concat, reduce_word, reverse_word

from .oracles import (
    concat_chord_loops,
    laplace_det,
    prefix_transport_lift,
    scan_build_tree,
    scan_out_steps,
    scratch_anchor_extension,
    word_hol_morphism_to_bundle,
)

# Short ids over a small alphabet, so lexicographic order and ids shared by a
# vertex and an edge both occur.
IDS = st.text(alphabet="abz019", min_size=1, max_size=3)

CONTEXTS = [CyclicCtx(7), PermutationCtx(4), RationalMatrixCtx(2)]


@st.composite
def multigraphs(draw, connected: bool):
    """Pointed multigraphs on up to 7 vertices with random extra edges, any of
    them parallel or self-loops; `connected` adds a random spanning tree."""
    vertices = draw(st.lists(IDS, min_size=1, max_size=7, unique=True))
    ends = st.sampled_from(vertices)
    pairs = [(draw(ends), draw(ends)) for _ in range(draw(st.integers(0, 8)))]
    if connected:
        for i in range(1, len(vertices)):
            pair = (vertices[i], draw(st.sampled_from(vertices[:i])))
            pairs.append(pair if draw(st.booleans()) else pair[::-1])
    edge_ids = draw(st.lists(IDS, min_size=len(pairs), max_size=len(pairs), unique=True))
    edges = tuple(Edge(e, src, dst) for e, (src, dst) in zip(edge_ids, pairs))
    return BaseComplex(tuple(vertices), edges, draw(ends))


def elements(ctx):
    if ctx.kind == "rational_matrix":
        row = st.lists(st.integers(-2, 2), min_size=2, max_size=2)
        return st.lists(row, min_size=2, max_size=2).filter(laplace_det).map(ctx.matrix)
    return st.sampled_from(ctx.elements())


@given(st.booleans().flatmap(multigraphs))
@settings(max_examples=400, deadline=None)
def test_build_tree_matches_scan(cx):
    try:
        expected = scan_build_tree(cx)
    except NotConnected:
        with pytest.raises(NotConnected):
            build_tree(cx)
        assert not cx.is_connected()
        return
    tree = build_tree(cx)
    assert tree.tree_edges == expected.tree_edges
    assert list(tree.parent.items()) == list(expected.parent.items())
    assert cx.is_connected()


@given(st.booleans().flatmap(multigraphs))
@settings(max_examples=200, deadline=None)
def test_out_steps_match_scan(cx):
    for v in cx.vertices + ("?",):  # "?" is no vertex
        assert cx.out_steps(v) == scan_out_steps(cx, v)


@pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda ctx: ctx.kind)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_tree_transports_match_tree_path_transport(ctx, data):
    cx = data.draw(multigraphs(connected=True))
    field = GaugeField(cx, ctx, {e.id: data.draw(elements(ctx)) for e in cx.edges})
    tree = build_tree(cx)
    expected = {v: transport(field, tree_path(tree, v)) for v in cx.vertices}
    assert list(tree_transports(field, tree).items()) == list(expected.items())


@pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda ctx: ctx.kind)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_chord_holonomies_match_chord_loop_holonomies(ctx, data):
    cx = data.draw(multigraphs(connected=True))
    field = GaugeField(cx, ctx, {e.id: data.draw(elements(ctx)) for e in cx.edges})
    xi0 = BundlePoint(cx.basepoint, data.draw(elements(ctx)))
    tree = build_tree(cx)
    expected = {c: holonomy_rep(field, xi0, loop) for c, loop in chord_loops(cx, tree).items()}
    assert list(chord_holonomies(field, xi0, tree).items()) == list(expected.items())


@st.composite
def walks(draw, cx, start):
    """A word of up to 8 random steps out of `start`, backtracking included,
    so it is often not reduced."""
    steps, at = [], start
    for _ in range(draw(st.integers(0, 8))):
        if not cx.out_steps(at):
            break
        steps.append(draw(st.sampled_from(cx.out_steps(at))))
        at = cx.step_head(steps[-1])
    return cx.word(steps, at=start)


@given(multigraphs(connected=True))
@settings(max_examples=300, deadline=None)
def test_chord_loops_match_concat_oracle(cx):
    tree = build_tree(cx)
    loops = chord_loops(cx, tree)
    assert list(loops.items()) == list(concat_chord_loops(cx, tree).items())
    assert all(loop.is_reduced() for loop in loops.values())


@pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda ctx: ctx.kind)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_canonicalize_matches_reduce_then_eval(ctx, data):
    cx = data.draw(multigraphs(connected=True))
    tree = build_tree(cx)
    spec = HoloSpec(cx, tree, ctx, {c: data.draw(elements(ctx)) for c in tree.chords()})
    word, g = data.draw(walks(cx, cx.basepoint)), data.draw(elements(ctx))
    gamma = reduce_word(concat(word, reverse_word(tree_path(tree, word.dst))))
    assert canonicalize(AssociatedPoint(word, g), spec) == (word.dst, ctx.mul(spec.eval(gamma), g))


def _inclusion(draw, src_cx):
    """`src_cx` renamed ("i" + id) inside a larger complex.  The extra
    vertices and edges get ids starting with "h", which sort first, so the
    target's own tree often differs from the image of the source tree."""
    vertices = ["i" + v for v in src_cx.vertices]
    edges = [Edge("i" + e.id, "i" + e.src, "i" + e.dst) for e in src_cx.edges]
    extra = draw(st.integers(0, 3))
    for k in range(extra):  # each new vertex joins an earlier one
        edges.append(Edge(f"h{k}", f"h{k}", draw(st.sampled_from(vertices))))
        vertices.append(f"h{k}")
    ends = st.sampled_from(vertices)
    for k in range(extra, extra + draw(st.integers(0, 4))):
        edges.append(Edge(f"h{k}", draw(ends), draw(ends)))
    dst_cx = BaseComplex(tuple(vertices), tuple(edges), "i" + src_cx.basepoint)
    f = HolMorphism({v: "i" + v for v in src_cx.vertices}, {e.id: "i" + e.id for e in src_cx.edges})
    return f, dst_cx


def _fold(draw, dst_cx):
    """A random source complex with a graph map onto `dst_cx`: each new
    source vertex lifts one step out of an earlier one, and extra source
    edges lift random target edges, so loops may unwind or fold."""
    image = {"u0": dst_cx.basepoint}
    edges, edge_map = [], {}
    for i in range(1, draw(st.integers(1, 6))):
        u = draw(st.sampled_from(sorted(image)))
        if not dst_cx.out_steps(image[u]):
            break
        step = draw(st.sampled_from(dst_cx.out_steps(image[u])))
        image[f"u{i}"] = dst_cx.step_head(step)
        pair = (u, f"u{i}") if step.forward else (f"u{i}", u)
        edges.append(Edge(f"e{len(edges)}", *pair))
        edge_map[edges[-1].id] = step.edge
    for _ in range(draw(st.integers(1, 6))):
        if not dst_cx.edges:
            break
        target = draw(st.sampled_from(dst_cx.edges))
        tails = [u for u in sorted(image) if image[u] == target.src]
        heads = [u for u in sorted(image) if image[u] == target.dst]
        if tails and heads:
            edges.append(Edge(f"e{len(edges)}", draw(st.sampled_from(tails)), draw(st.sampled_from(heads))))
            edge_map[edges[-1].id] = target.id
    src_cx = BaseComplex(tuple(image), tuple(edges), "u0")
    return HolMorphism(image, edge_map), src_cx


@st.composite
def hol_morphisms(draw, ctx):
    """(f, src, dst): an identity map, an inclusion or a fold, a random
    target spec, and a source spec that is compatible by construction in
    half the cases and random otherwise."""
    kind = draw(st.sampled_from(["identity", "inclusion", "fold"]))
    cx = draw(multigraphs(connected=True))
    if kind == "identity":
        f, src_cx, dst_cx = identity_hol_morphism(cx), cx, cx
    elif kind == "inclusion":
        src_cx = cx
        f, dst_cx = _inclusion(draw, cx)
    else:
        dst_cx = cx
        f, src_cx = _fold(draw, cx)
    dst_tree, src_tree = build_tree(dst_cx), build_tree(src_cx)
    dst = hol_object(HoloSpec(dst_cx, dst_tree, ctx, {c: draw(elements(ctx)) for c in dst_tree.chords()}))
    if draw(st.booleans()):
        loops = concat_chord_loops(src_cx, src_tree)
        assignment = {c: dst.spec.eval(f.on_word(dst_cx, loop)) for c, loop in loops.items()}
    else:
        assignment = {c: draw(elements(ctx)) for c in src_tree.chords()}
    return f, hol_object(HoloSpec(src_cx, src_tree, ctx, assignment)), dst


@pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda ctx: ctx.kind)
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_hol_morphism_to_bundle_matches_word_oracle(ctx, data):
    f, src, dst = data.draw(hol_morphisms(ctx))
    try:
        expected = word_hol_morphism_to_bundle(f, src, dst)
    except HolonomyIncompatible as exc:
        with pytest.raises(HolonomyIncompatible) as got:
            hol_morphism_to_bundle(f, src, dst)
        assert str(got.value) == str(exc)
        return
    F = hol_morphism_to_bundle(f, src, dst)
    assert (F.vertex_map, F.edge_map) == (expected.vertex_map, expected.edge_map)
    assert list(F.fiber_adjust.items()) == list(expected.fiber_adjust.items())
    assert check_bundle_morphism(F, bundle_from_holonomy(src).gauge, bundle_from_holonomy(dst).gauge)


def _anchor(data, cx, tree, v):
    """A random word out of the basepoint, closed up along its tree path and
    continued along the tree path to v: often unreduced, always ending at v."""
    w = data.draw(walks(cx, cx.basepoint))
    return concat(concat(w, reverse_word(tree_path(tree, w.dst))), tree_path(tree, v))


@pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda ctx: ctx.kind)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_lifts_match_from_scratch_oracles(ctx, data):
    """At every start index of a backtracking word: the universal and
    associated lifts against reduce(anchor ++ subword) per position, and the
    horizontal lift against the prefix-transport formula."""
    cx = data.draw(multigraphs(connected=True))
    field = GaugeField(cx, ctx, {e.id: data.draw(elements(ctx)) for e in cx.edges})
    word = data.draw(walks(cx, data.draw(st.sampled_from(cx.vertices))))
    tree = build_tree(cx)
    for t0 in range(len(word) + 1):
        anchor, g = _anchor(data, cx, tree, word.vertex_at(t0)), data.draw(elements(ctx))
        expected = scratch_anchor_extension(anchor, word, t0)
        assert universal_lift(word, t0, fpoint(anchor)) == FPath(word, tuple(map(FPoint, expected)))
        lifted = associated_lift(word, t0, AssociatedPoint(anchor, g))
        assert lifted == AssocPath(word, tuple(AssociatedPoint(w, g) for w in expected))
        xi = BundlePoint(word.vertex_at(t0), g)
        assert horizontal_lift(field, word, t0, xi) == prefix_transport_lift(field, word, t0, xi)


@pytest.mark.parametrize("ctx", CONTEXTS[1:], ids=lambda ctx: ctx.kind)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_conjugation_iso_matches_reconstruction_formula(ctx, data):
    """Adjusters iso'.adjust[v] g^-1 iso.adjust[v]^-1 from the two
    reconstruction isomorphisms, or ConjugacyViolated at the first chord
    breaking H = g H' g^-1.  The second field is a gauge transform of the
    first, with one edge relabelled in about half the cases."""
    cx = data.draw(multigraphs(connected=True))
    labels = {e.id: data.draw(elements(ctx)) for e in cx.edges}
    k = {v: data.draw(elements(ctx)) for v in cx.vertices}
    moved = {e.id: ctx.mul(ctx.mul(k[e.dst], labels[e.id]), ctx.inv(k[e.src])) for e in cx.edges}
    if cx.edges and data.draw(st.booleans()):
        moved[data.draw(st.sampled_from(cx.edges)).id] = data.draw(elements(ctx))
    a, a2 = data.draw(elements(ctx)), data.draw(elements(ctx))
    bc = bc_object(GaugeField(cx, ctx, labels), BundlePoint(cx.basepoint, a))
    other = bc_object(GaugeField(cx, ctx, moved), BundlePoint(cx.basepoint, a2))
    g = ctx.mul(ctx.inv(ctx.mul(k[cx.basepoint], a)), a2)
    iso, iso2 = reconstruct_iso(bc), reconstruct_iso(other)
    H, H2 = iso.spec.assignment, iso2.spec.assignment
    broken = [c for c in sorted(H) if H[c] != ctx.conjugate(g, H2[c])]
    if broken:
        with pytest.raises(ConjugacyViolated) as exc:
            conjugation_iso(bc, other, g)
        assert exc.value.chord == broken[0]
        return
    F = conjugation_iso(bc, other, g)
    g_inv = ctx.inv(g)
    expected = {v: ctx.mul(iso2.adjust[v], ctx.mul(g_inv, ctx.inv(iso.adjust[v]))) for v in cx.vertices}
    assert list(F.fiber_adjust.items()) == list(expected.items())
    assert check_bundle_morphism(F, bc.gauge, other.gauge)


def deep_path_complex(n: int, rng: random.Random) -> tuple[BaseComplex, list[Edge], list[Edge]]:
    """A path of n vertices plus n/2 random chords; its tree is the path."""
    vertices = tuple(f"v{i:05d}" for i in range(n))
    # Path edge ids sort before chord ids, so the path wins every tie.
    path = [Edge(f"a{i:05d}", vertices[i], vertices[i + 1]) for i in range(n - 1)]
    chords = [Edge(f"c{j:05d}", rng.choice(vertices), rng.choice(vertices)) for j in range(n // 2)]
    return BaseComplex(vertices, tuple(path + chords), vertices[0]), path, chords


def test_graph_layer_scales_on_a_deep_tree():
    """A path of V=20 000 vertices with V/2 random chords: the tree is the
    path, as deep as it gets.  An O(V*E) tree scan takes minutes here.

    `chord_loops` is left out: it costs as much as the loops it returns,
    which is quadratic on a tree this deep.
    """
    n, order = 20_000, 97
    rng = random.Random(4)
    cx, path, chords = deep_path_complex(n, rng)
    vertices = cx.vertices
    field = GaugeField(cx, CyclicCtx(order), {e.id: rng.randrange(order) for e in cx.edges})

    start = time.perf_counter()
    tree = build_tree(cx)
    potentials = tree_transports(field, tree)
    holonomy = holonomy_of_bundle(bc_object(field, tree=tree)).spec.assignment
    elapsed = time.perf_counter() - start

    assert elapsed < 10.0, f"{elapsed:.1f} s"
    assert tree.tree_edges == {e.id for e in path}
    prefix = [0]
    for e in path:
        prefix.append((prefix[-1] + field.labels[e.id]) % order)
    assert potentials == dict(zip(vertices, prefix))
    index = {v: i for i, v in enumerate(vertices)}
    assert holonomy == {
        e.id: (prefix[index[e.src]] + field.labels[e.id] - prefix[index[e.dst]]) % order
        for e in chords
    }


def test_morphism_transfer_scales_on_a_deep_tree():
    """The identity morphism of a V=20 000 deep path with V/2 chords.  Walking
    the chord loops and the tree paths word by word is quadratic in V here."""
    order = 97
    rng = random.Random(5)
    cx, _, _ = deep_path_complex(20_000, rng)
    tree = build_tree(cx)
    obj = hol_object(HoloSpec(cx, tree, CyclicCtx(order), {c: rng.randrange(order) for c in tree.chords()}))

    start = time.perf_counter()
    F = hol_morphism_to_bundle(identity_hol_morphism(cx), obj, obj)
    elapsed = time.perf_counter() - start

    assert elapsed < 2.0, f"{elapsed:.1f} s"
    assert F.fiber_adjust == {v: 0 for v in cx.vertices}
