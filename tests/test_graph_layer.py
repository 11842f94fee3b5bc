"""The linear graph layer against its naive oracles, and its scaling.

`build_tree` (heap frontier), `out_steps` and `is_connected` (incidence
index), `tree_transports` (one pass over the parent map) and
`chord_holonomies` (tree potentials) must agree with the edge scans in
`oracles.py` and with word-by-word transport, on random multigraphs with
self-loops, parallel edges and disconnected inputs.
"""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathgauge.complexes import BaseComplex, Edge, build_tree, chord_loops, tree_path
from pathgauge.errors import NotConnected
from pathgauge.gauge import (
    BundlePoint,
    GaugeField,
    chord_holonomies,
    holonomy_rep,
    transport,
    tree_transports,
)
from pathgauge.groups import CyclicCtx, PermutationCtx, RationalMatrixCtx
from pathgauge.reconstruct import bc_object, holonomy_of_bundle

from .oracles import laplace_det, scan_build_tree, scan_out_steps

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


def test_graph_layer_scales_on_a_deep_tree():
    """A path of V=20 000 vertices with V/2 random chords: the tree is the
    path, as deep as it gets.  An O(V*E) tree scan takes minutes here.

    `chord_loops` is left out: it costs as much as the loops it returns,
    which is quadratic on a tree this deep.
    """
    n, order = 20_000, 97
    rng = random.Random(4)
    vertices = tuple(f"v{i:05d}" for i in range(n))
    # Path edge ids sort before chord ids, so the path wins every tie.
    path = [Edge(f"a{i:05d}", vertices[i], vertices[i + 1]) for i in range(n - 1)]
    chords = [Edge(f"c{j:05d}", rng.choice(vertices), rng.choice(vertices)) for j in range(n // 2)]
    cx = BaseComplex(vertices, tuple(path + chords), vertices[0])
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
