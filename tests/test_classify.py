"""Classification without enumerating the group.

`GroupCtx.conjugator` (orbit propagation for permutations, equality for
cyclic groups) must return exactly what trying every group element returns,
the first conjugator in `elements()` order or None; `find_conjugator` and
`gauge_morphism_exists` must agree with the brute-force searches in
`oracles.py`, and must stay fast where the group is far too large to list.
"""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathgauge import gauge, reconstruct
from pathgauge.complexes import BaseComplex, Edge, SpanningTree, build_tree
from pathgauge.errors import InfiniteContext
from pathgauge.gauge import BundlePoint, GaugeField, check_bundle_morphism
from pathgauge.groups import CyclicCtx, HoloSpec, PermutationCtx, RationalMatrixCtx
from pathgauge.instances import random_connected_complex, random_element, theta_complex
from pathgauge.reconstruct import (
    bc_object,
    bundle_from_holonomy,
    conjugation_iso,
    find_conjugator,
    gauge_morphism_exists,
    hol_object,
    holonomy_of_bundle,
)
from pathgauge.words import EdgeStep

from .builders import theta_bc
from .oracles import adjuster_search_morphism_exists, brute_force_conjugator

SMALL_CONTEXTS = {
    **{f"perm{d}": PermutationCtx(d) for d in (1, 2, 3)},
    **{f"cyclic{n}": CyclicCtx(n) for n in (1, 2, 4)},
}


@pytest.mark.parametrize("ctx", SMALL_CONTEXTS.values(), ids=SMALL_CONTEXTS.keys())
@pytest.mark.parametrize("k", [0, 1, 2])
def test_conjugator_matches_brute_force_exhaustively(ctx, k):
    tuples = list(itertools.product(ctx.elements(), repeat=k))
    for xs in tuples:
        for ys in tuples:
            assert ctx.conjugator(xs, ys) == brute_force_conjugator(ctx, xs, ys), (xs, ys)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_conjugator_matches_brute_force_on_random_tuples(data):
    """Degrees 4 and 5; half the draws are conjugate by construction."""
    ctx = PermutationCtx(data.draw(st.sampled_from([4, 5])))
    perms = st.permutations(range(ctx.degree)).map(tuple)
    ys = data.draw(st.lists(perms, max_size=3))
    if data.draw(st.booleans()):
        g = data.draw(perms)
        xs = [ctx.conjugate(g, y) for y in ys]
    else:
        xs = data.draw(st.lists(perms, min_size=len(ys), max_size=len(ys)))
    assert ctx.conjugator(xs, ys) == brute_force_conjugator(ctx, xs, ys)


def test_conjugator_needs_equal_lengths_and_a_finite_group():
    with pytest.raises(ValueError):
        PermutationCtx(3).conjugator([(0, 1, 2)], [])
    with pytest.raises(ValueError):
        CyclicCtx(3).conjugator([], [1])
    ctx = RationalMatrixCtx(2)
    with pytest.raises(InfiniteContext):
        ctx.conjugator([ctx.identity()], [ctx.identity()])


def _random_field(rng, cx, ctx):
    return GaugeField(cx, ctx, {e.id: random_element(ctx, rng) for e in cx.edges})


def _gauge_transform(field, k):
    """The field seen through fiber adjusters k: U'(e) = k(dst) U(e) k(src)^-1."""
    ctx = field.ctx
    labels = {
        e.id: ctx.mul(ctx.mul(k[e.dst], field.labels[e.id]), ctx.inv(k[e.src]))
        for e in field.complex.edges
    }
    return GaugeField(field.complex, ctx, labels)


@pytest.mark.parametrize("seed", range(40))
def test_classification_matches_the_brute_force_searches(seed):
    """Random fields (tree labels not the identity, marked fibers anywhere):
    unrelated pairs, and pairs related by a random fiber adjustment."""
    rng = random.Random(seed)
    ctx = [PermutationCtx(3), PermutationCtx(4), CyclicCtx(6)][seed % 3]
    cx = random_connected_complex(rng, max_vertices=4, max_extra_edges=3)
    f1 = _random_field(rng, cx, ctx)
    if seed % 2:
        f2 = _gauge_transform(f1, {v: random_element(ctx, rng) for v in cx.vertices})
    else:
        f2 = _random_field(rng, cx, ctx)
    bc1 = bc_object(f1, BundlePoint(cx.basepoint, random_element(ctx, rng)))
    bc2 = bc_object(f2, BundlePoint(cx.basepoint, random_element(ctx, rng)))

    exists = gauge_morphism_exists(bc1, bc2)
    assert exists == adjuster_search_morphism_exists(bc1, bc2)
    if seed % 2:
        assert exists
    H = holonomy_of_bundle(bc1).spec.assignment
    H2 = holonomy_of_bundle(bc2).spec.assignment
    expected = brute_force_conjugator(ctx, [H[c] for c in H], [H2[c] for c in H])
    assert find_conjugator(bc1, bc2) == expected
    # A morphism re-marks the fiber, so marked bundles are conjugate exactly
    # when a morphism exists between their fields.
    assert (expected is not None) == exists


def _theta_tree_b(cx):
    """The theta complex's other spanning tree, {b} instead of {a}."""
    return SpanningTree(cx, frozenset({"b"}), {"v1": EdgeStep("b", False)})


def test_bundles_on_different_trees_are_compared_on_one_tree():
    """The theta field against itself on the tree {b} used to raise a bare
    KeyError: 'b' from `find_conjugator` and `conjugation_iso`."""
    bc = theta_bc()
    other = bc_object(bc.gauge, bc.xi0, _theta_tree_b(bc.complex))
    assert other.tree != bc.tree
    assert gauge_morphism_exists(bc, other)
    for first, second in ((bc, other), (other, bc)):
        assert find_conjugator(first, second) == 0
        F = conjugation_iso(first, second, 0)
        assert check_bundle_morphism(F, first.gauge, second.gauge)


def test_conjugation_iso_measures_each_bundle_once(monkeypatch):
    """Each bundle's tree transports serve both its chord holonomies and the
    adjusters: two `tree_transports` calls per `conjugation_iso`, not four.
    Matrix labels, marked fibers a1 and a2 over one field up to a gauge
    transform, related by g = a1^-1 a2."""
    ctx = RationalMatrixCtx(2)
    cx = theta_complex()
    field = GaugeField(
        cx,
        ctx,
        {"a": ctx.matrix([[1, 2], [0, 1]]), "b": ctx.matrix([[2, 0], [1, 1]]), "c": ctx.matrix([["1/2", 1], [0, 3]])},
    )
    other = _gauge_transform(field, {"v0": ctx.identity(), "v1": ctx.matrix([[1, 0], [5, 1]])})
    a1, a2 = ctx.matrix([[1, 1], [0, 1]]), ctx.matrix([[0, 1], [-1, 3]])
    bc1, bc2 = bc_object(field, BundlePoint("v0", a1)), bc_object(other, BundlePoint("v0", a2))
    calls = []
    original = gauge.tree_transports

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(gauge, "tree_transports", counting)
    monkeypatch.setattr(reconstruct, "tree_transports", counting)
    F = conjugation_iso(bc1, bc2, ctx.mul(ctx.inv(a1), a2))
    assert len(calls) == 2
    assert check_bundle_morphism(F, field, other)


@pytest.mark.parametrize("seed", range(12))
def test_classification_on_different_trees_matches_one_tree(seed):
    """Permutation fields on theta, the second bundle on the tree {b}: the
    answers are those for both bundles on the first bundle's tree."""
    rng = random.Random(seed)
    ctx = PermutationCtx(3 + seed % 2)
    cx = theta_bc().complex
    f1 = _random_field(rng, cx, ctx)
    if seed % 2:
        f2 = _gauge_transform(f1, {v: random_element(ctx, rng) for v in cx.vertices})
    else:
        f2 = _random_field(rng, cx, ctx)
    bc1 = bc_object(f1, BundlePoint(cx.basepoint, random_element(ctx, rng)))
    xi2 = BundlePoint(cx.basepoint, random_element(ctx, rng))
    bc2, bc2_b = bc_object(f2, xi2), bc_object(f2, xi2, _theta_tree_b(cx))

    g = find_conjugator(bc1, bc2_b)
    assert g == find_conjugator(bc1, bc2)
    assert (g is not None) == gauge_morphism_exists(bc1, bc2_b) == gauge_morphism_exists(bc1, bc2)
    if g is not None:
        F = conjugation_iso(bc1, bc2_b, g)
        assert F.fiber_adjust == conjugation_iso(bc1, bc2, g).fiber_adjust
        assert check_bundle_morphism(F, bc1.gauge, bc2_b.gauge)


def _random_permutation(rng, degree):
    """Drawn directly: `random_element` would list all degree! elements."""
    return tuple(rng.sample(range(degree), degree))


def _field_with_chord_holonomies(rng, cx, tree, ctx, assignment):
    """A field whose chord holonomies at the identity fiber are `assignment`,
    with random permutations on the tree edges too."""
    field = bundle_from_holonomy(hol_object(HoloSpec(cx, tree, ctx, assignment))).gauge
    k = {v: _random_permutation(rng, ctx.degree) for v in cx.vertices}
    k[cx.basepoint] = ctx.identity()
    return _gauge_transform(field, k)


def test_classification_scales_to_degree_12():
    """V=40 with 20 chords in degree 12, where the group has 12! = 479 001 600
    elements: one conjugate pair and one pair whose chord holonomies are each
    conjugate but not simultaneously."""
    rng = random.Random(12)
    ctx = PermutationCtx(12)
    n = 40
    vertices = [f"v{i:02d}" for i in range(n)]
    edges = [Edge(f"t{i:02d}", vertices[rng.randrange(i)], vertices[i]) for i in range(1, n)]
    edges += [Edge(f"c{j:02d}", rng.choice(vertices), rng.choice(vertices)) for j in range(20)]
    cx = BaseComplex(tuple(vertices), tuple(edges), vertices[0])
    tree = build_tree(cx)
    chords = tree.chords()
    assert len(chords) == 20

    cycle = list(range(12))
    rng.shuffle(cycle)
    y = [0] * 12
    for i, p in enumerate(cycle):
        y[p] = cycle[(i + 1) % 12]
    y = tuple(y)  # a 12-cycle: only its 12 powers commute with it
    powers = [ctx.identity()]
    for _ in range(11):
        powers.append(ctx.mul(y, powers[-1]))
    h1 = {c: _random_permutation(rng, 12) for c in chords}
    h1[chords[0]] = y
    g = _random_permutation(rng, 12)
    conj = {c: ctx.conjugate(g, el) for c, el in h1.items()}
    apart = dict(h1)
    while True:
        c = _random_permutation(rng, 12)
        apart[chords[1]] = ctx.conjugate(c, h1[chords[1]])
        if all(ctx.conjugate(s, h1[chords[1]]) != apart[chords[1]] for s in powers):
            break

    bc1 = bc_object(_field_with_chord_holonomies(rng, cx, tree, ctx, h1), tree=tree)
    bc_conj = bc_object(_field_with_chord_holonomies(rng, cx, tree, ctx, conj), tree=tree)
    bc_apart = bc_object(_field_with_chord_holonomies(rng, cx, tree, ctx, apart), tree=tree)

    start = time.perf_counter()
    found = find_conjugator(bc1, bc_conj)
    morphism = gauge_morphism_exists(bc1, bc_conj)
    missing = find_conjugator(bc1, bc_apart)
    no_morphism = gauge_morphism_exists(bc1, bc_apart)
    elapsed = time.perf_counter() - start

    assert elapsed < 1.0, f"{elapsed:.2f} s"
    assert found is not None and morphism
    assert all(ctx.conjugate(found, conj[c]) == h1[c] for c in chords)
    assert found <= ctx.inv(g)  # g^-1 is one conjugator; found is the least
    assert missing is None and not no_morphism
