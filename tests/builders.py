"""Random bundles, and bundle pairs with known conjugacy, for the
reconstruction and acceptance tests."""

from __future__ import annotations

import random

from pathgauge.complexes import build_tree
from pathgauge.gauge import BundlePoint, GaugeField
from pathgauge.groups import GroupCtx, HoloSpec, PermutationCtx
from pathgauge.instances import random_connected_complex, random_ctx, random_element
from pathgauge.reconstruct import BCObject, bc_object, bundle_from_holonomy, hol_object


def random_bc_object(rng: random.Random, ctx: GroupCtx | None = None) -> BCObject:
    cx = random_connected_complex(rng)
    if ctx is None:
        ctx = random_ctx(rng)
    labels = {e.id: random_element(ctx, rng) for e in cx.edges}
    gauge = GaugeField(cx, ctx, labels)
    xi0 = BundlePoint(cx.basepoint, random_element(ctx, rng))
    return bc_object(gauge, xi0)


def conjugate_bc_pair(rng: random.Random, degree: int) -> tuple[BCObject, BCObject, tuple]:
    """Two bundles over one base whose holonomies are conjugate by a known g,
    in the orientation H = g H' g^-1."""
    ctx = PermutationCtx(degree)
    cx = random_connected_complex(rng, min_extra_edges=1)
    tree = build_tree(cx)
    g = random_element(ctx, rng)
    assignment2 = {chord: random_element(ctx, rng) for chord in tree.chords()}
    assignment1 = {chord: ctx.conjugate(g, el) for chord, el in assignment2.items()}
    bc1 = bundle_from_holonomy(hol_object(HoloSpec(cx, tree, ctx, assignment1)))
    bc2 = bundle_from_holonomy(hol_object(HoloSpec(cx, tree, ctx, assignment2)))
    return bc1, bc2, g


def nonconjugate_bc_pair(rng: random.Random, degree: int) -> tuple[BCObject, BCObject]:
    """Two bundles over one base whose chord holonomies are conjugate under no
    group element; decided by exhausting the (finite) group."""
    ctx = PermutationCtx(degree)
    cx = random_connected_complex(rng, min_extra_edges=1)
    tree = build_tree(cx)
    chords = tree.chords()
    for _ in range(50):
        a1 = {chord: random_element(ctx, rng) for chord in chords}
        a2 = {chord: random_element(ctx, rng) for chord in chords}
        if not any(
            all(a1[c] == ctx.conjugate(g, a2[c]) for c in chords) for g in ctx.elements()
        ):
            break
    else:
        # Different cycle types on the first chord settle it outright.
        a1 = {chord: ctx.identity() for chord in chords}
        a2 = dict(a1)
        a2[chords[0]] = ctx.generators()[0]
    bc1 = bundle_from_holonomy(hol_object(HoloSpec(cx, tree, ctx, a1)))
    bc2 = bundle_from_holonomy(hol_object(HoloSpec(cx, tree, ctx, a2)))
    return bc1, bc2
