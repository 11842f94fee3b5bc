"""Test fixtures beyond the two standing ones, index walks, random bundles,
and bundle pairs with known conjugacy."""

from __future__ import annotations

import random

from pathgauge.complexes import BaseComplex, Edge, build_tree
from pathgauge.gauge import BundlePoint, GaugeField
from pathgauge.groups import CyclicCtx, GroupCtx, HoloSpec, PermutationCtx
from pathgauge.instances import (
    random_connected_complex,
    random_ctx,
    random_element,
    theta_complex,
    wedge_complex,
)
from pathgauge.reconstruct import BCObject, bc_object, bundle_from_holonomy, hol_object


def theta4_complex() -> BaseComplex:
    """Theta plus a fourth edge running back, for wider word tests."""
    return BaseComplex(
        ("v0", "v1"),
        (
            Edge("a", "v0", "v1"),
            Edge("b", "v0", "v1"),
            Edge("c", "v0", "v1"),
            Edge("d", "v1", "v0"),
        ),
        "v0",
    )


def path3_complex() -> BaseComplex:
    return BaseComplex(
        ("v0", "v1", "v2"),
        (Edge("e1", "v0", "v1"), Edge("e2", "v1", "v2")),
        "v0",
    )


def theta_gauge() -> GaugeField:
    return GaugeField(theta_complex(), CyclicCtx(5), {"a": 0, "b": 2, "c": 1})


def wedge_gauge() -> GaugeField:
    return GaugeField(wedge_complex(), PermutationCtx(3), {"p": (1, 0, 2), "q": (1, 2, 0)})


def wedge_holospec() -> HoloSpec:
    cx = wedge_complex()
    return HoloSpec(cx, build_tree(cx), PermutationCtx(3), {"p": (1, 0, 2), "q": (1, 2, 0)})


def theta_bc() -> BCObject:
    return bc_object(theta_gauge())


def wedge_bc() -> BCObject:
    return bc_object(wedge_gauge())


def monotone_walks(n: int) -> list[list[int]]:
    """All monotone index walks on a word of length n: forward and backward runs."""
    walks = []
    for a in range(n + 1):
        for b in range(a, n + 1):
            walks.append(list(range(a, b + 1)))
            if b > a:
                walks.append(list(range(b, a - 1, -1)))
    return walks


def backtracking_walks(n: int, length: int) -> list[list[int]]:
    """All unit-step index walks of the given length, including backtracking ones."""
    walks: list[list[int]] = [[p] for p in range(n + 1)]
    for _ in range(length):
        nxt = []
        for w in walks:
            for d in (-1, 1):
                p = w[-1] + d
                if 0 <= p <= n:
                    nxt.append(w + [p])
        walks = nxt
    return walks


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
