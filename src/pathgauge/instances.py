"""Desk-scale fixtures and seeded random instances.

The two standing fixtures are the theta graph (two vertices joined by three
parallel edges; loop group free of rank 2) and the wedge of two self-loops
(one vertex; the smallest base with a nonabelian loop group).  Random
instances stay small enough that reduced-loop enumeration is exhaustive.
"""

from __future__ import annotations

import random

from .complexes import BaseComplex, Edge, build_tree
from .groups import CyclicCtx, GroupCtx, HoloSpec, PermutationCtx
from .reconstruct import HolObject, hol_object


def theta_complex() -> BaseComplex:
    return BaseComplex(
        ("v0", "v1"),
        (Edge("a", "v0", "v1"), Edge("b", "v0", "v1"), Edge("c", "v0", "v1")),
        "v0",
    )


def wedge_complex() -> BaseComplex:
    return BaseComplex(("v0",), (Edge("p", "v0", "v0"), Edge("q", "v0", "v0")), "v0")


def theta_holospec() -> HoloSpec:
    cx = theta_complex()
    return HoloSpec(cx, build_tree(cx), CyclicCtx(5), {"b": 2, "c": 1})


def random_connected_complex(
    rng: random.Random, max_vertices: int = 5, max_extra_edges: int = 3, min_extra_edges: int = 0
) -> BaseComplex:
    """Small random pointed multigraph: a random tree plus a few extra edges.

    Extra edges may be parallels or self-loops, so the loop group rank equals
    the number of extras.
    """
    n = rng.randint(1, max_vertices)
    vertices = tuple(f"v{i}" for i in range(n))
    edges = []
    counter = 0
    for i in range(1, n):
        parent = rng.randrange(i)
        src, dst = f"v{parent}", f"v{i}"
        if rng.random() < 0.5:
            src, dst = dst, src
        edges.append(Edge(f"e{counter}", src, dst))
        counter += 1
    extras = rng.randint(min_extra_edges, max_extra_edges)
    for _ in range(extras):
        src = f"v{rng.randrange(n)}"
        dst = f"v{rng.randrange(n)}"
        edges.append(Edge(f"e{counter}", src, dst))
        counter += 1
    return BaseComplex(vertices, tuple(edges), "v0")


def random_ctx(rng: random.Random) -> GroupCtx:
    if rng.random() < 0.5:
        return CyclicCtx(rng.randint(2, 12))
    return PermutationCtx(rng.randint(2, 4))


def random_element(ctx: GroupCtx, rng: random.Random):
    els = ctx.elements()
    return els[rng.randrange(len(els))]


def random_hol_object(rng: random.Random, ctx: GroupCtx | None = None) -> HolObject:
    cx = random_connected_complex(rng)
    tree = build_tree(cx)
    if ctx is None:
        ctx = random_ctx(rng)
    assignment = {chord: random_element(ctx, rng) for chord in tree.chords()}
    return hol_object(HoloSpec(cx, tree, ctx, assignment))
