"""Desk-scale fixtures, index walks, and seeded random instances.

The two standing fixtures are the theta graph (two vertices joined by three
parallel edges; loop group free of rank 2) and the wedge of two self-loops
(one vertex; the smallest base with a nonabelian loop group).  Random
instances stay small enough that reduced-loop enumeration is exhaustive.
"""

from __future__ import annotations

import random

from .complexes import BaseComplex, Edge, build_tree
from .gauge import GaugeField
from .groups import CyclicCtx, GroupCtx, HoloSpec, PermutationCtx
from .reconstruct import BCObject, HolObject, bc_object, hol_object


def theta_complex() -> BaseComplex:
    return BaseComplex(
        ("v0", "v1"),
        (Edge("a", "v0", "v1"), Edge("b", "v0", "v1"), Edge("c", "v0", "v1")),
        "v0",
    )


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


def wedge_complex() -> BaseComplex:
    return BaseComplex(("v0",), (Edge("p", "v0", "v0"), Edge("q", "v0", "v0")), "v0")


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


def theta_holospec() -> HoloSpec:
    cx = theta_complex()
    return HoloSpec(cx, build_tree(cx), CyclicCtx(5), {"b": 2, "c": 1})


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
