"""Independent oracles the tests check the fast implementations against.

Each oracle is deliberately naive: exhaustive rewriting instead of a stack
pass, brute-force orbit enumeration instead of canonical forms, literal
search over all fiber-adjustment maps instead of tree propagation, full edge
scans instead of an incidence index and a heap frontier, every group element
instead of orbit propagation, `Fraction` arithmetic instead of integer
kernels, words built, mapped, reduced and evaluated instead of tree
potentials, every lift position reduced or transported from scratch instead
of one outward walk, one `mul` per factor instead of one product.  They
share no code path with what they verify.
"""

from __future__ import annotations

from fractions import Fraction

from pathgauge.complexes import BaseComplex, SpanningTree, tree_path
from pathgauge.errors import (
    BaseMismatch,
    DomainMismatch,
    HolonomyIncompatible,
    IndexOutOfRange,
    NonEquivariantSpec,
    NotConnected,
)
from pathgauge.gauge import BundleMap, BundlePoint, EPath, GaugeField
from pathgauge.groups import GroupCtx
from pathgauge.reconstruct import check_hol_morphism
from pathgauge.words import EdgeStep, PathWord, concat, reduce_word, reverse_word, subword


def rewrite_closure_normal_forms(word: PathWord) -> set[PathWord]:
    """All fully rewritten descendants of `word` under single cancellations.

    Applies one adjacent cancellation at every possible position, recursively,
    and collects the words where no rule fires.  A singleton result on every
    input is exactly confluence of free reduction.
    """
    memo: dict[PathWord, frozenset[PathWord]] = {}

    def descend(w: PathWord) -> frozenset[PathWord]:
        if w in memo:
            return memo[w]
        children = []
        for i in range(len(w.steps) - 1):
            if w.steps[i].cancels(w.steps[i + 1]):
                steps = w.steps[:i] + w.steps[i + 2 :]
                verts = w.vertices[: i + 1] + w.vertices[i + 3 :]
                children.append(PathWord(steps, verts))
        if not children:
            result = frozenset([w])
        else:
            result = frozenset().union(*(descend(c) for c in children))
        memo[w] = result
        return result

    return set(descend(word))


def oracle_reduce(word: PathWord) -> PathWord:
    """Normal form via the exhaustive rewriting closure; asserts confluence."""
    forms = rewrite_closure_normal_forms(word)
    assert len(forms) == 1, f"rewriting of {word.literal()} is not confluent: {forms}"
    return next(iter(forms))


def stepwise_reverse(word: PathWord) -> PathWord:
    """Reversal built one step at a time, independent of reverse_word."""
    steps = []
    verts = [word.vertices[-1]]
    for i in range(len(word.steps) - 1, -1, -1):
        steps.append(word.steps[i].flipped())
        verts.append(word.vertices[i])
    return PathWord(tuple(steps), tuple(verts))


def laplace_det(rows) -> Fraction:
    """Determinant by cofactor expansion along the first row.

    Factorial in the dimension, and independent of the fraction-free
    elimination that decides singularity in `RationalMatrixCtx`.
    """
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    det = Fraction(0)
    for j in range(n):
        minor = tuple(r[:j] + r[j + 1 :] for r in rows[1:])
        term = rows[0][j] * laplace_det(minor)
        det += term if j % 2 == 0 else -term
    return det


def mul_fold(ctx: GroupCtx, factors):
    """factors[0] * ... * factors[-1] as the plain left-to-right `mul` fold
    from the identity; `GroupCtx.product` folds from the last factor, and
    `RationalMatrixCtx.product` multiplies integer matrices instead."""
    acc = ctx.identity()
    for g in factors:
        acc = ctx.mul(acc, g)
    return acc


def schoolbook_mul(a, b):
    """Matrix product entry by entry, summing `Fraction` products; the
    arithmetic `RationalMatrixCtx.mul` replaced with integer accumulation."""
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def gauss_jordan_inv(a):
    """Inverse by Gauss-Jordan elimination over `Fraction`s with every pivot
    row normalized; the arithmetic `RationalMatrixCtx.inv` replaced with
    fraction-free elimination on integers."""
    n = len(a)
    aug = [list(a[i]) + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise DomainMismatch("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return tuple(tuple(aug[i][n:]) for i in range(n))


def scan_out_steps(cx: BaseComplex, vertex: str) -> list[EdgeStep]:
    """All steps leaving `vertex`, ordered by (edge id, forward first).

    Scans every edge and sorts, independent of the incidence index.
    """
    out = []
    for e in cx.edges:
        if e.src == vertex:
            out.append(EdgeStep(e.id, True))
        if e.dst == vertex:
            out.append(EdgeStep(e.id, False))
    out.sort(key=lambda s: (s.edge, not s.forward))
    return out


def scan_build_tree(cx: BaseComplex) -> SpanningTree:
    """The spanning tree `build_tree` must return, by an O(V*E) frontier scan.

    Repeatedly attach the frontier edge minimizing (new vertex id, edge id);
    self-loops never enter the tree.
    """
    visited = {cx.basepoint}
    tree: set[str] = set()
    parent: dict[str, EdgeStep] = {}
    while len(visited) < len(cx.vertices):
        best = None
        for e in cx.edges:
            if e.src == e.dst:
                continue
            if e.src in visited and e.dst not in visited:
                cand = (e.dst, e.id, EdgeStep(e.id, False))  # step dst -> src, toward tree
            elif e.dst in visited and e.src not in visited:
                cand = (e.src, e.id, EdgeStep(e.id, True))
            else:
                continue
            if best is None or (cand[0], cand[1]) < (best[0], best[1]):
                best = cand
        if best is None:
            raise NotConnected("complex is not connected")
        new_vertex, _, step = best
        visited.add(new_vertex)
        tree.add(step.edge)
        parent[new_vertex] = step
    return SpanningTree(cx, frozenset(tree), parent)


def brute_force_conjugator(ctx: GroupCtx, xs, ys):
    """The first element of `ctx.elements()` conjugating every y onto its x
    (g y g^-1 = x), or None; |G| candidates."""
    for g in ctx.elements():
        if all(x == ctx.conjugate(g, y) for x, y in zip(xs, ys)):
            return g
    return None


def adjuster_search_morphism_exists(bc, other) -> bool:
    """Try every fiber adjuster at the basepoint.

    A fiber-adjusting morphism k over the identity satisfies
    k(dst) U1(e) = U2(e) k(src) on every edge, so k(basepoint) determines k
    along a breadth-first search over the edges; then every edge is checked.
    """
    ctx, cx = bc.ctx, bc.complex
    f1, f2 = bc.gauge.labels, other.gauge.labels
    for seed in ctx.elements():
        k = {cx.basepoint: seed}
        grown = True
        while grown:
            grown = False
            for e in cx.edges:
                if e.src in k and e.dst not in k:
                    k[e.dst] = ctx.mul(ctx.mul(f2[e.id], k[e.src]), ctx.inv(f1[e.id]))
                    grown = True
                elif e.dst in k and e.src not in k:
                    k[e.src] = ctx.mul(ctx.mul(ctx.inv(f2[e.id]), k[e.dst]), f1[e.id])
                    grown = True
        if all(ctx.mul(k[e.dst], f1[e.id]) == ctx.mul(f2[e.id], k[e.src]) for e in cx.edges):
            return True
    return False


def bfs_subgroup_closure(ctx: GroupCtx, gens) -> frozenset:
    """The subgroup generated by `gens`: breadth-first search from the
    identity, multiplying every element by every generator and inverse."""
    seed = list(gens) + [ctx.inv(g) for g in gens]
    closure = {ctx.identity()}
    frontier = [ctx.identity()]
    while frontier:
        nxt = []
        for a in frontier:
            for g in seed:
                b = ctx.mul(a, g)
                if b not in closure:
                    closure.add(b)
                    nxt.append(b)
        frontier = nxt
    return frozenset(closure)


def concat_chord_loops(cx: BaseComplex, tree: SpanningTree) -> dict[str, PathWord]:
    """Generating based loops, one per chord: the tree path to the chord's
    tail, the chord forward, the tree path to its head backwards, joined by
    `concat` and freely reduced."""
    loops: dict[str, PathWord] = {}
    for chord in tree.chords():
        e = cx.edge(chord)
        across = cx.word((EdgeStep(chord, True),))
        loop = concat(concat(tree_path(tree, e.src), across), reverse_word(tree_path(tree, e.dst)))
        loops[chord] = reduce_word(loop)
    return loops


def word_hol_morphism_to_bundle(f, src, dst) -> BundleMap:
    """Push a holonomy-compatible base map to a morphism of rebuilt bundles
    by mapping and evaluating words: every chord loop for compatibility, and
    for the adjuster at x the image of the source tree path to x followed by
    the target tree path to f(x) backwards."""
    check_hol_morphism(f, src.complex, dst.complex)
    if src.spec.ctx != dst.spec.ctx:
        raise NonEquivariantSpec("holonomy objects use different groups")
    ctx = src.spec.ctx
    for chord, loop in sorted(concat_chord_loops(src.complex, src.tree).items()):
        expected = src.spec.assignment[chord]
        got = dst.spec.eval(f.on_word(dst.complex, loop))
        if got != expected:
            raise HolonomyIncompatible(
                f"chord {chord!r}: image loop evaluates to "
                f"{ctx.to_literal(got)}, expected {ctx.to_literal(expected)}"
            )
    adjust = {}
    for v in src.complex.vertices:
        image_path = f.on_word(dst.complex, tree_path(src.tree, v))
        back = reduce_word(
            concat(image_path, reverse_word(tree_path(dst.tree, f.vertex_map[v])))
        )
        adjust[v] = dst.spec.eval(back)
    return BundleMap(dict(f.vertex_map), dict(f.edge_map), adjust)


def scratch_anchor_extension(anchor: PathWord, word: PathWord, t0: int) -> list[PathWord]:
    """reduce(anchor ++ subword(word, t0, s)) for every position s of `word`,
    each reduced from scratch: the word part of the universal and associated
    lifts through `anchor` at t0."""
    n = len(word.steps)
    if not 0 <= t0 <= n:
        raise IndexOutOfRange(f"start index {t0} outside word of length {n}")
    if anchor.dst != word.vertex_at(t0):
        raise BaseMismatch(
            f"point over {anchor.dst!r} cannot start a lift at {word.vertex_at(t0)!r}"
        )
    return [reduce_word(concat(anchor, subword(word, t0, s))) for s in range(n + 1)]


def prefix_transport_lift(field: GaugeField, word: PathWord, t0: int, xi: BundlePoint) -> EPath:
    """The horizontal lift through `xi` at t0 from the prefix transports P[s]
    of `word`: the fiber at s is P[s] P[t0]^-1 * xi.fiber."""
    n = len(word.steps)
    if not 0 <= t0 <= n:
        raise IndexOutOfRange(f"start index {t0} outside word of length {n}")
    if xi.base != word.vertex_at(t0):
        raise BaseMismatch(
            f"point over {xi.base!r} cannot start a lift at {word.vertex_at(t0)!r}"
        )
    ctx = field.ctx
    ctx.check(xi.fiber)
    pos = [ctx.identity()]
    for step in word.steps:
        pos.append(ctx.mul(field.step_transport(step), pos[-1]))
    start = ctx.mul(ctx.inv(pos[t0]), xi.fiber)
    return EPath(word, tuple(ctx.mul(pos[s], start) for s in range(n + 1)))
