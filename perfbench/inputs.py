"""Seeded input generators whose answers are fixed at construction.

Nothing here uses `pathgauge.instances`: its random complexes stop at five
vertices, and its non-conjugate pairs are found by enumerating the group.
Group arithmetic for the expected answers is written out below, separately
from the library's group contexts, so a job compares the library against an
independent computation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from pathgauge.complexes import BaseComplex, Edge, SpanningTree
from pathgauge.gauge import GaugeField
from pathgauge.groups import CyclicCtx, HoloSpec, PermutationCtx, RationalMatrixCtx
from pathgauge.reconstruct import bundle_from_holonomy, hol_object
from pathgauge.words import EdgeStep, PathWord


class CyclicArith:
    """Residues mod `order`, stored additively."""

    def __init__(self, order: int):
        self.order = order
        self.ctx = CyclicCtx(order)
        self.identity = 0

    def mul(self, a, b):
        return (a + b) % self.order

    def inv(self, a):
        return (-a) % self.order

    def random(self, rng: random.Random):
        return rng.randrange(self.order)


class PermArith:
    """Permutations of range(degree) as image tuples; `mul(a, b)` applies b first."""

    def __init__(self, degree: int):
        self.degree = degree
        self.ctx = PermutationCtx(degree)
        self.identity = tuple(range(degree))

    def mul(self, a, b):
        return tuple(a[i] for i in b)

    def inv(self, a):
        out = [0] * len(a)
        for i, v in enumerate(a):
            out[v] = i
        return tuple(out)

    def random(self, rng: random.Random):
        p = list(range(self.degree))
        rng.shuffle(p)
        return tuple(p)


def cycle_type(p: tuple) -> tuple:
    """Sorted cycle lengths of a permutation; conjugation preserves it."""
    seen = [False] * len(p)
    lengths = []
    for i in range(len(p)):
        n = 0
        while not seen[i]:
            seen[i] = True
            i = p[i]
            n += 1
        if n:
            lengths.append(n)
    return tuple(sorted(lengths))


class MatrixArith:
    """Invertible dim x dim matrices over the rationals, as tuples of Fraction rows."""

    def __init__(self, dim: int):
        self.dim = dim
        self.ctx = RationalMatrixCtx(dim)
        self.identity = tuple(
            tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim)
        )

    def mul(self, a, b):
        n = self.dim
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
        )

    def inv(self, a):
        n = self.dim
        rows = [list(a[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for col in range(n):
            pivot = next(r for r in range(col, n) if rows[r][col] != 0)
            rows[col], rows[pivot] = rows[pivot], rows[col]
            lead = rows[col][col]
            rows[col] = [v / lead for v in rows[col]]
            for r in range(n):
                if r != col and rows[r][col] != 0:
                    f = rows[r][col]
                    rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
        return tuple(tuple(row[n:]) for row in rows)

    def random(self, rng: random.Random):
        """A product of row operations: small entries, never singular."""
        n = self.dim
        rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for _ in range(n + 1):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        s = rng.randrange(n)
        rows[s] = [x * rng.choice((Fraction(1, 2), Fraction(2), Fraction(-1))) for x in rows[s]]
        rng.shuffle(rows)
        return tuple(tuple(row) for row in rows)


def sparse_complex(rng: random.Random, n_vertices: int, n_chords: int) -> BaseComplex:
    """A connected pointed multigraph: a random recursive tree plus chords.

    E = V - 1 + n_chords.  Ids are zero-padded so that the library's
    lexicographic order is numeric order; edge ids are shuffled so that tree
    edges and chords interleave.
    """
    width = len(str(max(n_vertices - 1, 1)))
    names = [f"v{i:0{width}d}" for i in range(n_vertices)]
    pairs = []
    for i in range(1, n_vertices):
        p = names[rng.randrange(i)]
        pairs.append((p, names[i]) if rng.random() < 0.5 else (names[i], p))
    for _ in range(n_chords):
        pairs.append((names[rng.randrange(n_vertices)], names[rng.randrange(n_vertices)]))
    rng.shuffle(pairs)
    ewidth = len(str(max(len(pairs) - 1, 1)))
    edges = tuple(Edge(f"e{j:0{ewidth}d}", s, d) for j, (s, d) in enumerate(pairs))
    return BaseComplex(tuple(names), edges, names[0])


@dataclass(frozen=True, eq=False)
class KnownField:
    """A gauge field whose chord holonomies and tree transports are known.

    It is the gauge transform by `k` (with k at the basepoint the identity)
    of the field `bundle_from_holonomy` builds from `spec`, whose labels are
    `base`: chords carry their spec value, tree edges the identity.  So the
    holonomy of each chord loop at the identity fiber is `spec[chord]`, and
    transport along the tree path to v is `k[v]`.
    """

    field: GaugeField
    tree: SpanningTree
    spec: dict
    base: dict
    k: dict

    @property
    def complex(self) -> BaseComplex:
        return self.field.complex

    def holospec(self) -> HoloSpec:
        return HoloSpec(self.complex, self.tree, self.field.ctx, dict(self.spec))


def known_field(
    arith, cx: BaseComplex, tree: SpanningTree, spec: dict, rng: random.Random
) -> KnownField:
    built = bundle_from_holonomy(hol_object(HoloSpec(cx, tree, arith.ctx, dict(spec)))).gauge.labels
    base = {e.id: spec.get(e.id, arith.identity) for e in cx.edges}
    k = {v: arith.identity if v == cx.basepoint else arith.random(rng) for v in cx.vertices}
    kinv = {v: arith.inv(g) for v, g in k.items()}
    labels = {e.id: arith.mul(arith.mul(k[e.dst], built[e.id]), kinv[e.src]) for e in cx.edges}
    return KnownField(GaugeField(cx, arith.ctx, labels), tree, dict(spec), base, k)


def random_spec(arith, tree: SpanningTree, rng: random.Random) -> dict:
    return {c: arith.random(rng) for c in tree.chords()}


def conjugated(arith, g, spec: dict) -> dict:
    """The spec H with H(c) = g spec(c) g^-1 on every chord."""
    ginv = arith.inv(g)
    return {c: arith.mul(arith.mul(g, h), ginv) for c, h in spec.items()}


class Walker:
    """Word construction on one complex without calling the library."""

    def __init__(self, cx: BaseComplex, tree: SpanningTree):
        self.cx = cx
        self.tree = tree
        self.heads: dict[str, list[tuple[EdgeStep, str]]] = {v: [] for v in cx.vertices}
        for e in cx.edges:
            self.heads[e.src].append((EdgeStep(e.id, True), e.dst))
            self.heads[e.dst].append((EdgeStep(e.id, False), e.src))

    def random_word(self, rng: random.Random, length: int) -> PathWord:
        v = rng.choice(self.cx.vertices)
        steps, verts = [], [v]
        for _ in range(length):
            step, v = rng.choice(self.heads[v])
            steps.append(step)
            verts.append(v)
        return PathWord(tuple(steps), tuple(verts))

    def tree_word(self, vertex: str) -> PathWord:
        """Tree path from the basepoint to `vertex`, from the parent map."""
        down, verts = [], [vertex]
        v = vertex
        while v != self.cx.basepoint:
            step = self.tree.parent[v]
            e = self.cx.edge(step.edge)
            v = e.dst if step.forward else e.src
            down.append(step)
            verts.append(v)
        steps = tuple(EdgeStep(s.edge, not s.forward) for s in reversed(down))
        return PathWord(steps, tuple(reversed(verts)))

    def chord_loop(self, chord: str, forward: bool) -> PathWord:
        """Basepoint -> tail, across the chord, head -> basepoint; reversed if not forward."""
        e = self.cx.edge(chord)
        to_src, to_dst = self.tree_word(e.src), self.tree_word(e.dst)
        back = reverse(to_dst)
        steps = to_src.steps + (EdgeStep(chord, True),) + back.steps
        verts = to_src.vertices + back.vertices
        loop = PathWord(steps, verts)
        return loop if forward else reverse(loop)


def reverse(w: PathWord) -> PathWord:
    return PathWord(
        tuple(EdgeStep(s.edge, not s.forward) for s in reversed(w.steps)),
        tuple(reversed(w.vertices)),
    )


def join(*words: PathWord) -> PathWord:
    steps, verts = (), words[0].vertices[:1]
    for w in words:
        if w.vertices[0] != verts[-1]:
            raise ValueError("words do not chain")
        steps += w.steps
        verts += w.vertices[1:]
    return PathWord(steps, verts)


def expected_transport(arith, kf: KnownField, word: PathWord):
    """k[end] * (base transport along word) * k[start]^-1, later steps on the left."""
    acc = arith.identity
    for s in word.steps:
        g = kf.base[s.edge]
        acc = arith.mul(g if s.forward else arith.inv(g), acc)
    return arith.mul(arith.mul(kf.k[word.vertices[-1]], acc), arith.inv(kf.k[word.vertices[0]]))
