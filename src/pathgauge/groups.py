"""Exact structure groups and chord-presented holonomy homomorphisms.

Three element kinds, all with decidable equality: residues mod n,
permutations of a finite set, and invertible matrices over exact rationals.
The interface is uniformly multiplicative; products are written so that in
`mul(a, b)` the right factor acts first, matching how transports compose
along concatenated paths.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Any, Iterable, Sequence

from .errors import BaseMismatch, DomainMismatch, InfiniteContext, ParseError, UnknownEdge
from .words import PathWord

GroupElement = Any  # int | tuple[int, ...] | tuple[tuple[Fraction, ...], ...]


class GroupCtx:
    """Abstract exact group: multiplication, inversion, identity, equality.

    `check` is the one membership test, and it runs where an element enters
    the library: `from_literal`, `RationalMatrixCtx.matrix`, the gauge field
    and holonomy spec constructors, marked points, conjugators, morphism
    adjusters, closure generators, the fiber factors of `act_fibers` and the
    points given to `bundle_morphism_apply`.  `mul`, `inv`, `product`,
    `to_literal` and `conjugator` assume members and only compute.
    """

    kind: str = ""

    def check(self, a: GroupElement) -> GroupElement:
        raise NotImplementedError

    def identity(self) -> GroupElement:
        raise NotImplementedError

    def mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        """Product where `b` acts first."""
        raise NotImplementedError

    def inv(self, a: GroupElement) -> GroupElement:
        raise NotImplementedError

    def product(self, factors: Sequence[GroupElement]) -> GroupElement:
        """factors[0] * ... * factors[-1], the last factor acting first, as in
        `mul`; the identity only for no factors.  Folds `mul` from the last
        factor, so no identity is multiplied in."""
        if not factors:
            return self.identity()
        rest = reversed(factors)
        acc = next(rest)
        for g in rest:
            acc = self.mul(g, acc)
        return acc

    def conjugate(self, g: GroupElement, h: GroupElement) -> GroupElement:
        """g h g^-1."""
        return self.product([g, h, self.inv(g)])

    def conjugator(
        self, xs: Sequence[GroupElement], ys: Sequence[GroupElement]
    ) -> GroupElement | None:
        """The least g in `elements()` order with g y g^-1 = x for every pair
        (x, y) of `xs` and `ys`, or None; members are assumed."""
        raise InfiniteContext("conjugator search requires a finite context")

    @property
    def is_finite(self) -> bool:
        return False

    def elements(self) -> list[GroupElement]:
        raise InfiniteContext(f"{self.kind} context has no element enumeration")

    def generators(self) -> list[GroupElement]:
        raise InfiniteContext(f"{self.kind} context has no canonical generators")

    def to_literal(self, a: GroupElement) -> str:
        raise NotImplementedError

    def from_literal(self, value) -> GroupElement:
        raise NotImplementedError

    def spec(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class CyclicCtx(GroupCtx):
    """Integers mod `order`; written multiplicatively, stored additively."""

    order: int
    kind = "cyclic"

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ParseError(f"cyclic order must be >= 1, got {self.order}")

    def check(self, a):
        if type(a) is not int or not 0 <= a < self.order:
            raise DomainMismatch(f"{a!r} is not a residue mod {self.order}")
        return a

    def identity(self):
        return 0

    def mul(self, a, b):
        return (self.check(a) + self.check(b)) % self.order

    def inv(self, a):
        return (-self.check(a)) % self.order

    def conjugator(self, xs, ys):
        # Abelian: conjugation fixes everything, so only equality counts.
        pairs = list(zip(xs, ys, strict=True))
        return 0 if all(x == y for x, y in pairs) else None

    @property
    def is_finite(self):
        return True

    def elements(self):
        return list(range(self.order))

    def generators(self):
        return [1 % self.order]

    def to_literal(self, a):
        return str(self.check(a))

    def from_literal(self, value):
        # int() would truncate floats and accept bools, so only ints and
        # integer strings get through.
        if type(value) not in (int, str):
            raise ParseError(f"bad cyclic element literal {value!r}")
        try:
            return self.check(int(value))
        except ValueError as exc:
            raise ParseError(f"bad cyclic element literal {value!r}") from exc

    def spec(self):
        return {"type": "cyclic", "order": self.order}


@dataclass(frozen=True)
class PermutationCtx(GroupCtx):
    """Permutations of {1..degree}, stored as 0-based image tuples.

    `mul(a, b)` composes as functions with b applied first, so worked
    example: mul((12), (123)) sends 1->1, 2->3, 3->2, i.e. equals (23).
    Literals are 1-based one-line images: (12) of degree 3 is `[2,1,3]`.
    """

    degree: int
    kind = "permutation"

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ParseError(f"permutation degree must be >= 1, got {self.degree}")

    def check(self, a):
        # sorted() alone would accept 1.0 and True, which equal 1.
        if (
            not isinstance(a, tuple)
            or len(a) != self.degree
            or set(map(type, a)) != {int}
            or sorted(a) != list(range(self.degree))
        ):
            raise DomainMismatch(f"{a!r} is not a permutation of degree {self.degree}")
        return a

    def identity(self):
        return tuple(range(self.degree))

    def mul(self, a, b):
        return tuple(a[i] for i in b)

    def inv(self, a):
        out = [0] * self.degree
        for i, v in enumerate(a):
            out[v] = i
        return tuple(out)

    def conjugator(self, xs, ys):
        """Simultaneous conjugacy as an isomorphism of edge-coloured
        functional graphs, in O(degree^2 * len(xs)).

        g y g^-1 = x reads g(y(i)) = x(g(i)), so pinning g at one point fixes
        it on that point's orbit under the ys.  The smallest unassigned point
        p tries its untaken images q in increasing order; each is propagated
        through the orbit and rejected on a conflict or when two points meet
        one image.  A consistent orbit map is an isomorphism onto the whole
        orbit of q under the xs, which is disjoint from the images already
        taken, and any solution can be changed to agree with it, so
        committing the first one never loses a solution.  Images are tried
        smallest first, so the result is the lexicographically least
        conjugator, which is the first in `elements()` order (Seress,
        Permutation Group Algorithms, 2003, ch. 3).
        """
        pairs = list(zip(xs, ys, strict=True))
        g: list[int | None] = [None] * self.degree
        taken = [False] * self.degree

        def pin(p: int, q: int) -> dict[int, int] | None:
            image = {p: q}
            new = {q}
            stack = [p]
            while stack:
                i = stack.pop()
                j = image[i]
                for x, y in pairs:
                    a, b = y[i], x[j]
                    if a in image:
                        if image[a] != b:
                            return None
                    elif b in new:
                        return None
                    else:
                        image[a] = b
                        new.add(b)
                        stack.append(a)
            return image

        for p in range(self.degree):
            if g[p] is not None:
                continue
            for q in range(self.degree):
                orbit = None if taken[q] else pin(p, q)
                if orbit is not None:
                    break
            else:
                return None
            for i, j in orbit.items():
                g[i] = j
                taken[j] = True
        return tuple(g)

    @property
    def is_finite(self):
        return True

    def elements(self):
        return [p for p in itertools.permutations(range(self.degree))]

    def generators(self):
        if self.degree == 1:
            return [self.identity()]
        swap = list(range(self.degree))
        swap[0], swap[1] = swap[1], swap[0]
        cycle = list(range(1, self.degree)) + [0]
        gens = [tuple(swap)]
        if self.degree > 2:
            gens.append(tuple(cycle))
        return gens

    def to_literal(self, a):
        return "[" + ",".join(str(v + 1) for v in a) + "]"

    def from_literal(self, value):
        if isinstance(value, str):
            try:
                value = json.loads(value)
            except json.JSONDecodeError as exc:
                raise ParseError(f"bad permutation literal {value!r}") from exc
        if not isinstance(value, list) or any(type(v) is not int for v in value):
            raise ParseError(f"bad permutation literal {value!r}")
        try:
            return self.check(tuple(v - 1 for v in value))
        except DomainMismatch as exc:
            raise ParseError(f"bad permutation literal {value!r}") from exc

    def spec(self):
        return {"type": "permutation", "degree": self.degree}


@dataclass(frozen=True)
class RationalMatrixCtx(GroupCtx):
    """Invertible dim x dim matrices with exact rational entries, stored as
    tuples of `Fraction` rows and computed on integers in O(dim^3): `mul`
    scales rows of `a` and columns of `b` to integers, `inv` runs
    fraction-free Gauss-Jordan (Bareiss, Math. Comp. 22, 1968) on the scaled
    rows, `product` multiplies whole factors scaled to integers, and each
    builds one `Fraction` per entry.  `check` decides singularity through
    `inv`."""

    dim: int
    kind = "rational_matrix"
    _identity: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ParseError(f"matrix dimension must be >= 1, got {self.dim}")
        n = self.dim
        rows = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
        object.__setattr__(self, "_identity", rows)

    def matrix(self, rows: Iterable[Iterable]) -> GroupElement:
        """Coerce nested ints/strings/Fractions into a checked element."""
        out = tuple(tuple(Fraction(v) for v in row) for row in rows)
        return self.check(out)

    def check(self, a):
        if (
            not isinstance(a, tuple)
            or len(a) != self.dim
            or any(len(r) != self.dim for r in a)
            or any(not isinstance(v, Fraction) for r in a for v in r)
        ):
            raise DomainMismatch(f"{a!r} is not a {self.dim}x{self.dim} rational matrix")
        self.inv(a)  # raises on a singular matrix
        return a

    def identity(self):
        return self._identity

    def mul(self, a, b):
        cols = [_integer_row(c) for c in zip(*b)]
        return tuple(
            tuple(Fraction(sum(map(operator.mul, ra, cb)), da * db) for cb, db in cols)
            for ra, da in map(_integer_row, a)
        )

    def product(self, factors):
        """Each factor scaled once to integers over one denominator; after
        each step one gcd of all entries and the denominator is divided out,
        so the integers stay near the size of the reduced value."""
        if len(factors) < 2:
            return factors[0] if factors else self._identity
        rest = reversed(factors)
        rows, den = _integer_matrix(next(rest))
        cols = list(zip(*rows))
        for a in rest:
            rows, d = _integer_matrix(a)
            cols = [[sum(map(operator.mul, r, c)) for r in rows] for c in cols]
            den *= d
            g = gcd(den, *itertools.chain.from_iterable(cols))
            if g > 1:
                cols = [[x // g for x in c] for c in cols]
                den //= g
        return tuple(tuple(Fraction(x, den) for x in row) for row in zip(*cols))

    def inv(self, a):
        n = self.dim
        rows, dens = zip(*map(_integer_row, a))
        # Row i of [M | I] keeps only the columns from k on, each divided
        # exactly by the previous pivot; after n steps it is pivot * M^-1.
        aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
        prev = 1
        for k in range(n):
            pivot = next((r for r in range(k, n) if aug[r][0]), None)
            if pivot is None:
                raise DomainMismatch("matrix is singular")
            aug[k], aug[pivot] = aug[pivot], aug[k]
            p, rest = aug[k][0], aug[k][1:]
            for i, row in enumerate(aug):
                if i != k:
                    f = row[0]
                    aug[i] = [(p * x - f * y) // prev for x, y in zip(row[1:], rest)]
            aug[k] = rest
            prev = p
        # M = diag(d) a, so a^-1 = M^-1 diag(d): column j is scaled by d_j.
        return tuple(tuple(Fraction(x * d, prev) for x, d in zip(row, dens)) for row in aug)

    def to_literal(self, a):
        return json.dumps([[str(v) for v in row] for row in a])

    def from_literal(self, value):
        if isinstance(value, str):
            try:
                value = json.loads(value)
            except json.JSONDecodeError as exc:
                raise ParseError(f"bad matrix literal {value!r}") from exc
        if not isinstance(value, list):
            raise ParseError(f"bad matrix literal {value!r}")
        try:
            return self.matrix(value)
        except (TypeError, ValueError, ZeroDivisionError, DomainMismatch) as exc:
            raise ParseError(f"bad matrix literal {value!r}") from exc

    def spec(self):
        return {"type": "rational_matrix", "dim": self.dim}


def _integer_row(row: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers n and one positive d with row[k] == n[k] / d."""
    ratios = [v.as_integer_ratio() for v in row]
    d = lcm(*(q for _, q in ratios))
    return [p * (d // q) for p, q in ratios], d


def _integer_matrix(a: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Integer rows n and one positive d with a[i][k] == n[i][k] / d."""
    flat, d = _integer_row([v for row in a for v in row])
    k = len(a)
    return [flat[i : i + k] for i in range(0, k * k, k)], d


def ctx_from_spec(spec: dict) -> GroupCtx:
    if not isinstance(spec, dict) or "type" not in spec:
        raise ParseError(f"group spec must be an object with a 'type' field, got {spec!r}")
    kind = spec["type"]
    for cls, name in ((CyclicCtx, "order"), (PermutationCtx, "degree"), (RationalMatrixCtx, "dim")):
        if kind == cls.kind:
            # int() would truncate floats and accept bools and strings.
            size = spec.get(name)
            if type(size) is not int:
                raise ParseError(f"group spec field {name!r} must be an integer, got {size!r}")
            return cls(size)
    raise ParseError(f"unknown group type {kind!r}")


def subgroup_closure(ctx: GroupCtx, gens: Iterable[GroupElement]) -> frozenset:
    """The subgroup generated by `gens`, as an explicit set (finite contexts).

    Grown one generator at a time, skipping generators already inside.  The
    closure so far is closed under the earlier generators, so only its
    products with the new one and the products of new elements with every
    generator can leave it.  In a finite group that right-multiplication
    closure is already the subgroup, so inverses are not needed, and the
    work is about |H| times the number of generators that enlarge it.
    """
    if not ctx.is_finite:
        raise InfiniteContext(f"cannot enumerate a subgroup of a {ctx.kind} context")
    gens = [ctx.check(g) for g in gens]
    closure = {ctx.identity()}
    useful: list[GroupElement] = []
    for g in gens:
        if g in closure:
            continue
        useful.append(g)
        frontier = []
        for a in list(closure):
            b = ctx.mul(a, g)
            if b not in closure:
                closure.add(b)
                frontier.append(b)
        while frontier:
            a = frontier.pop()
            for h in useful:
                b = ctx.mul(a, h)
                if b not in closure:
                    closure.add(b)
                    frontier.append(b)
    return frozenset(closure)


@dataclass(frozen=True)
class HoloSpec:
    """A homomorphism from based loops into a group, given on chord loops.

    Based loops are free on the chords of a spanning tree, so one element per
    chord determines the whole homomorphism: scanning a loop word, tree steps
    contribute the identity, a forward chord step its assigned element, a
    reverse chord step the inverse, later steps multiplying on the left.
    """

    complex: Any
    tree: Any
    ctx: GroupCtx
    assignment: dict[str, GroupElement]

    def __post_init__(self) -> None:
        chords = set(self.tree.chords())
        for chord in sorted(chords - set(self.assignment)):
            raise ParseError(f"chord {chord!r} has no assignment")
        for extra in sorted(set(self.assignment) - chords):
            raise ParseError(f"assignment for {extra!r}, which is not a chord")
        for chord, el in self.assignment.items():
            try:
                self.ctx.check(el)
            except DomainMismatch as exc:
                raise ParseError(f"chord {chord!r}: {exc}") from exc

    def label(self, edge_id: str) -> GroupElement:
        if not self.complex.has_edge(edge_id):
            raise UnknownEdge(f"edge {edge_id!r} not in complex")
        if edge_id in self.tree.tree_edges:
            return self.ctx.identity()
        return self.assignment[edge_id]

    def eval(self, word: PathWord) -> GroupElement:
        """Value on a word out of the basepoint, closed up along the tree path
        of its endpoint (tree steps add nothing), so on based loops it is the
        homomorphism.  Depends only on the retrace class."""
        bp = self.complex.basepoint
        if word.src != bp:
            raise BaseMismatch(
                f"loop from {word.src!r} to {word.dst!r} is not based at {bp!r}"
            )
        factors = []
        for step in word.steps:
            if step.edge in self.assignment:
                g = self.assignment[step.edge]
                factors.append(g if step.forward else self.ctx.inv(g))
            else:
                self.label(step.edge)  # a tree step adds nothing; off the complex it raises
        return self.ctx.product(factors[::-1])
