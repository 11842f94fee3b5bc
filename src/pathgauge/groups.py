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
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable

from .errors import BaseMismatch, DomainMismatch, InfiniteContext, ParseError, UnknownEdge
from .words import PathWord

GroupElement = Any  # int | tuple[int, ...] | tuple[tuple[Fraction, ...], ...]


class GroupCtx:
    """Abstract exact group: multiplication, inversion, identity, equality.

    `check` is the one membership test, and it runs where an element enters
    the library: `from_literal`, `RationalMatrixCtx.matrix`, the gauge field
    and holonomy spec constructors, marked points, conjugators, morphism
    adjusters and closure generators.  `mul`, `inv` and `to_literal` assume
    members and only compute.
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

    def conjugate(self, g: GroupElement, h: GroupElement) -> GroupElement:
        """g h g^-1."""
        return self.mul(self.mul(g, h), self.inv(g))

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
        if (
            not isinstance(a, tuple)
            or len(a) != self.degree
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
    """Invertible dim x dim matrices with exact rational entries."""

    dim: int
    kind = "rational_matrix"

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ParseError(f"matrix dimension must be >= 1, got {self.dim}")

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
        return tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(self.dim)) for i in range(self.dim)
        )

    def mul(self, a, b):
        n = self.dim
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
        )

    def inv(self, a):
        n = self.dim
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
    """The subgroup generated by `gens`, as an explicit set (finite contexts)."""
    if not ctx.is_finite:
        raise InfiniteContext(f"cannot enumerate a subgroup of a {ctx.kind} context")
    gens = [ctx.check(g) for g in gens]
    seed = gens + [ctx.inv(g) for g in gens]
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

    def eval(self, loop: PathWord) -> GroupElement:
        """Value on a based loop; depends only on the retrace class."""
        bp = self.complex.basepoint
        if loop.src != bp or loop.dst != bp:
            raise BaseMismatch(
                f"loop from {loop.src!r} to {loop.dst!r} is not based at {bp!r}"
            )
        acc = self.ctx.identity()
        for step in loop.steps:
            g = self.label(step.edge)
            if not step.forward:
                g = self.ctx.inv(g)
            acc = self.ctx.mul(g, acc)
        return acc
