"""The bundle of based paths, its universal connection, and associated bundles.

Points of the based-path bundle are reduced words starting at the basepoint;
the projection sends a word to its endpoint.  Based loops act on the right by
precomposition (loop first, then the word), freely and transitively on each
fiber.  The universal connection straightens a path of such points: its
horizontal projection at index r keeps the point at r and extends it by the
traversed base segment.

Given a homomorphism from based loops into a group G, the associated bundle
glues a G fiber onto the path bundle by the twisted action
(w, g) ~ (w after gamma, H(gamma)^-1 g).  Each class has a unique canonical
representative over the spanning-tree path of its endpoint, which gives
decidable equality on the quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BaseMismatch, EndpointMismatch, IndexOutOfRange
from .groups import GroupCtx, GroupElement, HoloSpec
from .words import PathWord, concat, extend_reduced, reduce_word, reverse_word, walk_out, word_along_walk

Walk = tuple[int, ...] | list[int]


@dataclass(frozen=True)
class FPoint:
    """A based-path class: a reduced word out of the basepoint."""

    word: PathWord

    def __post_init__(self) -> None:
        if not self.word.is_reduced():
            raise ValueError(f"point word {self.word.literal()!r} is not reduced")

    @property
    def target(self) -> str:
        return self.word.dst


def fpoint(word: PathWord) -> FPoint:
    return FPoint(reduce_word(word))


def omega_action(p: FPoint, gamma: PathWord) -> FPoint:
    """Right action of a based loop: traverse `gamma` first, then the word."""
    if not gamma.is_loop() or gamma.src != p.word.src:
        raise EndpointMismatch(
            f"action needs a loop at {p.word.src!r}, got {gamma.src!r}->{gamma.dst!r}"
        )
    return FPoint(reduce_word(concat(gamma, p.word)))


def connecting_loop(p: FPoint, q: FPoint) -> PathWord:
    """The unique based loop carrying p to q; requires equal targets."""
    if p.target != q.target:
        raise BaseMismatch(f"points over {p.target!r} and {q.target!r} share no fiber")
    return reduce_word(concat(q.word, reverse_word(p.word)))


@dataclass(frozen=True)
class FPath:
    """A path of based-path classes over a base word, one point per position."""

    word: PathWord
    points: tuple[FPoint, ...]

    def __post_init__(self) -> None:
        if len(self.points) != len(self.word.steps) + 1:
            raise ValueError(
                f"need {len(self.word.steps) + 1} points, got {len(self.points)}"
            )
        for i, p in enumerate(self.points):
            if p.target != self.word.vertex_at(i):
                raise BaseMismatch(
                    f"point {i} targets {p.target!r}, base word visits {self.word.vertex_at(i)!r}"
                )


def _check_index(r: int, n: int) -> None:
    if not 0 <= r <= n:
        raise IndexOutOfRange(f"index {r} outside path of length {n}")


def universal_connection(path: FPath, r: int) -> FPath:
    """Horizontal projection at index r: keep the point at r, extend it by the
    base segment to every other index (reversed segment when moving left)."""
    _check_index(r, len(path.word.steps))
    return universal_lift(path.word, r, path.points[r])


def universal_lift(word: PathWord, t0: int, start: FPoint) -> FPath:
    """The horizontal path over `word` through `start` at index t0."""
    words = walk_out(word, t0, start.target, lambda: start.word, extend_reduced)
    return FPath(word, tuple(map(FPoint, words)))


def is_universally_horizontal(path: FPath) -> bool:
    return universal_connection(path, 0) == path


def act_points(path: FPath, loops: tuple[PathWord, ...]) -> FPath:
    """Pointwise right action of a loop-valued sequence."""
    if len(loops) != len(path.points):
        raise ValueError(f"need {len(path.points)} loops, got {len(loops)}")
    return FPath(path.word, tuple(omega_action(p, g) for p, g in zip(path.points, loops)))


def fpath_along_walk(path: FPath, walk: Walk) -> FPath:
    word = word_along_walk(path.word, walk)
    return FPath(word, tuple(path.points[p] for p in walk))


@dataclass(frozen=True)
class AssociatedPoint:
    """A representative (word, g) of a class in the associated bundle."""

    word: PathWord
    g: GroupElement

    @property
    def base(self) -> str:
        return self.word.dst


def act_associated(ctx: GroupCtx, ap: AssociatedPoint, h: GroupElement) -> AssociatedPoint:
    """Right G-action on the associated bundle: multiply the fiber factor."""
    return AssociatedPoint(ap.word, ctx.mul(ap.g, h))


def twist(spec: HoloSpec, ap: AssociatedPoint, gamma: PathWord) -> AssociatedPoint:
    """The twisted loop action whose orbits are the associated-bundle classes."""
    new_word = reduce_word(concat(gamma, ap.word))
    return AssociatedPoint(new_word, spec.ctx.mul(spec.ctx.inv(spec.eval(gamma)), ap.g))


def canonicalize(ap: AssociatedPoint, spec: HoloSpec) -> tuple[str, GroupElement]:
    """Unique normal form (endpoint vertex, adjusted element) of a class.

    The word is slid onto the tree path of its endpoint; the leftover based
    loop is absorbed into the fiber through the homomorphism, which
    `HoloSpec.eval` reads off the word itself.  Two representatives denote
    the same class iff their canonical pairs are equal.
    """
    return ap.word.dst, spec.ctx.mul(spec.eval(ap.word), ap.g)


def assoc_eq(a: AssociatedPoint, b: AssociatedPoint, spec: HoloSpec) -> bool:
    return canonicalize(a, spec) == canonicalize(b, spec)


@dataclass(frozen=True)
class AssocPath:
    """A path in the associated bundle, one representative per position."""

    word: PathWord
    points: tuple[AssociatedPoint, ...]

    def __post_init__(self) -> None:
        if len(self.points) != len(self.word.steps) + 1:
            raise ValueError(
                f"need {len(self.word.steps) + 1} points, got {len(self.points)}"
            )
        for i, p in enumerate(self.points):
            if p.base != self.word.vertex_at(i):
                raise BaseMismatch(
                    f"point {i} sits over {p.base!r}, base word visits {self.word.vertex_at(i)!r}"
                )


def associated_connection(path: AssocPath, r: int) -> AssocPath:
    """Horizontal projection of an associated path at index r.

    Word parts are projected exactly as the universal connection does; the
    fiber factor at r replaces every other fiber factor.  The output class at
    each position is independent of which representatives the input carried.
    """
    _check_index(r, len(path.word.steps))
    return associated_lift(path.word, r, path.points[r])


def associated_lift(word: PathWord, t0: int, start: AssociatedPoint) -> AssocPath:
    """Horizontal path in the associated bundle: the word part lifts as in
    `universal_lift`, from the reduced start word; the fiber factor rides along."""
    words = walk_out(word, t0, start.base, lambda: reduce_word(start.word), extend_reduced)
    return AssocPath(word, tuple(AssociatedPoint(w, start.g) for w in words))


def assocpath_along_walk(path: AssocPath, walk: Walk) -> AssocPath:
    word = word_along_walk(path.word, walk)
    return AssocPath(word, tuple(path.points[p] for p in walk))


def act_assoc_fibers(ctx: GroupCtx, path: AssocPath, rho: tuple[GroupElement, ...]) -> AssocPath:
    if len(rho) != len(path.points):
        raise ValueError(f"need {len(path.points)} fiber factors, got {len(rho)}")
    return AssocPath(
        path.word,
        tuple(act_associated(ctx, p, h) for p, h in zip(path.points, rho)),
    )
