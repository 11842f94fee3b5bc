"""Exact path algebra on a directed multigraph: edge words and free reduction.

A path is stored as the ordered run of directed edge traversals it makes,
together with the vertex visited at each position.  Two traversals of the
same edge sequence are equal by construction, so parameterization carries no
information here.  Retracing (an immediate out-and-back over a single edge)
never changes the class of a path; `reduce_word` deletes such pairs until
none remain.  Free reduction is confluent, so the result is a canonical
normal form no matter which cancellation fires first.

Words are *not* auto-reduced by constructors or by `concat`; reduction is
always an explicit step.  This keeps concatenation associative on the nose
and lets callers distinguish a representative from its class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import BaseMismatch, EndpointMismatch, IndexOutOfRange


@dataclass(frozen=True)
class EdgeStep:
    """One directed traversal of an edge: forward (tail to head) or reverse."""

    edge: str
    forward: bool = True

    def flipped(self) -> EdgeStep:
        return EdgeStep(self.edge, not self.forward)

    def cancels(self, other: EdgeStep) -> bool:
        """True when `other` immediately undoes this step."""
        return self.edge == other.edge and self.forward != other.forward

    def __str__(self) -> str:
        return self.edge if self.forward else "~" + self.edge


def parse_step(text: str) -> EdgeStep:
    text = text.strip()
    if text.startswith("~"):
        return EdgeStep(text[1:].strip(), forward=False)
    return EdgeStep(text, forward=True)


@dataclass(frozen=True)
class PathWord:
    """A path: `steps` plus the vertex at each of the len(steps)+1 positions.

    The vertex sequence is redundant given an ambient complex but carrying it
    makes every word self-contained: sub-words, reversals and reductions all
    know their endpoints without a graph lookup.
    """

    steps: tuple[EdgeStep, ...]
    vertices: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) != len(self.steps) + 1:
            raise ValueError(
                f"word needs {len(self.steps) + 1} vertex positions, got {len(self.vertices)}"
            )

    @property
    def src(self) -> str:
        return self.vertices[0]

    @property
    def dst(self) -> str:
        return self.vertices[-1]

    def __len__(self) -> int:
        return len(self.steps)

    def vertex_at(self, i: int) -> str:
        if not 0 <= i <= len(self.steps):
            raise IndexOutOfRange(f"position {i} outside word of length {len(self.steps)}")
        return self.vertices[i]

    def is_loop(self) -> bool:
        return self.src == self.dst

    def is_reduced(self) -> bool:
        return all(
            not self.steps[i].cancels(self.steps[i + 1]) for i in range(len(self.steps) - 1)
        )

    def literal(self) -> str:
        """Round-trippable text form: `b,~a`, or `@v` for the empty word at v."""
        if not self.steps:
            return "@" + self.src
        return ",".join(str(s) for s in self.steps)

    def __str__(self) -> str:
        return self.literal()


def empty_word(vertex: str) -> PathWord:
    """The constant path at `vertex`; the only length-0 word there."""
    return PathWord((), (vertex,))


def reduce_word(w: PathWord) -> PathWord:
    """Normal form of the retrace class of `w`.

    Single left-to-right stack pass: push each step, pop when the incoming
    step undoes the top.  Linear time; confluence makes the outcome
    independent of cancellation order.
    """
    steps: list[EdgeStep] = []
    verts: list[str] = [w.vertices[0]]
    for i, step in enumerate(w.steps):
        if steps and steps[-1].cancels(step):
            steps.pop()
            verts.pop()
        else:
            steps.append(step)
            verts.append(w.vertices[i + 1])
    return PathWord(tuple(steps), tuple(verts))


def concat(first: PathWord, second: PathWord) -> PathWord:
    """Traverse `first`, then `second`.  Not auto-reduced."""
    if second.src != first.dst:
        raise EndpointMismatch(
            f"cannot append word starting at {second.src!r} after word ending at {first.dst!r}"
        )
    return PathWord(first.steps + second.steps, first.vertices + second.vertices[1:])


def reverse_word(w: PathWord) -> PathWord:
    """Same traversal backwards: steps reversed and flipped, endpoints swapped."""
    return PathWord(
        tuple(s.flipped() for s in reversed(w.steps)),
        tuple(reversed(w.vertices)),
    )


def subword(w: PathWord, r: int, s: int) -> PathWord:
    """The part of `w` between positions r and s, reversed when s < r.

    `subword(w, r, r)` is the empty word at position r.
    """
    n = len(w.steps)
    if not (0 <= r <= n and 0 <= s <= n):
        raise IndexOutOfRange(f"positions ({r}, {s}) outside word of length {n}")
    if s >= r:
        return PathWord(w.steps[r:s], w.vertices[r : s + 1])
    return reverse_word(PathWord(w.steps[s:r], w.vertices[s : r + 1]))


def extend_reduced(w: PathWord, step: EdgeStep, vertex: str) -> PathWord:
    """One step of the `reduce_word` stack pass: `w` followed by `step`
    (arriving at `vertex`), freely reduced when `w` is."""
    if w.steps and w.steps[-1].cancels(step):
        return PathWord(w.steps[:-1], w.vertices[:-1])
    return PathWord(w.steps + (step,), w.vertices + (vertex,))


def walk_out(word: PathWord, t0: int, base: str, start: Callable, cross: Callable) -> list:
    """Values at every position of `word`, carried out from position t0: the
    value at t0 is `start()`, called once t0 and `base` (the vertex there)
    have passed their checks; each other value is `cross(value, step, vertex)`
    of its neighbour towards t0, forward to the end of the word and with
    flipped steps back to position 0, `vertex` being where the step arrives."""
    n = len(word.steps)
    if not 0 <= t0 <= n:
        raise IndexOutOfRange(f"start index {t0} outside word of length {n}")
    if base != word.vertices[t0]:
        raise BaseMismatch(f"point over {base!r} cannot start a lift at {word.vertices[t0]!r}")
    out = [start()] * (n + 1)
    for s in range(t0, n):
        out[s + 1] = cross(out[s], word.steps[s], word.vertices[s + 1])
    for s in range(t0 - 1, -1, -1):
        out[s] = cross(out[s + 1], word.steps[s].flipped(), word.vertices[s])
    return out


def word_along_walk(w: PathWord, walk: tuple[int, ...] | list[int]) -> PathWord:
    """Re-traverse `w` following an index walk with unit steps.

    `walk` is a sequence of positions of `w` where consecutive entries differ
    by exactly 1; each pair contributes the connecting step, reversed when the
    walk moves backwards.  Monotone walks are restrictions and reversals; a
    backtracking walk re-traverses parts of the word and inserts retraces.
    """
    n = len(w.steps)
    if not walk:
        raise IndexOutOfRange("walk needs at least one position")
    for p in walk:
        if not 0 <= p <= n:
            raise IndexOutOfRange(f"walk position {p} outside word of length {n}")
    steps: list[EdgeStep] = []
    verts: list[str] = [w.vertices[walk[0]]]
    for prev, cur in zip(walk, walk[1:]):
        if abs(cur - prev) != 1:
            raise IndexOutOfRange(f"walk jumps from {prev} to {cur}; unit steps only")
        base = w.steps[min(prev, cur)]
        steps.append(base if cur > prev else base.flipped())
        verts.append(w.vertices[cur])
    return PathWord(tuple(steps), tuple(verts))


# Loop algebra.  A loop is a word with src == dst; the operations below form a
# group on reduced loops at a fixed base vertex.


def loop_id(vertex: str) -> PathWord:
    return empty_word(vertex)


def _require_loop(w: PathWord) -> None:
    if not w.is_loop():
        raise EndpointMismatch(f"word from {w.src!r} to {w.dst!r} is not a loop")


def loop_mul(gamma: PathWord, sigma: PathWord) -> PathWord:
    """Product of based loops: traverse `sigma` first, then `gamma`."""
    _require_loop(gamma)
    _require_loop(sigma)
    if gamma.src != sigma.src:
        raise EndpointMismatch(
            f"loops based at {gamma.src!r} and {sigma.src!r} cannot be multiplied"
        )
    return reduce_word(concat(sigma, gamma))


def loop_inv(gamma: PathWord) -> PathWord:
    _require_loop(gamma)
    return reduce_word(reverse_word(gamma))
