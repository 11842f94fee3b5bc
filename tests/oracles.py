"""Independent oracles the tests check the fast implementations against.

Each oracle is deliberately naive: exhaustive rewriting instead of a stack
pass, brute-force orbit enumeration instead of canonical forms, literal
search over all fiber-adjustment maps instead of tree propagation.  They
share no code path with what they verify.
"""

from __future__ import annotations

from fractions import Fraction

from pathgauge.words import PathWord


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

    Factorial in the dimension, and independent of the Gauss-Jordan
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
