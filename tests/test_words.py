import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathgauge.complexes import enumerate_reduced_loops, enumerate_words
from pathgauge.errors import EndpointMismatch, IndexOutOfRange
from pathgauge.words import (
    concat,
    empty_word,
    loop_id,
    loop_inv,
    loop_mul,
    reduce_word,
    reverse_word,
    subword,
    word_along_walk,
)

from .oracles import oracle_reduce, stepwise_reverse


def steps_of(cx, literal):
    return cx.word_from_literal(literal)


class TestReduce:
    def test_immediate_cancellation(self, theta):
        w = steps_of(theta, "a,~a")
        assert reduce_word(w) == empty_word("v0")

    def test_inner_cancellation(self, theta):
        w = steps_of(theta, "b,~a,a,~c")
        assert reduce_word(w) == steps_of(theta, "b,~c")

    def test_nested_cancellation(self, theta):
        w = steps_of(theta, "c,~b,b,~c")
        assert reduce_word(w) == empty_word("v0")

    def test_already_reduced(self, theta):
        w = steps_of(theta, "b,~a,c")
        assert reduce_word(w) == w

    def test_matches_exhaustive_rewriting(self, theta):
        for w in enumerate_words(theta, 6):
            assert reduce_word(w) == oracle_reduce(w)

    def test_matches_exhaustive_rewriting_four_edges(self, theta4):
        for w in enumerate_words(theta4, 5):
            assert reduce_word(w) == oracle_reduce(w)

    def test_idempotent(self, theta):
        for w in enumerate_words(theta, 6):
            r = reduce_word(w)
            assert reduce_word(r) == r

    def test_congruence(self, theta):
        words = [w for w in enumerate_words(theta, 3)]
        for a, b in itertools.product(words, words):
            if b.src != a.dst:
                continue
            assert reduce_word(concat(a, b)) == reduce_word(
                concat(reduce_word(a), reduce_word(b))
            )


class TestConcat:
    def test_definition(self, theta):
        a = steps_of(theta, "a")
        b = steps_of(theta, "~a,b")
        assert concat(a, b) == steps_of(theta, "a,~a,b")

    def test_empty_identity(self, theta):
        b = steps_of(theta, "b")
        assert concat(empty_word("v0"), b) == b
        assert concat(b, empty_word("v1")) == b

    def test_endpoint_mismatch(self, theta):
        with pytest.raises(EndpointMismatch):
            concat(steps_of(theta, "b"), steps_of(theta, "c"))

    def test_associative_on_the_nose(self, theta):
        a, b, c = steps_of(theta, "a"), steps_of(theta, "~b"), steps_of(theta, "c")
        assert concat(concat(a, b), c) == concat(a, concat(b, c))


class TestReverse:
    def test_empty(self):
        assert reverse_word(empty_word("v0")) == empty_word("v0")

    def test_single(self, theta):
        assert reverse_word(steps_of(theta, "a")) == steps_of(theta, "~a")

    def test_two_steps(self, theta):
        assert reverse_word(steps_of(theta, "b,~a")) == steps_of(theta, "a,~b")

    def test_matches_stepwise_oracle(self, theta):
        for w in enumerate_words(theta, 5):
            assert reverse_word(w) == stepwise_reverse(w)

    def test_involution_and_antihomomorphism(self, theta):
        words = list(enumerate_words(theta, 3))
        for w in words:
            assert reverse_word(reverse_word(w)) == w
        for a, b in itertools.product(words, words):
            if b.src != a.dst:
                continue
            assert reverse_word(concat(a, b)) == concat(reverse_word(b), reverse_word(a))


class TestSubword:
    def test_point_subword_is_empty(self, theta):
        w = steps_of(theta, "b,~a,c")
        for r in range(len(w) + 1):
            assert subword(w, r, r) == empty_word(w.vertex_at(r))

    def test_full_range(self, theta):
        w = steps_of(theta, "b,~a")
        assert subword(w, 0, 2) == w

    def test_reversed_range(self, theta):
        w = steps_of(theta, "b,~a")
        assert subword(w, 2, 0) == steps_of(theta, "a,~b")

    def test_out_of_range(self, theta):
        with pytest.raises(IndexOutOfRange):
            subword(steps_of(theta, "b"), 0, 2)

    def test_splitting(self, theta):
        w = steps_of(theta, "b,~a,c,~b")
        for mid in range(len(w) + 1):
            assert concat(subword(w, 0, mid), subword(w, mid, len(w))) == w


class TestLoopGroup:
    def test_identity_law(self, theta):
        gamma = steps_of(theta, "b,~a")
        assert loop_mul(gamma, loop_id("v0")) == gamma
        assert loop_mul(loop_id("v0"), gamma) == gamma

    def test_inverse_law(self, theta):
        gamma = steps_of(theta, "b,~a")
        assert loop_mul(gamma, loop_inv(gamma)) == loop_id("v0")
        assert loop_mul(loop_inv(gamma), gamma) == loop_id("v0")

    def test_product_order(self, theta):
        gamma_b = steps_of(theta, "b,~a")
        gamma_c = steps_of(theta, "c,~a")
        assert loop_mul(gamma_b, gamma_c) == reduce_word(steps_of(theta, "c,~a,b,~a"))

    def test_group_laws_exhaustive(self, theta):
        loops = enumerate_reduced_loops(theta, 6)
        for g in loops:
            assert loop_mul(g, loop_id("v0")) == g
            assert loop_mul(loop_id("v0"), g) == g
            assert loop_mul(g, loop_inv(g)) == loop_id("v0")
            assert loop_mul(loop_inv(g), g) == loop_id("v0")
        short = [g for g in loops if len(g.steps) <= 4]
        for a, b, c in itertools.product(short[:18], short[:18], short[:18]):
            assert loop_mul(loop_mul(a, b), c) == loop_mul(a, loop_mul(b, c))

    def test_rejects_non_loops(self, theta):
        with pytest.raises(EndpointMismatch):
            loop_mul(steps_of(theta, "b"), steps_of(theta, "c"))


class TestWalks:
    def test_monotone_walk_is_subword(self, theta):
        w = steps_of(theta, "b,~a,c")
        assert word_along_walk(w, [0, 1, 2]) == subword(w, 0, 2)
        assert word_along_walk(w, [3, 2, 1]) == subword(w, 3, 1)

    def test_backtracking_walk_inserts_retrace(self, theta):
        w = steps_of(theta, "b,~a")
        zigzag = word_along_walk(w, [0, 1, 0, 1, 2])
        assert reduce_word(zigzag) == reduce_word(w)

    def test_jump_rejected(self, theta):
        with pytest.raises(IndexOutOfRange):
            word_along_walk(steps_of(theta, "b,~a"), [0, 2])


@st.composite
def theta_words(draw):
    from pathgauge.instances import theta_complex

    cx = theta_complex()
    start = draw(st.sampled_from(cx.vertices))
    length = draw(st.integers(min_value=0, max_value=8))
    steps = []
    v = start
    for _ in range(length):
        step = draw(st.sampled_from(cx.out_steps(v)))
        steps.append(step)
        v = cx.step_head(step)
    return cx.word(steps, at=start)


@given(theta_words())
@settings(max_examples=300, deadline=None)
def test_reduce_agrees_with_oracle_random(w):
    assert reduce_word(w) == oracle_reduce(w)


@given(theta_words(), theta_words())
@settings(max_examples=200, deadline=None)
def test_reduce_congruence_random(a, b):
    if b.src != a.dst:
        return
    assert reduce_word(concat(a, b)) == reduce_word(concat(reduce_word(a), reduce_word(b)))


def test_literal_roundtrip(theta):
    for text in ("b,~a", "@v0", "a,~c,b"):
        w = theta.word_from_literal(text)
        assert theta.word_from_literal(w.literal()) == w
