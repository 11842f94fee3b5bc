import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathgauge.complexes import enumerate_reduced_loops, enumerate_words
from pathgauge.errors import BaseMismatch, DomainMismatch, InfiniteContext, ParseError
from pathgauge.groups import (
    CyclicCtx,
    HoloSpec,
    PermutationCtx,
    RationalMatrixCtx,
    ctx_from_spec,
    subgroup_closure,
)
from pathgauge.words import loop_inv, loop_mul, reduce_word

from .oracles import laplace_det


def random_matrix(rng):
    ctx = RationalMatrixCtx(2)
    m = ctx.identity()
    shears = [
        ctx.matrix([[1, 1], [0, 1]]),
        ctx.matrix([[1, 0], [1, 1]]),
        ctx.matrix([[1, Fraction(-1, 2)], [0, 1]]),
        ctx.matrix([[2, 0], [0, 1]]),
    ]
    for _ in range(rng.randint(1, 5)):
        m = ctx.mul(m, rng.choice(shears))
    return m


class TestGroupAxioms:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_cyclic_exhaustive(self, n):
        ctx = CyclicCtx(n)
        els = ctx.elements()
        for a, b, c in itertools.product(els, repeat=3):
            assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        for a in els:
            assert ctx.mul(a, ctx.identity()) == a
            assert ctx.mul(ctx.identity(), a) == a
            assert ctx.mul(a, ctx.inv(a)) == ctx.identity()

    @pytest.mark.parametrize("degree", range(1, 5))
    def test_permutation_exhaustive(self, degree):
        ctx = PermutationCtx(degree)
        els = ctx.elements()
        for a, b, c in itertools.product(els, repeat=3):
            assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        for a in els:
            assert ctx.mul(a, ctx.inv(a)) == ctx.identity()
            assert ctx.mul(ctx.inv(a), a) == ctx.identity()

    def test_matrix_randomized(self):
        ctx = RationalMatrixCtx(2)
        rng = random.Random(7)
        for _ in range(1000):
            a, b, c = (random_matrix(rng) for _ in range(3))
            assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
            assert ctx.mul(a, ctx.inv(a)) == ctx.identity()
            assert ctx.mul(ctx.identity(), a) == a

    @given(st.integers(2, 12), st.data())
    @settings(max_examples=200, deadline=None)
    def test_cyclic_random_triples(self, n, data):
        ctx = CyclicCtx(n)
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1))
        c = data.draw(st.integers(0, n - 1))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.mul(a, ctx.inv(a)) == 0


class TestConventions:
    def test_cyclic_mul(self):
        assert CyclicCtx(5).mul(2, 4) == 1

    def test_permutation_mul_right_factor_first(self):
        ctx = PermutationCtx(3)
        t12 = ctx.from_literal("[2,1,3]")
        c123 = ctx.from_literal("[2,3,1]")
        assert ctx.mul(t12, c123) == ctx.from_literal("[1,3,2]")  # (23)

    def test_conjugate_identity(self):
        ctx = PermutationCtx(3)
        h = ctx.from_literal("[2,3,1]")
        assert ctx.conjugate(ctx.identity(), h) == h

    def test_conjugate_abelian_trivial(self):
        assert CyclicCtx(5).conjugate(3, 2) == 2

    def test_conjugate_relabels_cycle(self):
        ctx = PermutationCtx(3)
        t12 = ctx.from_literal("[2,1,3]")
        c123 = ctx.from_literal("[2,3,1]")
        brute = ctx.mul(ctx.mul(t12, c123), ctx.inv(t12))
        assert ctx.conjugate(t12, c123) == brute == ctx.from_literal("[3,1,2]")


class TestDomains:
    def test_cyclic_rejects_out_of_range(self):
        with pytest.raises(DomainMismatch):
            CyclicCtx(5).mul(5, 1)

    def test_permutation_rejects_non_bijection(self):
        with pytest.raises(DomainMismatch):
            PermutationCtx(3).check((0, 0, 2))

    def test_matrix_rejects_singular(self):
        ctx = RationalMatrixCtx(2)
        with pytest.raises(DomainMismatch):
            ctx.matrix([[1, 1], [1, 1]])

    def test_cyclic_rejects_bool(self):
        with pytest.raises(DomainMismatch):
            CyclicCtx(5).check(True)
        with pytest.raises(ParseError):
            CyclicCtx(5).from_literal(True)

    def test_cyclic_literal_rejects_float(self):
        for value in (2.9, 2.0):
            with pytest.raises(ParseError):
                CyclicCtx(5).from_literal(value)

    def test_permutation_literal_rejects_float_entry(self):
        for literal in ("[2.9,1,3]", '["2",1,3]', "[true,2,3]"):
            with pytest.raises(ParseError):
                PermutationCtx(3).from_literal(literal)

    def test_literals_roundtrip(self):
        for ctx, el in [
            (CyclicCtx(7), 4),
            (PermutationCtx(4), (2, 0, 3, 1)),
            (RationalMatrixCtx(2), RationalMatrixCtx(2).matrix([["1/2", 0], [1, 3]])),
        ]:
            assert ctx.from_literal(ctx.to_literal(el)) == el

    def test_ctx_spec_roundtrip(self):
        for ctx in (CyclicCtx(5), PermutationCtx(3), RationalMatrixCtx(2)):
            assert ctx_from_spec(ctx.spec()) == ctx

    def test_bad_group_spec(self):
        with pytest.raises(ParseError):
            ctx_from_spec({"type": "dihedral", "order": 8})
        # sizes are never coerced from floats, bools or strings
        for spec, field in [
            ({"type": "cyclic", "order": 2.9}, "order"),
            ({"type": "cyclic", "order": "5"}, "order"),
            ({"type": "cyclic"}, "order"),
            ({"type": "permutation", "degree": True}, "degree"),
            ({"type": "rational_matrix", "dim": "3"}, "dim"),
        ]:
            with pytest.raises(ParseError, match=f"'{field}'"):
                ctx_from_spec(spec)

    def test_singular_inverse_raises_domain_mismatch(self):
        ctx = RationalMatrixCtx(2)
        singular = tuple(tuple(Fraction(v) for v in row) for row in [[1, 2], [2, 4]])
        with pytest.raises(DomainMismatch, match="singular"):
            ctx.inv(singular)

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matrix_singular_exactly_when_det_zero(self, rows):
        ctx = RationalMatrixCtx(len(rows))
        if laplace_det(rows) == 0:
            with pytest.raises(DomainMismatch):
                ctx.matrix(rows)
        else:
            a = ctx.matrix(rows)
            assert ctx.mul(a, ctx.inv(a)) == ctx.identity()


class TestClosure:
    def test_cyclic_generator(self):
        assert subgroup_closure(CyclicCtx(5), [2]) == frozenset(range(5))

    def test_empty_generators(self):
        assert subgroup_closure(CyclicCtx(5), []) == frozenset({0})

    def test_s3_from_transposition_and_cycle(self):
        ctx = PermutationCtx(3)
        closure = subgroup_closure(ctx, [(1, 0, 2), (1, 2, 0)])
        assert closure == frozenset(ctx.elements())

    def test_proper_subgroup(self):
        ctx = PermutationCtx(3)
        assert len(subgroup_closure(ctx, [(1, 2, 0)])) == 3

    def test_infinite_context_raises(self):
        ctx = RationalMatrixCtx(2)
        with pytest.raises(InfiniteContext):
            subgroup_closure(ctx, [ctx.identity()])


class TestHoloSpec:
    def test_eval_chord_loop(self, theta, theta_spec):
        assert theta_spec.eval(theta.word_from_literal("b,~a")) == 2

    def test_eval_identity_loop(self, theta_spec):
        from pathgauge.words import loop_id

        assert theta_spec.eval(loop_id("v0")) == 0

    def test_eval_triple_product(self, theta, theta_spec):
        gamma_b = theta.word_from_literal("b,~a")
        gamma_c = theta.word_from_literal("c,~a")
        total = loop_mul(gamma_b, loop_mul(gamma_b, gamma_c))
        assert theta_spec.eval(total) == (2 + 2 + 1) % 5

    def test_missing_chord_rejected(self, theta, theta_tree):
        with pytest.raises(ParseError, match="c"):
            HoloSpec(theta, theta_tree, CyclicCtx(5), {"b": 2})

    def test_assignment_on_tree_edge_rejected(self, theta, theta_tree):
        with pytest.raises(ParseError, match="a"):
            HoloSpec(theta, theta_tree, CyclicCtx(5), {"a": 0, "b": 2, "c": 1})

    def test_rejects_unbased_loop(self, theta, theta_spec):
        with pytest.raises(BaseMismatch):
            theta_spec.eval(theta.word_from_literal("~a,b"))

    def test_homomorphism_exhaustive_theta(self, theta_spec):
        ctx = theta_spec.ctx
        loops = enumerate_reduced_loops(theta_spec.complex, 6)
        for g in loops:
            assert theta_spec.eval(loop_inv(g)) == ctx.inv(theta_spec.eval(g))
        for g, s in itertools.product(loops, loops):
            assert theta_spec.eval(loop_mul(g, s)) == ctx.mul(
                theta_spec.eval(g), theta_spec.eval(s)
            )

    def test_homomorphism_sampled_wedge(self, wedge_spec):
        ctx = wedge_spec.ctx
        loops = enumerate_reduced_loops(wedge_spec.complex, 6)
        for g in loops:
            assert wedge_spec.eval(loop_inv(g)) == ctx.inv(wedge_spec.eval(g))
        sample = loops[::23]
        for g, s in itertools.product(sample, sample):
            assert wedge_spec.eval(loop_mul(g, s)) == ctx.mul(
                wedge_spec.eval(g), wedge_spec.eval(s)
            )

    def test_retrace_invariance_all_words(self, theta, theta_spec):
        for w in enumerate_words(theta, 6, starts=("v0",)):
            if w.dst != "v0":
                continue
            assert theta_spec.eval(w) == theta_spec.eval(reduce_word(w))

    def test_agrees_with_chord_factorization(self, theta, theta_spec, theta_tree):
        from pathgauge.complexes import factor_loop

        ctx = theta_spec.ctx
        for gamma in enumerate_reduced_loops(theta, 6):
            acc = ctx.identity()
            for chord, sign in factor_loop(theta_tree, gamma):
                el = theta_spec.assignment[chord]
                acc = ctx.mul(el if sign == 1 else ctx.inv(el), acc)
            assert theta_spec.eval(gamma) == acc
