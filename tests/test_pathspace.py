import itertools

import pytest

from pathgauge.complexes import (
    enumerate_reduced_loops,
    enumerate_words,
    reduced_words_from,
    tree_path,
)
from pathgauge.errors import BaseMismatch, EndpointMismatch, IndexOutOfRange
from pathgauge.pathspace import (
    AssocPath,
    AssociatedPoint,
    FPath,
    FPoint,
    act_assoc_fibers,
    act_associated,
    act_points,
    associated_connection,
    associated_lift,
    assoc_eq,
    canonicalize,
    connecting_loop,
    fpath_along_walk,
    fpoint,
    is_universally_horizontal,
    omega_action,
    twist,
    universal_connection,
    universal_lift,
)
from pathgauge.words import empty_word, loop_id, loop_mul, reduce_word

from .builders import monotone_walks


def fp(cx, literal):
    return fpoint(cx.word_from_literal(literal))


def tree_points(cx, tree, word):
    return tuple(FPoint(tree_path(tree, word.vertex_at(i))) for i in range(len(word.steps) + 1))


class TestFPoint:
    def test_target(self, theta):
        assert fp(theta, "@v0").target == "v0"
        assert fp(theta, "b").target == "v1"
        assert fp(theta, "b,~a").target == "v0"

    def test_rejects_unreduced(self, theta):
        with pytest.raises(ValueError):
            FPoint(theta.word_from_literal("b,~b"))


class TestOmegaAction:
    def test_identity(self, theta):
        p = fp(theta, "a")
        assert omega_action(p, loop_id("v0")) == p

    def test_on_basepoint_class(self, theta):
        gamma = theta.word_from_literal("b,~a")
        assert omega_action(fp(theta, "@v0"), gamma) == fpoint(gamma)

    def test_cancellation(self, theta):
        p = fp(theta, "a")
        gamma = theta.word_from_literal("b,~a")
        assert omega_action(p, gamma) == fp(theta, "b")

    def test_is_right_action(self, theta):
        p = fp(theta, "c")
        loops = enumerate_reduced_loops(theta, 4)
        for g, s in itertools.product(loops[:15], loops[:15]):
            assert omega_action(omega_action(p, g), s) == omega_action(p, loop_mul(g, s))

    @pytest.mark.parametrize("fixture", ["theta", "wedge"])
    def test_free_and_transitive_on_fibers(self, fixture, request):
        cx = request.getfixturevalue(fixture)
        points = [FPoint(w) for w in reduced_words_from(cx, cx.basepoint, 5)]
        loops = enumerate_reduced_loops(cx, 4)
        # exhaustive on theta; the larger wedge fiber is strided
        if len(points) > 120:
            points = points[::5]
            loops = loops[::3]
        for p in points:
            for gamma in loops:
                if omega_action(p, gamma) == p:
                    assert gamma == loop_id(cx.basepoint)
        for p, q in itertools.product(points, points):
            if p.target != q.target:
                continue
            gamma = connecting_loop(p, q)
            assert omega_action(p, gamma) == q

    def test_rejects_non_loop(self, theta):
        with pytest.raises(EndpointMismatch):
            omega_action(fp(theta, "a"), theta.word_from_literal("b"))


class TestUniversalConnection:
    def test_keeps_anchor_point(self, theta, theta_tree):
        word = theta.word_from_literal("b,~a,c")
        path = FPath(word, tree_points(theta, theta_tree, word))
        for r in range(4):
            assert universal_connection(path, r).points[r] == path.points[r]

    def test_straightening_example(self, theta):
        word = theta.word_from_literal("b")
        path = FPath(word, (fp(theta, "@v0"), fp(theta, "c")))
        assert universal_connection(path, 0).points == (fp(theta, "@v0"), fp(theta, "b"))

    def test_projection_idempotent(self, theta, theta_tree):
        word = theta.word_from_literal("b,~a")
        path = FPath(word, (fp(theta, "@v0"), fp(theta, "c"), fp(theta, "b,~c")))
        for r in range(3):
            once = universal_connection(path, r)
            assert universal_connection(once, r) == once

    def test_out_of_range(self, theta):
        word = theta.word_from_literal("b")
        path = FPath(word, (fp(theta, "@v0"), fp(theta, "b")))
        with pytest.raises(IndexOutOfRange):
            universal_connection(path, 3)

    def test_equivariance_for_loop_sequences(self, theta, theta_tree):
        word = theta.word_from_literal("b,~a")
        path = FPath(word, tree_points(theta, theta_tree, word))
        loops = enumerate_reduced_loops(theta, 2)
        for r in range(3):
            for rho_r in loops:
                rho = tuple(rho_r for _ in range(3))
                lhs = universal_connection(act_points(path, rho), r)
                rhs = act_points(
                    universal_connection(path, r), tuple(rho_r for _ in range(3))
                )
                assert lhs == rhs

    def test_reparameterization(self, theta, theta_tree):
        word = theta.word_from_literal("b,~a,c")
        path = FPath(word, tree_points(theta, theta_tree, word))
        for walk in monotone_walks(3):
            reparam = fpath_along_walk(path, walk)
            for s_idx, t in enumerate(walk):
                assert universal_connection(reparam, s_idx) == fpath_along_walk(
                    universal_connection(path, t), walk
                )


class TestUniversalLift:
    def test_empty_word(self, theta):
        start = fp(theta, "c")
        lifted = universal_lift(theta.word_from_literal("@v1"), 0, start)
        assert lifted.points == (start,)

    def test_single_step(self, theta):
        lifted = universal_lift(theta.word_from_literal("b"), 0, fp(theta, "@v0"))
        assert lifted.points == (fp(theta, "@v0"), fp(theta, "b"))

    def test_loop_endpoint_is_loop_class(self, theta):
        gamma = theta.word_from_literal("b,~a")
        lifted = universal_lift(gamma, 0, fp(theta, "@v0"))
        assert lifted.points[-1] == fpoint(gamma)

    def test_output_is_horizontal(self, theta):
        for word in enumerate_words(theta, 3, starts=("v0",)):
            for t0 in range(len(word.steps) + 1):
                anchors = [
                    FPoint(w)
                    for w in reduced_words_from(theta, "v0", 3)
                    if w.dst == word.vertex_at(t0)
                ]
                for anchor in anchors[:6]:
                    lifted = universal_lift(word, t0, anchor)
                    assert is_universally_horizontal(lifted)
                    assert universal_connection(lifted, t0) == lifted

    def test_agrees_with_projection_of_covering_path(self, theta, theta_tree):
        word = theta.word_from_literal("b,~a")
        anchor = fp(theta, "c,~a")
        covering = FPath(word, (anchor, fp(theta, "b"), fp(theta, "b,~a")))
        assert universal_connection(covering, 0) == universal_lift(word, 0, anchor)

    def test_base_mismatch(self, theta):
        with pytest.raises(BaseMismatch):
            universal_lift(theta.word_from_literal("b"), 0, fp(theta, "a"))


class TestCanonicalize:
    def test_basepoint_identity(self, theta, theta_spec):
        ap = AssociatedPoint(empty_word("v0"), 0)
        assert canonicalize(ap, theta_spec) == ("v0", 0)

    def test_chord_representative(self, theta, theta_spec):
        ap = AssociatedPoint(theta.word_from_literal("b"), 1)
        assert canonicalize(ap, theta_spec) == ("v1", 3)

    def test_tree_representative_fixed(self, theta, theta_spec):
        for g in range(5):
            ap = AssociatedPoint(theta.word_from_literal("a"), g)
            assert canonicalize(ap, theta_spec) == ("v1", g)

    @pytest.mark.parametrize("fixture", ["theta_spec", "wedge_spec"])
    def test_constant_on_orbits_and_separating(self, fixture, request):
        """Brute-force orbit oracle: twisted loop actions never change the
        canonical pair, and equal canonical pairs are joined by a twist."""
        spec = request.getfixturevalue(fixture)
        cx = spec.complex
        ctx = spec.ctx
        words = reduced_words_from(cx, cx.basepoint, 3)
        loops = enumerate_reduced_loops(cx, 6)
        orbit_loops = loops if len(loops) <= 200 else loops[::7]
        sample_elements = ctx.elements()[:4]
        points = [AssociatedPoint(w, g) for w in words[:12] for g in sample_elements]
        for ap in points:
            canon = canonicalize(ap, spec)
            for gamma in orbit_loops:
                assert canonicalize(twist(spec, ap, gamma), spec) == canon
        for a, b in itertools.product(points[:25], points[:25]):
            same = canonicalize(a, spec) == canonicalize(b, spec)
            assert same == assoc_eq(a, b, spec)
            if same:
                gamma = connecting_loop(fpoint(a.word), fpoint(b.word))
                moved = twist(spec, a, gamma)
                assert reduce_word(moved.word) == reduce_word(b.word)
                assert moved.g == b.g


class TestAssociatedConnection:
    def test_componentwise_example(self, theta, theta_spec):
        word = theta.word_from_literal("b")
        path = AssocPath(
            word,
            (
                AssociatedPoint(empty_word("v0"), 0),
                AssociatedPoint(theta.word_from_literal("c"), 4),
            ),
        )
        projected = associated_connection(path, 0)
        assert projected.points == (
            AssociatedPoint(empty_word("v0"), 0),
            AssociatedPoint(theta.word_from_literal("b"), 0),
        )

    def test_fixes_horizontal_input(self, theta, theta_spec):
        word = theta.word_from_literal("b,~a")
        path = associated_lift(word, 0, AssociatedPoint(empty_word("v0"), 2))
        assert associated_connection(path, 0) == path

    def test_representative_independence(self, theta, theta_spec):
        word = theta.word_from_literal("b")
        gamma = theta.word_from_literal("c,~a")
        original = AssocPath(
            word,
            (
                AssociatedPoint(empty_word("v0"), 1),
                AssociatedPoint(theta.word_from_literal("c"), 4),
            ),
        )
        replaced = AssocPath(
            word,
            (
                twist(theta_spec, original.points[0], gamma),
                original.points[1],
            ),
        )
        for r in range(2):
            lhs = associated_connection(original, r)
            rhs = associated_connection(replaced, r)
            for s in range(2):
                assert assoc_eq(lhs.points[s], rhs.points[s], theta_spec)


class TestAssociatedLift:
    def test_empty_word(self, theta):
        ap = AssociatedPoint(theta.word_from_literal("a"), 3)
        lifted = associated_lift(theta.word_from_literal("@v1"), 0, ap)
        assert lifted.points == (ap,)

    def test_loop_endpoint_canonical_form(self, theta, theta_spec):
        gamma = theta.word_from_literal("b,~a")
        lifted = associated_lift(gamma, 0, AssociatedPoint(empty_word("v0"), 0))
        assert canonicalize(lifted.points[-1], theta_spec) == ("v0", 2)

    def test_fiber_equivariance(self, theta, theta_spec):
        ctx = theta_spec.ctx
        word = theta.word_from_literal("b,~a")
        ap = AssociatedPoint(empty_word("v0"), 1)
        for h in ctx.elements():
            lhs = associated_lift(word, 0, act_associated(ctx, ap, h))
            base = associated_lift(word, 0, ap)
            rhs = AssocPath(
                word, tuple(act_associated(ctx, p, h) for p in base.points)
            )
            assert lhs == rhs

    def test_base_mismatch(self, theta):
        with pytest.raises(BaseMismatch):
            associated_lift(
                theta.word_from_literal("b"), 1, AssociatedPoint(empty_word("v0"), 0)
            )


@pytest.mark.parametrize("fixture", ["theta_spec", "wedge_spec"])
def test_associated_connection_axioms_spot(fixture, request):
    """The six axioms for the induced connection, equality via canonical forms."""
    spec = request.getfixturevalue(fixture)
    cx = spec.complex
    ctx = spec.ctx
    tree = spec.tree
    alphabet = [ctx.identity()] + ctx.generators()
    for word in enumerate_words(cx, 2):
        n = len(word.steps)
        anchors = {
            i: [
                w
                for w in reduced_words_from(cx, cx.basepoint, 2)
                if w.dst == word.vertex_at(i)
            ]
            for i in range(n + 1)
        }
        for r in range(n + 1):
            for anchor in anchors[r]:
                for g in alphabet:
                    points = tuple(
                        AssociatedPoint(anchor if i == r else tree_path(tree, word.vertex_at(i)),
                                        g if i == r else ctx.identity())
                        for i in range(n + 1)
                    )
                    path = AssocPath(word, points)
                    proj = associated_connection(path, r)
                    assert proj.word == word  # (i)+(ii)
                    assert assoc_eq(proj.points[r], path.points[r], spec)  # (iii)
                    again = associated_connection(proj, r)
                    for s in range(n + 1):  # (vi)
                        assert assoc_eq(again.points[s], proj.points[s], spec)
                    for rho_r in alphabet:  # (iv)
                        rho = tuple(rho_r for _ in range(n + 1))
                        lhs = associated_connection(act_assoc_fibers(ctx, path, rho), r)
                        rhs = act_assoc_fibers(ctx, proj, rho)
                        for s in range(n + 1):
                            assert assoc_eq(lhs.points[s], rhs.points[s], spec)
            for walk in monotone_walks(n):  # (v)
                path = AssocPath(
                    word,
                    tuple(
                        AssociatedPoint(tree_path(tree, word.vertex_at(i)), ctx.identity())
                        for i in range(n + 1)
                    ),
                )
                from pathgauge.pathspace import assocpath_along_walk

                reparam = assocpath_along_walk(path, walk)
                for s_idx, t in enumerate(walk):
                    lhs = associated_connection(reparam, s_idx)
                    rhs = assocpath_along_walk(associated_connection(path, t), walk)
                    for s in range(len(walk)):
                        assert assoc_eq(lhs.points[s], rhs.points[s], spec)
