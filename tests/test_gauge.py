import itertools

import pytest

from pathgauge.complexes import build_tree, chord_loops, enumerate_reduced_loops, enumerate_words
from pathgauge.errors import BaseMismatch, IndexOutOfRange, NonEquivariantSpec, UnknownEdge
from pathgauge.gauge import (
    BundleMap,
    BundlePoint,
    EPath,
    GaugeField,
    act_fibers,
    bundle_morphism_apply,
    check_bundle_morphism,
    chord_holonomies,
    concat_epaths,
    epath_along_walk,
    holonomy_group,
    holonomy_rep,
    horizontal_lift,
    identity_bundle_map,
    is_horizontal,
    project_horizontal,
    transport,
)
from pathgauge.groups import CyclicCtx, PermutationCtx, RationalMatrixCtx
from pathgauge.words import concat, empty_word, loop_id, reduce_word, reverse_word

from .builders import backtracking_walks, monotone_walks
from .oracles import gauss_jordan_inv, schoolbook_mul


def fiber_alphabet(field):
    """Identity plus canonical generators: a small generating set of the context."""
    alphabet = [field.ctx.identity()] + field.ctx.generators()
    seen = []
    for g in alphabet:
        if g not in seen:
            seen.append(g)
    return seen


class TestTransport:
    def test_empty_word(self, theta_field):
        assert transport(theta_field, empty_word("v0")) == 0

    def test_chord_loop(self, theta, theta_field):
        assert transport(theta_field, theta.word_from_literal("b,~a")) == 2

    def test_retrace_cancellation(self, theta, theta_field):
        for w in enumerate_words(theta, 6, starts=("v0",)):
            assert transport(theta_field, concat(w, reverse_word(w))) == 0

    def test_composes_contravariantly(self, theta, theta_field):
        words = list(enumerate_words(theta, 3))
        for a, b in itertools.product(words, words):
            if b.src != a.dst:
                continue
            assert transport(theta_field, concat(a, b)) == theta_field.ctx.mul(
                transport(theta_field, b), transport(theta_field, a)
            )

    def test_unknown_edge(self, theta_field, wedge):
        with pytest.raises(UnknownEdge):
            transport(theta_field, wedge.word_from_literal("p"))


def _matrix_field(theta):
    ctx = RationalMatrixCtx(2)
    rows = {"a": [[1, 2], [0, 1]], "b": [["1/2", 0], [3, 1]], "c": [[0, 1], [-1, 0]]}
    return GaugeField(theta, ctx, {e: ctx.matrix(r) for e, r in rows.items()})


class TestInverseTable:
    """Every label is inverted once, at construction, and reverse steps read
    the inverse from that table."""

    @pytest.fixture(params=["theta_field", "wedge_field", "matrix"])
    def field(self, request, theta):
        if request.param == "matrix":
            return _matrix_field(theta)
        return request.getfixturevalue(request.param)

    def test_table_holds_each_label_inverse(self, field):
        ctx = field.ctx
        assert field._inverses == {e: ctx.inv(g) for e, g in field.labels.items()}
        assert field == GaugeField(field.complex, ctx, dict(field.labels))
        assert "_inverses" not in repr(field)

    def test_reverse_steps_take_no_inverse(self, field, monkeypatch):
        ctx = field.ctx
        words = [w for w in enumerate_words(field.complex, 3) if any(not s.forward for s in w.steps)]
        expected = [transport(field, w) for w in words]
        monkeypatch.setattr(type(ctx), "inv", lambda self, a: pytest.fail("inv called"))
        assert [transport(field, w) for w in words] == expected
        for w in words:
            for step in w.steps:
                want = field.labels[step.edge] if step.forward else field._inverses[step.edge]
                assert field.step_transport(step) is want


def test_matrix_products_match_fraction_arithmetic(theta):
    """Transport, holonomy and chord holonomies of a matrix field against a
    step-by-step `Fraction` fold with Gauss-Jordan inverses."""
    field = _matrix_field(theta)
    ctx = field.ctx
    a = ctx.matrix([[2, 1], [1, 1]])
    xi0 = BundlePoint("v0", a)
    for w in enumerate_words(theta, 4):
        acc = ctx.identity()
        for step in w.steps:
            g = field.labels[step.edge]
            acc = schoolbook_mul(g if step.forward else gauss_jordan_inv(g), acc)
        assert transport(field, w) == acc
        if w.src == w.dst == "v0":
            assert holonomy_rep(field, xi0, w) == schoolbook_mul(gauss_jordan_inv(a), schoolbook_mul(acc, a))
    tree = build_tree(theta)
    loops = chord_loops(theta, tree)
    assert chord_holonomies(field, xi0, tree) == {c: holonomy_rep(field, xi0, loop) for c, loop in loops.items()}


class TestHorizontalLift:
    def test_empty_word_lift(self, theta_field):
        lift = horizontal_lift(theta_field, empty_word("v0"), 0, BundlePoint("v0", 3))
        assert lift == EPath(empty_word("v0"), (3,))

    def test_forward_lift(self, theta, theta_field):
        lift = horizontal_lift(
            theta_field, theta.word_from_literal("b"), 0, BundlePoint("v0", 0)
        )
        assert lift.fibers == (0, 2)

    def test_backward_lift(self, theta, theta_field):
        lift = horizontal_lift(
            theta_field, theta.word_from_literal("b,~a"), 2, BundlePoint("v0", 0)
        )
        assert lift.fibers == (3, 0, 0)

    def test_base_mismatch(self, theta, theta_field):
        with pytest.raises(BaseMismatch):
            horizontal_lift(theta_field, theta.word_from_literal("b"), 0, BundlePoint("v1", 0))

    def test_lift_is_horizontal_through_every_index(self, theta, theta_field):
        word = theta.word_from_literal("b,~a,c")
        lift = horizontal_lift(theta_field, word, 1, BundlePoint("v1", 4))
        for t in range(4):
            assert project_horizontal(theta_field, lift, t) == lift
        assert is_horizontal(theta_field, lift)


class TestProjectHorizontal:
    def test_projection_example(self, theta, theta_field):
        path = EPath(theta.word_from_literal("b"), (0, 4))
        assert project_horizontal(theta_field, path, 0).fibers == (0, 2)

    def test_fixes_horizontal_paths(self, theta, theta_field):
        word = theta.word_from_literal("b,~a")
        lift = horizontal_lift(theta_field, word, 0, BundlePoint("v0", 1))
        assert project_horizontal(theta_field, lift, 0) == lift

    def test_out_of_range(self, theta, theta_field):
        path = EPath(theta.word_from_literal("b"), (0, 4))
        with pytest.raises(IndexOutOfRange):
            project_horizontal(theta_field, path, 5)


class TestHolonomy:
    def test_identity_loop(self, theta_field):
        assert holonomy_rep(theta_field, BundlePoint("v0", 0), loop_id("v0")) == 0

    def test_chord_loop(self, theta, theta_field):
        gamma = theta.word_from_literal("b,~a")
        assert holonomy_rep(theta_field, BundlePoint("v0", 0), gamma) == 2

    def test_abelian_fiber_independence(self, theta, theta_field):
        gamma = theta.word_from_literal("b,~a")
        assert holonomy_rep(theta_field, BundlePoint("v0", 3), gamma) == 2

    def test_retrace_invariance(self, theta, theta_field):
        xi0 = BundlePoint("v0", 1)
        for w in enumerate_words(theta, 6, starts=("v0",)):
            if w.dst != "v0":
                continue
            assert holonomy_rep(theta_field, xi0, w) == holonomy_rep(
                theta_field, xi0, reduce_word(w)
            )

    def test_concatenation_rule(self, wedge, wedge_field):
        # H(gamma v sigma) = H(sigma at xi0) * H(gamma at xi1), xi1 the
        # endpoint of the lift of sigma: products chain in action order.
        ctx = wedge_field.ctx
        xi0 = BundlePoint("v0", (2, 0, 1))
        loops = enumerate_reduced_loops(wedge, 3)
        for sigma, gamma in itertools.product(loops, loops):
            lifted = horizontal_lift(wedge_field, sigma, 0, xi0)
            xi1 = lifted.point(len(sigma.steps))
            lhs = holonomy_rep(wedge_field, xi0, reduce_word(concat(sigma, gamma)))
            rhs = ctx.mul(holonomy_rep(wedge_field, xi0, sigma), holonomy_rep(wedge_field, xi1, gamma))
            assert lhs == rhs

    def test_group_theta(self, theta_field):
        assert holonomy_group(theta_field, BundlePoint("v0", 0)) == frozenset(range(5))

    def test_group_wedge(self, wedge_field):
        group = holonomy_group(wedge_field, BundlePoint("v0", (0, 1, 2)))
        assert group == frozenset(PermutationCtx(3).elements())

    def test_group_identity_labels(self, theta):
        field = GaugeField(theta, CyclicCtx(5), {"a": 0, "b": 0, "c": 0})
        assert holonomy_group(field, BundlePoint("v0", 0)) == frozenset({0})

    def test_group_infinite_context_returns_generators(self, theta):
        from pathgauge.groups import RationalMatrixCtx

        ctx = RationalMatrixCtx(2)
        shear = ctx.matrix([[1, 1], [0, 1]])
        scale = ctx.matrix([[2, 0], [0, 1]])
        field = GaugeField(theta, ctx, {"a": ctx.identity(), "b": shear, "c": scale})
        gens = holonomy_group(field, BundlePoint("v0", ctx.identity()))
        assert isinstance(gens, list)
        assert gens == [shear, scale]


class TestLiftProperties:
    """The lifting function is equivariant, reparameterization-natural, and
    concatenates along junction points."""

    def test_equivariance(self, theta, theta_field):
        ctx = theta_field.ctx
        word = theta.word_from_literal("b,~a,c")
        for g in ctx.elements():
            for fiber in ctx.elements():
                xi = BundlePoint("v0", fiber)
                moved = BundlePoint("v0", ctx.mul(fiber, g))
                lhs = horizontal_lift(theta_field, word, 0, moved)
                base = horizontal_lift(theta_field, word, 0, xi)
                rhs = EPath(word, tuple(ctx.mul(f, g) for f in base.fibers))
                assert lhs == rhs

    def test_reparameterization(self, theta, theta_field):
        word = theta.word_from_literal("b,~a,c")
        for walk in monotone_walks(len(word.steps)):
            for s_idx, t0 in enumerate(walk):
                xi = BundlePoint(word.vertex_at(t0), 1)
                lhs = horizontal_lift(
                    theta_field,
                    epath_along_walk(EPath(word, (0, 0, 0, 0)), walk).word,
                    s_idx,
                    xi,
                )
                rhs = epath_along_walk(horizontal_lift(theta_field, word, t0, xi), walk)
                assert lhs == rhs

    def test_concatenation(self, theta, theta_field):
        alpha = theta.word_from_literal("b,~a")
        beta = theta.word_from_literal("c,~b")
        xi = BundlePoint("v0", 2)
        first = horizontal_lift(theta_field, alpha, 0, xi)
        junction = first.point(len(alpha.steps))
        second = horizontal_lift(theta_field, beta, 0, junction)
        assert concat_epaths(first, second) == horizontal_lift(
            theta_field, concat(alpha, beta), 0, xi
        )


def walk_cases(n, include_backtracking=False):
    walks = monotone_walks(n)
    if include_backtracking:
        walks = walks + backtracking_walks(n, min(n + 1, 3))
    return walks


def connection_axiom_cases(cx, field, max_len):
    alphabet = fiber_alphabet(field)
    for word in enumerate_words(cx, max_len):
        n = len(word.steps)
        for fibers in itertools.product(alphabet, repeat=n + 1):
            yield EPath(word, fibers)


@pytest.mark.parametrize("fixture,max_len", [("theta_field", 2), ("wedge_field", 2)])
def test_connection_axioms_spot(fixture, max_len, request):
    """All six axioms on short lifts; the acceptance suite scales this up."""
    field = request.getfixturevalue(fixture)
    cx = field.complex
    ctx = field.ctx
    alphabet = fiber_alphabet(field)
    for path in connection_axiom_cases(cx, field, max_len):
        n = len(path.word.steps)
        for t in range(n + 1):
            proj = project_horizontal(field, path, t)
            assert proj.word == path.word  # (i) domain
            assert len(proj.fibers) == len(path.fibers)
            assert proj.word.vertices == path.word.vertices  # (ii) lifting
            assert proj.fibers[t] == path.fibers[t]  # (iii) basepoint
            assert project_horizontal(field, proj, t) == proj  # (vi) projection
            for rho_t in alphabet:  # (iv) equivariance, entry at t drives both sides
                rho = tuple(rho_t for _ in range(n + 1))
                lhs = project_horizontal(field, act_fibers(ctx, path, rho), t)
                rhs = act_fibers(ctx, proj, tuple(rho_t for _ in range(n + 1)))
                assert lhs == rhs
        for walk in walk_cases(n, include_backtracking=True):  # (v) reparameterization
            reparam = epath_along_walk(path, walk)
            for s_idx, t in enumerate(walk):
                assert project_horizontal(field, reparam, s_idx) == epath_along_walk(
                    project_horizontal(field, path, t), walk
                )


class TestBundleMorphism:
    def test_identity_morphism(self, theta, theta_field):
        F = identity_bundle_map(theta, theta_field.ctx)
        assert check_bundle_morphism(F, theta_field, theta_field)

    def test_gauge_transformation(self, theta, theta_field):
        ctx = theta_field.ctx
        k = {"v0": 3, "v1": 1}
        transformed = GaugeField(
            theta,
            ctx,
            {
                e.id: ctx.mul(k[e.dst], ctx.mul(theta_field.labels[e.id], ctx.inv(k[e.src])))
                for e in theta.edges
            },
        )
        F = BundleMap({v: v for v in theta.vertices}, {e.id: e.id for e in theta.edges}, k)
        assert check_bundle_morphism(F, theta_field, transformed)

    def test_label_change_detected(self, theta, theta_field):
        other = GaugeField(theta, theta_field.ctx, {"a": 0, "b": 2, "c": 2})
        F = identity_bundle_map(theta, theta_field.ctx)
        assert not check_bundle_morphism(F, theta_field, other)

    def test_malformed_spec_rejected(self, theta, theta_field):
        F = BundleMap({"v0": "v0"}, {}, {})
        with pytest.raises(NonEquivariantSpec):
            check_bundle_morphism(F, theta_field, theta_field)

    def test_apply(self, theta, theta_field):
        F = BundleMap(
            {v: v for v in theta.vertices},
            {e.id: e.id for e in theta.edges},
            {"v0": 2, "v1": 0},
        )
        assert bundle_morphism_apply(F, theta_field.ctx, BundlePoint("v0", 1)) == BundlePoint(
            "v0", 3
        )
