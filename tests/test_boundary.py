"""Group membership is checked only where elements enter the library.

`mul` and `inv` assume members, so each entry point must reject a
non-member itself: the non-bijection (0, 0, 2) for permutations and a
singular matrix for rational matrices.
"""

from fractions import Fraction

import pytest

from pathgauge.complexes import build_tree, identity_graph_map
from pathgauge.errors import (
    BaseMismatch,
    DomainMismatch,
    IndexOutOfRange,
    NonEquivariantSpec,
    ParseError,
    UnknownEdge,
)
from pathgauge.gauge import (
    BundleMap,
    BundlePoint,
    GaugeField,
    act_fibers,
    bundle_morphism_apply,
    check_bundle_morphism,
    chord_holonomies,
    holonomy_rep,
    horizontal_lift,
    identity_bundle_map,
)
from pathgauge.groups import HoloSpec, PermutationCtx, RationalMatrixCtx, subgroup_closure
from pathgauge.instances import theta_complex, theta_holospec
from pathgauge.pathspace import AssociatedPoint, FPoint, associated_lift, universal_lift
from pathgauge.reconstruct import bc_object, conjugation_iso
from pathgauge.words import EdgeStep, PathWord

# context, non-member, and the non-member's literal
NON_MEMBERS = {
    "permutation": (PermutationCtx(3), (0, 0, 2), "[1,1,3]"),
    "rational_matrix": (
        RationalMatrixCtx(2),
        ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))),
        '[["1","1"],["1","1"]]',
    ),
}


def _identity_field(cx, ctx):
    return GaugeField(cx, ctx, {e.id: ctx.identity() for e in cx.edges})


def _gauge_field(cx, ctx, bad):
    GaugeField(cx, ctx, {"a": ctx.identity(), "b": bad, "c": ctx.identity()})


def _holo_spec(cx, ctx, bad):
    HoloSpec(cx, build_tree(cx), ctx, {"b": bad, "c": ctx.identity()})


def _bc_object(cx, ctx, bad):
    bc_object(_identity_field(cx, ctx), BundlePoint(cx.basepoint, bad))


def _horizontal_lift(cx, ctx, bad):
    horizontal_lift(_identity_field(cx, ctx), cx.word_from_literal("a"), 0, BundlePoint("v0", bad))


def _holonomy_rep(cx, ctx, bad):
    holonomy_rep(_identity_field(cx, ctx), BundlePoint("v0", bad), cx.word_from_literal("b,~a"))


def _chord_holonomies(cx, ctx, bad):
    chord_holonomies(_identity_field(cx, ctx), BundlePoint("v0", bad), build_tree(cx))


def _conjugation_iso(cx, ctx, bad):
    bc = bc_object(_identity_field(cx, ctx))
    conjugation_iso(bc, bc, bad)


def _check_bundle_morphism(cx, ctx, bad):
    field = _identity_field(cx, ctx)
    adjust = {"v0": ctx.identity(), "v1": bad}
    check_bundle_morphism(BundleMap(*identity_graph_map(cx), adjust), field, field)


def _act_fibers(cx, ctx, bad):
    start = BundlePoint("v0", ctx.identity())
    lift = horizontal_lift(_identity_field(cx, ctx), cx.word_from_literal("a"), 0, start)
    act_fibers(ctx, lift, (ctx.identity(), bad))


def _bundle_morphism_apply(cx, ctx, bad):
    bundle_morphism_apply(identity_bundle_map(cx, ctx), ctx, BundlePoint("v1", bad))


def _subgroup_closure(cx, ctx, bad):
    subgroup_closure(ctx, [ctx.identity(), bad])


def _from_literal(cx, ctx, bad):
    ctx.from_literal(NON_MEMBERS[ctx.kind][2])


SITES = [
    (_gauge_field, ParseError, "'b'"),
    (_holo_spec, ParseError, "'b'"),
    (_from_literal, ParseError, None),
    (_bc_object, DomainMismatch, None),
    (_horizontal_lift, DomainMismatch, None),
    (_holonomy_rep, DomainMismatch, None),
    (_chord_holonomies, DomainMismatch, None),
    (_conjugation_iso, DomainMismatch, None),
    (_subgroup_closure, DomainMismatch, None),
    (_check_bundle_morphism, NonEquivariantSpec, "'v1'"),
    (_act_fibers, DomainMismatch, None),
    (_bundle_morphism_apply, DomainMismatch, None),
]


@pytest.mark.parametrize(
    "site, error, match, kind",
    [
        pytest.param(site, error, match, kind, id=f"{site.__name__[1:]}-{kind}")
        for site, error, match in SITES
        for kind in NON_MEMBERS
        # closure enumerates, so it accepts only finite contexts
        if not (site is _subgroup_closure and kind == "rational_matrix")
    ],
)
def test_entry_point_rejects_non_member(site, error, match, kind):
    ctx, bad, _ = NON_MEMBERS[kind]
    with pytest.raises(error, match=match):
        site(theta_complex(), ctx, bad)


@pytest.mark.parametrize("kind", sorted(NON_MEMBERS))
def test_non_member_label_is_rejected_before_any_inverse(kind, monkeypatch):
    """A field inverts its labels only once every label passed its check, so
    a non-member is a `ParseError` naming its edge and no label has been
    inverted outside `check` yet (a singular matrix has no inverse)."""
    ctx, bad, _ = NON_MEMBERS[kind]
    cls = type(ctx)
    check, inv = cls.check, cls.inv
    depth, inverted = [0], []

    def checking(self, a):
        depth[0] += 1
        try:
            return check(self, a)
        finally:
            depth[0] -= 1

    def inverting(self, a):
        if not depth[0]:
            inverted.append(a)
        return inv(self, a)

    monkeypatch.setattr(cls, "check", checking)
    monkeypatch.setattr(cls, "inv", inverting)
    with pytest.raises(ParseError, match="^edge 'b': "):
        _gauge_field(theta_complex(), ctx, bad)
    assert inverted == []
    _identity_field(theta_complex(), ctx)
    assert inverted == [ctx.identity()] * 3


@pytest.mark.parametrize("bad", [(1.0, 0.0), (True, False), (1, 0.0)], ids=["floats", "bools", "one-float"])
def test_permutation_check_rejects_non_int_entries(bad):
    """1.0 and True equal 1, so sorting alone would take them for points."""
    ctx = PermutationCtx(2)
    with pytest.raises(DomainMismatch):
        ctx.check(bad)
    with pytest.raises(ParseError, match="'a'"):
        GaugeField(theta_complex(), ctx, {"a": bad, "b": (0, 1), "c": (0, 1)})


@pytest.mark.parametrize("kind", sorted(NON_MEMBERS))
def test_lift_errors_keep_their_order(kind):
    """A bad start index is reported before a point over the wrong vertex,
    and that before a non-member fiber, with the same messages for all
    three lifts."""
    ctx, bad, _ = NON_MEMBERS[kind]
    cx = theta_complex()
    field, word = _identity_field(cx, ctx), cx.word_from_literal("a")
    over = {"v0": cx.word_from_literal("@v0"), "v1": word}
    cases = [
        (2, "v1", IndexOutOfRange, "start index 2 outside word of length 1"),
        (0, "v1", BaseMismatch, "point over 'v1' cannot start a lift at 'v0'"),
    ]
    for t0, v, error, message in cases:
        for lift in (
            lambda: horizontal_lift(field, word, t0, BundlePoint(v, bad)),
            lambda: universal_lift(word, t0, FPoint(over[v])),
            lambda: associated_lift(word, t0, AssociatedPoint(over[v], bad)),
        ):
            with pytest.raises(error) as exc:
                lift()
            assert str(exc.value) == message
    with pytest.raises(DomainMismatch):
        horizontal_lift(field, word, 0, BundlePoint("v0", bad))


def _fractions(rows):
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


@pytest.mark.parametrize(
    "bad",
    [
        _fractions([[1, 2], [2, 4]]),  # singular
        ((Fraction(1), 0), (Fraction(0), Fraction(1))),  # an int entry
        ((Fraction(1), Fraction(0)), (Fraction(1),)),  # a ragged row
    ],
    ids=["singular", "int-entry", "ragged"],
)
def test_matrix_check_rejects(bad):
    with pytest.raises(DomainMismatch):
        RationalMatrixCtx(2).check(bad)


def test_matrix_arithmetic_returns_tuples_of_fraction_rows():
    ctx = RationalMatrixCtx(3)
    a = ctx.matrix([["1/2", 0, 3], [0, "-2/3", 1], [5, 0, 1]])
    for m in (ctx.mul(a, a), ctx.inv(a), ctx.identity(), ctx.product([a, ctx.inv(a), a])):
        assert type(m) is tuple and len(m) == 3
        assert all(type(row) is tuple and len(row) == 3 for row in m)
        assert all(type(v) is Fraction for row in m for v in row)


def test_matrix_literals_keep_their_bytes():
    """The README's identity literal and products with it, inverses included."""
    ctx = RationalMatrixCtx(2)
    one = ctx.from_literal('[["1","0"],["0","1"]]')
    a = ctx.from_literal('[["1/2","-3"],["2/7","5"]]')
    b = ctx.from_literal('[["-4","1/3"],["0","6/5"]]')
    assert ctx.to_literal(ctx.mul(one, one)) == '[["1", "0"], ["0", "1"]]'
    assert ctx.to_literal(ctx.mul(a, b)) == '[["-2", "-103/30"], ["-8/7", "128/21"]]'
    assert ctx.to_literal(ctx.inv(a)) == '[["70/47", "42/47"], ["-4/47", "7/47"]]'
    product = ctx.mul(ctx.mul(a, one), ctx.inv(b))
    assert ctx.to_literal(product) == '[["-1/8", "-355/144"], ["-1/14", "1055/252"]]'
    assert ctx.to_literal(ctx.product([a, one, ctx.inv(b)])) == ctx.to_literal(product)


def test_holospec_eval_rejects_unknown_edges_and_unbased_loops():
    spec = theta_holospec()
    # a tree step, then an edge the complex does not have
    stray = PathWord((EdgeStep("a", True), EdgeStep("z", True)), ("v0", "v1", "v0"))
    with pytest.raises(UnknownEdge, match="'z'"):
        spec.eval(stray)
    with pytest.raises(BaseMismatch):
        spec.eval(spec.complex.word_from_literal("~a,b"))
