"""Group membership is checked only where elements enter the library.

`mul` and `inv` assume members, so each entry point must reject a
non-member itself: the non-bijection (0, 0, 2) for permutations and a
singular matrix for rational matrices.
"""

from fractions import Fraction

import pytest

from pathgauge.complexes import build_tree, identity_graph_map
from pathgauge.errors import DomainMismatch, NonEquivariantSpec, ParseError
from pathgauge.gauge import (
    BundleMap,
    BundlePoint,
    GaugeField,
    check_bundle_morphism,
    holonomy_rep,
    horizontal_lift,
)
from pathgauge.groups import HoloSpec, PermutationCtx, RationalMatrixCtx, subgroup_closure
from pathgauge.instances import theta_complex
from pathgauge.reconstruct import bc_object, conjugation_iso

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


def _conjugation_iso(cx, ctx, bad):
    bc = bc_object(_identity_field(cx, ctx))
    conjugation_iso(bc, bc, bad)


def _check_bundle_morphism(cx, ctx, bad):
    field = _identity_field(cx, ctx)
    adjust = {"v0": ctx.identity(), "v1": bad}
    check_bundle_morphism(BundleMap(*identity_graph_map(cx), adjust), field, field)


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
    (_conjugation_iso, DomainMismatch, None),
    (_subgroup_closure, DomainMismatch, None),
    (_check_bundle_morphism, NonEquivariantSpec, "'v1'"),
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
