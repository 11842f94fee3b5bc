import itertools
import random

import pytest

from pathgauge.complexes import chord_loops, enumerate_reduced_loops, enumerate_words
from pathgauge.errors import (
    BaseMismatch,
    ConjugacyViolated,
    HolonomyIncompatible,
    NonEquivariantSpec,
)
from pathgauge.gauge import BundlePoint, GaugeField, check_bundle_morphism, holonomy_rep, transport
from pathgauge.groups import CyclicCtx, HoloSpec, PermutationCtx, RationalMatrixCtx
from pathgauge.instances import random_hol_object
from pathgauge.pathspace import AssociatedPoint
from pathgauge.reconstruct import (
    HolMorphism,
    bc_object,
    bundle_from_holonomy,
    bundle_morphism_to_hol,
    check_hol_morphism,
    compose_hol_morphisms,
    conjugation_iso,
    find_conjugator,
    gauge_morphism_exists,
    hol_morphism_to_bundle,
    hol_object,
    holonomy_of_bundle,
    identity_hol_morphism,
    reconstruct_iso,
    roundtrip_check,
    verify_reconstruction,
    Report,
)
from pathgauge.words import empty_word

from .builders import conjugate_bc_pair, nonconjugate_bc_pair, random_bc_object, theta_bc, wedge_bc
from .oracles import mul_fold


class TestBundleFromHolonomy:
    def test_identity_spec_gives_identity_gauge(self, theta, theta_tree):
        spec = HoloSpec(theta, theta_tree, CyclicCtx(5), {"b": 0, "c": 0})
        bc = bundle_from_holonomy(hol_object(spec))
        assert bc.gauge.labels == {"a": 0, "b": 0, "c": 0}

    def test_theta_fixture(self, theta_spec):
        bc = bundle_from_holonomy(hol_object(theta_spec))
        assert bc.gauge.labels == {"a": 0, "b": 2, "c": 1}
        assert bc.xi0 == BundlePoint("v0", 0)

    def test_wedge_fixture_empty_tree(self, wedge_spec):
        bc = bundle_from_holonomy(hol_object(wedge_spec))
        assert bc.gauge.labels == wedge_spec.assignment

    @pytest.mark.parametrize("fixture", ["theta_spec", "wedge_spec"])
    def test_holonomy_realizes_spec_on_all_short_loops(self, fixture, request):
        spec = request.getfixturevalue(fixture)
        bc = bundle_from_holonomy(hol_object(spec))
        for loop in enumerate_reduced_loops(spec.complex, 6):
            assert holonomy_rep(bc.gauge, bc.xi0, loop) == spec.eval(loop)


class TestHolonomyOfBundle:
    def test_roundtrip_is_literal_identity(self, theta_spec, wedge_spec):
        for spec in (theta_spec, wedge_spec):
            obj = hol_object(spec)
            assert holonomy_of_bundle(bundle_from_holonomy(obj)) == obj

    def test_identity_gauge_gives_identity_spec(self, theta, theta_tree):
        field = GaugeField(theta, CyclicCtx(5), {"a": 0, "b": 0, "c": 0})
        obj = holonomy_of_bundle(bc_object(field))
        assert obj.spec.assignment == {"b": 0, "c": 0}

    def test_marked_fiber_conjugates_spec(self, wedge):
        ctx = PermutationCtx(3)
        field = GaugeField(wedge, ctx, {"p": (1, 0, 2), "q": (1, 2, 0)})
        a = (2, 0, 1)
        plain = holonomy_of_bundle(bc_object(field, BundlePoint("v0", ctx.identity())))
        moved = holonomy_of_bundle(bc_object(field, BundlePoint("v0", a)))
        for chord in ("p", "q"):
            assert moved.spec.assignment[chord] == ctx.conjugate(
                ctx.inv(a), plain.spec.assignment[chord]
            )

    def test_bc_object_rejects_mismatched_parts(self, theta_field, wedge_tree):
        with pytest.raises(ValueError):
            bc_object(theta_field, tree=wedge_tree)
        with pytest.raises(BaseMismatch):
            bc_object(theta_field, BundlePoint("v1", 0))


class TestReconstructIso:
    def test_basepoint_maps_to_marked_point(self, theta_spec):
        bc = bundle_from_holonomy(hol_object(theta_spec))
        iso = reconstruct_iso(bc)
        assert iso.forward(AssociatedPoint(empty_word("v0"), 0)) == bc.xi0

    def test_forward_formula(self, theta, theta_spec):
        bc = bundle_from_holonomy(hol_object(theta_spec))
        iso = reconstruct_iso(bc)
        ap = AssociatedPoint(theta.word_from_literal("b"), 1)
        assert iso.forward(ap) == BundlePoint("v1", 3)

    def test_inverse_formula(self, theta_spec):
        bc = bundle_from_holonomy(hol_object(theta_spec))
        iso = reconstruct_iso(bc)
        assert iso.inverse(BundlePoint("v1", 3)) == ("v1", 3)

    def test_forward_constant_on_classes(self, theta, theta_spec):
        from pathgauge.pathspace import twist

        bc = bundle_from_holonomy(hol_object(theta_spec))
        iso = reconstruct_iso(bc)
        ap = AssociatedPoint(theta.word_from_literal("b"), 1)
        for gamma in enumerate_reduced_loops(theta, 4):
            assert iso.forward(twist(theta_spec, ap, gamma)) == iso.forward(ap)

    def test_forward_with_a_marked_fiber(self, theta):
        """F(w, g) = T(w) a g with the marked fiber a between transport and g,
        which only a non-identity fiber in a non-abelian group tells apart."""
        ctx = PermutationCtx(3)
        field = GaugeField(theta, ctx, {"a": (1, 2, 0), "b": (1, 0, 2), "c": (0, 2, 1)})
        a = (2, 0, 1)
        bc = bc_object(field, BundlePoint("v0", a))
        iso = reconstruct_iso(bc)
        for w in enumerate_words(theta, 3, starts=("v0",)):
            for g in ctx.elements():
                expected = mul_fold(ctx, [transport(field, w), a, g])
                assert iso.forward(AssociatedPoint(w, g)) == BundlePoint(w.dst, expected)
        report = Report()
        verify_reconstruction(bc, report, "iso", max_word_len=2)
        assert report.ok, [c for c in report.checks if not c.ok]

    @pytest.mark.parametrize("maker", [theta_bc, wedge_bc])
    def test_full_verification_on_fixtures(self, maker):
        report = Report()
        verify_reconstruction(maker(), report, "iso", max_word_len=3, anchor_max_len=2)
        assert report.ok, [c for c in report.checks if not c.ok]

    def test_verification_with_matrix_group(self, theta, theta_tree):
        ctx = RationalMatrixCtx(2)
        spec = HoloSpec(
            theta,
            theta_tree,
            ctx,
            {"b": ctx.matrix([[1, 1], [0, 1]]), "c": ctx.matrix([[2, 0], [0, 1]])},
        )
        report = Report()
        verify_reconstruction(
            bundle_from_holonomy(hol_object(spec)), report, "iso", max_word_len=2
        )
        assert report.ok, [c for c in report.checks if not c.ok]


class TestConjugation:
    def test_identity_conjugator_on_same_bundle(self, theta):
        bc = theta_bc()
        psi = conjugation_iso(bc, bc, 0)
        assert check_bundle_morphism(psi, bc.gauge, bc.gauge)
        assert all(k == 0 for k in psi.fiber_adjust.values())

    def test_abelian_requires_equality(self, theta):
        bc = theta_bc()
        other = bc_object(GaugeField(theta, CyclicCtx(5), {"a": 0, "b": 2, "c": 2}))
        for g in range(5):
            with pytest.raises(ConjugacyViolated) as info:
                conjugation_iso(bc, other, g)
            assert info.value.chord == "c"

    def test_permutation_example(self, wedge):
        ctx = PermutationCtx(3)
        t12, t13, t23 = (1, 0, 2), (2, 1, 0), (0, 2, 1)
        bc = bc_object(GaugeField(wedge, ctx, {"p": t12, "q": ctx.identity()}))
        other = bc_object(GaugeField(wedge, ctx, {"p": t13, "q": ctx.identity()}))
        psi = conjugation_iso(bc, other, t23)
        assert check_bundle_morphism(psi, bc.gauge, other.gauge)

    def test_conjugation_intertwines_connections(self):
        rng = random.Random(11)
        for _ in range(5):
            bc, other, g = conjugate_bc_pair(rng, 3)
            psi = conjugation_iso(bc, other, g)
            assert check_bundle_morphism(psi, bc.gauge, other.gauge)
            _assert_morphism_intertwines(psi, bc, other)

    def test_find_conjugator(self):
        rng = random.Random(23)
        bc, other, g = conjugate_bc_pair(rng, 3)
        found = find_conjugator(bc, other)
        assert found is not None
        psi = conjugation_iso(bc, other, found)
        assert check_bundle_morphism(psi, bc.gauge, other.gauge)

    def test_nonconjugate_pair_has_no_morphism(self):
        rng = random.Random(5)
        bc, other = nonconjugate_bc_pair(rng, 3)
        assert find_conjugator(bc, other) is None
        assert not gauge_morphism_exists(bc, other)

    def test_marked_fiber_change_is_classified(self, wedge):
        """Moving the marked fiber conjugates the holonomy, so the two
        marked bundles over the same field are isomorphic."""
        ctx = PermutationCtx(3)
        field = GaugeField(wedge, ctx, {"p": (1, 0, 2), "q": (1, 2, 0)})
        bc1 = bc_object(field, BundlePoint("v0", ctx.identity()))
        bc2 = bc_object(field, BundlePoint("v0", (2, 0, 1)))
        g = find_conjugator(bc1, bc2)
        assert g is not None
        psi = conjugation_iso(bc1, bc2, g)
        assert check_bundle_morphism(psi, field, field)

    def test_morphism_search_matches_literal_exhaustion(self, wedge):
        """Tree propagation agrees with trying every fiber-adjustment map."""
        ctx = PermutationCtx(3)
        rng = random.Random(3)
        els = ctx.elements()
        for _ in range(6):
            f1 = GaugeField(wedge, ctx, {"p": rng.choice(els), "q": rng.choice(els)})
            f2 = GaugeField(wedge, ctx, {"p": rng.choice(els), "q": rng.choice(els)})
            bc1, bc2 = bc_object(f1), bc_object(f2)
            literal = any(
                all(
                    ctx.mul(k, f1.labels[e.id]) == ctx.mul(f2.labels[e.id], k)
                    for e in wedge.edges
                )
                for k in els
            )
            assert gauge_morphism_exists(bc1, bc2) == literal

    def test_different_bases_rejected(self, theta):
        with pytest.raises(BaseMismatch):
            conjugation_iso(theta_bc(), wedge_bc(), 0)

    def test_matrix_context_positive_direction(self, theta, theta_tree):
        """With an infinite group only the constructive direction runs: a
        supplied conjugator is verified and the isomorphism is returned."""
        ctx = RationalMatrixCtx(2)
        g = ctx.matrix([[1, 1], [0, 1]])
        h2 = {"b": ctx.matrix([[2, 0], [0, 1]]), "c": ctx.matrix([[1, 0], [1, 1]])}
        h1 = {chord: ctx.conjugate(g, el) for chord, el in h2.items()}
        bc1 = bundle_from_holonomy(hol_object(HoloSpec(theta, theta_tree, ctx, h1)))
        bc2 = bundle_from_holonomy(hol_object(HoloSpec(theta, theta_tree, ctx, h2)))
        psi = conjugation_iso(bc1, bc2, g)
        assert check_bundle_morphism(psi, bc1.gauge, bc2.gauge)
        from pathgauge.errors import InfiniteContext

        with pytest.raises(InfiniteContext):
            find_conjugator(bc1, bc2)
        with pytest.raises(InfiniteContext):
            gauge_morphism_exists(bc1, bc2)


def _assert_morphism_intertwines(F, src, dst):
    from pathgauge.gauge import bundle_morphism_on_epath, horizontal_lift, project_horizontal
    from pathgauge.complexes import enumerate_words

    ctx = src.ctx
    for word in itertools.islice(enumerate_words(src.complex, 2), 40):
        n = len(word.steps)
        for t in range(n + 1):
            xi = BundlePoint(word.vertex_at(t), ctx.identity())
            lift = horizontal_lift(src.gauge, word, t, xi)
            mapped = bundle_morphism_on_epath(F, ctx, dst.complex, lift)
            assert project_horizontal(dst.gauge, mapped, t) == mapped


class TestHolMorphisms:
    def test_identity_accepted(self, theta, theta_spec):
        obj = hol_object(theta_spec)
        f = identity_hol_morphism(theta)
        F = hol_morphism_to_bundle(f, obj, obj)
        bc = bundle_from_holonomy(obj)
        assert check_bundle_morphism(F, bc.gauge, bc.gauge)

    def test_edge_collapse_rejected(self, theta):
        f = HolMorphism({"v0": "v0", "v1": "v0"}, {"a": "a", "b": "b", "c": "c"})
        with pytest.raises(NonEquivariantSpec):
            check_hol_morphism(f, theta, theta)

    def test_wedge_swap_with_equal_labels(self, wedge, wedge_tree):
        ctx = PermutationCtx(3)
        x = (1, 2, 0)
        spec = HoloSpec(wedge, wedge_tree, ctx, {"p": x, "q": x})
        obj = hol_object(spec)
        f = HolMorphism({"v0": "v0"}, {"p": "q", "q": "p"})
        F = hol_morphism_to_bundle(f, obj, obj)
        bc = bundle_from_holonomy(obj)
        assert check_bundle_morphism(F, bc.gauge, bc.gauge)
        _assert_morphism_intertwines(F, bc, bc)

    def test_incompatible_holonomy_rejected(self, wedge, wedge_spec):
        obj = hol_object(wedge_spec)  # p -> (12), q -> (123): swap breaks it
        f = HolMorphism({"v0": "v0"}, {"p": "q", "q": "p"})
        with pytest.raises(HolonomyIncompatible):
            hol_morphism_to_bundle(f, obj, obj)

    def test_theta_swap_bc(self, theta, theta_tree):
        spec = HoloSpec(theta, theta_tree, CyclicCtx(5), {"b": 2, "c": 2})
        obj = hol_object(spec)
        f = HolMorphism({"v0": "v0", "v1": "v1"}, {"a": "a", "b": "c", "c": "b"})
        F = hol_morphism_to_bundle(f, obj, obj)
        bc = bundle_from_holonomy(obj)
        assert check_bundle_morphism(F, bc.gauge, bc.gauge)

    def test_functors_preserve_identity_and_composition(self, wedge, wedge_tree):
        ctx = PermutationCtx(3)
        x = (1, 2, 0)
        spec = HoloSpec(wedge, wedge_tree, ctx, {"p": x, "q": x})
        obj = hol_object(spec)
        bc = bundle_from_holonomy(obj)
        ident = identity_hol_morphism(wedge)
        F_id = hol_morphism_to_bundle(ident, obj, obj)
        assert all(k == ctx.identity() for k in F_id.fiber_adjust.values())
        swap = HolMorphism({"v0": "v0"}, {"p": "q", "q": "p"})
        F_swap = hol_morphism_to_bundle(swap, obj, obj)
        composed = compose_hol_morphisms(swap, swap)
        F_composed = hol_morphism_to_bundle(composed, obj, obj)
        from pathgauge.gauge import compose_bundle_maps

        stacked = compose_bundle_maps(ctx, F_swap, F_swap)
        assert F_composed.vertex_map == stacked.vertex_map
        assert F_composed.edge_map == stacked.edge_map
        assert F_composed.fiber_adjust == stacked.fiber_adjust

    def test_forgetting_returns_base_map(self, wedge, wedge_tree):
        ctx = PermutationCtx(3)
        x = (1, 2, 0)
        spec = HoloSpec(wedge, wedge_tree, ctx, {"p": x, "q": x})
        obj = hol_object(spec)
        bc = bundle_from_holonomy(obj)
        f = HolMorphism({"v0": "v0"}, {"p": "q", "q": "p"})
        F = hol_morphism_to_bundle(f, obj, obj)
        back = bundle_morphism_to_hol(F, bc, bc)
        assert back.vertex_map == f.vertex_map
        assert back.edge_map == f.edge_map
        # and the recovered base map still satisfies the holonomy condition
        for chord, loop in chord_loops(wedge, wedge_tree).items():
            assert obj.spec.eval(back.on_word(wedge, loop)) == obj.spec.assignment[chord]


class TestRoundtrip:
    def test_fixture_pipelines(self, theta_spec, wedge_spec):
        objs = [hol_object(theta_spec), hol_object(wedge_spec)]
        bcs = [theta_bc(), wedge_bc()]
        report = roundtrip_check(objs, bcs, max_loop_len=5)
        assert report.ok, [c for c in report.checks if not c.ok]

    def test_seeded_random_instances(self):
        rng = random.Random(42)
        objs = [random_hol_object(rng) for _ in range(6)]
        bcs = [random_bc_object(rng) for _ in range(6)]
        report = roundtrip_check(objs, bcs, max_loop_len=4)
        assert report.ok, [c for c in report.checks if not c.ok]

    def test_report_is_sorted_and_serializable(self):
        rng = random.Random(7)
        report = roundtrip_check([random_hol_object(rng)], [])
        names = [c.name for c in report.checks]
        assert names == sorted(names)
        doc = report.to_jsonable()
        assert doc["format"] == 1
        assert all(c["status"] == "pass" for c in doc["checks"])
