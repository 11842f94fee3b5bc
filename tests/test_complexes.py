import re

import pytest

from pathgauge.complexes import (
    BaseComplex,
    Edge,
    build_tree,
    chord_loops,
    enumerate_reduced_loops,
    factor_loop,
    radial_paths,
    tree_path,
)
from pathgauge.errors import NotConnected, ParseError
from pathgauge.words import empty_word, loop_id, loop_inv, loop_mul, reduce_word


def test_theta_is_connected(theta):
    assert theta.is_connected()


def test_single_vertex_connected():
    cx = BaseComplex(("v0",), (), "v0")
    assert cx.is_connected()


def test_two_vertices_no_edges_disconnected():
    cx = BaseComplex(("v0", "v1"), (), "v0")
    assert not cx.is_connected()


def test_edge_with_missing_vertex_rejected():
    with pytest.raises(ParseError, match="x"):
        BaseComplex(("v0",), (Edge("x", "v0", "v9"),), "v0")


def test_duplicate_edge_id_rejected():
    with pytest.raises(ParseError, match="dup"):
        BaseComplex(("v0", "v1"), (Edge("dup", "v0", "v1"), Edge("dup", "v1", "v0")), "v0")


def test_duplicate_vertex_id_rejected():
    with pytest.raises(ParseError, match="'v0'"):
        BaseComplex(("v0", "v0", "v1"), (Edge("a", "v0", "v1"),), "v0")


@pytest.mark.parametrize("edge_id", ["a,b", "~a", "a~", "a@b", "@a", " a", "a "])
def test_edge_id_breaking_word_literals_rejected(edge_id):
    with pytest.raises(ParseError, match=re.escape(repr(edge_id))):
        BaseComplex(("v0", "v1"), (Edge(edge_id, "v0", "v1"),), "v0")


class TestBuildTree:
    def test_theta_tree_is_a(self, theta_tree):
        assert theta_tree.tree_edges == frozenset({"a"})
        assert theta_tree.chords() == ["b", "c"]

    def test_path_graph_tree_is_whole_graph(self, path3):
        tree = build_tree(path3)
        assert tree.tree_edges == frozenset({"e1", "e2"})

    def test_self_loops_never_tree_edges(self):
        cx = BaseComplex(
            ("v0",), (Edge("d", "v0", "v0"), Edge("e", "v0", "v0")), "v0"
        )
        tree = build_tree(cx)
        assert tree.tree_edges == frozenset()

    def test_disconnected_raises(self):
        cx = BaseComplex(("v0", "v1"), (), "v0")
        with pytest.raises(NotConnected):
            build_tree(cx)

    def test_disconnected_radial_paths_raises(self):
        cx = BaseComplex(("v0", "v1", "v2"), (Edge("a", "v0", "v1"),), "v0")
        with pytest.raises(NotConnected):
            radial_paths(cx, "v1")

    def test_deterministic(self, theta):
        trees = [build_tree(theta) for _ in range(5)]
        assert all(t == trees[0] for t in trees)


class TestTreePath:
    def test_theta_v1(self, theta, theta_tree):
        assert tree_path(theta_tree, "v1") == theta.word_from_literal("a")

    def test_basepoint_empty(self, theta_tree):
        assert tree_path(theta_tree, "v0") == empty_word("v0")

    def test_path_graph(self, path3):
        tree = build_tree(path3)
        assert tree_path(tree, "v2") == path3.word_from_literal("e1,e2")

    def test_always_reduced_with_right_endpoint(self, theta, theta_tree):
        for v in theta.vertices:
            w = tree_path(theta_tree, v)
            assert reduce_word(w) == w
            assert w.src == "v0" and w.dst == v


class TestChordLoops:
    def test_theta(self, theta, theta_tree):
        loops = chord_loops(theta, theta_tree)
        assert loops["b"] == theta.word_from_literal("b,~a")
        assert loops["c"] == theta.word_from_literal("c,~a")

    def test_wedge(self, wedge, wedge_tree):
        loops = chord_loops(wedge, wedge_tree)
        assert loops["p"] == wedge.word_from_literal("p")
        assert loops["q"] == wedge.word_from_literal("q")

    def test_loops_reduced_based_and_single_crossing(self, theta, theta_tree):
        for chord, loop in chord_loops(theta, theta_tree).items():
            assert loop.is_reduced()
            assert loop.src == loop.dst == "v0"
            crossings = [s for s in loop.steps if s.edge == chord]
            assert len(crossings) == 1 and crossings[0].forward

    def test_chord_erasure_trivializes_only_own_generator(self, theta, theta_tree):
        loops = chord_loops(theta, theta_tree)
        for chord, loop in loops.items():
            for erased in theta_tree.chords():
                image = [occ for occ in factor_loop(theta_tree, loop) if occ[0] != erased]
                assert (image == []) == (erased == chord)


class TestRadialPaths:
    def test_theta(self, theta):
        assert radial_paths(theta, "v0") == {
            "v0": empty_word("v0"),
            "v1": theta.word_from_literal("a"),
        }

    def test_single_vertex(self):
        cx = BaseComplex(("v0",), (), "v0")
        assert radial_paths(cx, "v0") == {"v0": empty_word("v0")}

    def test_path_graph_from_middle(self, path3):
        fam = radial_paths(path3, "v1")
        assert fam["v0"].literal() == "~e1"
        assert fam["v1"] == empty_word("v1")
        assert fam["v2"].literal() == "e2"

    def test_words_start_at_origin(self, theta4):
        fam = radial_paths(theta4, "v1")
        for v, w in fam.items():
            assert w.src == "v1" and w.dst == v


class TestLoopFactorization:
    @pytest.mark.parametrize("fixture", ["theta", "wedge"])
    def test_every_loop_recombines(self, fixture, request):
        cx = request.getfixturevalue(fixture)
        tree = build_tree(cx)
        loops = chord_loops(cx, tree)
        for gamma in enumerate_reduced_loops(cx, 6):
            product = loop_id(cx.basepoint)
            for chord, sign in factor_loop(tree, gamma):
                factor = loops[chord] if sign == 1 else loop_inv(loops[chord])
                product = loop_mul(factor, product)
            assert product == reduce_word(gamma)
