"""Acceptance suite: one test per numbered criterion, each printing one
pass/fail line (run with `pytest -s` to see them).

Every check here is exact except the numeric battery, whose tolerances are
pinned inline.  Axiom sweeps enumerate the full product space at small
lengths and, at the largest length, every combination of the data the two
sides of each axiom equation actually consume (the projection at index t is
determined by the base word and the entry at t, so entries elsewhere cannot
change either side; the small-length full products confirm that).
"""

import functools
import io
import itertools
import json
import math
import random

import numpy as np

from pathgauge import numeric
from pathgauge.cli import _retrace_defect, main
from pathgauge.complexes import (
    build_tree,
    chord_loops,
    enumerate_reduced_loops,
    enumerate_words,
    reduced_words_from,
    tree_path,
)
from pathgauge.gauge import (
    EPath,
    act_fibers,
    bundle_morphism_on_epath,
    check_bundle_morphism,
    epath_along_walk,
    holonomy_rep,
    project_horizontal,
)
from pathgauge.instances import random_hol_object, theta_complex, theta_holospec, wedge_complex
from pathgauge.pathspace import (
    FPath,
    FPoint,
    act_points,
    fpath_along_walk,
    universal_connection,
    universal_lift,
)
from pathgauge.reconstruct import (
    Report,
    bundle_from_holonomy,
    conjugation_iso,
    find_conjugator,
    gauge_morphism_exists,
    hol_object,
    holonomy_of_bundle,
    roundtrip_check,
    verify_reconstruction,
)
from pathgauge.words import loop_id, reduce_word

from .builders import (
    conjugate_bc_pair,
    monotone_walks,
    nonconjugate_bc_pair,
    theta_bc,
    theta_gauge,
    wedge_bc,
    wedge_gauge,
    wedge_holospec,
)
from .oracles import oracle_reduce


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {name}")
                raise
            print(f"PASS criterion {name}")

        return wrapper

    return decorate


@criterion("1: free-reduction confluence (all theta words, length <= 8, exact)")
def test_criterion_1():
    cx = theta_complex()
    count = 0
    for word in enumerate_words(cx, 8):
        assert reduce_word(word) == oracle_reduce(word)
        count += 1
    assert count == 19_682  # every incidence-valid word from both vertices


def fiber_alphabets(field):
    ctx = field.ctx
    gens = ctx.generators()
    alphabet = [ctx.identity()] + gens if len(gens) < 2 else gens
    return alphabet


def lattice_axiom_sweep(field, max_len, full_len):
    """Axioms (i)-(vi) for the gauge-field connection.

    Full fiber/rho tuple products up to length `full_len`; at longer lengths
    the anchor entry (the only one either side reads) sweeps the alphabet.
    """
    ctx = field.ctx
    cx = field.complex
    alphabet = fiber_alphabets(field)
    for word in enumerate_words(cx, max_len):
        n = len(word.steps)
        walks = monotone_walks(n)
        if n <= full_len:
            fiber_tuples = list(itertools.product(alphabet, repeat=n + 1))
        else:
            base = alphabet[0]
            fiber_tuples = [
                tuple(f if i == t else base for i in range(n + 1))
                for t in range(n + 1)
                for f in alphabet
            ]
        for fibers in fiber_tuples:
            path = EPath(word, fibers)
            for t in range(n + 1):
                proj = project_horizontal(field, path, t)
                assert proj.word == path.word  # (i) domain, (ii) same base
                assert len(proj.fibers) == len(path.fibers)
                assert proj.fibers[t] == path.fibers[t]  # (iii) basepoint
                assert project_horizontal(field, proj, t) == proj  # (vi) projection
                if n <= full_len:
                    rho_tuples = itertools.product(alphabet, repeat=n + 1)
                else:
                    rho_tuples = (
                        tuple(r if i == t else alphabet[0] for i in range(n + 1))
                        for r in alphabet
                    )
                for rho in rho_tuples:  # (iv) equivariance
                    lhs = project_horizontal(field, act_fibers(ctx, path, rho), t)
                    rhs = act_fibers(ctx, proj, tuple(rho[t] for _ in range(n + 1)))
                    assert lhs == rhs
            for walk in walks:  # (v) reparameterization
                reparam = epath_along_walk(path, walk)
                for s_idx, t in enumerate(walk):
                    assert project_horizontal(field, reparam, s_idx) == epath_along_walk(
                        project_horizontal(field, path, t), walk
                    )


@criterion("2: connection axioms (i)-(vi), theta/cyclic(5) and wedge/perm(3), lifts <= 4, exact")
def test_criterion_2():
    lattice_axiom_sweep(theta_gauge(), max_len=4, full_len=3)
    lattice_axiom_sweep(wedge_gauge(), max_len=4, full_len=3)


def universal_axiom_sweep(cx, max_base_len=3, anchor_len=4, action_anchor_len=3):
    tree = build_tree(cx)
    bp = cx.basepoint
    anchor_pool = reduced_words_from(cx, bp, anchor_len)
    action_pool = [w for w in anchor_pool if len(w.steps) <= action_anchor_len]
    loops = [loop_id(bp)]
    for loop in chord_loops(cx, tree).values():
        loops.append(loop)
        loops.append(reduce_word(reverse_steps(loop)))
    tree_point = {v: FPoint(tree_path(tree, v)) for v in cx.vertices}
    for word in enumerate_words(cx, max_base_len):
        n = len(word.steps)
        walks = monotone_walks(n)
        for r in range(n + 1):
            v_r = word.vertex_at(r)
            for anchor_word in anchor_pool:
                if anchor_word.dst != v_r:
                    continue
                points = tuple(
                    FPoint(anchor_word) if i == r else tree_point[word.vertex_at(i)]
                    for i in range(n + 1)
                )
                path = FPath(word, points)
                proj = universal_connection(path, r)
                assert proj.word == path.word  # (i) domain
                for s in range(n + 1):  # (ii) lifting
                    assert proj.points[s].target == word.vertex_at(s)
                assert proj.points[r] == path.points[r]  # (iii) basepoint
                assert universal_connection(proj, r) == proj  # (vi) projection
                if len(anchor_word.steps) <= action_anchor_len:
                    for rho_r in loops:  # (iv) equivariance
                        rho = tuple(rho_r for _ in range(n + 1))
                        lhs = universal_connection(act_points(path, rho), r)
                        rhs = act_points(proj, rho)
                        assert lhs == rhs
        for walk in walks:  # (v) reparameterization
            for s_idx in range(len(walk)):
                t = walk[s_idx]
                for anchor_word in action_pool:
                    if anchor_word.dst != word.vertex_at(t):
                        continue
                    points = tuple(
                        FPoint(anchor_word) if i == t else tree_point[word.vertex_at(i)]
                        for i in range(n + 1)
                    )
                    path = FPath(word, points)
                    reparam = fpath_along_walk(path, walk)
                    assert universal_connection(reparam, s_idx) == fpath_along_walk(
                        universal_connection(path, t), walk
                    )


def reverse_steps(word):
    from pathgauge.words import reverse_word

    return reverse_word(word)


@criterion("3: universal connection axioms, base words <= 3, point words <= 4, exact")
def test_criterion_3():
    universal_axiom_sweep(theta_complex())
    universal_axiom_sweep(wedge_complex(), action_anchor_len=2)


@criterion("4: horizontal lift coincides with projection of covering paths, exact")
def test_criterion_4():
    for cx in (theta_complex(), wedge_complex()):
        tree = build_tree(cx)
        bp = cx.basepoint
        anchor_pool = reduced_words_from(cx, bp, 4)
        tree_point = {v: FPoint(tree_path(tree, v)) for v in cx.vertices}
        for word in enumerate_words(cx, 3):
            n = len(word.steps)
            for t0 in range(n + 1):
                v = word.vertex_at(t0)
                for anchor_word in anchor_pool:
                    if anchor_word.dst != v:
                        continue
                    start = FPoint(anchor_word)
                    lifted = universal_lift(word, t0, start)
                    covering = FPath(
                        word,
                        tuple(
                            start if i == t0 else tree_point[word.vertex_at(i)]
                            for i in range(n + 1)
                        ),
                    )
                    assert universal_connection(covering, t0) == lifted
                    assert universal_connection(lifted, t0) == lifted  # horizontal


@criterion("5: rebuilt gauge realizes the holonomy on every reduced loop <= 6, exact")
def test_criterion_5():
    fixtures = [hol_object(theta_holospec()), hol_object(wedge_holospec())]
    rng = random.Random(501)
    instances = fixtures + [random_hol_object(rng) for _ in range(20)]
    for obj in instances:
        bc = bundle_from_holonomy(obj)
        loops = enumerate_reduced_loops(obj.complex, 6)
        assert loops, "loop enumeration must at least contain the empty loop"
        for loop in loops:
            assert holonomy_rep(bc.gauge, bc.xi0, loop) == obj.spec.eval(loop)


@criterion("6: reconstruction isomorphism bijective/equivariant/intertwining per fixture, exact")
def test_criterion_6():
    for bc in (theta_bc(), wedge_bc()):
        report = Report()
        verify_reconstruction(bc, report, "iso", max_word_len=3, anchor_max_len=2)
        bad = [c for c in report.checks if not c.ok]
        assert not bad, bad


def assert_connection_intertwined(F, src, dst, max_len=2, word_cap=120):
    ctx = src.ctx
    alphabet = [ctx.identity()] + ctx.generators()
    for word in itertools.islice(enumerate_words(src.complex, max_len), word_cap):
        n = len(word.steps)
        for t in range(n + 1):
            for f_t in alphabet:
                fibers = tuple(
                    f_t if i == t else ctx.identity() for i in range(n + 1)
                )
                path = EPath(word, fibers)
                mapped = bundle_morphism_on_epath(F, ctx, dst.complex, path)
                lhs = bundle_morphism_on_epath(
                    F, ctx, dst.complex, project_horizontal(src.gauge, path, t)
                )
                rhs = project_horizontal(dst.gauge, mapped, t)
                assert lhs == rhs


@criterion("7: conjugate pairs yield verified isomorphisms; non-conjugate pairs none, exact")
def test_criterion_7():
    rng = random.Random(701)
    for i in range(20):
        degree = 3 if i % 2 == 0 else 4
        bc1, bc2, g = conjugate_bc_pair(rng, degree)
        psi = conjugation_iso(bc1, bc2, g)
        assert check_bundle_morphism(psi, bc1.gauge, bc2.gauge)
        assert_connection_intertwined(psi, bc1, bc2)
    for i in range(20):
        degree = 3 if i % 2 == 0 else 4
        bc1, bc2 = nonconjugate_bc_pair(rng, degree)
        assert find_conjugator(bc1, bc2) is None
        assert not gauge_morphism_exists(bc1, bc2)


@criterion("8: category round trips on 20 seeded instances, exact")
def test_criterion_8():
    rng = random.Random(801)
    objs = [random_hol_object(rng) for _ in range(20)]
    bcs = [bundle_from_holonomy(o) for o in objs]
    report = roundtrip_check(objs, bcs, max_loop_len=4)
    bad = [c for c in report.checks if not c.ok]
    assert not bad, bad
    for obj in objs:  # literal identity of the first round trip
        assert holonomy_of_bundle(bundle_from_holonomy(obj)) == obj


@criterion("9: numeric shadow (winding 1e-6, retrace 1e-9, bump 1e-12)")
def test_criterion_9():
    form = numeric.angular_form()
    square = numeric.make_path(
        [(1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)]
    )
    assert abs(numeric.u1_holonomy(form, square) - 2.0 * math.pi) <= 1e-6
    outside = numeric.make_path(
        [(3.0, -1.0), (5.0, -1.0), (5.0, 1.0), (3.0, 1.0), (3.0, -1.0)]
    )
    assert abs(numeric.u1_holonomy(form, outside)) <= 1e-6

    rng = random.Random(901)
    for _ in range(100):
        assert _retrace_defect(rng) <= 1e-9

    assert numeric.bump(0.0) == 0.0
    assert numeric.bump(1.0) == 1.0
    ts = np.linspace(0.0, 1.0, 10_001)
    vals = numeric.bump(ts)
    assert np.max(np.abs(vals + vals[::-1] - 1.0)) <= 1e-12
    assert np.all(np.diff(vals) >= 0.0)


@criterion("10: CLI roundtrip --seed 1 --instances 20 is byte-identical and exits 0")
def test_criterion_10():
    argv = ["roundtrip", "--seed", "1", "--instances", "20", "--report-format", "structured"]
    first, second = io.StringIO(), io.StringIO()
    code1 = main(argv, out=first)
    code2 = main(argv, out=second)
    assert code1 == 0 and code2 == 0
    assert first.getvalue().encode() == second.getvalue().encode()
    doc = json.loads(first.getvalue())
    assert doc["format"] == 1
    assert all(c["status"] == "pass" for c in doc["checks"])
