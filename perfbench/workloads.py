"""The four workloads: seeded inputs, jobs with known answers, and cycles.

A cycle is a fixed mix of jobs, one list per stratum (job kind and input
size), interleaved so that every prefix keeps the mix.  The runner executes
whole cycles, so every run measures the same mix whatever its length.  Each
cycle after the first gets fresh inputs, except in `fixture-sweep`, whose two
fixtures are the point of the workload.

Jobs reach the library through module attributes at call time (for example
`reconstruct.holonomy_of_bundle`), so the traced run sees every call.  A CLI
job runs `pathgauge.cli.main` once; each CLI input appears twice in a cycle,
and both invocations must print the same bytes.
"""

from __future__ import annotations

import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pathgauge.cli as cli
import pathgauge.complexes as complexes
import pathgauge.fileio as fileio
import pathgauge.gauge as gauge
import pathgauge.pathspace as pathspace
import pathgauge.reconstruct as reconstruct
import pathgauge.words as words
from pathgauge.complexes import BaseComplex, Edge
from pathgauge.gauge import EPath, GaugeField
from pathgauge.groups import CyclicCtx, PermutationCtx
from pathgauge.pathspace import AssociatedPoint, FPath, FPoint

from . import inputs
from .inputs import CyclicArith, MatrixArith, PermArith, Walker, known_field, random_spec


@dataclass(eq=False)
class Job:
    kind: str  # stratum, e.g. "cli.holonomy@V400"
    run: Callable[[], object]  # computes the answer; this is what is timed
    check: Callable[[object], bool]  # compares the answer with the known one
    twin: str | None = None  # CLI input key; both invocations must print the same bytes


def interleave(strata: list[list[Job]], rng: random.Random) -> list[Job]:
    """Systematic order: job i of a stratum of n sorts at (i + u) / n."""
    keyed = []
    for stratum in strata:
        u = rng.random()
        keyed.extend(((i + u) / len(stratum), rng.random(), job) for i, job in enumerate(stratum))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [job for _, _, job in keyed]


def cli_jobs(kind: str, argv: list[str], check: Callable[[int, str], bool]) -> list[Job]:
    def run():
        out = io.StringIO()
        code = cli.main(list(argv), out=out)
        return code, out.getvalue()

    key = "\0".join(argv)
    return [Job(kind, run, lambda answer: check(*answer), key) for _ in range(2)]


def structured_checks(text: str) -> dict[str, str]:
    return {c["name"]: c["status"] for c in json.loads(text)["checks"]}


def all_pass(code: int, text: str) -> bool:
    checks = structured_checks(text)
    return code == 0 and bool(checks) and all(s == "pass" for s in checks.values())


class Workload:
    name = ""
    why = ""
    trace_per_kind: int | None = None  # jobs of each kind the traced run takes from cycle 0; None = all

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        """Inputs shared by every cycle."""

    def cycle(self, index: int) -> list[Job]:
        raise NotImplementedError

    def rng(self, *salt) -> random.Random:
        return random.Random(repr((self.name, self.seed) + salt))

    def write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text)
        return str(path)


# fixture-sweep: the acceptance suite's axiom sweeps, one job per base word


def _theta() -> GaugeField:
    cx = BaseComplex(("v0", "v1"), (Edge("a", "v0", "v1"), Edge("b", "v0", "v1"), Edge("c", "v0", "v1")), "v0")
    return GaugeField(cx, CyclicCtx(5), {"a": 0, "b": 2, "c": 1})


def _wedge() -> GaugeField:
    cx = BaseComplex(("v0",), (Edge("p", "v0", "v0"), Edge("q", "v0", "v0")), "v0")
    return GaugeField(cx, PermutationCtx(3), {"p": (1, 0, 2), "q": (1, 2, 0)})


def all_words(cx: BaseComplex, max_len: int) -> list[words.PathWord]:
    """Every incidence-valid word of length <= max_len from every vertex."""
    layer = [words.empty_word(v) for v in cx.vertices]
    out = list(layer)
    for _ in range(max_len):
        layer = [
            words.PathWord(w.steps + (s,), w.vertices + (cx.step_head(s),))
            for w in layer
            for s in cx.out_steps(w.dst)
        ]
        out.extend(layer)
    return out


def reduced_from(cx: BaseComplex, start: str, max_len: int) -> list[words.PathWord]:
    return [w for w in all_words(cx, max_len) if w.src == start and w.is_reduced()]


def monotone_walks(n: int) -> list[list[int]]:
    walks = []
    for a in range(n + 1):
        for b in range(a, n + 1):
            walks.append(list(range(a, b + 1)))
            if b > a:
                walks.append(list(range(b, a - 1, -1)))
    return walks


@dataclass(eq=False)
class Fixture:
    field: GaugeField
    alphabet: list
    anchors: list  # reduced words out of the basepoint, length <= 4
    action_len: int  # anchors up to this length also get the loop action
    loops: list  # identity, every chord loop and its inverse
    tree_point: dict

    @classmethod
    def build(cls, field: GaugeField, action_len: int) -> Fixture:
        cx, ctx = field.complex, field.ctx
        tree = complexes.build_tree(cx)
        gens = ctx.generators()
        alphabet = [ctx.identity()] + gens if len(gens) < 2 else gens
        loops = [words.loop_id(cx.basepoint)]
        for loop in complexes.chord_loops(cx, tree).values():
            loops += [loop, words.reduce_word(words.reverse_word(loop))]
        tree_point = {v: FPoint(complexes.tree_path(tree, v)) for v in cx.vertices}
        return cls(field, alphabet, reduced_from(cx, cx.basepoint, 4), action_len, loops, tree_point)


def gauge_axioms(fx: Fixture, word, full_len: int = 3) -> bool:
    """Connection axioms (i)-(vi) of `gauge.project_horizontal` over one base word."""
    field, alphabet = fx.field, fx.alphabet
    ctx = field.ctx
    n = len(word.steps)
    if n <= full_len:
        fiber_tuples = list(itertools.product(alphabet, repeat=n + 1))
    else:
        fiber_tuples = [
            tuple(f if i == t else alphabet[0] for i in range(n + 1)) for t in range(n + 1) for f in alphabet
        ]
    for fibers in fiber_tuples:
        path = EPath(word, fibers)
        for t in range(n + 1):
            proj = gauge.project_horizontal(field, path, t)
            if proj.word != path.word or proj.fibers[t] != path.fibers[t]:
                return False
            if gauge.project_horizontal(field, proj, t) != proj:
                return False
            if n <= full_len:
                rhos = itertools.product(alphabet, repeat=n + 1)
            else:
                rhos = (tuple(r if i == t else alphabet[0] for i in range(n + 1)) for r in alphabet)
            for rho in rhos:
                lhs = gauge.project_horizontal(field, gauge.act_fibers(ctx, path, rho), t)
                if lhs != gauge.act_fibers(ctx, proj, (rho[t],) * (n + 1)):
                    return False
        for walk in monotone_walks(n):
            reparam = gauge.epath_along_walk(path, walk)
            for s, t in enumerate(walk):
                lhs = gauge.project_horizontal(field, reparam, s)
                if lhs != gauge.epath_along_walk(gauge.project_horizontal(field, path, t), walk):
                    return False
    return True


def _fpath(fx: Fixture, word, at: int, anchor) -> FPath:
    n = len(word.steps)
    return FPath(word, tuple(FPoint(anchor) if i == at else fx.tree_point[word.vertex_at(i)] for i in range(n + 1)))


def universal_axioms(fx: Fixture, word) -> bool:
    """Universal-connection axioms of `pathspace.universal_connection` over one base word."""
    n = len(word.steps)
    for r in range(n + 1):
        for anchor in fx.anchors:
            if anchor.dst != word.vertex_at(r):
                continue
            path = _fpath(fx, word, r, anchor)
            proj = pathspace.universal_connection(path, r)
            if proj.word != path.word or proj.points[r] != path.points[r]:
                return False
            if any(proj.points[s].target != word.vertex_at(s) for s in range(n + 1)):
                return False
            if pathspace.universal_connection(proj, r) != proj:
                return False
            if len(anchor.steps) <= fx.action_len:
                for loop in fx.loops:
                    rho = (loop,) * (n + 1)
                    lhs = pathspace.universal_connection(pathspace.act_points(path, rho), r)
                    if lhs != pathspace.act_points(proj, rho):
                        return False
    for walk in monotone_walks(n):
        for s, t in enumerate(walk):
            for anchor in fx.anchors:
                if len(anchor.steps) > fx.action_len or anchor.dst != word.vertex_at(t):
                    continue
                path = _fpath(fx, word, t, anchor)
                lhs = pathspace.universal_connection(pathspace.fpath_along_walk(path, walk), s)
                if lhs != pathspace.fpath_along_walk(pathspace.universal_connection(path, t), walk):
                    return False
    return True


def lift_vs_projection(fx: Fixture, word) -> bool:
    """`pathspace.universal_lift` equals the projection of the covering path."""
    for t0 in range(len(word.steps) + 1):
        for anchor in fx.anchors:
            if anchor.dst != word.vertex_at(t0):
                continue
            lifted = pathspace.universal_lift(word, t0, FPoint(anchor))
            if pathspace.universal_connection(_fpath(fx, word, t0, anchor), t0) != lifted:
                return False
            if pathspace.universal_connection(lifted, t0) != lifted:
                return False
    return True


def verify_ok(field: GaugeField, max_word_len: int) -> bool:
    report = reconstruct.Report()
    reconstruct.verify_reconstruction(reconstruct.bc_object(field), report, "iso", max_word_len=max_word_len)
    return report.ok


class FixtureSweep(Workload):
    name = "fixture-sweep"
    why = (
        "theta/cyclic(5) and wedge/perm(3), V<=2, base words <=4: millions of tiny group ops with heavy "
        "sharing, so group checks, the transport cache and word reduction dominate"
    )
    trace_per_kind = 2
    # Base words per cycle for each (sweep, fixture, word length); all of them when fewer exist.
    WORDS_PER_CYCLE = {
        ("gauge", "theta"): (2, 6, 18, 27, 54),
        ("gauge", "wedge"): (1, 4, 16, 18, 36),
        ("universal", "theta"): (2, 6, 18, 18),
        ("universal", "wedge"): (1, 4, 14, 14),
        ("lift", "theta"): (2, 6, 18, 27),
        ("lift", "wedge"): (1, 4, 16, 27),
    }
    VERIFY_WORD_LEN = 3
    ROUNDTRIP_INSTANCES = 2
    ROUNDTRIPS_PER_CYCLE = 4
    NUMERIC_TRIALS = 20

    def prepare(self) -> None:
        self.fixtures = {"theta": Fixture.build(_theta(), 3), "wedge": Fixture.build(_wedge(), 2)}
        rng = self.rng()
        self.pools = {}
        for (sweep, fx), counts in self.WORDS_PER_CYCLE.items():
            for n in range(len(counts)):
                pool = [w for w in all_words(self.fixtures[fx].field.complex, n) if len(w.steps) == n]
                rng.shuffle(pool)
                self.pools[(sweep, fx, n)] = pool

    def cycle(self, index: int) -> list[Job]:
        rng = self.rng(index)
        run = {"gauge": gauge_axioms, "universal": universal_axioms, "lift": lift_vs_projection}
        strata = []
        for (sweep, fx), counts in self.WORDS_PER_CYCLE.items():
            for n, count in enumerate(counts):
                pool = self.pools[(sweep, fx, n)]
                take = min(count, len(pool))
                chosen = [pool[(index * take + j) % len(pool)] for j in range(take)]
                fixture = self.fixtures[fx]
                strata.append([
                    Job(f"{sweep}@{fx}/len{n}", (lambda f=run[sweep], w=w, x=fixture: f(x, w)), bool)
                    for w in chosen
                ])
        strata.append([
            Job(f"verify@{fx}", (lambda x=x: verify_ok(x.field, self.VERIFY_WORD_LEN)), bool)
            for fx, x in self.fixtures.items()
        ])
        roundtrips = []
        for _ in range(self.ROUNDTRIPS_PER_CYCLE):
            argv = ["roundtrip", "--seed", str(rng.randrange(10**6)), "--instances", str(self.ROUNDTRIP_INSTANCES),
                    "--report-format", "structured"]
            roundtrips += cli_jobs("cli.roundtrip", argv, all_pass)
        strata.append(roundtrips)
        argv = ["numeric-check", "--seed", str(rng.randrange(10**6)), "--trials", str(self.NUMERIC_TRIALS),
                "--report-format", "structured"]
        strata.append(cli_jobs("cli.numeric-check", argv, all_pass))
        return interleave(strata, rng)


# graph-scale: sparse complexes with V in {100, 200, 400}, no field shared between jobs


def holonomy_check(spec: dict, order: int) -> Callable[[int, str], bool]:
    want = [str(spec[c]) for c in sorted(spec)]
    group_order = 1 if not any(spec.values()) else order  # every nonzero residue generates Z/p

    def check(code: int, text: str) -> bool:
        doc = json.loads(text)
        got = [row["element"] for row in doc["holonomies"]]
        return code == 0 and got == want and doc["group"]["order"] == group_order

    return check


def holonomy_and_iso(kf: inputs.KnownField) -> tuple:
    bc = reconstruct.bc_object(kf.field)
    hol = reconstruct.holonomy_of_bundle(bc)
    iso = reconstruct.reconstruct_iso(bc)
    return hol.spec.assignment, iso.spec.assignment, iso.adjust


def holonomy_and_iso_check(kf: inputs.KnownField) -> Callable[[tuple], bool]:
    return lambda answer: answer == (kf.spec, kf.spec, kf.k)


def canonical_points(arith, kf: inputs.KnownField, walker: Walker, rng: random.Random, count: int, loops: int):
    """Associated points (chord loops, then the tree path to x; fiber g) and their
    canonical forms (x, holonomy of the loops * g)."""
    chords = sorted(kf.spec)
    points, expected = [], []
    for _ in range(count):
        x = rng.choice(walker.cx.vertices)
        parts, h = [], arith.identity
        for _ in range(loops):
            c, forward = rng.choice(chords), rng.random() < 0.5
            parts.append(walker.chord_loop(c, forward))
            h = arith.mul(kf.spec[c] if forward else arith.inv(kf.spec[c]), h)
        parts.append(walker.tree_word(x))
        g = arith.random(rng)
        points.append(AssociatedPoint(inputs.join(*parts), g))
        expected.append((x, arith.mul(h, g)))
    return points, expected


class GraphScale(Workload):
    name = "graph-scale"
    why = (
        "sparse complexes V=100/200/400, E=1.5V-1, V/2 chords, cyclic(97); every job has its own field, so the "
        "transport cache cannot help and the quadratic graph layer dominates"
    )
    SIZES = (100, 200, 400)
    ORDER = 97
    MAX_LOOP_LENGTH = 4
    CANONICAL_POINTS = 50
    LOOPS_PER_POINT = 3
    # CLI holonomy inputs per cycle at each size; two at the largest size keep p90 inside one job kind.
    HOLONOMY_INPUTS = {100: 1, 200: 1, 400: 2}

    def cycle(self, index: int) -> list[Job]:
        rng = self.rng(index)
        a = CyclicArith(self.ORDER)
        strata = []
        for v in self.SIZES:
            cx = inputs.sparse_complex(rng, v, v // 2)
            tree = complexes.build_tree(cx)
            walker = Walker(cx, tree)
            cx_path = self.write(f"complex-{v}-{index}.json", fileio.dump_complex(cx))

            def fresh():
                return known_field(a, cx, tree, random_spec(a, tree, rng), rng)

            holonomy, validate = [], []
            for j in range(self.HOLONOMY_INPUTS[v]):
                kf = fresh()
                g_path = self.write(f"gauge-{v}-{index}-{j}.json", fileio.dump_gauge(kf.field))
                holonomy += cli_jobs(f"cli.holonomy@V{v}", ["holonomy", cx_path, g_path, "--all-chords",
                                     "--report-format", "structured"], holonomy_check(kf.spec, self.ORDER))
                if j == 0:
                    validate = cli_jobs(f"cli.validate@V{v}", ["validate", cx_path, g_path],
                                        lambda code, text: code == 0 and text == "ok\n")
            kf = fresh()
            h_path = self.write(f"holospec-{v}-{index}.json", fileio.dump_holospec(kf.holospec()))
            recon = cli_jobs(f"cli.reconstruct@V{v}", ["reconstruct", cx_path, h_path, "--max-loop-length",
                             str(self.MAX_LOOP_LENGTH), "--report-format", "structured"], all_pass)
            kf = fresh()
            lib = [Job(f"lib.holonomy+iso@V{v}", (lambda kf=kf: holonomy_and_iso(kf)), holonomy_and_iso_check(kf))]
            kf = fresh()
            spec = kf.holospec()
            points, expected = canonical_points(a, kf, walker, rng, self.CANONICAL_POINTS, self.LOOPS_PER_POINT)
            canon = [Job(f"lib.canonicalize@V{v}",
                         (lambda p=points, s=spec: [pathspace.canonicalize(ap, s) for ap in p]),
                         (lambda answer, e=expected: answer == e))]
            strata += [holonomy, validate, recon, lib, canon]
        return interleave(strata, rng)


# matrix-exact: rational matrices of dim 2-5 on small complexes


def conjugation_job(bc_fields: tuple, g) -> bool:
    f1, f2 = bc_fields
    psi = reconstruct.conjugation_iso(reconstruct.bc_object(f1), reconstruct.bc_object(f2), g)
    return gauge.check_bundle_morphism(psi, f1, f2)


class MatrixExact(Workload):
    name = "matrix-exact"
    why = (
        "rational matrices dim 2-5 on complexes V=6/12 with V/2 chords, words of length 6: every mul runs the "
        "factorial determinant check; the only workload on the infinite-context branches"
    )
    # (dim, V) strata; the job kinds below run on each.
    STRATA = ((2, 6), (2, 12), (3, 6), (3, 12), (4, 6), (5, 6))
    VERIFY_AT = (2, 6)  # verify_reconstruction costs seconds per field at larger sizes
    VERIFY_WORD_LEN = 1
    # conjugation_iso at dim 5 takes 0.6 s, a third of a cycle on its own.  Three transport
    # jobs per stratum put many similar jobs around the median, which keeps p50 steady.
    CONJUGATION_MAX_DIM = 4
    TRANSPORT_JOBS = 3
    WORDS = 4
    WORD_LENGTH = 6

    def cycle(self, index: int) -> list[Job]:
        rng = self.rng(index)
        strata = []
        for dim, v in self.STRATA:
            a = MatrixArith(dim)
            cx = inputs.sparse_complex(rng, v, v // 2)
            tree = complexes.build_tree(cx)
            walker = Walker(cx, tree)
            tag = f"dim{dim}@V{v}"

            def fresh(spec=None):
                return known_field(a, cx, tree, random_spec(a, tree, rng) if spec is None else spec, rng)

            kf = fresh()
            hol = Job(f"lib.holonomy@{tag}",
                      (lambda kf=kf: reconstruct.holonomy_of_bundle(reconstruct.bc_object(kf.field)).spec.assignment),
                      (lambda answer, kf=kf: answer == kf.spec))
            kf = fresh()
            iso = Job(f"lib.reconstruct_iso@{tag}",
                      (lambda kf=kf: reconstruct.reconstruct_iso(reconstruct.bc_object(kf.field)).adjust),
                      (lambda answer, kf=kf: answer == kf.k))
            strata += [[hol], [iso]]
            if dim <= self.CONJUGATION_MAX_DIM:
                spec2 = random_spec(a, tree, rng)
                g = a.random(rng)
                pair = (fresh(inputs.conjugated(a, g, spec2)).field, fresh(spec2).field)
                strata.append([Job(f"lib.conjugation_iso@{tag}", (lambda p=pair, g=g: conjugation_job(p, g)), bool)])
            transports = []
            for _ in range(self.TRANSPORT_JOBS):
                kf = fresh()
                ws = [walker.random_word(rng, self.WORD_LENGTH) for _ in range(self.WORDS)]
                want = [inputs.expected_transport(a, kf, w) for w in ws]
                transports.append(Job(f"lib.transport@{tag}",
                                      (lambda kf=kf, ws=ws: [gauge.transport(kf.field, w) for w in ws]),
                                      (lambda answer, want=want: answer == want)))
            strata.append(transports)
            if (dim, v) == self.VERIFY_AT:
                kf = fresh()
                strata.append([Job(f"lib.verify_reconstruction@{tag}",
                                   (lambda kf=kf: verify_ok(kf.field, self.VERIFY_WORD_LEN)), bool)])
        return interleave(strata, rng)


# classify-perm: CLI classify on conjugate and non-conjugate permutation pairs


class ClassifyPerm(Workload):
    name = "classify-perm"
    why = (
        "CLI classify on permutation fields of degree 5-6 over complexes V=10/20; 4 of 10 pairs conjugate by a "
        "random g, 6 split by one chord's cycle type: the search loops over all n! elements"
    )
    # (degree, V, conjugate, inputs per cycle).  Conjugate pairs cost a tenth of the others; with
    # exactly half of each, the median would fall in the gap between the two and swing between runs.
    STRATA = (
        (5, 10, True, 1), (5, 20, True, 1), (6, 10, True, 1), (6, 20, True, 1),
        (5, 10, False, 3), (5, 20, False, 1), (6, 10, False, 2),
    )

    def cycle(self, index: int) -> list[Job]:
        rng = self.rng(index)
        strata = []
        for degree, v, conjugate, count in self.STRATA:
            a = PermArith(degree)
            jobs = []
            for j in range(count):
                cx = inputs.sparse_complex(rng, v, v // 2)
                tree = complexes.build_tree(cx)
                spec2 = random_spec(a, tree, rng)
                spec1 = inputs.conjugated(a, a.random(rng), spec2)
                if not conjugate:
                    c0 = rng.choice(sorted(spec1))
                    other = a.random(rng)
                    while inputs.cycle_type(other) == inputs.cycle_type(spec1[c0]):
                        other = a.random(rng)
                    spec1[c0] = other
                f1 = known_field(a, cx, tree, spec1, rng)
                f2 = known_field(a, cx, tree, spec2, rng)
                stem = f"classify-{degree}-{v}-{int(conjugate)}-{index}-{j}"
                argv = [
                    "classify",
                    self.write(stem + "-complex.json", fileio.dump_complex(cx)),
                    self.write(stem + "-gauge1.json", fileio.dump_gauge(f1.field)),
                    self.write(stem + "-gauge2.json", fileio.dump_gauge(f2.field)),
                    "--report-format", "structured",
                ]
                want = (
                    (0, {"classify/conjugate": "pass", "classify/morphism-verified": "pass"})
                    if conjugate
                    else (1, {"classify/conjugate": "fail", "classify/no-gauge-morphism": "pass"})
                )
                jobs += cli_jobs(f"cli.classify.{'conj' if conjugate else 'nonconj'}@deg{degree}V{v}", argv,
                                 (lambda code, text, want=want: (code, structured_checks(text)) == want))
            strata.append(jobs)
        return interleave(strata, rng)


WORKLOADS = {w.name: w for w in (FixtureSweep, GraphScale, MatrixExact, ClassifyPerm)}
