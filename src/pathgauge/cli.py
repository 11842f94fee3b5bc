"""Command-line surface: validate, holonomy, reconstruct, roundtrip, classify,
numeric-check.

Reports come in two shapes (--report-format): human-readable text lines, or
the structured JSON report document.  Runs are deterministic for a fixed
seed, and the exit code is 0 exactly when no check failed.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from pathlib import Path

from . import numeric
from .complexes import build_tree, chord_loops
from .errors import ConjugacyViolated, NotClosed, ParseError, PathGaugeError
from .fileio import canonical_json, dump_gauge, parse_complex, parse_gauge, parse_holospec
from .gauge import BundlePoint, check_bundle_morphism, holonomy_group, holonomy_rep
from .instances import random_hol_object
from .reconstruct import (
    Report,
    bc_object,
    bundle_from_holonomy,
    conjugation_iso,
    find_conjugator,
    first_unrealized_loop,
    gauge_morphism_exists,
    hol_object,
    roundtrip_check,
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc


def _emit_report(report: Report, fmt: str, out) -> int:
    report = report.sorted()
    if fmt == "structured":
        out.write(canonical_json(report.to_jsonable()))
    else:
        for check in report.checks:
            line = f"{check.status.upper():4s} {check.name}"
            if check.witness is not None:
                line += f"  witness={check.witness}"
            out.write(line + "\n")
        total = len(report.checks)
        failed = sum(1 for c in report.checks if not c.ok)
        out.write(f"{total - failed}/{total} checks passed\n")
    return 0 if report.ok else 1


def cmd_validate(args, out) -> int:
    cx = parse_complex(_read(args.complex))
    if not cx.is_connected():
        raise PathGaugeError("complex is not connected")
    if args.gauge is not None:
        parse_gauge(_read(args.gauge), cx, default_identity=args.default_identity)
    out.write("ok\n")
    return 0


def cmd_holonomy(args, out) -> int:
    cx = parse_complex(_read(args.complex))
    field = parse_gauge(_read(args.gauge), cx, default_identity=args.default_identity)
    xi0 = BundlePoint(cx.basepoint, field.ctx.identity())
    rows = []
    if args.all_chords:
        tree = build_tree(cx)
        for chord, loop in sorted(chord_loops(cx, tree).items()):
            rows.append((loop.literal(), field.ctx.to_literal(holonomy_rep(field, xi0, loop))))
        group = holonomy_group(field, xi0, tree)
        if isinstance(group, frozenset):
            members = sorted(field.ctx.to_literal(g) for g in group)
            summary = {"order": len(group), "elements": members}
        else:
            summary = {"generators": [field.ctx.to_literal(g) for g in group]}
    else:
        if args.loop is None:
            raise ParseError("need a loop literal or --all-chords")
        loop = cx.word_from_literal(args.loop)
        rows.append((loop.literal(), field.ctx.to_literal(holonomy_rep(field, xi0, loop))))
        summary = None
    if args.report_format == "structured":
        doc = {"format": 1, "holonomies": [{"loop": l, "element": e} for l, e in rows]}
        if summary is not None:
            doc["group"] = summary
        out.write(canonical_json(doc))
    else:
        for literal, element in rows:
            out.write(f"{literal}\t{element}\n")
        if summary is not None:
            out.write(f"holonomy group: {summary}\n")
    return 0


def cmd_reconstruct(args, out) -> int:
    if args.max_loop_length < 0:
        raise ParseError("--max-loop-length must be >= 0")
    cx = parse_complex(_read(args.complex))
    tree = build_tree(cx)
    spec = parse_holospec(_read(args.holospec), cx, tree)
    bc = bundle_from_holonomy(hol_object(spec))
    gauge_text = dump_gauge(bc.gauge)
    if args.output is not None:
        Path(args.output).write_text(gauge_text)
    report = Report()
    bad = first_unrealized_loop(bc, spec, args.max_loop_length)
    report.add(
        "reconstruct/holonomy-matches",
        bad is None,
        None if bad is None else {"loop": bad.literal()},
    )
    if args.output is None and args.report_format != "structured":
        out.write(gauge_text)
    return _emit_report(report, args.report_format, out)


def cmd_roundtrip(args, out) -> int:
    if args.instances < 1:
        raise ParseError("--instances must be >= 1")
    rng = random.Random(args.seed)
    objs = [random_hol_object(rng) for _ in range(args.instances)]
    ids = [f"instance-{i:03d}" for i in range(args.instances)]
    bcs = [bundle_from_holonomy(o) for o in objs]
    report = roundtrip_check(objs, bcs, max_loop_len=4, ids=ids + ids)
    return _emit_report(report, args.report_format, out)


def cmd_classify(args, out) -> int:
    cx = parse_complex(_read(args.complex))
    field1 = parse_gauge(_read(args.gauge1), cx, default_identity=args.default_identity)
    field2 = parse_gauge(_read(args.gauge2), cx, default_identity=args.default_identity)
    bc1 = bc_object(field1)
    bc2 = bc_object(field2)
    report = Report()
    if args.conjugator is not None:
        g = field1.ctx.from_literal(args.conjugator)
    else:
        g = find_conjugator(bc1, bc2)
    if g is None:
        exists = gauge_morphism_exists(bc1, bc2)
        report.add(
            "classify/conjugate",
            False,
            {"reason": "no group element conjugates the chord holonomies"},
        )
        report.add("classify/no-gauge-morphism", not exists)
        return _emit_report(report, args.report_format, out)
    try:
        psi = conjugation_iso(bc1, bc2, g)
    except ConjugacyViolated as exc:
        report.add("classify/conjugate", False, {"chord": exc.chord})
        return _emit_report(report, args.report_format, out)
    verified = check_bundle_morphism(psi, field1, field2)
    report.add("classify/conjugate", True, None)
    report.add(
        "classify/morphism-verified",
        verified,
        {
            "conjugator": field1.ctx.to_literal(g),
            "fiber_adjust": {
                v: field1.ctx.to_literal(k) for v, k in sorted(psi.fiber_adjust.items())
            },
        }
        if not verified
        else None,
    )
    if args.report_format != "structured":
        out.write(f"conjugator: {field1.ctx.to_literal(g)}\n")
        for v, k in sorted(psi.fiber_adjust.items()):
            out.write(f"adjust[{v}] = {field1.ctx.to_literal(k)}\n")
    return _emit_report(report, args.report_format, out)


def cmd_numeric_check(args, out) -> int:
    if args.trials < 1:
        raise ParseError("--trials must be >= 1")
    rng = random.Random(args.seed)
    report = Report()

    form = numeric.angular_form()
    square = numeric.make_path(
        [(1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)]
    )
    enclosing = numeric.u1_holonomy(form, square)
    report.add(
        "numeric/winding-encloses",
        abs(enclosing - 2.0 * math.pi) <= 1e-6,
        {"value": enclosing},
    )
    shifted = numeric.make_path(
        [(3.0, -1.0), (5.0, -1.0), (5.0, 1.0), (3.0, 1.0), (3.0, -1.0)]
    )
    outside = numeric.u1_holonomy(form, shifted)
    report.add("numeric/winding-outside", abs(outside) <= 1e-6, {"value": outside})

    worst = 0.0
    for _ in range(args.trials):
        worst = max(worst, _retrace_defect(rng))
    report.add("numeric/retrace-invariance", worst <= 1e-9, {"worst": worst})

    grid = [i / 10_000 for i in range(10_001)]
    sym = max(abs(numeric.bump(t) + numeric.bump(1.0 - t) - 1.0) for t in grid)
    vals = [numeric.bump(t) for t in grid]
    monotone = all(b >= a for a, b in zip(vals, vals[1:]))
    report.add(
        "numeric/bump",
        numeric.bump(0.0) == 0.0 and numeric.bump(1.0) == 1.0 and sym <= 1e-12 and monotone,
        {"symmetry_defect": sym},
    )
    return _emit_report(report, args.report_format, out)


def _random_point(rng: random.Random) -> tuple[float, float]:
    while True:
        x, y = rng.uniform(-3, 3), rng.uniform(-3, 3)
        if math.hypot(x, y) > 0.3:
            return (x, y)


def _random_polyline(rng: random.Random, start, end) -> numeric.PLPath:
    mid = [_random_point(rng) for _ in range(rng.randint(1, 3))]
    return numeric.make_path([start] + mid + [end])


def _retrace_defect(rng: random.Random) -> float:
    """|integral over (beta v eta v eta~ v alpha) - integral over (beta v alpha)|."""
    form = numeric.angular_form()
    a = _random_point(rng)
    b = _random_point(rng)
    c = _random_point(rng)
    for _ in range(100):
        alpha = _random_polyline(rng, a, b)
        eta = _random_polyline(rng, b, c)
        beta = _random_polyline(rng, b, a)
        plain = numeric.concat_paths(alpha, beta)
        padded = numeric.concat_paths(
            numeric.concat_paths(alpha, numeric.concat_paths(eta, eta.reverse())), beta
        )
        try:
            return abs(numeric.u1_holonomy(form, padded) - numeric.u1_holonomy(form, plain))
        except numeric.SingularityTooClose:
            continue
    raise NotClosed("could not draw a loop clear of the puncture")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathgauge",
        description="Exact holonomy, reconstruction, and classification on graph gauge fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--report-format", choices=("text", "structured"), default="text")
        p.add_argument("--default-identity", action="store_true")
        p.add_argument("--max-loop-length", type=int, default=6)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("validate", help="check a complex (and optionally a gauge file)")
    p.add_argument("complex")
    p.add_argument("gauge", nargs="?", default=None)
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("holonomy", help="holonomy of a loop, or of all chord loops")
    p.add_argument("complex")
    p.add_argument("gauge")
    p.add_argument("loop", nargs="?", default=None)
    p.add_argument("--all-chords", action="store_true")
    common(p)
    p.set_defaults(func=cmd_holonomy)

    p = sub.add_parser("reconstruct", help="build the gauge field realizing a holonomy spec")
    p.add_argument("complex")
    p.add_argument("holospec")
    p.add_argument("--output", default=None)
    common(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("roundtrip", help="seeded random round-trip verification")
    p.add_argument("--instances", type=int, default=20)
    common(p)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("classify", help="conjugacy classification of two gauge fields")
    p.add_argument("complex")
    p.add_argument("gauge1")
    p.add_argument("gauge2")
    p.add_argument("--conjugator", default=None)
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("numeric-check", help="piecewise-linear numeric battery")
    p.add_argument("--trials", type=int, default=100)
    common(p)
    p.set_defaults(func=cmd_numeric_check)

    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except PathGaugeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
