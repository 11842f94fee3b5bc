"""Every accepted complex, gauge field and holonomy spec survives its own
text format: parse(dump(x)) == x, and dumping again gives the same bytes,
for cyclic, permutation and rational-matrix contexts."""

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from pathgauge.complexes import BaseComplex, Edge, build_tree
from pathgauge.errors import ParseError
from pathgauge.fileio import (
    dump_complex,
    dump_gauge,
    dump_holospec,
    parse_complex,
    parse_gauge,
    parse_holospec,
)
from pathgauge.gauge import GaugeField
from pathgauge.groups import CyclicCtx, HoloSpec, PermutationCtx, RationalMatrixCtx

from .oracles import laplace_det

# Any text at all; the constructors decide what is accepted.
IDS = st.text(max_size=3)

CONTEXTS = st.one_of(
    st.integers(1, 20).map(CyclicCtx),
    st.integers(1, 6).map(PermutationCtx),
    st.integers(1, 3).map(RationalMatrixCtx),
)


@st.composite
def accepted_complexes(draw, connected: bool):
    """Pointed multigraphs with arbitrary text ids, kept only when
    `BaseComplex` accepts them; `connected` adds a random spanning tree."""
    vertices = draw(st.lists(IDS, min_size=1, max_size=5, unique=True))
    ends = st.sampled_from(vertices)
    pairs = [(draw(ends), draw(ends)) for _ in range(draw(st.integers(0, 5)))]
    if connected:
        pairs += [(vertices[i], draw(st.sampled_from(vertices[:i]))) for i in range(1, len(vertices))]
    edge_ids = draw(st.lists(IDS, min_size=len(pairs), max_size=len(pairs), unique=True))
    try:
        return BaseComplex(
            tuple(vertices), tuple(Edge(e, s, d) for e, (s, d) in zip(edge_ids, pairs)), draw(ends)
        )
    except ParseError:
        reject()


def elements(ctx):
    if ctx.kind == "cyclic":
        return st.integers(0, ctx.order - 1)
    if ctx.kind == "permutation":
        return st.permutations(range(ctx.degree)).map(tuple)
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    rows = st.lists(st.lists(entry, min_size=ctx.dim, max_size=ctx.dim), min_size=ctx.dim, max_size=ctx.dim)
    return rows.filter(laplace_det).map(ctx.matrix)


@given(accepted_complexes(connected=False))
@settings(max_examples=200, deadline=None)
def test_complex_roundtrip(cx):
    text = dump_complex(cx)
    assert parse_complex(text) == cx
    assert dump_complex(parse_complex(text)) == text


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_gauge_roundtrip(data):
    cx = data.draw(accepted_complexes(connected=False))
    ctx = data.draw(CONTEXTS)
    field = GaugeField(cx, ctx, {e.id: data.draw(elements(ctx)) for e in cx.edges})
    text = dump_gauge(field)
    assert parse_gauge(text, cx) == field
    assert dump_gauge(parse_gauge(text, cx)) == text


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_holospec_roundtrip(data):
    cx = data.draw(accepted_complexes(connected=True))
    ctx = data.draw(CONTEXTS)
    tree = build_tree(cx)
    spec = HoloSpec(cx, tree, ctx, {c: data.draw(elements(ctx)) for c in tree.chords()})
    text = dump_holospec(spec)
    assert parse_holospec(text, cx) == spec
    assert dump_holospec(parse_holospec(text, cx)) == text
