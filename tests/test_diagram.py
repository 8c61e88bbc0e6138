"""DSL parsing, rendering, validation, and compilation of planar diagrams."""

from __future__ import annotations

import pickle
import random

import pytest

import corpus
from moymf import diagram, symfun
from moymf import (
    ColorConstraintViolation,
    DiagramSyntaxError,
    Poly,
    boundary_potential,
    compile_diagram,
    parse,
    render,
)
from moymf.analysis import _square_wide_src

CIRCLE = "level n 3\nedge e1 color 2 from boundary:a to boundary:a\n"
LINE = "level n 3\nedge e1 color 2 from boundary:p to boundary:q\n"
THETA = (
    "level n 3\n"
    "edge e2 color 1 from v1 to v2\n"
    "edge e3 color 1 from v1 to v2\n"
    "edge e4 color 2 from v2 to v1\n"
    "vertex v1 split in e4 out e2 e3\n"
    "vertex v2 merge in e2 e3 out e4\n"
)


class TestParseRender:
    def test_roundtrip_on_fixed_shapes(self) -> None:
        for src in (CIRCLE, LINE, THETA):
            d = parse(src)
            assert parse(render(d)) == d

    def test_roundtrip_on_random_corpus(self) -> None:
        rng = random.Random(71)
        for _ in range(30):
            src = corpus.random_diagram_source(rng, closed=rng.random() < 0.5)
            d = parse(src)
            assert parse(render(d)) == d

    def test_comments_and_blank_lines_are_ignored(self) -> None:
        src = (
            "level n 3   # ambient level\n"
            "\n"
            "# a closed loop\n"
            "edge e1 color 2 from boundary:a to boundary:a\n"
        )
        assert parse(src) == parse(CIRCLE)

    def test_high_colors_need_the_flag(self) -> None:
        src = "level n 2\nedge e1 color 3 from boundary:p to boundary:q\n"
        with pytest.raises(DiagramSyntaxError, match="exceeds level"):
            parse(src)
        d = parse(src, allow_high_colors=True)
        assert parse(render(d), allow_high_colors=True) == d


class TestSyntaxErrors:
    def test_missing_level(self) -> None:
        with pytest.raises(DiagramSyntaxError, match="missing level") as info:
            parse("edge e1 color 1 from boundary:a to boundary:b\n")
        assert info.value.line == 1

    def test_error_carries_line_and_column(self) -> None:
        with pytest.raises(DiagramSyntaxError) as info:
            parse("level n 3\nedge e1 color 1 from boundary:a\n")
        assert (info.value.line, info.value.col) == (2, 1)
        assert str(info.value).startswith("line 2, col 1:")

    def test_bad_integer_points_at_the_token(self) -> None:
        with pytest.raises(DiagramSyntaxError, match="expected integer") as info:
            parse("level n x\n")
        assert (info.value.line, info.value.col) == (1, 9)

    def test_duplicate_edge_id(self) -> None:
        src = (
            "level n 2\n"
            "edge e1 color 1 from boundary:a to boundary:b\n"
            "edge e1 color 1 from boundary:c to boundary:d\n"
        )
        with pytest.raises(DiagramSyntaxError, match="duplicate edge id"):
            parse(src)

    def test_unknown_directive(self) -> None:
        with pytest.raises(DiagramSyntaxError, match="unknown directive"):
            parse("level n 2\nloop e1 color 1\n")

    def test_vertex_with_unknown_edge(self) -> None:
        src = (
            "level n 2\n"
            "edge e1 color 1 from v1 to boundary:b\n"
            "vertex v1 merge in e8 e9 out e1\n"
        )
        with pytest.raises(DiagramSyntaxError, match="unknown edge"):
            parse(src)

    def test_endpoint_and_slot_must_agree(self) -> None:
        src = THETA.replace(
            "vertex v2 merge in e2 e3 out e4", "vertex v2 merge in e3 e3 out e4"
        )
        with pytest.raises(DiagramSyntaxError, match="does not list it"):
            parse(src)

    def test_glued_label_needs_head_and_tail(self) -> None:
        src = (
            "level n 2\n"
            "edge e1 color 1 from boundary:a to boundary:b\n"
            "edge e2 color 1 from boundary:a to boundary:c\n"
        )
        with pytest.raises(DiagramSyntaxError, match="head to a tail"):
            parse(src)

    def test_glued_label_needs_equal_colors(self) -> None:
        src = (
            "level n 3\n"
            "edge e1 color 1 from boundary:a to boundary:m\n"
            "edge e2 color 2 from boundary:m to boundary:b\n"
        )
        with pytest.raises(DiagramSyntaxError, match="joins colors"):
            parse(src)

    def test_label_used_three_times(self) -> None:
        src = (
            "level n 2\n"
            "edge e1 color 1 from boundary:a to boundary:m\n"
            "edge e2 color 1 from boundary:m to boundary:b\n"
            "edge e3 color 1 from boundary:m to boundary:c\n"
        )
        with pytest.raises(DiagramSyntaxError, match="used 3 times"):
            parse(src)


class TestColorConstraint:
    def test_violation_names_the_vertex(self) -> None:
        src = THETA.replace("edge e4 color 2", "edge e4 color 3")
        with pytest.raises(ColorConstraintViolation) as info:
            parse(src)
        assert info.value.vertex == "v1"
        assert "colors 1 + 1 != 3" in str(info.value)


class TestDiagramShape:
    def test_closedness_and_external_variables(self) -> None:
        circle, line, theta = parse(CIRCLE), parse(LINE), parse(THETA)
        assert circle.closed and theta.closed and not line.closed
        assert circle.external_vars() == frozenset()
        assert theta.external_vars() == frozenset()
        assert len(line.external_vars()) == 4  # two color-2 alphabets

    def test_external_variables_are_found_once(self) -> None:
        line = parse(LINE)
        assert line.external_vars() is line.external_vars()
        copied = pickle.loads(pickle.dumps(line))
        assert copied == line and copied.external_vars() == line.external_vars()


# (source, exception type, message fragment, line): malformed inputs, one
# for each raise site of the parser and validator
L3 = "level n 3\n"
EDGE = "edge e1 color 1 from boundary:a to boundary:b\n"
BAD_INPUTS = {
    "bad edge id": (L3 + "edge e-1 color 1 from boundary:a to boundary:b\n",
                    DiagramSyntaxError, "bad edge id", 2),
    "bad boundary label": (L3 + "edge e1 color 1 from boundary:a-b to boundary:b\n",
                           DiagramSyntaxError, "bad boundary label", 2),
    "bad endpoint": (L3 + "edge e1 color 1 from v-1 to boundary:b\n",
                     DiagramSyntaxError, "bad endpoint", 2),
    "keyword mismatch": (L3 + "edge e1 colour 1 from boundary:a to boundary:b\n",
                         DiagramSyntaxError, "expected 'color'", 2),
    "duplicate level": (L3 + EDGE + "level n 4\n",
                        DiagramSyntaxError, "duplicate level", 3),
    "malformed level": ("level n\n" + EDGE, DiagramSyntaxError, "expected: level n", 1),
    "level below 1": ("level n 0\n" + EDGE, DiagramSyntaxError, "level must be >= 1", 1),
    "color below 1": (L3 + "edge e1 color 0 from boundary:a to boundary:b\n",
                      DiagramSyntaxError, "color must be >= 1", 2),
    "edge arity": (L3 + "edge e1 color 1 from boundary:a\n",
                   DiagramSyntaxError, "expected: edge", 2),
    "vertex arity": (L3 + EDGE + "vertex v1 merge in e1 out e2\n",
                     DiagramSyntaxError, "expected: vertex", 3),
    "duplicate vertex id": (
        L3 + EDGE + "vertex v1 merge in e1 e2 out e3\nvertex v1 merge in e1 e2 out e3\n",
        DiagramSyntaxError, "duplicate vertex id", 4,
    ),
    "unknown vertex kind": (L3 + EDGE + "vertex v1 blend in e1 e2 out e3\n",
                            DiagramSyntaxError, "unknown vertex kind", 3),
    "no edges": (L3 + "# nothing else\n", DiagramSyntaxError, "no edges", 1),
    "unknown vertex": (L3 + "edge e1 color 1 from v9 to boundary:b\n",
                       DiagramSyntaxError, "unknown vertex v9", 2),
    "slot not terminated": (
        L3 + EDGE
        + "edge e2 color 1 from boundary:c to v1\n"
        + "edge e3 color 2 from v1 to boundary:d\n"
        + "vertex v1 merge in e1 e2 out e3\n",
        DiagramSyntaxError, "edge e1 is listed in vertex slots", 2,
    ),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_malformed_input_names_its_line(case: str) -> None:
    src, exc, fragment, line = BAD_INPUTS[case]
    with pytest.raises(exc, match=fragment) as info:
        parse(src)
    assert info.value.line == line


class TestCompile:
    def test_circle_rows_have_zero_second_entries(self) -> None:
        k = compile_diagram(parse(CIRCLE))
        assert k.row_count == 2
        assert all(b == Poly.zero() for _, b in k.rows)
        assert k.potential() == Poly.zero()
        assert len(k.base.vars) == 2

    def test_theta_compiles_with_split_shift(self) -> None:
        k = compile_diagram(parse(THETA))
        assert k.row_count == 4
        assert k.potential() == Poly.zero()
        assert k.global_grading_shift == -1  # one split of colors 1 and 1

    def test_each_shape_and_alphabet_is_built_once(self, monkeypatch) -> None:
        # two merges and two splits of colors 1 + 1 = 2: two shapes, eight rows
        src = _square_wide_src(1, 3)
        d = parse(src)
        built = []
        alphabet = diagram.Alphabet
        monkeypatch.setattr(diagram, "Alphabet", lambda *key: built.append(key) or alphabet(*key))
        symfun._plan.cache_clear()
        diagram.Diagram._alphabet.cache_clear()
        k = compile_diagram(d)
        again = parse(src)
        assert compile_diagram(d) == compile_diagram(again) == k and k.row_count == 8
        assert symfun._plan.cache_info().misses == 2
        assert len(built) == len(set(built)) == 8  # 4 boundary, 4 internal edges
        # one alphabet per (color, label) in the process, across diagrams
        assert d.edge_alphabet(d.edge("rhi")) is again.edge_alphabet(again.edge("rhi"))

    def test_potential_matches_the_boundary_on_corpus(self) -> None:
        rng = random.Random(73)
        for _ in range(50):
            src = corpus.random_diagram_source(rng, closed=rng.random() < 0.5)
            d = parse(src)
            k = compile_diagram(d)
            assert k.potential() == boundary_potential(d), src

    def test_disjoint_union_compiles_to_the_join(self) -> None:
        pieces = [
            (CIRCLE, "level n 3\nedge l1 color 2 from boundary:p to boundary:q\n"),
            (THETA, "level n 3\nedge l1 color 1 from boundary:p to boundary:q\n"),
        ]
        for left_src, right_src in pieces:
            union_src = left_src + right_src.split("\n", 1)[1]
            ku = compile_diagram(parse(union_src))
            kj = compile_diagram(parse(left_src)).join(
                compile_diagram(parse(right_src))
            )
            rows_u = sorted((a.render(), b.render()) for a, b in ku.rows)
            rows_j = sorted((a.render(), b.render()) for a, b in kj.rows)
            assert rows_u == rows_j
            assert ku.global_grading_shift == kj.global_grading_shift
            assert ku.z2_shift == kj.z2_shift
            assert set(ku.base.vars) == set(kj.base.vars)
            assert ku.graded_series(10) == kj.graded_series(10)
