"""End-to-end command line behavior, invoked in process via main(argv)."""

from __future__ import annotations

import argparse
import hashlib
import json
import shlex
from pathlib import Path

import pytest

import moymf.cli as cli
from moymf import ReductionSession, compile_diagram, parse, qbinomial
from moymf import reduce as reduce_module
from moymf.cli import main

CIRCLE = "level n 3\nedge e1 color 1 from boundary:a to boundary:a\n"
LINE = "level n 3\nedge e1 color 2 from boundary:p to boundary:q\n"
THETA = (
    "level n 3\n"
    "edge e2 color 1 from v1 to v2\n"
    "edge e3 color 1 from v1 to v2\n"
    "edge e4 color 2 from v2 to v1\n"
    "vertex v1 split in e4 out e2 e3\n"
    "vertex v2 merge in e2 e3 out e4\n"
)
BAD = THETA.replace("edge e4 color 2", "edge e4 color 3")
# an open merge then split: reduction excludes its internal variables and
# keeps two rows on the boundary alphabets
OPEN = (
    "level n 3\n"
    "edge e1 color 1 from boundary:a to v0\n"
    "edge e2 color 1 from boundary:b to v0\n"
    "edge e3 color 2 from v0 to v1\n"
    "edge e4 color 1 from v1 to boundary:c\n"
    "edge e5 color 1 from v1 to boundary:d\n"
    "vertex v0 merge in e1 e2 out e3\n"
    "vertex v1 split in e3 out e4 e5\n"
)


@pytest.fixture
def circle_file(tmp_path):
    path = tmp_path / "circle1.moy"
    path.write_text(CIRCLE)
    return str(path)


@pytest.fixture
def theta_file(tmp_path):
    path = tmp_path / "theta.moy"
    path.write_text(THETA)
    return str(path)


@pytest.fixture
def line_file(tmp_path):
    path = tmp_path / "line.moy"
    path.write_text(LINE)
    return str(path)


class TestEulerCommand:
    def test_circle_at_overridden_level(self, circle_file, capsys) -> None:
        assert main(["euler", circle_file, "--n", "2"]) == 0
        assert capsys.readouterr().out == "q^-1 + q\n"

    def test_a_level_line_ending_in_a_comment_is_overridden(self, tmp_path, capsys) -> None:
        path = tmp_path / "circle1.moy"
        path.write_text(CIRCLE.replace("level n 3", "level n 3  # circle"))
        assert main(["euler", str(path), "--n", "2"]) == 0
        assert capsys.readouterr().out == "q^-1 + q\n"

    @pytest.mark.parametrize(
        "level_line",
        ["level n -3", "level n ٣"],
        ids=["negative", "arabic-indic digit"],
    )
    def test_the_override_replaces_any_level_value(self, tmp_path, capsys, level_line) -> None:
        # refused without --n, answered with it: the value token is replaced
        path = tmp_path / "circle1.moy"
        path.write_text(CIRCLE.replace("level n 3", level_line))
        assert main(["euler", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: line 1, col 9:")
        assert main(["euler", str(path), "--n", "2"]) == 0
        assert capsys.readouterr().out == "q^-1 + q\n"

    @pytest.mark.parametrize(
        "text, where",
        [
            (CIRCLE.replace("level n 3", "level n 3 4"), "line 1, col 1: expected: level n <int>"),
            (CIRCLE.replace("level n 3\nedge e1 color", "edge e1 colour"), "line 1, col 9:"),
        ],
        ids=["level line arity", "no level line"],
    )
    def test_override_refusals_keep_the_file_line_numbers(
        self, tmp_path, capsys, text, where
    ) -> None:
        path = tmp_path / "circle1.moy"
        path.write_text(text)
        for extra in ([], ["--n", "2"]):
            assert main(["euler", str(path), *extra]) == 2
            assert capsys.readouterr().err.startswith(f"error: {where}")

    def test_a_level_past_the_packed_limit_is_an_input_error(self, tmp_path, capsys) -> None:
        # level 127's potential has degree 256, past the packed limit 255:
        # refused at its line, from the file or from --n, never an internal error
        want = "error: line 1, col 9: level must be <= 126: the potential's degree"
        path = tmp_path / "circle1.moy"
        path.write_text(CIRCLE.replace("level n 3", "level n 127"))
        assert main(["euler", str(path)]) == 2
        assert capsys.readouterr().err.startswith(want)
        path.write_text(CIRCLE)
        assert main(["euler", str(path), "--n", "127"]) == 2
        assert capsys.readouterr().err.startswith(want)
        path.write_text(CIRCLE.replace("level n 3\n", "").rstrip("\n"))
        assert main(["euler", str(path), "--n", "127"]) == 2
        assert capsys.readouterr().err.startswith("error: line 2, col 9: level must be <= 126")

    def test_a_file_without_a_level_line_gets_the_override(self, tmp_path, capsys) -> None:
        path = tmp_path / "circle1.moy"
        path.write_text(CIRCLE.replace("level n 3\n", "").rstrip("\n"))
        assert main(["euler", str(path), "--n", "2"]) == 0
        assert capsys.readouterr().out == "q^-1 + q\n"

    def test_level_override_is_textual(self, circle_file, capsys) -> None:
        # the file says level 3; without an override that level is used
        assert main(["euler", circle_file]) == 0
        assert capsys.readouterr().out == "q^-2 + 1 + q^2\n"

    def test_the_cutoff_bounds_the_answer(self, tmp_path, capsys) -> None:
        # a color-5 circle at level 10: its base quotient reaches degree 50,
        # but its answer lies in q^-25..q^25, within the default cutoff 40
        path = tmp_path / "circle5.moy"
        path.write_text("level n 10\nedge e1 color 5 from boundary:a to boundary:a\n")
        assert main(["euler", str(path)]) == 0
        assert capsys.readouterr().out == qbinomial(10, 5).render() + "\n"
        assert main(["euler", str(path), "--cutoff", "24"]) == 2
        assert capsys.readouterr().err == "error: homology degree 25 exceeds the cutoff 24\n"

    def test_open_diagram_fails_cleanly(self, line_file, capsys) -> None:
        assert main(["euler", line_file]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_a_level_below_one_is_an_input_error(self, circle_file, capsys) -> None:
        assert main(["euler", circle_file, "--n", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --n must be a positive integer\n"

    def test_a_color_above_the_level_is_an_input_error(self, tmp_path, capsys) -> None:
        path = tmp_path / "circle4.moy"
        path.write_text("level n 2\nedge e1 color 4 from boundary:a to boundary:a\n")
        assert main(["euler", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2, col 1: edge e1 color 4 exceeds level 2\n"


class TestCompileCommand:
    def test_text_output_shape(self, theta_file, capsys) -> None:
        assert main(["compile", theta_file]) == 0
        out = capsys.readouterr().out
        expected = ("base:", "potential:", "potential_degree:", "rank0:",
                    "rank1:", "shifts0:", "shifts1:")
        lines = out.splitlines()
        for prefix, line in zip(expected, lines):
            assert line.startswith(prefix), line
        assert any(line.startswith("d0[") for line in lines)
        assert any(line.startswith("d1[") for line in lines)

    def test_json_output_parses(self, theta_file, capsys) -> None:
        assert main(["compile", theta_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {
            "base", "rank0", "rank1", "shifts0", "shifts1",
            "d0", "d1", "potential", "potential_degree",
        } <= set(doc)
        assert doc["rank0"] == doc["rank1"] == 8  # 2^4 / 2 generators

    def test_theta_output_bytes_are_pinned(self, theta_file, capsys) -> None:
        # sha256 prefixes of the explicit expansion in each format: module
        # order, entry signs and rendering all feed them
        for argv, digest in (([], "e42464f25f789753"), (["--format", "json"], "b8c0d1206076b10e")):
            assert main(["compile", theta_file, *argv]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest, argv

    def test_out_writes_the_same_document(self, circle_file, tmp_path, capsys) -> None:
        target = tmp_path / "mf.txt"
        assert main(["compile", circle_file, "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["compile", circle_file]) == 0
        assert target.read_text() == capsys.readouterr().out

    def test_repeat_runs_are_byte_identical(self, theta_file, capsys) -> None:
        argv = ["compile", theta_file, "--format", "json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_color_violation_exits_2(self, tmp_path, capsys) -> None:
        path = tmp_path / "bad.moy"
        path.write_text(BAD)
        assert main(["compile", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error: vertex v1: colors 1 + 1 != 3" in err

    def test_missing_file_exits_2(self, tmp_path, capsys) -> None:
        assert main(["compile", str(tmp_path / "none.moy")]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestPotentialCommand:
    def test_closed_diagram_has_zero_potential(self, theta_file, capsys) -> None:
        assert main(["potential", theta_file]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_open_line_potential_renders(self, line_file, capsys) -> None:
        assert main(["potential", line_file]) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n") and "x1_q" in out and "x1_p" in out


class TestPoincareCommand:
    def test_two_parity_lines(self, circle_file, capsys) -> None:
        assert main(["poincare", circle_file, "--cutoff", "12"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("z2_0: ")
        assert lines[1].startswith("z2_1: ")


class TestReduceCommand:
    def test_reduces_circle_and_writes_log(self, circle_file, tmp_path, capsys) -> None:
        log_path = tmp_path / "log.json"
        assert main(["reduce", circle_file, "--log", str(log_path)]) == 0
        out = capsys.readouterr().out
        assert "rows: 0" in out
        assert "steps: 1" in out
        entries = json.loads(log_path.read_text())
        assert len(entries) == 1
        assert entries[0]["op"] == "absorb"
        assert entries[0]["potential_check"] == "ok"

    def test_a_refused_absorption_is_logged_but_is_no_step(
        self, theta_file, tmp_path, capsys, monkeypatch
    ) -> None:
        # a gate that verifies nothing leaves both zero-sided rows of the
        # excluded theta in place, each skipped once
        monkeypatch.setattr(reduce_module, "_gate", lambda base, seq: ("unverified", base))
        log_path = tmp_path / "log.json"
        assert main(["reduce", theta_file, "--log", str(log_path)]) == 0
        entries = json.loads(log_path.read_text())
        assert [e["op"] for e in entries] == ["exclude_variable", "skip", "skip"]
        assert [e["params"]["rows"] for e in entries[1:]] == [[0], [1]]
        assert all(
            (e["params"]["regularity"], e["potential_check"]) == ("unverified", "unchanged")
            for e in entries[1:]
        )
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "rows: 2" and lines[-1] == "steps: 1"

    def test_the_log_carries_each_absorption_verdict(self, theta_file, tmp_path) -> None:
        log_path = tmp_path / "log.json"
        assert main(["reduce", theta_file, "--log", str(log_path)]) == 0
        absorbed = [e for e in json.loads(log_path.read_text()) if e["op"] == "absorb"]
        # the theta's two zero-sided rows leave in one verified sequence
        # step, which names each row with its side and generator
        assert [(e["params"]["rows"], e["params"]["regularity"]) for e in absorbed] == [
            ([0, 1], "verified")
        ]
        params = absorbed[0]["params"]
        assert len(params["sides"]) == len(params["generators"]) == 2

    def test_an_unwritable_log_prints_only_the_error(self, circle_file, tmp_path, capsys) -> None:
        log_path = tmp_path / "missing" / "log.json"
        assert main(["reduce", circle_file, "--log", str(log_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(log_path) in captured.err

    def test_an_open_diagram_prints_the_rows_it_keeps(self, tmp_path, capsys) -> None:
        path = tmp_path / "open.moy"
        path.write_text(OPEN)
        assert main(["reduce", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        d = parse(OPEN)
        session = ReductionSession(compile_diagram(d), external=d.external_vars())
        k = session.reduce_fully()
        # its two substitutions are one run, so one step
        assert k.row_count == 2 and len(session.log) == 1
        assert lines[1] == "rows: 2" and lines[-1] == "steps: 1"
        assert [line for line in lines if line.startswith("row ")] == [
            f"row {i}: {a.render()} | {b.render()}" for i, (a, b) in enumerate(k.rows)
        ]


class TestVerifyCommand:
    def test_cor_square_passes(self, capsys) -> None:
        assert main(["verify", "cor_square", "--params", "3", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "relation: cor_square"
        assert lines[1] == "params: 3 1"
        assert lines[-1] == "PASS"

    def test_missing_params_is_an_argparse_error(self, capsys) -> None:
        with pytest.raises(SystemExit) as info:
            main(["verify", "bubble"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the following arguments are required: --params" in captured.err

    def test_arity_precheck(self, capsys) -> None:
        assert main(["verify", "cor_square", "--params", "1", "2", "3"]) == 2
        assert "expects 2 parameters" in capsys.readouterr().err

    def test_a_color_above_the_level_is_an_input_error(self, capsys) -> None:
        assert main(["verify", "assoc_merge", "--params", "1", "1", "1", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: relation assoc_merge [1, 1, 1, 2]: color 3 not in 1..2\n"
        )
        # a level past the packed limit is refused before any source is parsed
        assert main(["verify", "line_contract", "--params", "1", "200"]) == 2
        assert capsys.readouterr().err == (
            "error: relation line_contract [1, 200]: level 200 above 126\n"
        )

    def test_unknown_relation_is_an_argparse_error(self) -> None:
        with pytest.raises(SystemExit) as info:
            main(["verify", "hexagon", "--params", "1", "2"])
        assert info.value.code == 2

    def test_a_cutoff_below_a_closed_sides_top_degree_passes(self, capsys) -> None:
        # the circle's top degree is 2; the cutoff only stops the series
        assert main(["verify", "circle_jacobi", "--params", "2", "3", "--cutoff", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "PASS"

    def test_json_format(self, capsys) -> None:
        assert main(
            ["verify", "cor_square", "--params", "2", "1", "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "PASS"

    def test_fail_verdict_exits_1(self, capsys, monkeypatch) -> None:
        def rigged(name, params, cutoff=None):
            return {
                "relation": name,
                "params": list(params),
                "lhs_series": {"z2_0": "1", "z2_1": "0"},
                "rhs_series": {"z2_0": "q^2", "z2_1": "0"},
                "verdict": "FAIL",
                "first_difference": {
                    "z2": 0, "exponent": 0, "lhs": 1, "rhs": 0,
                },
                "reduction_log_ref": "inline:reduction_log",
                "reduction_log": [],
            }

        monkeypatch.setattr(cli, "verify_relation", rigged)
        assert main(["verify", "cor_square", "--params", "3", "1"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "FAIL"
        assert any(line.startswith("first difference:") for line in lines)

    def test_undecided_verdict_exits_1(self, capsys) -> None:
        # the reduced counter-bubble keeps x1_i.zl and x2_i.zl in its rows
        args = ["verify", "counter_bubble", "--params", "3", "3", "8"]
        assert main(args) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "UNDECIDED"
        assert any(line.startswith("first difference:") for line in lines)
        assert main(args + ["--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["stalled_variables"] == ["x1_i.zl", "x2_i.zl"]

    def test_internal_error_exits_3_without_traceback(self, capsys, monkeypatch) -> None:
        def broken(name, params, cutoff=None):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(cli, "verify_relation", broken)
        assert main(["verify", "cor_square", "--params", "3", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "internal error: TypeError: unsupported operand"
        ]
        assert "Traceback" not in captured.err


class TestCrosscheckCommand:
    def test_theta_passes(self, theta_file, capsys) -> None:
        assert main(["crosscheck", theta_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("engine: ")
        assert lines[1].startswith("oracle: ")
        assert lines[2] == "PASS"
        assert lines[0].split(": ", 1)[1] == lines[1].split(": ", 1)[1]

    def test_json_format(self, theta_file, capsys) -> None:
        assert main(["crosscheck", theta_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        engine, oracle = (line.split(": ", 1)[1] for line in lines[:2])
        assert main(["crosscheck", theta_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "PASS"
        assert (doc["engine_euler"], doc["oracle_value"]) == (engine, oracle)


class TestQbinomCommand:
    def test_matches_the_library(self, capsys) -> None:
        assert main(["qbinom", "4", "2"]) == 0
        assert capsys.readouterr().out == qbinomial(4, 2).render() + "\n"

    def test_out_of_range_is_zero(self, capsys) -> None:
        assert main(["qbinom", "2", "5"]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_a_level_past_the_recursion_limit(self, capsys) -> None:
        assert main(["qbinom", "500", "2"]) == 0
        assert capsys.readouterr().out == qbinomial(500, 2).render() + "\n"

    def test_non_integer_argument_is_an_argparse_error(self) -> None:
        with pytest.raises(SystemExit) as info:
            main(["qbinom", "4", "two"])
        assert info.value.code == 2


@pytest.mark.parametrize("command", ["euler", "crosscheck", "verify", "poincare"])
def test_a_negative_cutoff_is_an_input_error(command, circle_file, capsys) -> None:
    inputs = ["bubble", "--params", "1", "1", "2", "3"] if command == "verify" else [circle_file]
    assert main([command, *inputs, "--cutoff", "-4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cutoff must be >= 0, got -4\n"


def test_readme_command_line_examples(circle_file, capsys) -> None:
    # each example of README's "Command line" section, run in process,
    # prints the very text README shows under it; circle.moy is a color-1
    # circle
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    examples = section.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    ran = []
    for example in examples.strip().split("\n\n"):
        command, *shown = example.splitlines()
        assert command.startswith("$ moymf "), command
        argv = shlex.split(command.removeprefix("$ moymf "))
        argv = [circle_file if arg == "circle.moy" else arg for arg in argv]
        assert main(argv) == 0, command
        assert capsys.readouterr().out.splitlines() == shown, command
        ran.append(argv[0])
    assert ran == ["euler", "verify", "qbinom"]


def test_readme_usage_block_lists_each_commands_arguments() -> None:
    # README's usage block names, per subcommand, its positional arguments
    # (the dest in capitals) and exactly the options build_parser defines
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    usage = section.split("\n```\n", 1)[1].split("```", 1)[0]
    shown = {}
    for line in usage.splitlines():
        command, *tokens = shlex.split(line.removeprefix("moymf "))
        tokens = [t.strip("[]") for t in tokens]
        first = next((i for i, t in enumerate(tokens) if t.startswith("--")), len(tokens))
        options = {t for t in tokens if t.startswith("--")}
        shown[command] = (tokens[:first], options)
    (commands,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    defined = {}
    for command, sub in commands.choices.items():
        positionals = [a.dest.upper() for a in sub._actions if not a.option_strings]
        options = {
            s for a in sub._actions for s in a.option_strings if s.startswith("--")
        } - {"--help"}
        defined[command] = (positionals, options)
    assert shown == defined
