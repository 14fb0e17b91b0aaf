import contextlib
import io
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corules
from corules import (
    Finite,
    InferenceSystem,
    InternalError,
    JudgmentSet,
    Lasso,
    Rule,
    StructuralError,
    predicate_by_name,
)
from corules.cli import (
    ParseError,
    SystemFile,
    format_colist,
    parse_candidates,
    parse_colist,
    parse_system,
    render_system,
    run,
)

from util import random_system, set_from_bits

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def cli_command(*argv):
    """``corules ARGV`` in a fresh interpreter that imports this checkout."""
    src = str(Path(corules.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return [sys.executable, "-m", "corules.cli", *argv], dict(os.environ, PYTHONPATH=path)


class TestParseSystem:
    def test_minimal_axiom(self):
        sf = parse_system("judgments: a\nrule: a <-")
        assert sf.names == ("a",)
        assert sf.system.rules == (Rule(frozenset(), 0),)
        assert sf.system.corules == ()
        assert sf.spec is None

    def test_rule_corule_and_spec(self):
        sf = parse_system(
            "judgments: a b\n"
            "rule: b <- a\n"
            "corule: a <-\n"
            "spec: b\n")
        assert sf.system.rules == (Rule(frozenset([0]), 1),)
        assert sf.system.corules == (Rule(frozenset(), 0),)
        assert sf.spec == JudgmentSet.of(2, [1])

    def test_comments_and_blank_lines_ignored(self):
        sf = parse_system("# header\n\njudgments: a  # trailing\nrule: a <-\n\n")
        assert sf.names == ("a",)
        assert len(sf.system.rules) == 1

    def test_ids_follow_declaration_order(self):
        sf = parse_system("judgments: z y x")
        assert sf.names == ("z", "y", "x")
        assert sf.id_of("x") == 2

    def err(self, text):
        with pytest.raises(ParseError) as info:
            parse_system(text)
        return info.value

    def test_unknown_name_has_position(self):
        e = self.err("judgments: a b\nrule: b <- a z")
        assert e.code == "unknown-name"
        assert (e.line, e.column) == (2, 14)
        assert "z" in str(e)

    def test_missing_header(self):
        assert self.err("rule: a <-").code == "missing-header"
        for text, line, column in (("spec: a", 1, 1), ("foo: bar", 1, 1),
                                   ("\n  corule: a <-", 2, 3)):
            e = self.err(text + "\njudgments: a")
            assert (e.code, e.line, e.column) == ("missing-header", line, column)
            assert e.message == "judgments: header must be the first directive"
        assert self.err("").code == "missing-header"
        assert self.err("# only a comment\n").code == "missing-header"

    def test_duplicate_header(self):
        e = self.err("judgments: a\njudgments: b")
        assert e.code == "duplicate-header"
        assert e.line == 2

    def test_malformed_arrow(self):
        assert self.err("judgments: a\nrule: a").code == "malformed-arrow"
        assert self.err("judgments: a\nrule: a a").code == "malformed-arrow"
        assert self.err("judgments: a\nrule: a <- <-").code == "malformed-arrow"
        assert self.err("judgments: a\nrule:").code == "malformed-arrow"

    def test_duplicate_name(self):
        e = self.err("judgments: a b a")
        assert e.code == "duplicate-name"
        assert (e.line, e.column) == (1, 16)

    def test_duplicate_spec(self):
        assert self.err("judgments: a\nspec: a\nspec:").code == "duplicate-spec"

    def test_empty_judgments(self):
        assert self.err("judgments:").code == "empty-judgments"

    def test_unknown_directive(self):
        assert self.err("judgments: a\nfoo: bar").code == "unknown-directive"

    def test_empty_spec_line_allowed(self):
        sf = parse_system("judgments: a\nspec:")
        assert sf.spec == JudgmentSet.empty(1)


class TestRenderRoundTrip:
    def test_round_trip_small(self):
        text = "judgments: a b\nrule: b <- a\ncorule: a <-\nspec: b\n"
        sf = parse_system(text)
        assert parse_system(render_system(sf)) == sf

    def test_round_trip_awkward_names(self):
        text = ("judgments: max(2,xs) <=3 a.b|c vZ\n"
                "rule: <=3 <- max(2,xs) a.b|c\n"
                "corule: vZ <-\n"
                "spec: vZ <=3\n")
        sf = parse_system(text)
        assert parse_system(render_system(sf)) == sf

    def test_round_trip_generated_corpus(self):
        rng = random.Random(41)
        for i in range(60):
            sys_ = random_system(rng, max_universe=6, max_rules=8, max_corules=3)
            names = tuple(f"n{k}" for k in range(sys_.universe_size))
            spec = None
            if rng.random() < 0.5:
                spec = set_from_bits(sys_.universe_size,
                                     rng.randrange(1 << sys_.universe_size))
            sf = SystemFile(names,
                            InferenceSystem(sys_.universe_size, sys_.rules,
                                            sys_.corules, labels=names),
                            spec)
            rendered = render_system(sf)
            assert parse_system(rendered) == sf
            assert render_system(parse_system(rendered)) == rendered

    def test_rendered_text_is_clean(self):
        sf = parse_system("judgments: a b\nrule: b <- a\nspec:")
        rendered = render_system(sf)
        assert rendered.endswith("\n") and "\r" not in rendered
        assert all(line == line.rstrip() for line in rendered.splitlines())


class TestParseColist:
    @pytest.mark.parametrize("text,expected", [
        ("1 2 | 3", Lasso((1, 2), (3,))),
        ("| 1 2", Lasso((), (1, 2))),
        ("", Finite(())),
        ("4", Finite((4,))),
        ("0 1 2", Finite((0, 1, 2))),
        ("1|2", Lasso((1,), (2,))),
    ])
    def test_literals(self, text, expected):
        assert parse_colist(text) == expected

    def test_errors(self):
        with pytest.raises(ParseError) as e:
            parse_colist("1 x")
        assert e.value.code == "bad-token"
        with pytest.raises(ParseError) as e:
            parse_colist("1 2 |")
        assert e.value.code == "empty-loop"
        with pytest.raises(ParseError) as e:
            parse_colist("1 | 2 | 3")
        assert e.value.code == "extra-separator"
        with pytest.raises(ParseError):
            parse_colist("-1")

    @pytest.mark.parametrize("token", ["\u00b2", "1\u00b2", "\u2460", "9" * 5000],
                             ids=["superscript", "digit-superscript", "circled", "5000-digits"])
    def test_digits_int_rejects_are_bad_tokens(self, token):
        # str.isdigit() holds for each token, but int() rejects it
        for parse, text in ((parse_colist, f"1 | {token}"),
                            (parse_candidates, f"1,{token}")):
            with pytest.raises(ParseError) as e:
                parse(text)
            assert e.value.code == "bad-token"
            assert str(e.value) == f"not a natural number: {token!r}"
        with pytest.raises(ValueError, match="must be a natural number"):
            predicate_by_name(f"eq:{token}")

    def test_other_decimal_digits_stay_accepted(self):
        assert parse_colist("\u0663 | 1") == Lasso((3,), (1,))
        assert parse_candidates("\u0663,1") == [3, 1]
        assert predicate_by_name("gt:\u0663")(4)

    @given(st.one_of(
        st.text(),
        st.lists(st.sampled_from(["judgments:", "rule:", "corule:", "spec:", "<-",
                                  "a", "b", "c", "|", "1", "#", "\n", " ", "\u00b2",
                                  "\u0663", "-1", "x"]))
        .map(" ".join)))
    def test_parsers_return_or_raise_parse_error(self, text):
        for parse in (parse_colist, parse_system):
            try:
                parse(text)
            except ParseError:
                pass

    def test_format_round_trip(self):
        for text in ("1 2 | 3", "| 1 2", "", "0 4 4"):
            xs = parse_colist(text)
            assert parse_colist(format_colist(xs)) == xs


def write(tmp_path, text, name="system.inf"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


BASICS = "judgments: a b c\nrule: a <-\nrule: b <- a\nrule: c <- c\nspec: a b\n"


class TestRunInterpretations:
    def test_ind(self, tmp_path, capsys):
        assert run(["ind", write(tmp_path, BASICS)]) == 0
        assert capsys.readouterr().out == "a\nb\n"

    def test_coind(self, tmp_path, capsys):
        assert run(["coind", write(tmp_path, BASICS)]) == 0
        assert capsys.readouterr().out == "a\nb\nc\n"

    def test_gen(self, tmp_path, capsys):
        assert run(["gen", write(tmp_path, BASICS)]) == 0
        assert capsys.readouterr().out == "a\nb\n"

    def test_gen_self_loop_only_is_empty(self, tmp_path, capsys):
        path = write(tmp_path, "judgments: a\nrule: a <- a\n")
        assert run(["gen", path]) == 0
        assert capsys.readouterr().out == ""

    def test_output_in_declaration_order(self, tmp_path, capsys):
        path = write(tmp_path, "judgments: z a\nrule: z <-\nrule: a <-\n")
        run(["ind", path])
        assert capsys.readouterr().out == "z\na\n"


class TestRunCheck:
    def test_passing_spec(self, tmp_path, capsys):
        path = write(tmp_path, "judgments: a b c\nrule: a <-\nrule: b <- a\n"
                               "rule: c <- c\ncorule: c <-\nspec: a b c\n")
        assert run(["check", path]) == 0
        assert capsys.readouterr().out == (
            "boundedness: PASS\nconsistency: PASS\nspec-in-gen: PASS\n")

    def test_failing_boundedness_names_counterexample(self, tmp_path, capsys):
        path = write(tmp_path, "judgments: a c\nrule: a <-\nrule: c <- c\nspec: c\n")
        assert run(["check", path]) == 1
        out = capsys.readouterr().out
        assert "boundedness: FAIL" in out
        assert "counterexample: c" in out
        assert "spec-in-gen: SKIPPED" in out

    def test_missing_spec_line(self, tmp_path, capsys):
        path = write(tmp_path, "judgments: a\nrule: a <-\n")
        assert run(["check", path]) == 64
        assert "spec" in capsys.readouterr().err


class TestRunProve:
    def test_finite_proof(self, tmp_path, capsys):
        assert run(["prove", write(tmp_path, BASICS), "b"]) == 0
        assert capsys.readouterr().out == "b  [rule 1]\n  a  [rule 0]\n"

    def test_finite_proof_may_use_corules(self, tmp_path, capsys):
        path = write(tmp_path, "judgments: a\ncorule: a <-\n")
        assert run(["prove", path, "a"]) == 0
        assert capsys.readouterr().out == "a  [corule 0]\n"

    def test_underivable(self, tmp_path, capsys):
        assert run(["prove", write(tmp_path, BASICS), "c"]) == 1
        assert capsys.readouterr().out == "c: underivable\n"

    def test_rational_proof_with_back_edge(self, tmp_path, capsys):
        path = write(tmp_path, "judgments: c\nrule: c <- c\ncorule: c <-\n")
        assert run(["prove", path, "c", "--rational"]) == 0
        assert capsys.readouterr().out == "0: c  [rule 0]\n  ^0\n"

    def test_unknown_judgment(self, tmp_path, capsys):
        assert run(["prove", write(tmp_path, BASICS), "nope"]) == 64
        assert "nope" in capsys.readouterr().err


class TestRunPred:
    def test_true_verdict_exits_zero(self, capsys):
        code = run(["pred", "max", "--list", "| 1 2", "--x", "2",
                    "--candidates", "1,2,3"])
        assert code == 0
        out = capsys.readouterr().out
        assert out == ("kind: max\ncolist: | 1 2\nengine: true\ndirect: true\n"
                       "oracle: true\nverdict: AGREE\n")

    def test_false_verdict_exits_one(self, capsys):
        code = run(["pred", "max", "--list", "| 1 2", "--x", "3",
                    "--candidates", "1,2,3"])
        assert code == 1
        assert "verdict: AGREE" in capsys.readouterr().out

    def test_candidates_default_to_elements_plus_probe(self, capsys):
        assert run(["pred", "max", "--list", "| 1 2", "--x", "3"]) == 1
        assert run(["pred", "max", "--list", "| 1 2", "--x", "2"]) == 0

    def test_member(self, capsys):
        assert run(["pred", "member", "--list", "2 1", "--x", "1"]) == 0
        assert run(["pred", "member", "--list", "2 1", "--x", "7"]) == 1

    def test_predicate_kinds(self, capsys):
        assert run(["pred", "allpos", "--list", "| 1"]) == 0
        assert run(["pred", "always", "--list", "0 | 1", "--p", "positive"]) == 1
        assert run(["pred", "eventually", "--list", "2 | 1 3", "--p", "eq:1"]) == 0
        assert run(["pred", "infoften", "--list", "1 | 2", "--p", "even"]) == 0
        assert run(["pred", "infoften", "--list", "1 | 2", "--p", "eq:1"]) == 1

    def test_usage_errors(self, capsys):
        assert run(["pred", "member", "--list", "1"]) == 64  # missing --x
        assert run(["pred", "always", "--list", "1"]) == 64  # missing --p
        assert run(["pred", "allpos", "--list", "1", "--p", "even"]) == 64
        assert run(["pred", "always", "--list", "1", "--p", "prime"]) == 64
        assert run(["pred", "always", "--list", "1", "--p", "even",
                    "--x", "1"]) == 64
        assert run(["pred", "member", "--list", "1", "--x", "1",
                    "--candidates", "1"]) == 64
        assert run(["pred", "max", "--list", "1 2", "--x", "2",
                    "--candidates", "2"]) == 64  # misses element 1
        assert run(["pred", "member", "--list", "1 y", "--x", "1"]) == 64
        capsys.readouterr()
        for token in ("+2", "1_0", " 2", "-1"):  # --x is read as --list reads a number
            assert run(["pred", "member", "--list", "2 10", "--x", token]) == 64
            assert capsys.readouterr().err == f"error: not a natural number: {token!r}\n"

    def test_disagreement_exits_two(self, capsys, monkeypatch):
        # no honest disagreement exists, so force one to pin the exit code
        import corules.predicates as predicates_module
        monkeypatch.setattr(predicates_module, "decide_direct",
                            lambda *a, **k: object())
        assert run(["pred", "allpos", "--list", "| 1"]) == 2
        assert "verdict: DISAGREE" in capsys.readouterr().out

    @pytest.mark.parametrize("error", [InternalError, StructuralError])
    def test_engine_fault_exits_seventy(self, capsys, monkeypatch, error):
        # the engine has no known fault, so force one to pin the exit code
        import corules.predicates as predicates_module

        def fail(*args, **kwargs):
            raise error("forced fault")
        monkeypatch.setattr(predicates_module, "interpret", fail)
        assert run(["pred", "allpos", "--list", "| 1"]) == 70
        out, err = capsys.readouterr()
        assert (out, err) == ("", "internal error: forced fault\n")

    def test_exit_codes_track_agreed_verdict(self, capsys):
        rng = random.Random(42)
        kinds = ["member", "allpos", "always", "eventually", "infoften", "max"]
        for _ in range(40):
            n = rng.randint(0, 4)
            literal = " ".join(str(rng.randint(0, 3)) for _ in range(n))
            if rng.random() < 0.7:
                loop = " ".join(str(rng.randint(0, 3))
                                for _ in range(rng.randint(1, 3)))
                literal = f"{literal} | {loop}" if literal else f"| {loop}"
            kind = rng.choice(kinds)
            argv = ["pred", kind, "--list", literal]
            if kind in ("member", "max"):
                argv += ["--x", str(rng.randint(0, 4))]
            if kind in ("always", "eventually", "infoften"):
                argv += ["--p", rng.choice(["positive", "even", "odd", "eq:1",
                                            "gt:2"])]
            code = run(argv)
            out = capsys.readouterr().out
            assert "verdict: AGREE" in out
            assert code == (0 if "engine: true" in out else 1)


class TestRunPlumbing:
    def test_missing_file(self, capsys):
        assert run(["ind", "/nonexistent/system.inf"]) == 64
        assert capsys.readouterr().err

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        assert run(["ind", write(tmp_path, "rule: a <-")]) == 64
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_bad_subcommand(self, capsys):
        assert run(["frobnicate"]) == 64

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    def test_reports_are_deterministic(self, tmp_path, capsys):
        path = write(tmp_path, BASICS)
        run(["check", path])
        first = capsys.readouterr().out
        run(["check", path])
        assert capsys.readouterr().out == first

    def test_reports_identical_across_processes(self, tmp_path):
        path = write(tmp_path, BASICS)
        for argv in (["check", path],
                     ["gen", str(DEMOS / "max_stream12.inf")],
                     ["prove", str(DEMOS / "max_stream12.inf"), "max(2,xs)",
                      "--rational"],
                     ["pred", "max", "--list", "| 1 2", "--x", "2"]):
            outs = set()
            for seed in ("0", "3", "random"):
                command, env = cli_command(*argv)
                result = subprocess.run(command, capture_output=True,
                                        env=dict(env, PYTHONHASHSEED=seed), check=False)
                assert result.returncode in (0, 1) and result.stdout, result.stderr
                outs.add(result.stdout)
            assert len(outs) == 1

    def test_no_trailing_whitespace_in_reports(self, tmp_path, capsys):
        for argv in (["ind", write(tmp_path, BASICS)],
                     ["check", write(tmp_path, BASICS)],
                     ["prove", write(tmp_path, BASICS), "b"],
                     ["pred", "allpos", "--list", "| 1"]):
            run(argv)
            out = capsys.readouterr().out
            assert all(line == line.rstrip() for line in out.splitlines())


class TestClosedStdout:
    """A reader that stops early, like ``corules ind big.inf | head -1``, is
    no error: nothing on stderr, and the command's own exit code."""

    N = 20000  # each command below prints 129 KB or more; a pipe buffers 64 KiB

    @pytest.fixture(scope="class")
    def wide(self, tmp_path_factory):
        # root <- a0 ... a(N-1), each a an axiom; the b's have no rules, so a
        # spec of all of them fails both checks with N counterexamples each
        a = [f"a{i}" for i in range(self.N)]
        b = [f"b{i}" for i in range(self.N)]
        lines = ["judgments: root " + " ".join(a + b)]
        lines += [f"rule: {name} <-" for name in a]
        lines += ["rule: root <- " + " ".join(a), "spec: " + " ".join(b)]
        path = tmp_path_factory.mktemp("wide") / "wide.inf"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("argv,code", [(["ind"], 0), (["prove", "root"], 0),
                                           (["prove", "root", "--rational"], 0),
                                           (["check"], 1)])
    def test_reader_closing_early(self, wide, argv, code):
        command, env = cli_command(argv[0], wide, *argv[1:])
        proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == code
        finally:
            proc.kill()
            proc.stderr.close()
        assert first and err == b""


class TestExitCodeContract:
    """``run`` returns 0, 1 or 64 on any input, raises nothing and prints no
    traceback (2 means the routes of ``pred`` disagree, 70 an engine bug)."""

    INF_TOKENS = ["judgments:", "rule:", "corule:", "spec:", "<-", "a", "b", "c",
                  "#", "\u00b2"]
    PRED_WORDS = ["positive", "even", "eq:1", "gt:2", "prime", "eq:x", "0", "2", "+2",
                  "1,2", "3,", "x", "", "1 | 2", "| 0 2", "--x", "--help"]

    @staticmethod
    def outcome(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (0, 1, 64), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()

    @settings(deadline=None, max_examples=150)
    @given(st.sampled_from([["ind"], ["gen"], ["check"], ["prove", "a"]]),
           st.one_of(st.text(max_size=40),
                     st.lists(st.lists(st.sampled_from(INF_TOKENS), max_size=6)
                              .map(" ".join), max_size=8).map("\n".join)))
    def test_system_commands(self, command, text):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "system.inf"
            path.write_text(text, encoding="utf-8")
            self.outcome([command[0], str(path), *command[1:]])

    @settings(deadline=None, max_examples=300)
    @given(st.sampled_from(["member", "allpos", "always", "eventually", "infoften",
                            "max", "bogus"]),
           st.lists(st.sampled_from(["0", "1", "2", "3", "|", "x", "-1", "\u00b2"]),
                    max_size=8).map(" ".join),
           st.lists(st.tuples(st.sampled_from(["--p", "--x", "--candidates"]),
                              st.one_of(st.sampled_from(PRED_WORDS), st.text(max_size=6))),
                    max_size=3))
    def test_pred(self, kind, literal, flags):
        self.outcome(["pred", kind, "--list", literal, *(t for pair in flags for t in pair)])


class TestDemoFiles:
    def test_max_stream_demo_gen_lists_true_maxima_only(self, capsys):
        assert run(["gen", str(DEMOS / "max_stream12.inf")]) == 0
        out = capsys.readouterr().out
        assert out == "max(2,xs)\nmax(2,ys)\n"

    def test_max_stream_demo_coind_over_derives(self, capsys):
        run(["coind", str(DEMOS / "max_stream12.inf")])
        out = capsys.readouterr().out.splitlines()
        assert "max(3,xs)" in out and "max(2,xs)" in out
        assert "max(1,xs)" not in out

    def test_max_stream_demo_ind_is_empty(self, capsys):
        assert run(["ind", str(DEMOS / "max_stream12.inf")]) == 0
        assert capsys.readouterr().out == ""

    def test_max_stream_demo_check_passes(self, capsys):
        assert run(["check", str(DEMOS / "max_stream12.inf")]) == 0

    def test_other_demos_check_clean(self, capsys):
        assert run(["check", str(DEMOS / "infinitely_often_even.inf")]) == 0
        assert run(["check", str(DEMOS / "basics.inf")]) == 0

    def test_demo_round_trips(self):
        for name in ("max_stream12.inf", "infinitely_often_even.inf",
                     "basics.inf"):
            text = (DEMOS / name).read_text(encoding="utf-8")
            sf = parse_system(text)
            assert parse_system(render_system(sf)) == sf
