"""Command-line behavior.  Exit codes are the machine contract: 0 for
accept/valid, 1 for reject/invalid, 2 for any error."""

import hashlib
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kcert import cli
from kcert.cli import main
from kcert.firstorder import format_formula
from kcert.fittings import Bind, DecTree, EIND, FitCert, Lind, NONE, Rind
from kcert.formulas import And, Box, Dia, NegAtom, Or, PosAtom
from kcert.kernel import CheckResult, check
from kcert.problems import ProblemFile, format_problem, parse_formula_text
from kcert.simpfit import BoxInfo, Closure, SimpfitCert
from kcert.tableau import ClosedTableau, emit_fitcert, emit_simpfitcert, prove
from helpers import (
    DOUBLING_TABLE, agreement_corpus, kchain, kchain_bad, negate_nnf, php, php_bad,
    recursion_limit, taut, time_limit, wide, wide_bad)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

GOOD = ["ftab1.prob", "sftab1.prob", "ftab2.prob", "sftab2.prob", "taut.prob"]


class TestReadme:
    def test_the_commands_print_what_the_readme_shows(self, tmp_path, monkeypatch, capsys):
        # each `$ kcert ...` line of the README's shell blocks, with the
        # output printed under it
        text = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
        sessions = [part.partition("\n")[::2]
                    for block in re.findall(r"```sh\n(.*?)```", text, re.S)
                    for part in re.split(r"^\$ ", block, flags=re.M)[1:]]
        assert [command.split()[:2] for command, _ in sessions] == [
            ["kcert", "prove"], ["kcert", "check"], ["kcert", "prove"], ["kcert", "translate"]]
        monkeypatch.chdir(tmp_path)
        for command, output in sessions:
            command, _, target = command.partition(" > ")
            main(shlex.split(command)[1:])
            out = capsys.readouterr().out
            if target:
                Path(target).write_text(out, encoding="utf-8")
                out = ""
            assert out == output, command


class TestCheck:
    @pytest.mark.parametrize("name", GOOD)
    def test_fixtures_accept(self, name, capsys):
        assert main(["check", str(FIXTURES / name)]) == 0
        assert capsys.readouterr().out == "accepted\n"

    def test_mutated_fixture_rejects(self, capsys):
        assert main(["check", str(FIXTURES / "ftab1-mutated.prob")]) == 1
        assert capsys.readouterr().out == "rejected\n"

    def test_a_diamond_decided_at_a_leaf_rejects(self, tmp_path, capsys):
        # the leaf names no child for the witness step to continue with
        path = tmp_path / "leaf.prob"
        path.write_text('(problem "leaf" (dia (+ p)) (fittings (dt eind none ())))')
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr() == ("rejected\n", "")

    def test_trace_precedes_verdict(self, capsys):
        assert main(["check", "--trace", str(FIXTURES / "taut.prob")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "store eind"
        assert lines[-1] == "accepted"
        assert "init (rind eind)" in lines

    @pytest.mark.parametrize("cert_text", [
        "(fittings (indexes (lind eind)) (dt i1 none ()))",
        "(fittings (indexes (lind i1) (rind eind)) (dt i1 none ()))",
        "(fittings (dt i0 none ()))",
        "(simpfit (indexes (lind eind) none) (closures) (boxinfos))",
    ], ids=["undefined", "forward", "no-table", "bad-entry"])
    def test_reference_errors_exit_2(self, cert_text, tmp_path, capsys):
        path = tmp_path / "bad.prob"
        path.write_text(f'(problem "x" (or (+ p) (- p))\n  {cert_text})')
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: line 2, col ")

    @pytest.mark.parametrize("cert_text", [
        f"(fittings (indexes {DOUBLING_TABLE}) (dt eind i200 ((dt i0 i200 ()))))",
        f"(simpfit (indexes {DOUBLING_TABLE}) (closures (cl i0 i200) (cl i200 i200))"
        " (boxinfos (bi i200 i200)))",
    ], ids=["fittings", "simpfit"])
    @pytest.mark.parametrize("trace", [[], ["--trace"]], ids=["plain", "trace"])
    def test_doubled_index_rejects_in_milliseconds(self, cert_text, trace, tmp_path, capsys):
        # no path prints, compares or hashes a certificate's index by
        # walking it: each of these takes a few milliseconds
        path = tmp_path / "doubled.prob"
        path.write_text(f'(problem "doubled" (or (+ p) (- p))\n  {cert_text})')
        with time_limit(1.0):
            assert main(["check", *trace, str(path)]) == 1
        out = capsys.readouterr().out
        assert out.endswith("rejected\n") and len(out) < 500

    def test_missing_file(self, capsys):
        assert main(["check", str(FIXTURES / "no-such.prob")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.prob"
        bad.write_text("(problem")
        assert main(["check", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 1")


class TestProve:
    def test_prove_then_check_round_trip(self, tmp_path, capsys):
        formula = "(or (or (dia (- p)) (box (+ q))) (dia (and (+ p) (- q))))"
        for emit in ("fittings", "simpfit"):
            assert main(["prove", formula, "--emit", emit]) == 0
            out = capsys.readouterr().out
            assert out.startswith('(problem "emitted"')
            assert f"({emit}" in out
            path = tmp_path / f"{emit}.prob"
            path.write_text(out)
            assert main(["check", str(path)]) == 0
            assert capsys.readouterr().out == "accepted\n"

    def test_default_emit_is_fittings(self, capsys):
        assert main(["prove", "(or (+ p) (- p))"]) == 0
        assert "(fittings" in capsys.readouterr().out

    def test_invalid_formula_prints_a_countermodel(self, capsys):
        assert main(["prove", "(dia (+ p))"]) == 1
        assert capsys.readouterr().out == "countermodel:\nworld 1: {}\n"

    def test_countermodel_with_an_edge(self, capsys):
        assert main(["prove", "(box (+ p))"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("countermodel:\n")
        assert "edge 1 1.1" in out

    def test_parse_error(self, capsys):
        assert main(["prove", "(xor (+ p) (+ q))"]) == 2
        assert "unknown connective" in capsys.readouterr().err

    def test_deep_box_chain_at_the_default_recursion_limit(self, tmp_path, capsys):
        # box^1200 (p | ~p): the prover runs on an explicit stack, so a
        # tableau 1,200 worlds deep is proved and its certificate checked
        depth = 1200
        deep = "(box " * depth + "(or (+ p) (- p))" + ")" * depth
        path = tmp_path / "deep.prob"
        with recursion_limit(1000):
            assert main(["prove", deep]) == 0
            path.write_text(capsys.readouterr().out)
            assert main(["check", str(path)]) == 0
        assert capsys.readouterr().out == "accepted\n"


class TestTranslate:
    def test_both_translations(self, capsys):
        assert main(["translate", "(box (+ q))"]) == 0
        out = capsys.readouterr().out
        assert out == (
            "st: (all y1. (R(w0,y1) => q(y1)))\n"
            "tr: (all y1. (~R(w0,y1) |- q(y1)))\n")

    def test_deep_box_chain(self, capsys):
        depth = 2000
        st, tr = ["st: "], ["tr: "]
        for i in range(1, depth + 1):
            here, there = f"y{i - 1}" if i > 1 else "w0", f"y{i}"
            st.append(f"(all {there}. (R({here},{there}) => ")
            # each box but the innermost is a negative formula under a delay
            tr.append(f"(all {there}. (~R({here},{there}) |- " + ("d+(" if i < depth else ""))
        st.append(f"p(y{depth})" + "))" * depth + "\n")
        tr.append(f"p(y{depth})" + ")" * (3 * depth - 1) + "\n")
        deep = "(box " * depth + "(+ p)" + ")" * depth
        assert main(["translate", deep]) == 0
        assert capsys.readouterr().out == "".join(st + tr)


class TestOracle:
    def test_valid(self, capsys):
        assert main(["oracle", "(or (+ p) (- p))"]) == 0
        assert capsys.readouterr().out == "valid\n"

    def test_invalid(self, capsys):
        assert main(["oracle", "(dia (+ p))"]) == 1
        assert capsys.readouterr().out == "invalid\n"

    def test_bound_exceeded(self, capsys):
        wide = "(and (+ p) (+ p))"
        for _ in range(3):
            wide = f"(and {wide} {wide})"
        assert main(["oracle", wide]) == 2
        assert "capped" in capsys.readouterr().err


class TestProveOutput:
    """What kcert prove prints, countermodels included, and its exit code,
    pinned as two digests: one over the refuted runs, one over the proved."""

    @staticmethod
    def runs():
        # every 7th corpus formula, proved or refuted, then the families
        # at small n in both formats
        for formula in agreement_corpus()[::7]:
            yield format_formula(formula), "fittings"
        for family in (taut, kchain, wide, kchain_bad, wide_bad):
            for n in (1, 2, 3, 4):
                for emit in ("fittings", "simpfit"):
                    yield format_formula(family(n)), emit

    def test_stdout_and_exit_codes_are_pinned(self, capsys):
        # the refuted digest was recorded before the tableau had a step
        # budget, and holds the countermodels byte-identical across the
        # backjump, which could shift world numbering; the proved digest
        # was re-pinned when the prover began to prune its certificates
        # (it read 864823e4... before)
        digests = {0: hashlib.sha256(), 1: hashlib.sha256()}
        runs = {0: 0, 1: 0}
        for text, emit in self.runs():
            code = main(["prove", text, "--emit", emit])
            digests[code].update(f"{code}\n{capsys.readouterr().out}".encode())
            runs[code] += 1
        assert (runs[1], digests[1].hexdigest()) == (
            2505, "e1c3a9923f0a68ae0a9a5307d05557422124fe26721f96cdab451cafab70121d")
        assert (runs[0], digests[0].hexdigest()) == (
            346, "7cabaf6e2dd25071e34e73eeaf111bcc611400d589a8e4a09d51b5c658789cdb")
        assert runs[0] + runs[1] == 2851

    def test_stdout_and_exit_codes_at_scale_are_pinned(self, capsys):
        # the families at the sizes the benchmark runs, where the prover
        # holds many candidates at once; recorded before the prover kept
        # a literal index and split and diamond agendas
        texts = [format_formula(family(n)) for family, sizes in (
            (taut, (32, 128)), (kchain, (16, 64)), (wide, (8, 16)), (kchain_bad, (32, 128)),
            (wide_bad, (8, 32)), (php, (2, 3)), (php_bad, (2,))) for n in sizes]
        texts += ["(box " * 300 + "(or (+ p) (- p))" + ")" * 300,
                  "(box " * 150 + "(+ p)" + ")" * 150]
        digest = hashlib.sha256()
        for text in texts:
            for emit in ("fittings", "simpfit"):
                code = main(["prove", text, "--emit", emit])
                digest.update(f"{code}\n{capsys.readouterr().out}".encode())
        assert digest.hexdigest() == (
            "85e35b21d862f3f6c27f3b4949aa92280a707371583a8ddaa4060ac81e50540f")

    def test_proved_runs_emit_certificates_replayed_without_choice(self):
        # the pruned decide tree of every proved run still names each
        # decide the kernel makes
        proved = 0
        for text, _ in self.runs():
            theorem = parse_formula_text(text)
            outcome = prove(theorem)
            if isinstance(outcome, ClosedTableau):
                result = check(theorem, emit_fitcert(outcome, theorem), trace=False)
                assert (result.accepted, result.choice_points) == (True, 0), text
                proved += 1
        assert proved == 346


class TestErrors:
    """Failures that are not verdicts exit 2 with one line on stderr."""

    def _one_error_line(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_recursion_limit_is_an_error(self, monkeypatch, capsys):
        def too_deep(*args, **kwargs):
            raise RecursionError
        monkeypatch.setattr(cli, "prove", too_deep)
        assert main(["prove", "(or (+ p) (- p))"]) == 2
        self._one_error_line(capsys)

    def test_step_budget_is_an_error(self, monkeypatch, capsys):
        # taut.prob takes 9 steps, and prove's self-check as many
        monkeypatch.setattr(cli, "DEFAULT_MAX_STEPS", 5)
        assert main(["check", str(FIXTURES / "taut.prob")]) == 2
        self._one_error_line(capsys)
        assert main(["prove", "(or (+ p) (- p))"]) == 2
        self._one_error_line(capsys)
        monkeypatch.setattr(cli, "DEFAULT_MAX_STEPS", 9)
        assert main(["check", str(FIXTURES / "taut.prob")]) == 0
        capsys.readouterr()

    def test_simpfit_runs_out_on_php3_where_fittings_does_not(self, monkeypatch, capsys):
        # SIMPFIT reconstructs php(3)'s splits by search, in 15,857 kernel
        # steps; its FITTINGS certificate names each one, and checks in 2,377
        monkeypatch.setattr(cli, "DEFAULT_MAX_STEPS", 10_000)
        text = format_formula(php(3))
        assert main(["prove", text, "--emit", "simpfit"]) == 2
        self._one_error_line(capsys)
        assert main(["prove", text]) == 0
        assert "(fittings" in capsys.readouterr().out

    def test_tableau_step_budget_is_an_error(self, monkeypatch, capsys):
        # proving p | ~p takes 2 tableau steps, the split and the closure;
        # refuting p takes 1, the look that finds its branch open
        monkeypatch.setattr(cli, "DEFAULT_MAX_TABLEAU_STEPS", 1)
        assert main(["prove", "(or (+ p) (- p))"]) == 2
        self._one_error_line(capsys)
        assert main(["prove", "(+ p)"]) == 1
        capsys.readouterr()
        monkeypatch.setattr(cli, "DEFAULT_MAX_TABLEAU_STEPS", 2)
        assert main(["prove", "(or (+ p) (- p))"]) == 0
        capsys.readouterr()

    def test_a_rejected_self_check_is_an_error(self, monkeypatch, capsys):
        def rejects(*args, **kwargs):
            return CheckResult(False, (), 0, 0)
        monkeypatch.setattr(cli, "check", rejects)
        assert main(["prove", "(or (+ p) (- p))"]) == 2
        self._one_error_line(capsys)

    def test_memory_error_is_an_error(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(cli, "parse_problem", exhausted)
        assert main(["check", str(FIXTURES / "taut.prob")]) == 2
        self._one_error_line(capsys)


class TestUsage:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_no_arguments(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kcert.cli", "oracle", "(or (+ p) (- p))"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "valid\n"


# smaller than the strategies of tests/test_problems.py: every text here
# is run, and simpfit's search grows fast with the formula
_FORMULAS = st.recursive(
    st.one_of(st.builds(PosAtom, st.sampled_from("pq")), st.builds(NegAtom, st.sampled_from("pq"))),
    lambda sub: st.one_of(st.builds(And, sub, sub), st.builds(Or, sub, sub),
                          st.builds(Box, sub), st.builds(Dia, sub)),
    max_leaves=6)
# random formulas, and as many valid ones: f | ~f
_THEOREMS = st.one_of(_FORMULAS, _FORMULAS.map(lambda f: Or(f, negate_nnf(f))))
_INDEXES = st.recursive(
    st.sampled_from([EIND, NONE]),
    lambda sub: st.one_of(st.builds(Lind, sub), st.builds(Rind, sub), st.builds(Bind, sub, sub)),
    max_leaves=4)
_CERTIFICATES = st.one_of(
    st.recursive(st.builds(DecTree, _INDEXES, _INDEXES),
                 lambda sub: st.builds(DecTree, _INDEXES, _INDEXES,
                                       st.lists(sub, max_size=2).map(tuple)),
                 max_leaves=6).map(FitCert.load),
    st.builds(SimpfitCert.load, st.lists(st.builds(Closure, _INDEXES, _INDEXES), max_size=3),
              st.lists(st.builds(BoxInfo, _INDEXES, _INDEXES), max_size=3)))
# pieces of the problem syntax, and some that are not
_PIECES = st.sampled_from([
    "(", ")", "+", "-", " ", "\n", ";", '"', '"n"', "and", "or", "box", "dia", "p", "problem",
    "fittings", "simpfit", "dt", "eind", "none", "lind", "rind", "bind", "closures", "boxinfos",
    "cl", "bi", "indexes", "i0", "i3", "@", "\xe9"])


def _problem_text(theorem, cert, emit) -> str:
    # emit, when given, replaces cert by the theorem's own certificate
    if emit is not None:
        outcome = prove(theorem)
        if isinstance(outcome, ClosedTableau):
            cert = emit(outcome, theorem)
    return format_problem(ProblemFile("random", theorem, cert))


def _edited(texts):
    """Texts, texts with a piece spliced over a random span, and pieces
    strung together."""
    splice = st.tuples(texts, st.integers(0, 300), st.integers(0, 8), _PIECES).map(
        lambda t: t[0][:t[1]] + t[3] + t[0][t[1] + t[2]:])
    return st.one_of(texts, splice, st.lists(_PIECES, max_size=30).map("".join))


class TestExitCodes:
    """Whatever the input, main returns 0, 1 or 2 and raises nothing."""

    @settings(max_examples=150, deadline=None)
    @given(_edited(st.builds(_problem_text, _THEOREMS, _CERTIFICATES,
                             st.sampled_from([None, emit_fitcert, emit_simpfitcert]))))
    def test_check(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "random.prob"
            path.write_text(text, encoding="utf-8")
            assert main(["check", str(path)]) in (0, 1, 2)

    @settings(max_examples=150, deadline=None)
    @given(_edited(_THEOREMS.map(format_formula)))
    def test_formula_commands(self, text):
        for argv in (["prove", text], ["prove", text, "--emit", "simpfit"],
                     ["translate", text], ["oracle", text]):
            assert main(argv) in (0, 1, 2)
