"""Problem-file surface syntax: parser, printer, round trips."""

import gc
import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from kcert import problems
from kcert.examples import EXAMPLE1_THEOREM, EXAMPLE2_THEOREM, ftab1_cert, ftab2_cert, sftab1_cert
from kcert.firstorder import format_formula
from kcert.fittings import Bind, DecTree, EIND, FitCert, Lind, NONE, Rind
from kcert.formulas import And, Box, Dia, NegAtom, Or, PosAtom
from kcert.problems import (
    ParseError,
    ProblemFile,
    format_certificate,
    format_problem,
    parse_formula_text,
    parse_problem,
)
from kcert.simpfit import BoxInfo, Closure, SimpfitCert
from kcert.tableau import emit_fitcert, prove
from helpers import DOUBLING_TABLE, kchain, recursion_limit, taut, time_limit

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

ALL_FIXTURES = sorted(FIXTURES.glob("*.prob"))


def _load_fixture_generator():
    spec = importlib.util.spec_from_file_location("make_fixtures", FIXTURES / "make_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GENERATED = _load_fixture_generator().FIXTURES

# random problem files: small formulas over a few atom names, and
# certificates over random indexes
_INDEXES = st.recursive(
    st.sampled_from([EIND, NONE]),
    lambda sub: st.one_of(st.builds(Lind, sub), st.builds(Rind, sub), st.builds(Bind, sub, sub)),
    max_leaves=6)
_DECTREES = st.recursive(
    st.builds(DecTree, _INDEXES, _INDEXES),
    lambda sub: st.builds(DecTree, _INDEXES, _INDEXES, st.lists(sub, max_size=3).map(tuple)),
    max_leaves=8)
_CERTIFICATES = st.one_of(
    _DECTREES.map(FitCert.load),
    st.builds(SimpfitCert.load, st.lists(st.builds(Closure, _INDEXES, _INDEXES), max_size=4),
              st.lists(st.builds(BoxInfo, _INDEXES, _INDEXES), max_size=4)))
_ATOMS = st.sampled_from(["p", "q1", "_r", "box", "x_2"])
_FORMULAS = st.recursive(
    st.one_of(st.builds(PosAtom, _ATOMS), st.builds(NegAtom, _ATOMS)),
    lambda sub: st.one_of(st.builds(And, sub, sub), st.builds(Or, sub, sub),
                          st.builds(Box, sub), st.builds(Dia, sub)),
    max_leaves=10)
_NAMES = st.text(st.characters(blacklist_characters='"\n'), max_size=12)


class TestFormulaSyntax:
    def test_literals(self):
        assert parse_formula_text("(+ p)") == PosAtom("p")
        assert parse_formula_text("(- q)") == NegAtom("q")

    def test_connectives(self):
        assert parse_formula_text("(and (+ p) (- q))") == \
            And(PosAtom("p"), NegAtom("q"))
        assert parse_formula_text("(or (box (+ p)) (dia (- p)))") == \
            Or(Box(PosAtom("p")), Dia(NegAtom("p")))

    def test_whitespace_and_comments_are_free(self):
        text = """
        (and ; a conjunction
             (+ p)   ;; first
             (- q))  ; second
        """
        assert parse_formula_text(text) == And(PosAtom("p"), NegAtom("q"))

    def test_atom_names_can_use_digits_and_underscores(self):
        assert parse_formula_text("(+ p_1)") == PosAtom("p_1")

    def test_format_round_trip(self):
        for a in (EXAMPLE1_THEOREM, And(PosAtom("p"), Box(NegAtom("q")))):
            assert parse_formula_text(format_formula(a)) == a


class TestParseErrors:
    def test_unknown_connective(self):
        with pytest.raises(ParseError, match="unknown connective 'imp'"):
            parse_formula_text("(imp (+ p) (+ q))")

    def test_position_reporting(self):
        with pytest.raises(ParseError) as exc:
            parse_formula_text("(and (+ p)\n  (lind))")
        assert exc.value.line == 2
        assert exc.value.col == 4

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing input"):
            parse_formula_text("(+ p) (+ q)")

    def test_truncated_input(self):
        with pytest.raises(ParseError, match="at end of input"):
            parse_formula_text("(and (+ p)")

    def test_unterminated_string(self):
        with pytest.raises(ParseError, match="unterminated string"):
            parse_problem('(problem "oops')

    def test_newline_in_string(self):
        with pytest.raises(ParseError, match="newline in string"):
            parse_problem('(problem "a\nb" (+ p) (fittings (dt eind eind ())))')

    def test_missing_problem_name(self):
        with pytest.raises(ParseError, match="quoted problem name"):
            parse_problem("(problem unquoted (+ p))")

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character '@'"):
            parse_formula_text("(+ @)")

    def test_unknown_index_constructor(self):
        with pytest.raises(ParseError, match="unknown index constructor"):
            parse_problem('(problem "x" (+ p) (fittings (dt (wind) eind ())))')

    def test_unknown_certificate_kind(self):
        with pytest.raises(ParseError, match="unknown certificate kind"):
            parse_problem('(problem "x" (+ p) (resolution))')


class TestCertificateSyntax:
    def test_indexes(self):
        text = """(problem "ix" (+ p)
          (fittings (dt (bind (lind eind) (rind none)) eind ())))"""
        pf = parse_problem(text)
        assert pf.certificate.tree.decide_on == \
            Bind(Lind(EIND), Rind(NONE))

    def test_fittings_loads_with_a_pending_seed(self):
        pf = parse_problem(
            '(problem "t" (or (+ p) (- p)) (fittings (dt eind (rind eind) ())))')
        assert pf.certificate == FitCert.load(
            DecTree(EIND, Rind(EIND)))

    def test_simpfit_empty_sections(self):
        pf = parse_problem(
            '(problem "s" (+ p) (simpfit (closures) (boxinfos)))')
        assert pf.certificate == SimpfitCert.load((), ())

    def test_index_table(self):
        shared = parse_problem('(problem "t" (+ p) (fittings (indexes (lind eind) (bind i0 none))'
                               ' (dt i1 (rind i0) ((dt eind i0 ())))))')
        inline = parse_problem('(problem "t" (+ p) (fittings (dt (bind (lind eind) none)'
                               ' (rind (lind eind)) ((dt eind (lind eind) ())))))')
        assert shared == inline
        pf = parse_problem('(problem "s" (+ p) (simpfit (indexes (rind eind))'
                           ' (closures (cl i0 eind)) (boxinfos (bi eind i0))))')
        assert pf.certificate == SimpfitCert.load([Closure(Rind(EIND), EIND)],
                                                  [BoxInfo(EIND, Rind(EIND))])

    def test_simpfit_sections(self):
        text = """(problem "s" (+ p)
          (simpfit
            (closures (cl eind (lind eind)))
            (boxinfos (bi (rind eind) eind) (bi eind eind))))"""
        pf = parse_problem(text)
        assert pf.certificate.closures == (Closure(EIND, Lind(EIND)),)
        assert pf.certificate.boxinfos == \
            (BoxInfo(Rind(EIND), EIND), BoxInfo(EIND, EIND))


class TestErrorPositions:
    """Line and column count every character, tabs included, from the
    last newline; comments and strings move them like any other text."""

    @pytest.mark.parametrize("text,line,col,message", [
        ('(problem "x"\n  (+ p)\n  (fittings (dt eind none ()))) junk',
         3, 33, "trailing input after the closing parenthesis"),
        ('; header\n(problem "x" ; the name\n  (xor (+ p)))',
         3, 4, "unknown connective 'xor'"),
        ('(problem "a b c" (+ p) @)', 1, 24, "unexpected character '@'"),
        ('(problem\t"x"\t(+ p)\t\t(fittings (dt eind nope ())))',
         1, 40, "expected '(', found 'nope'"),
        ('(problem "x"\n\t(+ p)\n\t(fittings (dt (lind (foo eind)) none ())))',
         3, 23, "unknown index constructor 'foo'"),
        ('(problem "x" (+ p)\n  ; (with parens) "and a quote\n'
         '  (simpfit (closures (cl eind "eind")) (boxinfos)))',
         3, 31, "expected '(', found 'eind'"),
        ('(problem "x" (+ p)\n  "unterminated', 2, 3, "unterminated string"),
        ('(problem "x" (+ p)\n  (fittings "new\nline"))', 2, 13, "newline in string"),
        ('(problem "x" (+ p) (fittings (dt (lind eind none) none ())))',
         1, 45, "expected ')', found 'none'"),
        ('(problem "x" (+ p) (fittings (dt (lind eind) none (\n'
         '  (dt eind none ()) (ft)))))', 2, 22, "expected 'dt', found 'ft'"),
        ('(problem "x" (+ p)\n  (fittings (dt (lind eind) none ()) ; comment\n',
         3, 1, "expected ) (at end of input)"),
        ('(problem "x" (+ p)\n  (fittings (indexes (lind eind))\n  (dt i1 none ())))',
         3, 7, "undefined index reference 'i1'"),
        ('(problem "x" (+ p)\n  (fittings (indexes (lind i1) (rind eind)) (dt i1 none ())))',
         2, 28, "undefined index reference 'i1'"),
        ('(problem "x" (+ p)\n  (fittings (indexes (lind i0)) (dt i0 none ())))',
         2, 28, "undefined index reference 'i0'"),
        ('(problem "x" (+ p)\n  (simpfit (closures (cl eind i3)) (boxinfos)))',
         2, 31, "index reference 'i3' without an index table"),
        ('(problem "x" (+ p)\n  (fittings (indexes (lind eind) eind) (dt eind none ())))',
         2, 34, "expected an index table entry: (lind i), (rind i) or (bind i j)"),
        ('(problem "x" (+ p)\n  (simpfit (indexes (dt eind none ())) (closures) (boxinfos)))',
         2, 22, "expected an index table entry: (lind i), (rind i) or (bind i j)"),
    ])
    def test_line_and_column(self, text, line, col, message):
        with pytest.raises(ParseError) as info:
            parse_problem(text)
        assert (info.value.line, info.value.col) == (line, col)
        assert str(info.value) == f"line {line}, col {col}: {message}"

    # the remaining error paths of the formula, index, block and tag
    # readers, each with the message and position it gives
    @pytest.mark.parametrize("text,line,col,message", [
        ('(problem "x" (+ ) (fittings (dt eind none ())))', 1, 17, "expected an atom name"),
        ('(problem "x" (+ "p") (fittings (dt eind none ())))', 1, 17, "expected an atom name"),
        ('(problem "x"\n  (- ( p)) (fittings (dt eind none ())))', 2, 6, "expected an atom name"),
        ('(problem "x" () (fittings (dt eind none ())))',
         1, 15, "expected a connective: + - and or box dia"),
        ('(problem "x" (', 1, 1, "expected a connective: + - and or box dia (at end of input)"),
        ('(problem "x" (and (+ p)', 1, 1, "expected ( (at end of input)"),
        ('(problem "x" (or (+ p) (box)) (fittings (dt eind none ())))',
         1, 28, "expected '(', found ')'"),
        ('(problem "x" (+ p) ())', 1, 21, "expected a certificate kind: fittings or simpfit"),
        ('(problem "x" (+ p) (fittings (dt () none ())))',
         1, 35, "expected an index constructor: lind rind bind"),
        ('(problem "x" (+ p) (fittings (dt ("lind" eind) none ())))',
         1, 35, "expected an index constructor: lind rind bind"),
        ('(problem "x" (+ p) (fittings (dt (+ eind) none ())))',
         1, 35, "unknown index constructor '+'"),
        ('(problem "x" (+ p) (fittings (dt (lind ) none ())))', 1, 40, "expected '(', found ')'"),
        ('(problem "x" (+ p) (fittings (indexes (lind eind)) (dt (rind i0 i0) none ())))',
         1, 65, "expected ')', found 'i0'"),
        ('(problem "x" (+ p) (fittings (dt (bind eind', 1, 1, "expected an index (at end of input)"),
        ('(problem "x" (+ p) (fittings (indexes (lind eind)',
         1, 1, "expected an index table entry: (lind i), (rind i) or (bind i j) (at end of input)"),
        ('(problem "x" (+ p) (simpfit (closures eind) (boxinfos)))',
         1, 39, "expected ')', found 'eind'"),
        ('(problem "x" (+ p) (simpfit (closures (bi eind eind)) (boxinfos)))',
         1, 40, "expected 'cl', found 'bi'"),
        ('(problem "x" (+ p) (simpfit (closures) (boxinfos (cl eind eind))))',
         1, 51, "expected 'bi', found 'cl'"),
        ('(problem "x" (+ p) (simpfit (closures (cl eind eind eind)) (boxinfos)))',
         1, 53, "expected ')', found 'eind'"),
        ('(problem "x" (+ p) (simpfit (closures) (boxinfos (bi eind))))',
         1, 58, "expected '(', found ')'"),
        ('(problem "x" (+ p) (simpfit (boxinfos)))', 1, 30, "expected 'closures', found 'boxinfos'"),
        ('(problem "x" (+ p) (simpfit (closures) (boxinfos) extra))',
         1, 51, "expected ')', found 'extra'"),
        ('(problem "x" (+ p q) (fittings (dt eind none ())))', 1, 19, "expected ')', found 'q'"),
        ('(problem "x" (and (+ p) (+ q) (+ r)) (fittings (dt eind none ())))',
         1, 31, "expected ')', found '('"),
        ('(problem "x" (dia (+ p) (+ q)) (fittings (dt eind none ())))',
         1, 25, "expected ')', found '('"),
        ('(problem "x" (+ p) (fittings (dt eind none (eind))))', 1, 45, "expected ')', found 'eind'"),
        ('(problem "x" (+ p)\n  (fittings (dt eind none ((dt eind none ())',
         2, 1, "expected ) (at end of input)"),
        ('(prob "x" (+ p) (fittings (dt eind none ())))', 1, 2, "expected 'problem', found 'prob'"),
        ('"x"', 1, 1, "expected '(', found 'x'"),
        ('   ; only a comment', 1, 1, "expected ( (at end of input)"),
    ])
    def test_message(self, text, line, col, message):
        self.test_line_and_column(text, line, col, message)


class TestIndexTableEntries:
    """An entry over names, as the printer writes it, is read in place;
    any other entry is read by the general reader.  Both give the same
    indexes, and the same errors at the same places (pinned from the
    reader that read every entry the general way)."""

    HEAD = '(problem "x" (+ p)\n  (fittings (indexes '

    @pytest.mark.parametrize("tail,tree", [
        ('(lind (rind eind)) (bind i0 (lind eind))) (dt i1 i0 ())))',
         DecTree(Bind(Lind(Rind(EIND)), Lind(EIND)), Lind(Rind(EIND)))),
        ('(bind eind none) (rind i0)) (dt i1 none ())))',
         DecTree(Rind(Bind(EIND, NONE)), NONE)),
        ('(lind ; the left side\n   eind) (bind i0 ; then\n none)) (dt i1 none ())))',
         DecTree(Bind(Lind(EIND), NONE), NONE)),
        ('(  lind\teind  )\n  ( bind   i0\n\n i0 )) (dt i1 none ())))',
         DecTree(Bind(Lind(EIND), Lind(EIND)), NONE)),
    ], ids=["nested", "eind-and-none", "comments", "blanks"])
    def test_entries_read_alike(self, tail, tree):
        assert parse_problem(self.HEAD + tail).certificate == FitCert.load(tree)

    @pytest.mark.parametrize("tail,line,col,message", [
        ('(lind eind) (bind i0 i2)) (dt i1 none ())))', 2, 43, "undefined index reference 'i2'"),
        ('(lind eind) (rind i1)) (dt i1 none ())))', 2, 40, "undefined index reference 'i1'"),
        ('(lind eind) (rind i)) (dt i1 none ())))', 2, 40, "expected '(', found 'i'"),
        ('(lind eind eind)) (dt i0 none ())))', 2, 33, "expected ')', found 'eind'"),
        ('(bind eind)) (dt i0 none ())))', 2, 32, "expected '(', found ')'"),
        ('(bind eind none none)) (dt i0 none ())))', 2, 38, "expected ')', found 'none'"),
        ('(rind)) (dt i0 none ())))', 2, 27, "expected '(', found ')'"),
        ('(lind eind (rind i0)) (dt i0 none ())))', 2, 33, "expected ')', found '('"),
        ('(lind eind) (dt i0 none ())))', 2, 35,
         "expected an index table entry: (lind i), (rind i) or (bind i j)"),
        ('(lind eind', 2, 1, "expected ) (at end of input)"),
        ('(bind i0', 2, 28, "undefined index reference 'i0'"),
        ('(lind "eind")) (dt i0 none ())))', 2, 28, "expected '(', found 'eind'"),
        ('(lind lind)) (dt i0 none ())))', 2, 28, "expected '(', found 'lind'"),
    ], ids=["undefined", "undefined-self", "not-a-name", "unary-two-args", "bind-one-arg",
            "bind-three-args", "no-argument", "missing-close", "missing-table-close",
            "cut-after-argument", "cut-before-argument", "string-argument", "constructor-word"])
    def test_errors_stay_the_same(self, tail, line, col, message):
        TestErrorPositions().test_line_and_column(self.HEAD + tail, line, col, message)


def _first_bad_character(text):
    """The offset and message of the first character outside strings
    and comments that starts no token, found one character at a time,
    or None."""
    k = 0
    while k < len(text):
        ch = text[k]
        if ch == ";":
            newline = text.find("\n", k)
            k = len(text) if newline == -1 else newline
        elif ch == '"':
            close, newline = text.find('"', k + 1), text.find("\n", k + 1)
            if close == -1 or -1 < newline < close:
                return k, "unterminated string" if newline == -1 else "newline in string"
            k = close + 1
        elif ch.isalnum() or ch in "_()+- \t\r\n":
            k += 1
        else:
            return k, f"unexpected character {ch!r}"
    return None


class TestTokenizer:
    """The one tokenizer checked against itself: a stray character, an
    unterminated string or a newline in a string is reported where it
    stands; otherwise each token is located at its own text, in order."""

    def _check(self, text):
        bad = _first_bad_character(text)
        if bad is not None:
            offset, message = bad
            line = text.count("\n", 0, offset) + 1
            col = offset - (text.rfind("\n", 0, offset) + 1) + 1
            with pytest.raises(ParseError) as info:
                parse_problem(text)
            assert str(info.value) == f"line {line}, col {col}: {message}"
            return
        toks = problems._split(text)
        offsets = [problems._offset(text, k) for k in range(len(toks))]
        assert all(text.startswith(tok, at) for tok, at in zip(toks, offsets))
        assert offsets == sorted(set(offsets))

    # the second alphabet has no stray character but the quote, so that
    # string errors are not hidden behind an earlier stray character
    @given(st.one_of(
        st.text(alphabet=st.sampled_from(list('()+-_ab9 \t\r\n;"@\xe9\xb2\f\xa0\u0301')),
                max_size=40),
        st.text(alphabet=st.sampled_from(list('()+-_ab9 \t\n;"')), max_size=40)))
    def test_errors_and_offsets(self, text):
        self._check(text)

    @pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.stem)
    def test_fixtures(self, path):
        self._check(path.read_text())


class TestDeepInput:
    def test_deep_index_parses_at_the_default_recursion_limit(self):
        depth = 10_000
        assert sys.getrecursionlimit() < depth
        index = "(lind " * depth + "eind" + ")" * depth
        pf = parse_problem(f'(problem "deep" (+ p) (fittings (dt {index} none ())))')
        got = pf.certificate.tree.decide_on
        assert str(got) == index
        for _ in range(depth):
            assert isinstance(got, Lind)
            got = got.sub
        assert got is EIND

    def test_deep_formula_parses_and_prints_under_a_low_recursion_limit(self):
        depth = 10_000
        # (and X (- q)) and (dia X), alternating, around one atom
        opens = ["(and " if n % 2 else "(dia " for n in range(depth)]
        closes = [" (- q))" if n % 2 else ")" for n in range(depth)]
        text = "".join(opens) + "(+ p)" + "".join(reversed(closes))
        with recursion_limit(1000):
            got = parse_formula_text(text)
            assert format_formula(got) == text
        # formula equality recurses, so walk the chain level by level
        for n in range(depth):
            if n % 2:
                assert isinstance(got, And) and got.right == NegAtom("q")
                got = got.left
            else:
                assert isinstance(got, Dia)
                got = got.body
        assert got == PosAtom("p")

    def test_deep_dectree_prints_and_reads_back(self):
        depth = 10_000
        tree = DecTree(Lind(EIND), EIND, ())
        for n in range(depth):
            tree = DecTree(Rind(EIND) if n % 2 else EIND, NONE, (tree,))
        with recursion_limit(1000):
            text = format_problem(ProblemFile("deep", PosAtom("p"), FitCert.load(tree)))
            back = parse_problem(text).certificate.tree
        assert text.count("(dt ") == depth + 1
        # DecTree equality recurses, so compare the two chains node by node
        while tree.children:
            assert (back.decide_on, back.aux, len(back.children)) == (tree.decide_on, tree.aux, 1)
            tree, back = tree.children[0], back.children[0]
        assert (back.decide_on, back.aux, back.children) == (Lind(EIND), EIND, ())


def _tree_indexes(tree):
    todo, out = [tree], []
    while todo:
        node = todo.pop()
        out += (node.decide_on, node.aux)
        todo.extend(node.children)
    return out


def _subindexes(index):
    todo, out = [index], []
    while todo:
        node = todo.pop()
        out.append(node)
        if isinstance(node, (Lind, Rind)):
            todo.append(node.sub)
        elif isinstance(node, Bind):
            todo += (node.left, node.right)
    return out


class TestIndexSharing:
    """The printer writes each distinct index once; the parser builds
    each once, as the interned object, and keeps nothing of it once the
    problem is dropped."""

    TEXT = format_problem(ProblemFile("shared", EXAMPLE2_THEOREM, ftab2_cert()))

    def _check_repeats_are_interned(self):
        pf = parse_problem(self.TEXT)
        parsed = [sub for index in _tree_indexes(pf.certificate.tree)
                  for sub in _subindexes(index)]
        by_text = {}
        for index in parsed:
            assert by_text.setdefault(str(index), index) is index
        assert len(by_text) < len(parsed)
        for index in by_text.values():
            if isinstance(index, (Lind, Rind)):
                assert type(index)(index.sub) is index
            elif isinstance(index, Bind):
                assert Bind(index.left, index.right) is index

    def test_repeats_are_one_object_and_tables_shrink_back(self):
        tables = (Lind._table, Rind._table, Bind._table)
        gc.collect()
        before = [len(table) for table in tables]
        self._check_repeats_are_interned()
        gc.collect()
        assert [len(table) for table in tables] == before

    def test_each_distinct_index_is_printed_once(self):
        text = format_problem(ProblemFile("once", EXAMPLE2_THEOREM, ftab2_cert()))
        distinct = {sub for index in _tree_indexes(ftab2_cert().tree)
                    for sub in _subindexes(index) if sub not in (EIND, NONE)}
        table, tree = text.split("(dt ", 1)
        ctors = ("(lind ", "(rind ", "(bind ")
        assert sum(table.count(ctor) for ctor in ctors) == len(distinct)
        assert not any(ctor in tree for ctor in ctors)

    def test_a_table_can_double_an_index_200_times(self):
        # i200 written out would have 2^200 nodes; it is read, compared
        # and hashed as one object, and never printed in full
        with time_limit(1.0):
            pf = parse_problem(f'(problem "doubled" (or (+ p) (- p))\n  (fittings'
                               f' (indexes {DOUBLING_TABLE}) (dt eind i200 ((dt i0 i200 ())))))')
            assert pf == parse_problem(format_problem(pf))
        index = pf.certificate.tree.aux
        for _ in range(200):
            assert isinstance(index, Bind) and index.left is index.right
            index = index.left
        assert index == Lind(EIND)

    @pytest.mark.parametrize("family,sizes", [(taut, (8, 16, 32, 64)), (kchain, (4, 8, 16, 32))],
                             ids=["taut", "kchain"])
    def test_printed_size_grows_with_nodes_and_distinct_indexes(self, family, sizes):
        # the printer writes each distinct index once, so bytes per tree
        # node and distinct index stay flat; inline text grows with
        # index depth, which for these families grows with n
        per_item = []
        for n in sizes:
            theorem = family(n)
            cert = emit_fitcert(prove(theorem), theorem)
            indexes = _tree_indexes(cert.tree)
            distinct = {sub for index in indexes for sub in _subindexes(index)}
            text = format_problem(ProblemFile("size", theorem, cert))
            per_item.append(len(text.encode()) / (len(indexes) // 2 + len(distinct)))
        assert max(per_item) <= 2 * min(per_item)


class TestRoundTrips:
    @pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.stem)
    def test_fixture_parse_then_print_is_identity(self, path):
        text = path.read_text()
        pf = parse_problem(text)
        printed = format_problem(pf)
        # fixture bodies are canonical; only the comment header differs
        stripped = "\n".join(
            line for line in text.splitlines()
            if not line.startswith(";")).lstrip("\n") + "\n"
        assert printed == stripped
        assert parse_problem(printed) == pf

    # a sym is any word, or + or -: connective names and signs included
    @pytest.mark.parametrize("text", ["(+ p)", "(- p_1)", "(+ +)", "(- -)", "(+ and)"])
    def test_formula_parse_then_print_is_identity(self, text):
        assert format_formula(parse_formula_text(text)) == text

    def test_print_is_idempotent(self):
        for cert in (ftab1_cert(), sftab1_cert()):
            pf = ProblemFile("again", EXAMPLE1_THEOREM, cert)
            once = format_problem(pf)
            assert format_problem(parse_problem(once)) == once

    @given(_NAMES, _FORMULAS, _CERTIFICATES)
    def test_random_problem_files(self, name, theorem, cert):
        pf = ProblemFile(name, theorem, cert)
        text = format_problem(pf)
        back = parse_problem(text)
        assert back == pf
        assert format_problem(back) == text

    def test_certificate_printer_matches_parser(self):
        printed = format_certificate(sftab1_cert())
        embedded = f'(problem "raw" (+ p)\n{printed})'
        assert parse_problem(embedded).certificate == sftab1_cert()


class TestFixtureFiles:
    def test_every_fixture_is_generated(self):
        assert sorted(entry[0] for entry in GENERATED) == [path.name for path in ALL_FIXTURES]

    @pytest.mark.parametrize("filename,comment,name,theorem,cert", GENERATED,
                             ids=[entry[0] for entry in GENERATED])
    def test_fixture_is_its_header_and_certificate(self, filename, comment, name, theorem, cert):
        # fixtures/make_fixtures.py would write the file unchanged
        text = (FIXTURES / filename).read_text(encoding="utf-8")
        assert text == comment + format_problem(ProblemFile(name, theorem, cert))


class TestProblemPrinter:
    def test_name_validation(self):
        bad = ProblemFile('has "quotes"', PosAtom("p"), SimpfitCert.load((), ()))
        with pytest.raises(ValueError, match="cannot contain"):
            format_problem(bad)
        bad = ProblemFile("two\nlines", PosAtom("p"), SimpfitCert.load((), ()))
        with pytest.raises(ValueError, match="cannot contain"):
            format_problem(bad)

    def test_output_ends_with_a_newline(self):
        pf = ProblemFile("nl", PosAtom("p"), SimpfitCert.load((), ()))
        assert format_problem(pf).endswith(")\n")
