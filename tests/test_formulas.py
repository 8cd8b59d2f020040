"""Formula layer: NNF operations, polarization, the two translations."""

import pytest

from kcert.firstorder import (
    FoAll,
    FoAnd,
    FoAtom,
    FoEx,
    FoImp,
    FoNeg,
    FoOr,
    format_formula,
    render_fo,
    render_polarized,
    standard_translation,
)
from kcert.fittings import is_rel_literal
from kcert.formulas import (
    All,
    And,
    AndNeg,
    AndPos,
    BVar,
    Box,
    DelayNeg,
    DelayPos,
    Dia,
    Eigen,
    Exists,
    NAtom,
    NegAtom,
    Or,
    OrNeg,
    PAtom,
    PosAtom,
    REL,
    W0,
    delay_if_negative,
    is_positive,
    polarized_translation,
)
from kcert.tableau import KripkeModel, connective_count, eval_modal, negate_nnf
from helpers import (
    eval_fo,
    formulas_of_connectives,
    formulas_of_size,
    modal_size,
    open_binder_reference,
    recursion_limit,
    strip_polarities,
)

P = PosAtom("p")
Q = PosAtom("q")
NP = NegAtom("p")
NQ = NegAtom("q")


class TestNnf:
    def test_negate_atom(self):
        assert negate_nnf(P) == NP
        assert negate_nnf(NP) == P

    def test_negate_two_worlds_formula(self):
        # (dia~p | dia~q) & box(p&q) is the refutation root of its dual
        theorem = Or(And(Box(P), Box(Q)), Dia(Or(NP, NQ)))
        assert negate_nnf(theorem) == And(
            Or(Dia(NP), Dia(NQ)), Box(And(P, Q)))

    def test_negate_detailed_example_formula(self):
        theorem = Or(Or(Dia(NP), Box(Q)), Dia(And(P, NQ)))
        assert negate_nnf(theorem) == And(
            And(Box(P), Dia(NQ)), Box(Or(NP, Q)))

    def test_negate_involution_small(self):
        for c in range(3):
            for f in formulas_of_connectives(c):
                assert negate_nnf(negate_nnf(f)) == f

    def test_counting(self):
        f = Or(Or(Dia(NP), Box(Q)), Dia(And(P, NQ)))
        assert connective_count(f) == 6
        assert modal_size(f) == 10

    def test_size_vs_connectives(self):
        for n in range(1, 5):
            for f in formulas_of_size(n):
                assert modal_size(f) == n
                assert connective_count(f) < n


class TestPolarity:
    def test_table(self):
        assert is_positive(PAtom(REL, (W0, Eigen(1))))
        assert not is_positive(DelayNeg(PAtom("p", (W0,))))
        assert not is_positive(All(PAtom("p", (BVar(0),))))

    def test_literals(self):
        assert is_rel_literal(NAtom(REL, (W0, Eigen(2))))
        assert not is_rel_literal(NAtom("p", (W0,)))
        assert not is_rel_literal(PAtom(REL, (W0,)))

    def test_delay_if_negative(self):
        lit = PAtom("p", (W0,))
        neg_lit = NAtom("p", (W0,))
        disj = OrNeg(lit, neg_lit)
        ex = Exists(PAtom("p", (BVar(0),)))
        assert delay_if_negative(lit) == lit
        assert delay_if_negative(neg_lit) == neg_lit
        assert delay_if_negative(ex) == ex
        assert delay_if_negative(disj) == DelayPos(disj)

    def test_delayed_translation_always_positive_or_literal(self):
        # structural enumeration to depth 5
        for n in range(1, 6):
            for f in formulas_of_size(n):
                out = delay_if_negative(polarized_translation(f, W0))
                assert is_positive(out) or isinstance(out, NAtom)


class TestOpenBinder:
    def test_substitutes_outermost(self):
        body = OrNeg(NAtom(REL, (W0, BVar(0))), PAtom("q", (BVar(0),)))
        opened = open_binder_reference(body, Eigen(1))
        assert opened == OrNeg(NAtom(REL, (W0, Eigen(1))),
                               PAtom("q", (Eigen(1),)))

    def test_leaves_inner_binders_alone(self):
        # all y. (R(w0, y) and all z. R(y, z)) opened at the outer level
        inner = All(PAtom(REL, (BVar(1), BVar(0))))
        body = AndNeg(PAtom(REL, (W0, BVar(0))), inner)
        opened = open_binder_reference(body, Eigen(3))
        assert opened == AndNeg(PAtom(REL, (W0, Eigen(3))),
                                All(PAtom(REL, (Eigen(3), BVar(0)))))

    def test_decrements_escaping_variables(self):
        # a variable bound even further out slides down one slot
        body = PAtom(REL, (BVar(1), BVar(0)))
        assert open_binder_reference(body, W0) == PAtom(REL, (BVar(0), W0))


class TestPolarizedTranslation:
    def test_atoms(self):
        assert polarized_translation(P, W0) == PAtom("p", (W0,))
        assert polarized_translation(NP, W0) == NAtom("p", (W0,))

    def test_box(self):
        assert polarized_translation(Box(Q), W0) == All(OrNeg(
            NAtom(REL, (W0, BVar(0))), PAtom("q", (BVar(0),))))

    def test_dia_of_conjunction(self):
        got = polarized_translation(Dia(And(P, NQ)), W0)
        body = AndNeg(PAtom("p", (BVar(0),)), NAtom("q", (BVar(0),)))
        assert got == Exists(AndPos(
            PAtom(REL, (W0, BVar(0))), DelayNeg(DelayPos(body))))

    def test_connectives_delay_decomposable_children(self):
        got = polarized_translation(Or(Or(P, Q), NP), W0)
        assert got == OrNeg(
            DelayPos(OrNeg(PAtom("p", (W0,)), PAtom("q", (W0,)))),
            NAtom("p", (W0,)))

    def test_nested_box_shifts_the_bound_world(self):
        got = polarized_translation(Box(Box(P)), W0)
        inner = All(OrNeg(NAtom(REL, (BVar(1), BVar(0))),
                          PAtom("p", (BVar(0),))))
        assert got == All(OrNeg(NAtom(REL, (W0, BVar(0))), DelayPos(inner)))

    def test_no_positive_disjunction_and_no_double_delay(self):
        # there is no positive disjunction to write (tests/test_api.py
        # checks the translation's classes against PolarizedFormula)
        def scan(f):
            if isinstance(f, DelayPos):
                assert not isinstance(f.body, (DelayPos, DelayNeg))
                scan(f.body)
            elif isinstance(f, DelayNeg):
                # the only stacking is the diamond's DelayNeg(DelayPos(...))
                assert not isinstance(f.body, DelayNeg)
                scan(f.body)
            elif isinstance(f, (AndNeg, OrNeg, AndPos)):
                scan(f.left)
                scan(f.right)
            elif isinstance(f, (All, Exists)):
                scan(f.body)

        for n in range(1, 6):
            for f in formulas_of_size(n):
                scan(polarized_translation(f, W0))


class TestStandardTranslation:
    def test_atom(self):
        assert standard_translation(P, W0) == FoAtom("p", (W0,))

    def test_box(self):
        assert standard_translation(Box(P), W0) == FoAll(FoImp(
            FoAtom(REL, (W0, BVar(0))), FoAtom("p", (BVar(0),))))

    def test_dia(self):
        assert standard_translation(Dia(NQ), W0) == FoEx(FoAnd(
            FoAtom(REL, (W0, BVar(0))), FoNeg(FoAtom("q", (BVar(0),)))))


class TestStripPolarities:
    def test_erases_delays(self):
        f = DelayPos(OrNeg(PAtom("p", (W0,)), NAtom("p", (W0,))))
        assert strip_polarities(f) == FoOr(FoAtom("p", (W0,)),
                                           FoNeg(FoAtom("p", (W0,))))

    def test_box_translation_strips_to_disjunctive_form(self):
        got = strip_polarities(polarized_translation(Box(P), W0))
        assert got == FoAll(FoOr(FoNeg(FoAtom(REL, (W0, BVar(0)))),
                                 FoAtom("p", (BVar(0),))))


class TestRendering:
    def test_polarized_box(self):
        got = render_polarized(polarized_translation(Box(P), W0))
        assert got == "(all y1. (~R(w0,y1) |- p(y1)))"

    def test_polarized_dia_uses_delays(self):
        got = render_polarized(polarized_translation(Dia(NP), W0))
        assert got == "(ex y1. (R(w0,y1) &+ d-(~p(y1))))"

    def test_fo(self):
        got = render_fo(standard_translation(Box(P), W0))
        assert got == "(all y1. (R(w0,y1) => p(y1)))"

    def test_nested_binder_names_are_distinct(self):
        got = render_fo(standard_translation(Box(Dia(P)), W0))
        assert got == "(all y1. (R(w0,y1) => (ex y2. (R(y1,y2) & p(y2)))))"

    def test_deep_box_chain_at_the_default_recursion_limit(self):
        depth = 3000
        f = P
        for _ in range(depth):
            f = Box(f)
        # a chain of worlds 0 -> 1 -> ... with p true nowhere, so box^depth p
        # fails at the first world and holds vacuously at the second; and
        # one reflexive world where p holds, as first-order quantifiers
        # range over every world
        chain = [(i,) for i in range(depth + 1)]
        line = KripkeModel(frozenset(chain), frozenset(zip(chain, chain[1:])),
                           {w: frozenset() for w in chain})
        loop = KripkeModel(frozenset({(1,)}), frozenset({((1,), (1,))}), {(1,): frozenset({"p"})})
        with recursion_limit(1000):
            standard = render_fo(standard_translation(f, W0))
            polarized = render_polarized(polarized_translation(f, W0))
            stripped = render_fo(strip_polarities(polarized_translation(f, W0)))
            negated = format_formula(negate_nnf(f))
            modal = [eval_modal(line, chain[0], f), eval_modal(line, chain[1], f),
                     eval_modal(loop, (1,), f)]
            first_order = [eval_fo(loop, standard_translation(f, W0), {W0: (1,)}),
                           eval_fo(loop, strip_polarities(polarized_translation(f, W0)), {W0: (1,)})]
        worlds = ["w0"] + [f"y{i}" for i in range(1, depth + 1)]
        assert standard == ("".join(f"(all {worlds[i]}. (R({worlds[i - 1]},{worlds[i]}) => "
                                    for i in range(1, depth + 1))
                            + f"p(y{depth})" + "))" * depth)
        # each box but the innermost is a negative formula under a delay
        assert polarized == ("d+(".join(f"(all {worlds[i]}. (~R({worlds[i - 1]},{worlds[i]}) |- "
                                     for i in range(1, depth + 1))
                             + f"p(y{depth})" + ")" * (3 * depth - 1))
        assert stripped == ("".join(f"(all {worlds[i]}. (~R({worlds[i - 1]},{worlds[i]}) | "
                                    for i in range(1, depth + 1))
                            + f"p(y{depth})" + "))" * depth)
        assert negated == "(dia " * depth + "(- p)" + ")" * depth
        assert modal == [False, True, True]
        assert first_order == [True, True]

    def test_foreign_nodes_are_refused(self):
        with pytest.raises(TypeError, match="not a modal formula: 'p'"):
            negate_nnf(Or(PosAtom("p"), "p"))
        with pytest.raises(TypeError, match="not a polarized formula"):
            render_polarized(FoAtom("p", (W0,)))
        with pytest.raises(TypeError, match="not a first-order formula"):
            render_fo(FoNeg(PAtom("p", (W0,))))
