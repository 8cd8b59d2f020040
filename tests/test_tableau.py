"""Prover, emitters, models, and the bounded validity oracle."""

import hashlib
import inspect
import tracemalloc
from functools import cache

import pytest

from kcert.firstorder import format_formula, standard_translation
from kcert.fittings import FITTINGS, FitCert
from kcert.formulas import (
    And,
    Box,
    Dia,
    NegAtom,
    Or,
    PosAtom,
    W0,
)
from kcert import cli, tableau
from kcert.kernel import StepBudgetExceeded, check
from kcert.problems import ProblemFile, format_problem, parse_formula_text, parse_problem
from kcert.simpfit import SIMPFIT, SimpfitCert, distill
from kcert.tableau import (
    DEFAULT_MAX_TABLEAU_STEPS,
    ClosedTableau,
    EmitError,
    KripkeModel,
    OpenBranch,
    ROOT_WORLD,
    bounded_validity_oracle,
    connective_count,
    emit_dectree,
    emit_fitcert,
    emit_simpfitcert,
    eval_modal,
    find_countermodel,
    format_model,
    format_prefix,
    negate_nnf,
    prove,
)
from examples import (
    EXAMPLE1_THEOREM,
    EXAMPLE2_FV_TABLEAU,
    EXAMPLE2_REFUTED,
    EXAMPLE2_STANDARD_TABLEAU,
    EXAMPLE2_THEOREM,
    ftab1_cert,
    ftab1_dectree,
    ftab2_cert,
    ftab2_dectree,
    scripted_annotation_count,
    scripted_node_count,
    sftab1_cert,
    sftab2_cert,
    taut_dectree,
)
from helpers import (
    agreement_corpus,
    box_php,
    corpus_proofs,
    distill_with_repeats,
    eval_fo,
    format_problem_inline,
    formulas_of_connectives,
    kchain,
    kchain_bad,
    node_count,
    php,
    php_bad,
    recursion_limit,
    taut,
    wide,
    wide3_unpruned_dectree,
    wide_bad,
)

P = PosAtom("p")
Q = PosAtom("q")
NP = NegAtom("p")
NQ = NegAtom("q")

TWO_WORLDS = KripkeModel(
    worlds=frozenset({(1,), (1, 1)}),
    rel=frozenset({((1,), (1, 1))}),
    val={(1,): frozenset({"p"}), (1, 1): frozenset({"q"})},
)


class TestModels:
    def test_eval_literals(self):
        assert eval_modal(TWO_WORLDS, (1,), P)
        assert not eval_modal(TWO_WORLDS, (1,), Q)
        assert eval_modal(TWO_WORLDS, (1,), NQ)
        assert eval_modal(TWO_WORLDS, (1, 1), Q)

    def test_eval_modalities(self):
        assert eval_modal(TWO_WORLDS, (1,), Box(Q))
        assert eval_modal(TWO_WORLDS, (1,), Dia(Q))
        assert not eval_modal(TWO_WORLDS, (1,), Dia(P))
        # the leaf world has no successors: box vacuous, dia empty
        assert eval_modal(TWO_WORLDS, (1, 1), Box(P))
        assert not eval_modal(TWO_WORLDS, (1, 1), Dia(Or(P, NP)))

    def test_eval_unknown_world(self):
        with pytest.raises(ValueError, match="not in model"):
            eval_modal(TWO_WORLDS, (7,), P)

    def test_model_requires_total_valuation(self):
        with pytest.raises(ValueError, match="no valuation"):
            KripkeModel(frozenset({(1,)}), frozenset(), {})

    def test_model_rejects_dangling_edges(self):
        with pytest.raises(ValueError, match="leaves the world set"):
            KripkeModel(frozenset({(1,)}), frozenset({((1,), (1, 1))}),
                        {(1,): frozenset()})

    def test_format_model(self):
        assert format_model(TWO_WORLDS) == (
            "world 1: {p}\nworld 1.1: {q}\nedge 1 1.1")

    def test_format_model_names_every_world_by_its_prefix(self):
        # 1.2.3 has no parent world, so it is named from its own prefix
        worlds = [(1,), (1, 1), (1, 1, 4), (1, 2, 3), (1, 10), (2,)]
        model = KripkeModel(frozenset(worlds), frozenset({((1,), (1, 2, 3)), ((1, 10), (1, 1, 4))}),
                            {w: frozenset({"p"}) if len(w) > 2 else frozenset() for w in worlds})
        assert format_model(model) == (
            "world 1: {}\nworld 1.1: {}\nworld 1.1.4: {p}\nworld 1.2.3: {p}\n"
            "world 1.10: {}\nworld 2: {}\nedge 1 1.2.3\nedge 1.10 1.1.4")

    def test_format_prefix(self):
        assert format_prefix((1, 2, 1)) == "1.2.1"

    def test_first_order_evaluation_matches_modal(self):
        for a in (Box(Q), Dia(And(P, NQ)), Or(Box(Q), Dia(P))):
            fo = standard_translation(a, W0)
            assert eval_fo(TWO_WORLDS, fo, {W0: (1,)}) == \
                eval_modal(TWO_WORLDS, (1,), a)


def _walk_steps(step):
    yield step
    for child in step.children:
        yield from _walk_steps(child)


def _check_provisos(step, worlds, parent):
    """diaF must create a fresh world; boxF must reuse an existing one.
    worlds are the numbers of the worlds above step, and parent the
    world each diaF above it made its target from."""
    if step.rule == "diaF":
        assert step.target not in worlds
        parent = {**parent, step.target: step.source.world}
    elif step.rule == "boxF":
        assert step.target in worlds
        assert parent[step.target] == step.source.world
    here = worlds | {e.world for e in step.created}
    for child in step.children:
        _check_provisos(child, here, parent)


class TestProver:
    def test_valid_theorem_closes(self):
        ct = prove(EXAMPLE1_THEOREM)
        assert isinstance(ct, ClosedTableau)
        assert ct.theorem == EXAMPLE1_THEOREM
        assert ct.root.world == 0
        assert ct.root.body == negate_nnf(EXAMPLE1_THEOREM)

    @pytest.mark.parametrize("goal,steps,found", [
        (taut(3), 8, ClosedTableau),
        (kchain_bad(2), 10, OpenBranch),
    ], ids=["proof", "countermodel"])
    def test_step_budget(self, goal, steps, found):
        # one step per call of _Prover.step, closures and the open
        # branch's last look included
        assert isinstance(prove(goal, max_steps=steps), found)
        with pytest.raises(StepBudgetExceeded, match=f"after {steps - 1} tableau steps"):
            prove(goal, max_steps=steps - 1)

    def test_every_search_has_one_default_budget(self):
        default = inspect.signature(prove).parameters["max_steps"].default
        assert default is DEFAULT_MAX_TABLEAU_STEPS
        assert cli.DEFAULT_MAX_TABLEAU_STEPS is DEFAULT_MAX_TABLEAU_STEPS

    def test_branch_worlds_share_one_counter(self):
        ct = prove(EXAMPLE2_THEOREM)
        targets = [s.target for s in _walk_steps(ct.step) if s.rule == "diaF"]
        # the second branch numbers its world after the first branch's,
        # not from scratch: the worlds 1.1 and 1.2
        assert targets == [1, 2]

    def test_world_provisos(self):
        for theorem in (EXAMPLE1_THEOREM, EXAMPLE2_THEOREM):
            ct = prove(theorem)
            _check_provisos(ct.step, {ct.root.world}, {})

    def test_closures_are_complementary_literal_pairs(self):
        ct = prove(EXAMPLE2_THEOREM)
        closes = [s for s in _walk_steps(ct.step) if s.rule == "close"]
        assert len(closes) == 2
        for s in closes:
            neg, pos = s.closing
            assert isinstance(neg.body, NegAtom)
            assert isinstance(pos.body, PosAtom)
            assert neg.body.name == pos.body.name
            assert neg.world == pos.world

    def test_node_count_matches_the_hand_worked_tableau(self):
        # the machine tableau has one extra node: it keeps the initial
        # conjunction that a person splits before writing anything down
        ct = prove(EXAMPLE2_THEOREM)
        created = sum(len(s.created) for s in _walk_steps(ct.step))
        assert created + 1 == \
            scripted_node_count(EXAMPLE2_STANDARD_TABLEAU) + 1
        assert created + 1 == 13

    def test_a_split_the_left_branch_does_not_need_is_skipped(self):
        # refuted: (a | b) & (p & ~p).  The left branch closes on p and ~p
        # without a, so the right one is never expanded: 4 tableau steps,
        # not 6, and the split is not emitted
        theorem = Or(And(NegAtom("a"), NegAtom("b")), Or(NP, P))
        ct = prove(theorem, max_steps=4)
        with pytest.raises(StepBudgetExceeded):
            prove(theorem, max_steps=3)
        assert [s.rule for s in _walk_steps(ct.step)] == ["andF", "andF", "close"]

    def test_a_split_the_right_branch_does_not_need_is_dropped(self):
        # refuted: (a | b) & (~a & (q & ~q)).  The left branch closes on a
        # and ~a, and the right one on q and ~q without b: the right
        # subtree closes the branch alone
        theorem = Or(And(NegAtom("a"), NegAtom("b")), Or(PosAtom("a"), Or(NQ, Q)))
        ct = prove(theorem)
        assert [s.rule for s in _walk_steps(ct.step)] == ["andF", "andF", "andF", "close"]
        assert check(theorem, emit_fitcert(ct, theorem), trace=False).accepted

    def test_steps_the_closure_does_not_use_are_dropped(self):
        # refuted: (dia r & dia q) & box ~q.  The box closes the second
        # diamond's world; the first diamond, and the box's propagation
        # into its world, are expanded but not emitted
        theorem = Or(Or(Box(NegAtom("r")), Box(NQ)), Dia(Q))
        ct = prove(theorem)
        steps = [(s.rule, s.target) for s in _walk_steps(ct.step)]
        assert steps == [("andF", None), ("andF", None), ("diaF", 2), ("boxF", 2),
                         ("close", None)]
        assert check(theorem, emit_fitcert(ct, theorem), trace=False).accepted

    def test_a_skipped_branch_numbers_no_world(self):
        # refuted: (box ~p | c) & (b1 | b2) & dia p.  On the branch of
        # box ~p the box closes the diamond's world without b1, so b2's
        # branch is skipped, and the world it would have made is not
        # counted: the countermodel, on the branch of c, names the
        # diamond's world 1.2, where without the skip it named 1.3
        theorem = parse_formula_text(
            "(or (or (and (dia (+ p)) (- c)) (and (- b1) (- b2))) (box (- p)))")
        result = prove(theorem)
        assert isinstance(result, OpenBranch)
        assert format_model(result.model) == "world 1: {b1, c}\nworld 1.2: {p}\nedge 1 1.2"

    def test_invalid_formula_yields_countermodel(self):
        result = prove(Dia(P))
        assert isinstance(result, OpenBranch)
        assert not eval_modal(result.model, ROOT_WORLD, Dia(P))

    def test_countermodel_for_box_needs_an_edge(self):
        result = prove(Box(P))
        assert isinstance(result, OpenBranch)
        assert result.model.rel
        assert not eval_modal(result.model, ROOT_WORLD, Box(P))

    def test_deep_countermodel_at_the_default_recursion_limit(self):
        depth = 600
        goal = P
        for _ in range(depth):
            goal = Box(goal)
        with recursion_limit(1000):
            result = prove(goal)
            assert isinstance(result, OpenBranch)
            assert not eval_modal(result.model, ROOT_WORLD, goal)
        assert len(result.model.worlds) == depth + 1

    def test_deep_countermodel_falsifies_the_standard_translation(self):
        # the 301-world chain prove returns for box^300 p, checked on the
        # first-order side alone: the guard R(x, y) of each box prunes
        # every world but the successor
        goal = P
        for _ in range(300):
            goal = Box(goal)
        with recursion_limit(1000):
            result = prove(goal)
            assert isinstance(result, OpenBranch)
            assert len(result.model.worlds) == 301
            assert not eval_fo(result.model, standard_translation(goal, W0), {W0: ROOT_WORLD})

    def test_a_box_tie_takes_the_first_prefix_not_the_first_made(self):
        # refuted: ([]<>~p & <>~p) & (<><>~p & [][]p).  The diamonds make
        # 1.1 (world 1), 1.2 (world 2) and 1.2.1 (world 3); then the first
        # box leaves <>~p at 1.1, which makes 1.1.1 (world 4).  []p, at 1.1
        # and at 1.2 on one origin, reaches 1.1.1 before 1.2.1, and the
        # branch closes at world 4, made after world 3
        theorem = parse_formula_text(
            "(or (or (dia (box (+ p))) (box (+ p))) (or (box (box (+ p))) (dia (dia (- p)))))")
        ct = prove(theorem)
        assert [(s.rule, s.target) for s in _walk_steps(ct.step)] == [
            ("andF", None), ("andF", None), ("andF", None), ("diaF", 1), ("boxF", 1),
            ("diaF", 4), ("boxF", 1), ("boxF", 4), ("close", None)]
        assert check(theorem, emit_fitcert(ct, theorem), trace=False).accepted

    def test_memory_grows_linearly_with_the_depth(self):
        # box^d (p | ~p) makes one world a step, d deep.  Named by prefix
        # tuples, its worlds held about d^2/2 numbers, and the traced peak
        # grew 3.8x from d = 1500 to 3000; linear growth is about 2x.
        # Storage indexes are interned, and any deep proof still alive
        # lends a run its chain of them, so one kept alive here lends
        # both runs all of theirs
        def box_taut(d):
            goal = Or(P, NP)
            for _ in range(d):
                goal = Box(goal)
            return goal

        lender = prove(box_taut(3000))
        peaks = []
        for d in (1500, 3000):
            goal = box_taut(d)
            tracemalloc.start()
            try:
                assert isinstance(prove(goal), ClosedTableau)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert isinstance(lender, ClosedTableau)
        assert peaks[1] <= 2.5 * peaks[0], peaks

    @pytest.mark.parametrize("text", [
        "(box " * 50 + "(+ p)" + ")" * 50,
        "(or (dia (+ p)) (dia (- q)))",
    ], ids=["box50", "two-diamonds"])
    def test_a_refuted_formula_builds_no_index_and_no_step(self, monkeypatch, text):
        # an index or a TabStep is needed only for a certificate: box^50 p
        # makes 50 worlds, and the other splits before it stays open
        built = []

        def counted(name, cls):
            def make(*args, **kwargs):
                built.append(name)
                return cls(*args, **kwargs)
            return make

        for name in ("Lind", "Rind", "Bind", "TabStep"):
            monkeypatch.setattr(tableau, name, counted(name, getattr(tableau, name)))
        assert isinstance(prove(parse_formula_text(text)), OpenBranch)
        assert built == []

    def test_agrees_with_oracle_on_small_formulas(self):
        for a in formulas_of_connectives(2):
            closed = isinstance(prove(a), ClosedTableau)
            assert closed == bounded_validity_oracle(a), a


def _valuation_per_world(result: OpenBranch) -> dict:
    """The countermodel valuation as first defined: one scan of the
    branch per world, keeping the positive atoms at that world, keyed by
    its prefix."""
    return {result.prefixes[w]: frozenset(e.body.name for e in result.entries
                                          if e.world == w and isinstance(e.body, PosAtom))
            for w in {e.world for e in result.entries}}


class TestOpenValuation:
    """The valuation of an open branch's countermodel, built in one pass,
    gives each world exactly the positive atoms stored at its prefix."""

    def test_refuted_corpus_formulas(self):
        refuted = 0
        for a in agreement_corpus():
            result = prove(a)
            if isinstance(result, OpenBranch):
                refuted += 1
                assert dict(result.model.val) == _valuation_per_world(result), a
                assert result.model.worlds == {result.prefixes[e.world] for e in result.entries}
                assert len(set(result.prefixes.values())) == len(result.prefixes), a
        assert refuted > 0

    @pytest.mark.parametrize("family", [kchain_bad, wide_bad])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_invalid_families(self, family, n):
        result = prove(family(n))
        assert isinstance(result, OpenBranch)
        assert dict(result.model.val) == _valuation_per_world(result)


class TestScriptedTableaux:
    def test_standard_variant_node_count(self):
        assert scripted_node_count(EXAMPLE2_STANDARD_TABLEAU) == 12
        assert scripted_annotation_count(EXAMPLE2_STANDARD_TABLEAU) == 0

    def test_free_variable_variant_counts(self):
        assert scripted_node_count(EXAMPLE2_FV_TABLEAU) == 9
        assert scripted_annotation_count(EXAMPLE2_FV_TABLEAU) == 2

    def test_scripts_start_from_the_refuted_conjuncts(self):
        assert EXAMPLE2_REFUTED == And(EXAMPLE2_STANDARD_TABLEAU.body,
                                       EXAMPLE2_STANDARD_TABLEAU.children[0].body)
        assert EXAMPLE2_FV_TABLEAU.body == EXAMPLE2_REFUTED.left

    def test_free_variable_substitutions_pin_both_worlds(self):
        notes = []

        def collect(node):
            if node.body is None:
                notes.append(node.note)
            for child in node.children:
                collect(child)

        collect(EXAMPLE2_FV_TABLEAU)
        assert notes == ["x -> 1", "x -> 2"]


@cache
def _pinned_proofs() -> tuple:
    families = [family(n) for family in (taut, kchain, wide) for n in range(1, 9)]
    return corpus_proofs()[::7] + tuple((theorem, prove(theorem)) for theorem in families)


class TestEmitters:
    def test_emitted_dectrees_match_the_handwritten_ones(self):
        assert emit_dectree(prove(EXAMPLE1_THEOREM)) == ftab1_dectree()
        assert emit_dectree(prove(EXAMPLE2_THEOREM)) == ftab2_dectree()
        assert emit_dectree(prove(Or(P, NP))) == taut_dectree()

    def test_emitted_certificates_match_the_handwritten_ones(self):
        ct1 = prove(EXAMPLE1_THEOREM)
        ct2 = prove(EXAMPLE2_THEOREM)
        assert emit_fitcert(ct1) == ftab1_cert()
        assert emit_simpfitcert(ct1) == sftab1_cert()
        assert emit_fitcert(ct2) == ftab2_cert()
        assert emit_simpfitcert(ct2) == sftab2_cert()

    def test_node_counts(self):
        assert node_count(emit_dectree(prove(EXAMPLE1_THEOREM))) == 8
        assert node_count(emit_dectree(prove(EXAMPLE2_THEOREM))) == 10

    @pytest.mark.parametrize("family,sizes,nodes", [
        (taut, (32, 64, 96), (95, 191, 287)),
        (kchain, (16, 24, 32), (53, 77, 101)),
        (wide, (8, 16, 24), (32, 64, 96)),
    ], ids=["taut", "kchain", "wide"])
    def test_pruned_node_counts(self, family, sizes, nodes):
        # the FITTINGS certificates of the benchmark; before the prover
        # dropped the steps a closed branch does not use, kchain's trees
        # had 69/101/133 nodes and wide's 60/184/372, one box propagation
        # into every earlier diamond's world on each branch
        counts = []
        for n in sizes:
            theorem = family(n)
            ct = prove(theorem)
            counts.append(node_count(emit_dectree(ct, theorem)))
            result = check(theorem, emit_fitcert(ct, theorem), trace=False)
            assert (result.accepted, result.choice_points) == (True, 0)
        assert tuple(counts) == nodes

    def test_essentials_deduplicate_closures(self):
        cert = emit_simpfitcert(prove(EXAMPLE2_THEOREM))
        assert len(cert.closures) == len(set(cert.closures)) == 2
        assert len(cert.boxinfos) == 2

    def test_theorem_cross_check(self):
        ct = prove(EXAMPLE1_THEOREM)
        assert emit_dectree(ct, EXAMPLE1_THEOREM) == ftab1_dectree()
        for emit in (emit_dectree, emit_fitcert, emit_simpfitcert):
            with pytest.raises(EmitError, match="does not refute"):
                emit(ct, EXAMPLE2_THEOREM)

    def test_theorem_cross_check_compares_deep_copies_by_text(self):
        # two equal box^2000 p built apart: the generated == would recurse
        # once per box, the comparison of their text does not
        def deep():
            a = P
            for _ in range(2000):
                a = Box(a)
            return a

        small = prove(Or(P, NP))
        ct = ClosedTableau(deep(), small.root, small.step)
        with recursion_limit(1000):
            assert emit_dectree(ct, deep()) == taut_dectree()
            with pytest.raises(EmitError, match="does not refute"):
                emit_dectree(ct, Box(deep()))

    def test_emitted_text_is_pinned(self):
        # recorded before the prover named each entry's index and simpfit
        # certificates were distilled from the decide tree, when each
        # boxinfo was kept as often as it occurs: any change to an index,
        # an aux, the order of the closures or the number of boxinfos
        # moves it.  The digest is over the text printed before the index
        # table; the text printed now must read back as the same
        # certificate, and so must the old text.  Re-pinned when the
        # prover began to drop the steps a closed branch does not use: it
        # read e5f7ea32... on the unpruned trees
        digest = hashlib.sha256()
        proofs = _pinned_proofs()
        for theorem, ct in proofs:
            with_repeats = distill_with_repeats(emit_dectree(ct, theorem))
            for cert in (emit_fitcert(ct, theorem), with_repeats):
                pf = ProblemFile("emitted", theorem, cert)
                inline = format_problem_inline(pf)
                digest.update(inline.encode())
                assert parse_problem(inline).certificate == cert
                assert parse_problem(format_problem(pf)).certificate == cert
        assert len(proofs) == 335
        assert digest.hexdigest() == (
            "3476553a2e56819d9e52730fc70b7a78f3e7b0386949ed394fad0e6875647f38")

    def test_simpfit_lists_each_boxinfo_once(self):
        # the pinned certificates with every later repeat of a boxinfo
        # dropped.  A pruned tree names no boxinfo twice, so the repeats
        # come from wide(3)'s unpruned tree, which the kernel accepts too
        unpruned = wide3_unpruned_dectree()
        assert check(wide(3), FitCert.load(unpruned), trace=False).accepted
        trees = [(emit_dectree(ct, theorem), emit_simpfitcert(ct, theorem))
                 for theorem, ct in _pinned_proofs()]
        repeats = 0
        for tree, cert in trees + [(unpruned, distill(unpruned))]:
            reference = distill_with_repeats(tree)
            once = tuple(dict.fromkeys(reference.boxinfos))
            repeats += len(reference.boxinfos) - len(once)
            assert cert == SimpfitCert.load(reference.closures, once)
        assert repeats > 0

    def test_emitted_certificates_check(self):
        for theorem in (EXAMPLE1_THEOREM, EXAMPLE2_THEOREM, Or(P, NP)):
            ct = prove(theorem)
            assert check(theorem, emit_fitcert(ct), FITTINGS).accepted
            assert check(theorem, emit_simpfitcert(ct), SIMPFIT).accepted



class TestHardFamilies:
    """The pigeonhole family checks itself: the kernel accepts what the
    prover emits, in both formats, and a non-theorem comes with a
    countermodel that the semantics confirms."""

    @pytest.mark.parametrize("emit", [emit_fitcert, emit_simpfitcert],
                             ids=["fittings", "simpfit"])
    @pytest.mark.parametrize("theorem", [php(1), php(2), box_php(1, 2), box_php(2, 1)],
                             ids=["php1", "php2", "box2-php1", "box1-php2"])
    def test_the_kernel_accepts_what_the_prover_emits(self, theorem, emit):
        ct = prove(theorem)
        assert isinstance(ct, ClosedTableau)
        assert check(theorem, emit(ct, theorem), trace=False).accepted

    def test_php2_step_counts(self):
        # FITTINGS read 685 before the prover pruned its certificates;
        # SIMPFIT reconstructs the splits its closures need, and the
        # pruned tree has the same closures.  It read 712 steps and 356
        # choice points when it offered every literal and split oldest
        # first
        ct = prove(php(2))
        counts = []
        for emit in (emit_fitcert, emit_simpfitcert):
            result = check(php(2), emit(ct), trace=False)
            counts.append((result.steps, result.choice_points))
        assert counts == [(229, 0), (163, 15)]

    def test_php3_search_cost(self):
        # 1,245 tableau steps, where 68,472 before the backjump; the
        # pruned tree is replayed with no choice point
        theorem = php(3)
        ct = prove(theorem, max_steps=1245)
        with pytest.raises(StepBudgetExceeded):
            prove(theorem, max_steps=1244)
        result = check(theorem, emit_fitcert(ct, theorem), trace=False)
        assert (result.accepted, result.steps, result.choice_points) == (True, 2377, 0)
        # SIMPFIT still searches for the splits; it took 512,043 steps and
        # 1,090,138 choice points when it offered every literal and split
        # oldest first
        result = check(theorem, emit_simpfitcert(ct, theorem), trace=False)
        assert (result.accepted, result.steps, result.choice_points) == (True, 15857, 1967)

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_dropped_disjunct_has_a_countermodel(self, n):
        theorem = php_bad(n)
        result = prove(theorem)
        assert isinstance(result, OpenBranch)
        assert not eval_modal(result.model, ROOT_WORLD, theorem)

    def test_the_oracle_agrees_within_its_cap(self):
        assert bounded_validity_oracle(php(1))
        assert not bounded_validity_oracle(php_bad(1))


class TestOracle:
    def test_distribution_axiom_is_valid(self):
        # box (p -> q) -> (box p -> box q), negation normal form
        k_axiom = Or(Dia(And(P, NQ)), Or(Dia(NP), Box(Q)))
        assert bounded_validity_oracle(k_axiom)

    def test_excluded_middle_is_valid(self):
        assert bounded_validity_oracle(Or(P, NP))

    def test_diamond_alone_is_invalid(self):
        assert not bounded_validity_oracle(Dia(P))
        model = find_countermodel(Dia(P))
        assert format_model(model) == "world 1: {}"

    def test_necessitation_of_tautology(self):
        assert bounded_validity_oracle(Box(Or(Q, NQ)))

    def test_no_countermodel_for_valid_formulas(self):
        assert find_countermodel(Or(P, NP)) is None

    def test_countermodels_are_verified(self):
        for a in formulas_of_connectives(2):
            model = find_countermodel(a)
            if model is None:
                continue
            assert not eval_modal(model, ROOT_WORLD, a)

    def test_verdicts_and_countermodels_are_pinned(self):
        # recorded while the oracle still enumerated every tree model and
        # renumbered the first: the verdict, and each countermodel's worlds,
        # edges and valuation, over the whole corpus
        digest = hashlib.sha256()
        valid = 0
        for a in agreement_corpus():
            model = find_countermodel(a)
            valid += model is None
            shown = "valid" if model is None else format_model(model)
            digest.update(f"{format_formula(a)}\n{shown}\n".encode())
        assert (valid, digest.hexdigest()) == (
            2176, "358ea4960996c230da9983c7833ff40ea02f00a68d8443ff8895bb2094a1cd55")

    def test_cap(self):
        big = P
        while connective_count(big) <= 8:
            big = And(big, big)
        with pytest.raises(ValueError, match="capped"):
            bounded_validity_oracle(big)
