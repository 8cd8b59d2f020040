"""The decide-tree certificate format, clause by clause and end to end."""

import copy
import dataclasses
import gc
import pickle
import weakref
from pathlib import Path

import pytest

from kcert.cli import trace_lines
from kcert.fittings import (
    Bind,
    DecTree,
    EIND,
    Eind,
    FITTINGS,
    FitCert,
    Lind,
    NONE,
    NoIndex,
    Rind,
)
from kcert.formulas import Eigen, NAtom, PAtom, REL, W0
from kcert.kernel import Fpc, check
from kcert.problems import parse_formula_text, parse_problem
from examples import (
    EXAMPLE1_THEOREM,
    EXAMPLE2_THEOREM,
    TAUT_THEOREM,
    ftab1_cert,
    ftab1_dectree,
    ftab2_cert,
    ftab2_dectree,
    taut_cert,
)
from helpers import certificate_mutants, node_count
from test_kernel import _pinned_runs

LEAF = DecTree(Lind(EIND), Rind(EIND))
ROOT = DecTree(EIND, NONE, (LEAF,))


def fresh(pending=(), tree=ROOT, eigmap=()):
    """A state with the universals of eigmap, pairs (universal,
    eigenvariable), bound in order: the last is the newest link."""
    chain = ()
    for univ, eigen in eigmap:
        chain = (univ, eigen, chain)
    return FitCert(tuple(pending), tree, chain)


class TestIndexAlgebra:
    def test_rendering(self):
        assert str(EIND) == "eind"
        assert str(NONE) == "none"
        assert str(Lind(EIND)) == "(lind eind)"
        assert str(Bind(Lind(EIND), Rind(EIND))) == \
            "(bind (lind eind) (rind eind))"

    def test_structural_equality(self):
        assert Lind(EIND) == Lind(EIND)
        assert Lind(EIND) != Rind(EIND)

    def test_tree_helpers(self):
        assert node_count(ftab1_dectree()) == 8
        assert node_count(ftab2_dectree()) == 10
        assert node_count(ROOT) == 2


class TestIndexIdentity:
    """Indexes are hash-consed: equal means identical."""

    def test_equal_indexes_are_one_object(self):
        assert Lind(EIND) is Lind(EIND)
        assert Rind(Lind(NONE)) is Rind(Lind(NONE))
        assert Bind(Lind(EIND), Rind(NONE)) is Bind(Lind(EIND), Rind(NONE))
        assert Eind() is EIND and NoIndex() is NONE
        assert Lind(EIND) is not Rind(EIND)

    def test_parsed_indexes_are_the_ones_the_fpc_builds(self):
        fixtures = Path(__file__).resolve().parent.parent / "fixtures"
        pf = parse_problem((fixtures / "ftab1.prob").read_text())
        result = check(pf.theorem, pf.certificate, FITTINGS)
        assert result.accepted
        # every store index is built by the FPC's clauses, every decide
        # index comes straight from the parsed tree
        stored = [e.arg for e in result.trace if e.kind == "store"]
        decided = [e.arg for e in result.trace if e.kind == "decide"]
        assert decided
        for index in decided:
            assert any(index is s for s in stored)
        assert pf.certificate.tree.children[0].decide_on is Lind(EIND)

    def test_copies_and_pickles_keep_identity(self):
        for index in (EIND, NONE, Lind(EIND), Bind(Lind(EIND), Rind(NONE))):
            assert copy.copy(index) is index
            assert copy.deepcopy(index) is index
            assert pickle.loads(pickle.dumps(index)) is index
        tree = ftab1_dectree()
        assert copy.deepcopy(tree).children[0].decide_on is tree.children[0].decide_on

    def test_indexes_are_immutable(self):
        with pytest.raises(AttributeError):
            Lind(EIND).sub = NONE
        with pytest.raises(AttributeError):
            del Bind(EIND, NONE).left
        with pytest.raises(AttributeError):
            EIND.extra = 1

    def test_intern_table_lets_unused_indexes_go(self):
        before = len(Lind._table)
        index = Bind(NONE, Bind(EIND, NONE))
        refs = []
        for _ in range(40):
            index = Lind(index)
            refs.append(weakref.ref(index))
        assert len(Lind._table) == before + 40
        del index
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert len(Lind._table) <= before


class TestClauses:
    def test_load_seeds_the_entry_index(self):
        assert FitCert.load(ROOT).pending == (EIND,)
        assert FitCert.load(ROOT).eigmap == ()

    def test_decide_matches_only_the_tree_root(self):
        cert = fresh()
        assert list(FITTINGS.decide_e(cert)) == [(EIND, fresh(pending=()))]
        assert [c for i, c in FITTINGS.decide_e(cert) if i is Lind(EIND)] == []

    def test_decide_drops_what_is_still_pending(self):
        # a decided entry's parts take indexes made from the decided one
        cert = fresh(pending=(Lind(EIND), Rind(EIND)), eigmap=((EIND, Eigen(1)),))
        assert FITTINGS.decide_e(cert) == ((EIND, fresh(eigmap=((EIND, Eigen(1)),))),)

    def test_store_pops_the_pending_head(self):
        cert = fresh(pending=(Lind(EIND), Rind(EIND)))
        f = PAtom("p", (W0,))
        assert FITTINGS.store_c(cert, f) == (Lind(EIND), fresh(pending=(Rind(EIND),)))

    def test_store_puts_accessibility_literals_at_none(self):
        cert = fresh(pending=(Lind(EIND),))
        rel = NAtom(REL, (W0, Eigen(1)))
        assert FITTINGS.store_c(cert, rel) == (NONE, cert)

    def test_store_refuses_with_nothing_pending(self):
        assert FITTINGS.store_c(fresh(), PAtom("p", (W0,))) is None

    def test_initial_checks_the_aux(self):
        cert = fresh(tree=LEAF)
        assert FITTINGS.initial_e(cert, Rind(EIND))
        assert not FITTINGS.initial_e(cert, Lind(EIND))

    def test_orneg_passes_through_while_pending(self):
        cert = fresh(pending=(EIND,))
        assert FITTINGS.orneg_c(cert) is cert

    def test_orneg_splits_the_decided_index(self):
        cert = fresh(pending=())
        assert FITTINGS.orneg_c(cert) == FitCert((Lind(EIND), Rind(EIND)), LEAF, ())

    def test_andneg_splits_into_both_children(self):
        left = DecTree(Lind(EIND), NONE)
        right = DecTree(Rind(EIND), NONE)
        cert = fresh(pending=(), tree=DecTree(EIND, NONE, (left, right)))
        assert FITTINGS.andneg_c(cert) == (FitCert((Lind(EIND),), left, ()),
                                           FitCert((Rind(EIND),), right, ()))

    def test_all_binds_the_eigenvariable_to_the_decided_index(self):
        cert = fresh(pending=())
        got = FITTINGS.all_c(cert, Eigen(7))
        assert got == FitCert((Lind(EIND),), LEAF, (EIND, Eigen(7), ()))
        assert got == fresh(pending=(Lind(EIND),), tree=LEAF, eigmap=((EIND, Eigen(7)),))

    def test_all_extends_the_chain_without_copying_it(self):
        cert = fresh(pending=(), eigmap=((Rind(EIND), Eigen(2)), (Lind(EIND), Eigen(3))))
        got = FITTINGS.all_c(cert, Eigen(4))
        assert got.eigmap[:2] == (EIND, Eigen(4))
        assert got.eigmap[2] is cert.eigmap

    def test_all_refuses_at_a_leaf(self):
        # a leaf has no child to replay the universal's body under
        assert FITTINGS.all_c(fresh(tree=LEAF), Eigen(1)) is None

    def test_andpos_keeps_the_cert_and_initial_accepts_none(self):
        # the left premise is a diamond's accessibility literal, whose
        # complement is stored at none, as only accessibility literals are
        cert = fresh(tree=LEAF)
        assert FITTINGS.initial_e(cert, NONE)
        assert FITTINGS.initial_e(cert, LEAF.aux)
        for other in (EIND, LEAF.decide_on, Lind(Rind(EIND)), Bind(EIND, EIND)):
            assert not FITTINGS.initial_e(cert, other)

    def test_some_borrows_the_aux_eigenvariable(self):
        tree = DecTree(Rind(EIND), Lind(EIND), (LEAF,))
        cert = fresh(tree=tree, eigmap=((Lind(EIND), Eigen(3)), (EIND, Eigen(4))))
        assert FITTINGS.some_e(cert) == (
            (Eigen(3), fresh(pending=(Bind(Rind(EIND), Lind(EIND)),), tree=LEAF,
                             eigmap=((Lind(EIND), Eigen(3)), (EIND, Eigen(4))))),)

    def test_some_answers_once_with_the_newest_binding_of_the_aux(self):
        # the aux universal bound twice on the branch: only its newest
        # eigenvariable is offered, so replay leaves no choice point
        tree = DecTree(Rind(EIND), Lind(EIND), (LEAF,))
        cert = fresh(tree=tree, eigmap=((Lind(EIND), Eigen(3)), (EIND, Eigen(4)),
                                        (Lind(EIND), Eigen(5))))
        ((eigen, c2),) = FITTINGS.some_e(cert)
        assert eigen == Eigen(5)
        assert c2.eigmap is cert.eigmap

    def test_some_refuses_without_a_binding(self):
        tree = DecTree(Rind(EIND), Lind(EIND), (LEAF,))
        assert list(FITTINGS.some_e(fresh(tree=tree))) == []


class _Spy(Fpc):
    """Delegates to the fittings format and records the most alternatives
    an expert offered and the types of the experts' answers.  It fails
    the check on a clerk answer that is not one pair or certificate."""

    def __init__(self):
        self.max_continuations = 0
        self.answer_types = set()

    def _see(self, got):
        self.answer_types.add(type(got))
        got = list(got)
        self.max_continuations = max(self.max_continuations, len(got))
        return got

    @staticmethod
    def _clerk(got, pair):
        if got is not None:
            assert (type(got) is tuple and len(got) == 2) if pair else type(got) is FitCert, got
        return got

    def decide_e(self, cert):
        return self._see(FITTINGS.decide_e(cert))

    def store_c(self, cert, formula):
        return self._clerk(FITTINGS.store_c(cert, formula), pair=True)

    def initial_e(self, cert, index):
        return FITTINGS.initial_e(cert, index)

    def orneg_c(self, cert):
        return self._clerk(FITTINGS.orneg_c(cert), pair=False)

    def andneg_c(self, cert):
        return self._clerk(FITTINGS.andneg_c(cert), pair=True)

    def all_c(self, cert, eigen):
        return self._clerk(FITTINGS.all_c(cert, eigen), pair=False)

    def some_e(self, cert):
        return self._see(FITTINGS.some_e(cert))


class TestEndToEnd:
    def test_detailed_fixture_accepts_with_eight_decides(self):
        result = check(EXAMPLE1_THEOREM, ftab1_cert(), FITTINGS)
        assert result.accepted
        decides = [e.arg for e in result.trace if e.kind == "decide"]
        assert len(decides) == 8

    def test_decide_sequence_is_the_preorder_replay(self):
        result = check(EXAMPLE1_THEOREM, ftab1_cert(), FITTINGS)
        le, re = Lind(EIND), Rind(EIND)
        box_q = Rind(le)
        decides = [e.arg for e in result.trace if e.kind == "decide"]
        assert decides == [
            EIND,
            le,
            box_q,
            Lind(le),                      # the box on the refutation side
            re,                            # the theorem's diamond
            Bind(re, box_q),               # its instantiated body
            Lind(Bind(re, box_q)),         # close p
            Lind(box_q),                   # close q
        ]

    def test_every_tree_node_is_decided_exactly_once(self):
        for goal, tree in ((EXAMPLE1_THEOREM, ftab1_dectree()),
                           (EXAMPLE2_THEOREM, ftab2_dectree())):
            result = check(goal, FitCert.load(tree), FITTINGS)
            assert result.accepted
            decided = sorted(str(e.arg) for e in result.trace
                             if e.kind == "decide")

            def walk(t):
                yield t.decide_on
                for k in t.children:
                    yield from walk(k)

            assert decided == sorted(str(i) for i in walk(tree))

    def test_zero_choice_points_on_all_fixtures(self):
        for goal, cert in ((TAUT_THEOREM, taut_cert()),
                           (EXAMPLE1_THEOREM, ftab1_cert()),
                           (EXAMPLE2_THEOREM, ftab2_cert())):
            result = check(goal, cert, FITTINGS)
            assert result.accepted
            assert result.choice_points == 0

    def test_at_most_one_continuation_per_query(self):
        for goal, cert in ((TAUT_THEOREM, taut_cert()),
                           (EXAMPLE1_THEOREM, ftab1_cert()),
                           (EXAMPLE2_THEOREM, ftab2_cert())):
            spy = _Spy()
            assert check(goal, cert, spy).accepted
            assert spy.max_continuations == 1
            # each expert answer is a tuple, which the kernel reads as it is
            assert spy.answer_types == {tuple}

    def test_at_most_one_continuation_on_every_pinned_run(self):
        # mutants included: some_e offers only the newest binding of its aux
        spy, runs = _Spy(), 0
        for goal, cert in _pinned_runs():
            if type(cert) is FitCert:
                check(goal, cert, spy, max_steps=100_000, trace=False)
                runs += 1
        assert runs == 180
        assert spy.max_continuations == 1

    def test_mutants_reject(self):
        for cert_maker, goal in ((ftab1_cert, EXAMPLE1_THEOREM),
                                 (ftab2_cert, EXAMPLE2_THEOREM)):
            for label, mutant in certificate_mutants(cert_maker()):
                result = check(goal, mutant, FITTINGS)
                assert not result.accepted, label

    def test_certificate_against_wrong_theorem_rejects(self):
        assert not check(EXAMPLE2_THEOREM, ftab1_cert(), FITTINGS).accepted
        assert not check(EXAMPLE1_THEOREM, ftab2_cert(), FITTINGS).accepted

    def test_a_universal_decided_at_a_leaf_rejects(self):
        # the tree decides the box, a universal, and names nothing below
        goal = parse_formula_text("(box (or (+ p) (- p)))")
        result = check(goal, FitCert.load(DecTree(EIND, NONE)))
        assert (result.accepted, result.choice_points) == (False, 0)
        assert trace_lines(result.trace) == ["store eind", "decide eind", "strip", "release"]

    def test_truncated_tree_rejects(self):
        # cut the dectree off below the first decide
        stump = dataclasses.replace(ftab1_dectree(), children=())
        assert not check(EXAMPLE1_THEOREM, FitCert.load(stump),
                         FITTINGS).accepted
