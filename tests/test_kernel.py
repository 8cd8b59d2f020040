"""Kernel behavior: traces, phase discipline, backtracking, storage."""

import dataclasses

import pytest

from kcert.examples import (
    EXAMPLE1_THEOREM,
    EXAMPLE2_THEOREM,
    TAUT_THEOREM,
    ftab1_cert,
    ftab2_cert,
    ftab2_dectree,
    sftab1_cert,
    sftab2_cert,
    taut_cert,
    taut_dectree,
)
from kcert.fittings import Bind, EIND, FITTINGS, FitCert, FittingsFpc, Lind, Rind
from kcert.formulas import AndPos, DelayNeg, NAtom, OrPos, PAtom
from kcert.kernel import (
    CheckResult,
    Ev,
    Fpc,
    StepBudgetExceeded,
    check,
    check_polarized,
    trace_lines,
    trace_paths,
)
from kcert.problems import parse_formula_text
from kcert.simpfit import SIMPFIT
from kcert.tableau import ClosedTableau, emit_fitcert, emit_simpfitcert, prove
from helpers import (
    bipole_violations,
    brute_force_accepts,
    certificate_mutants,
    formulas_of_connectives,
)

A = PAtom("a", ())
NA = NAtom("a", ())
B = PAtom("b", ())
NB = NAtom("b", ())


class Permissive(Fpc):
    """Says yes to everything, indexing stores by the stored formula.
    It names every index it has ever handed out; the kernel decides on
    those that hold a positive entry on the current branch."""

    def __init__(self):
        self.handed_out = {}

    def named(self, cert):
        return [(index, cert) for index in self.handed_out]

    def decide_e(self, cert):
        return self.named(cert)

    def release_e(self, cert):
        yield cert

    def store_c(self, cert, formula):
        self.handed_out[("ix", formula)] = None
        yield ("ix", formula), cert

    def initial_e(self, cert, index):
        return True

    def andpos_e(self, cert):
        yield cert, cert

    def orpos_e(self, cert):
        yield 1, cert
        yield 2, cert


class TestTraceUtils:
    def test_event_str(self):
        assert str(Ev("decide", EIND)) == "decide eind"
        assert str(Ev("release")) == "release"
        assert str(Ev("andneg", "L")) == "andneg L"

    def test_trace_lines(self):
        evs = (Ev("store", EIND), Ev("decide", EIND), Ev("init", Rind(EIND)))
        assert trace_lines(evs) == ["store eind", "decide eind",
                                    "init (rind eind)"]

    def test_paths_flat(self):
        evs = (Ev("store", 1), Ev("decide", 2))
        assert trace_paths(evs) == [evs]

    def test_paths_split(self):
        evs = (Ev("store", 1),
               Ev("andneg", "L"), Ev("store", 2),
               Ev("andneg", "R"), Ev("store", 3))
        assert trace_paths(evs) == [
            (Ev("store", 1), Ev("andneg", "L"), Ev("store", 2)),
            (Ev("store", 1), Ev("andneg", "R"), Ev("store", 3)),
        ]

    def test_paths_nested(self):
        evs = (Ev("andneg", "L"),
               Ev("andpos", "L"), Ev("init", 1),
               Ev("andpos", "R"), Ev("init", 2),
               Ev("andneg", "R"), Ev("init", 3))
        assert trace_paths(evs) == [
            (Ev("andneg", "L"), Ev("andpos", "L"), Ev("init", 1)),
            (Ev("andneg", "L"), Ev("andpos", "R"), Ev("init", 2)),
            (Ev("andneg", "R"), Ev("init", 3)),
        ]

    def test_paths_unbalanced(self):
        with pytest.raises(ValueError):
            trace_paths((Ev("andneg", "L"), Ev("store", 1)))


class TestTautology:
    """The hand-replayable smallest proof: p or ~p."""

    def test_accepts_with_exact_trace(self):
        result = check(TAUT_THEOREM, taut_cert(), FITTINGS)
        assert result.accepted
        assert bool(result)
        assert trace_lines(result.trace) == [
            "store eind",
            "decide eind",
            "strip",
            "release",
            "orneg",
            "store (lind eind)",
            "store (rind eind)",
            "decide (lind eind)",
            "init (rind eind)",
        ]

    def test_leaf_aux_mutation_rejects(self):
        # initial_e demands the complementary literal at the named index
        bad_leaf = dataclasses.replace(taut_dectree().children[0], aux=EIND)
        bad = dataclasses.replace(taut_dectree(), children=(bad_leaf,))
        result = check(TAUT_THEOREM, FitCert.load(bad), FITTINGS)
        assert not result.accepted
        assert not bool(result)

    def test_replay_is_deterministic(self):
        first = check(TAUT_THEOREM, taut_cert(), FITTINGS)
        second = check(TAUT_THEOREM, taut_cert(), FITTINGS)
        assert first.accepted and second.accepted
        assert first.trace == second.trace
        assert first.steps == second.steps


class TestPhaseRules:
    def test_decide_skips_negative_storage(self):
        # only a negated atom is stored, so there is nothing to decide on
        result = check_polarized((NA,), None, Permissive())
        assert not result.accepted
        kinds = [e.kind for e in result.trace]
        assert "decide" not in kinds

    def test_orpos_backtracks_to_second_side(self):
        # side 1 focuses b with no complement stored; side 2 closes
        entry = (NA, OrPos(B, A))
        result = check_polarized(entry, None, Permissive())
        assert result.accepted
        assert Ev("orpos", 2) in result.trace
        assert Ev("orpos", 1) not in result.trace  # rolled back
        assert result.choice_points >= 1

    def test_released_negative_is_stored_and_reusable(self):
        class Countdown(Permissive):
            def decide_e(self, cert):
                if cert > 0:
                    return self.named(cert - 1)
                return ()

        entry = (NA, AndPos(A, DelayNeg(A)))
        result = check_polarized(entry, 2, Countdown())
        assert result.accepted
        kinds = [e.kind for e in result.trace]
        release_at = kinds.index("release")
        # after the release: strip the delay, store the atom, decide, close
        assert kinds[release_at:release_at + 4] == [
            "release", "strip", "store", "decide"]

    def test_step_budget(self):
        with pytest.raises(StepBudgetExceeded):
            check(EXAMPLE1_THEOREM, ftab1_cert(), FITTINGS, max_steps=5)

    def test_reject_keeps_deepest_trace_prefix(self):
        bad_leaf = dataclasses.replace(taut_dectree().children[0], aux=EIND)
        bad = dataclasses.replace(taut_dectree(), children=(bad_leaf,))
        result = check(TAUT_THEOREM, FitCert.load(bad), FITTINGS)
        assert not result.accepted
        lines = trace_lines(result.trace)
        # the search got as far as deciding on the stored disjunct
        assert "decide (lind eind)" in lines
        assert "init (rind eind)" not in lines


class TestDecideOrder:
    def test_newest_first_when_asked(self):
        log = []

        class Probe(Permissive):
            """Names both atoms, oldest first, and logs each decide the
            kernel tries at the init that follows it."""

            def decide_e(self, cert):
                for index in (("ix", A), ("ix", B)):
                    yield index, index

            def initial_e(self, cert, index):
                log.append(cert)
                return False

        result = check_polarized((A, B, NA, NB), None, Probe())
        assert not result.accepted
        assert log == [("ix", B), ("ix", A)]


def _chain(op, items):
    out = items[0]
    for item in items[1:]:
        out = f"({op} {out} {item})"
    return out


def _wide(n):
    """dia ~p0 | ... | dia ~p(n-1) | box (p0 & ... & p(n-1))"""
    return parse_formula_text(_chain(
        "or", [f"(dia (- p{i}))" for i in range(n)]
        + ["(box " + _chain("and", [f"(+ p{i})" for i in range(n)]) + ")"]))


WIDE3 = _wide(3)


class TestSearchOrder:
    """Exact step and choice-point counts, recorded before decide-by-name
    replaced the per-entry poll: any change to the order or number of
    decide alternatives moves them."""

    @pytest.mark.parametrize("goal,cert,fpc,steps,choice_points", [
        (EXAMPLE1_THEOREM, ftab1_cert(), FITTINGS, 44, 0),
        (EXAMPLE2_THEOREM, ftab2_cert(), FITTINGS, 57, 0),
        (TAUT_THEOREM, taut_cert(), FITTINGS, 9, 0),
        (EXAMPLE1_THEOREM, sftab1_cert(), SIMPFIT, 48, 15),
        (EXAMPLE2_THEOREM, sftab2_cert(), SIMPFIT, 60, 11),
    ], ids=["ftab1", "ftab2", "taut", "sftab1", "sftab2"])
    def test_pinned_counts(self, goal, cert, fpc, steps, choice_points):
        # by the FPC named, and by the one the certificate carries
        for result in (check(goal, cert, fpc), check(goal, cert)):
            assert result.accepted
            assert (result.steps, result.choice_points) == (steps, choice_points)

    def test_wide3_without_its_last_boxinfo(self):
        # of the six boxinfos only the last is needed, so the search
        # exhausts every reconstruction before it rejects
        cert = emit_simpfitcert(prove(WIDE3), WIDE3)
        mutant = dataclasses.replace(cert, boxinfos=cert.boxinfos[:-1])
        result = check(WIDE3, mutant, SIMPFIT)
        assert not result.accepted
        assert (result.steps, result.choice_points) == (78317, 32764)
        assert trace_lines(result.trace[-2:]) == [
            "store (bind (lind (lind (lind eind))) (rind eind))",
            "decide (rind (lind (lind eind)))"]


class TestDecideByName:
    def test_decide_e_is_called_once_per_decide_point(self):
        class Counting(FittingsFpc):
            def __init__(self):
                self.calls = 0

            def decide_e(self, cert):
                self.calls += 1
                return super().decide_e(cert)

        for n in (2, 8, 24):
            # one branch that stores every disjunct before deciding
            goal = _wide(n)
            counting = Counting()
            result = check(goal, emit_fitcert(prove(goal), goal), counting)
            assert result.accepted and result.choice_points == 0
            kinds = [e.kind for e in result.trace]
            last = len(kinds) - 1 - kinds[::-1].index("decide")
            assert kinds[:last].count("store") > n
            assert counting.calls == kinds.count("decide")


class TestStorageScope:
    def test_ancestor_storage_visible_in_both_branches(self):
        result = check(EXAMPLE2_THEOREM, ftab2_cert(), FITTINGS)
        assert result.accepted
        # the diamond stored before the split is decided once per branch
        decides = [e for e in result.trace
                   if e.kind == "decide" and e.arg == Rind(EIND)]
        assert len(decides) == 2
        paths = trace_paths(result.trace)
        # andneg splits into the two tableau branches, and each branch's
        # diamond instantiation forks once more at its andpos
        assert len(paths) == 4
        for p in paths:
            assert sum(1 for e in p
                       if e.kind == "decide" and e.arg == Rind(EIND)) == 1

    def test_sibling_storage_does_not_leak(self):
        # point the second branch's closing decide/aux at indexes that are
        # only ever stored inside the first branch
        tree = ftab2_dectree()
        p_body = Lind(Lind(Lind(EIND)))
        p_closer = Lind(Bind(Rind(EIND), Lind(Lind(EIND))))

        def rewrite(node, path):
            if not path:
                return dataclasses.replace(
                    node, decide_on=p_body, aux=p_closer)
            head, rest = path[0], path[1:]
            kids = tuple(rewrite(k, rest) if i == head else k
                         for i, k in enumerate(node.children))
            return dataclasses.replace(node, children=kids)

        leaky = rewrite(tree, (0, 1, 0, 0, 0))
        assert leaky != tree
        result = check(EXAMPLE2_THEOREM, FitCert.load(leaky), FITTINGS)
        assert not result.accepted


class TestAgainstBruteForce:
    """The kernel's DFS is exhaustive: its verdict matches a second,
    try-everything search on small instances, for good and mutated
    certificates alike."""

    def test_small_instances(self):
        checked = 0
        for c in range(3):
            for goal in formulas_of_connectives(c):
                outcome = prove(goal)
                if not isinstance(outcome, ClosedTableau):
                    continue
                fit = emit_fitcert(outcome, goal)
                simp = emit_simpfitcert(outcome, goal)
                for cert, fpc in ((fit, FITTINGS), (simp, SIMPFIT)):
                    assert check(goal, cert, fpc).accepted
                    assert brute_force_accepts(goal, cert, fpc)
                    for _, mutant in list(certificate_mutants(cert))[:3]:
                        kernel_says = check(goal, mutant, fpc).accepted
                        brute_says = brute_force_accepts(goal, mutant, fpc)
                        assert kernel_says == brute_says
                        checked += 1
        assert checked > 50

    def test_paper_certificates_agree(self):
        assert brute_force_accepts(EXAMPLE1_THEOREM, ftab1_cert(), FITTINGS)
        assert brute_force_accepts(EXAMPLE1_THEOREM, sftab1_cert(), SIMPFIT)


class TestEigenNumbering:
    def test_fresh_eigens_count_up_from_one(self):
        result = check(EXAMPLE1_THEOREM, ftab1_cert(), FITTINGS)
        alls = [str(e) for e in result.trace if e.kind == "all"]
        assert alls == ["all e1"]

    def test_two_branches_get_distinct_eigens(self):
        result = check(EXAMPLE2_THEOREM, ftab2_cert(), FITTINGS)
        alls = [str(e) for e in result.trace if e.kind == "all"]
        assert alls == ["all e1", "all e2"]


class TestBipoleShape:
    def test_accepted_fixture_traces_are_disciplined(self):
        for goal, cert, fpc in (
            (TAUT_THEOREM, taut_cert(), FITTINGS),
            (EXAMPLE1_THEOREM, ftab1_cert(), FITTINGS),
            (EXAMPLE1_THEOREM, sftab1_cert(), SIMPFIT),
            (EXAMPLE2_THEOREM, ftab2_cert(), FITTINGS),
        ):
            result = check(goal, cert, fpc)
            assert result.accepted
            assert bipole_violations(result.trace) == []

    def test_checkresult_is_a_value(self):
        result = check(TAUT_THEOREM, taut_cert(), FITTINGS)
        assert isinstance(result, CheckResult)
        assert result.steps > 0
        assert result.choice_points == 0
