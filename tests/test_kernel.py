"""Kernel behavior: traces, phase discipline, backtracking, storage."""

import dataclasses
import hashlib
import inspect
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from kcert import cli, kernel
from kcert.cli import trace_lines
from kcert.fittings import Bind, DecTree, EIND, FITTINGS, FitCert, FittingsFpc, Lind, NONE, Rind
from kcert.formulas import (
    W0, All, AndNeg, AndPos, BVar, Box, DelayNeg, DelayPos, Eigen, Exists, NAtom, OrNeg, PAtom)
from kcert.kernel import (
    ANDNEG_L,
    ANDNEG_R,
    ANDPOS_L,
    ANDPOS_R,
    DEFAULT_MAX_STEPS,
    ORNEG,
    RELEASE,
    STRIP,
    CheckResult,
    Ev,
    Fpc,
    StepBudgetExceeded,
    check,
    check_polarized,
)
from kcert.simpfit import SIMPFIT, SimpfitCert, distill
from kcert.problems import ProblemFile, format_problem, parse_formula_text
from kcert.tableau import (
    ClosedTableau, bounded_validity_oracle, emit_dectree, emit_fitcert, emit_simpfitcert, prove)
from examples import (
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
from helpers import (
    bipole_violations,
    brute_force_accepts,
    certificate_mutants,
    corpus_proofs,
    distill_with_repeats,
    family_proof,
    first_order_countermodel,
    formulas_of_connectives,
    kchain,
    literal_flips,
    recursion_limit,
    same_dectree,
    taut,
    trace_paths,
    wide,
    wide3_unpruned_dectree,
)

A = PAtom("a", ())
NA = NAtom("a", ())
B = PAtom("b", ())
NB = NAtom("b", ())


class Permissive(Fpc):
    """Says yes to everything, indexing stores by the stored formula.
    It names every index it has ever handed out, newest first; the
    kernel decides on those that hold a positive entry on the current
    branch, in that order."""

    def __init__(self):
        self.handed_out = {}

    def named(self, cert):
        return [(index, cert) for index in reversed(self.handed_out)]

    def decide_e(self, cert):
        return self.named(cert)

    def store_c(self, cert, formula):
        self.handed_out[("ix", formula)] = None
        yield ("ix", formula), cert

    def initial_e(self, cert, index):
        return True


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


class TestSharedRecords:
    """Events and FITTINGS states are immutable tuple-backed records; an
    event without a payload of the run is one shared constant."""

    SHARED = (ORNEG, STRIP, RELEASE, ANDNEG_L, ANDNEG_R, ANDPOS_L, ANDPOS_R)

    def test_payload_free_events_are_the_shared_constants(self):
        result = check(EXAMPLE1_THEOREM, ftab1_cert(), FITTINGS)
        assert result.accepted
        free = [ev for ev in result.trace
                if ev.kind in ("orneg", "strip", "release", "andneg", "andpos")]
        for ev in free:
            assert any(ev is shared for shared in self.SHARED), ev
        # ftab1 uses every one of the seven, and each prints as before
        assert [str(ev) for ev in self.SHARED] == [
            "orneg", "strip", "release", "andneg L", "andneg R", "andpos L", "andpos R"]
        assert {str(ev) for ev in free} == {str(ev) for ev in self.SHARED}

    def test_events_are_immutable(self):
        ev = Ev("store", EIND)
        with pytest.raises(AttributeError):
            ev.kind = "decide"
        with pytest.raises(AttributeError):
            ev.extra = 1
        with pytest.raises(AttributeError):
            ORNEG.arg = "L"

    def test_fitcert_is_an_immutable_value(self):
        cert = ftab1_cert()
        with pytest.raises(AttributeError):
            cert.tree = taut_dectree()
        with pytest.raises(AttributeError):
            cert.fpc = SIMPFIT
        with pytest.raises(AttributeError):
            cert.extra = 1
        t = taut_dectree()
        assert FitCert.load(t) == FitCert((EIND,), t, ())
        assert FitCert.load(t)._replace(tree=ftab2_dectree()) == FitCert.load(ftab2_dectree())
        assert FitCert.fpc is FITTINGS
        assert cert.fpc is FITTINGS


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

    def test_decide_backtracks_to_an_older_entry(self):
        # the newest atom, b, has no complement stored; the older a closes
        result = check_polarized((NA, A, B), None, Permissive())
        assert result.accepted
        assert Ev("decide", ("ix", A)) in result.trace
        assert Ev("decide", ("ix", B)) not in result.trace  # rolled back
        assert result.choice_points == 1

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

    @pytest.mark.parametrize("item", [Box(PAtom("a", ())), "a"], ids=["modal", "text"])
    def test_a_workbench_item_that_is_no_polarized_formula_rejects(self, item):
        # neither decomposed nor stored: the FPC is never asked about it
        result = check_polarized((NA, item), None, Permissive())
        assert (result.accepted, result.steps) == (False, 2)
        assert result.trace == (Ev("store", ("ix", NA)),)

    def test_step_budget(self):
        with pytest.raises(StepBudgetExceeded):
            check(EXAMPLE1_THEOREM, ftab1_cert(), FITTINGS, max_steps=5)

    def test_every_check_has_one_default_budget(self):
        for fn in (check, check_polarized):
            assert inspect.signature(fn).parameters["max_steps"].default is DEFAULT_MAX_STEPS
        assert cli.DEFAULT_MAX_STEPS is DEFAULT_MAX_STEPS

    def test_reject_keeps_deepest_trace_prefix(self):
        bad_leaf = dataclasses.replace(taut_dectree().children[0], aux=EIND)
        bad = dataclasses.replace(taut_dectree(), children=(bad_leaf,))
        result = check(TAUT_THEOREM, FitCert.load(bad), FITTINGS)
        assert not result.accepted
        lines = trace_lines(result.trace)
        # the search got as far as deciding on the stored disjunct
        assert "decide (lind eind)" in lines
        assert "init (rind eind)" not in lines

    def test_reject_reports_an_earlier_deeper_failure(self):
        # the newest entry, a & b, fails at b after closing a; the older
        # c then fails at once, so the first alternative reached deepest
        C = PAtom("c", ())
        AB = AndPos(A, B)
        result = check_polarized((NA, C, AB), None, Permissive())
        assert not result.accepted
        assert result.choice_points == 1
        assert result.trace == (
            Ev("store", ("ix", NA)), Ev("store", ("ix", C)), Ev("store", ("ix", AB)),
            Ev("decide", ("ix", AB)), Ev("andpos", "L"), Ev("init", ("ix", NA)),
            Ev("andpos", "R"))


class TestCommit:
    """The kernel commits to the first success of each premise: a later
    failure never re-enters a premise that has already closed."""

    def test_finished_left_premise_is_not_retried(self):
        class Probe(Fpc):
            """The andneg's left premise may store a at l1 or at l2, and
            the first closes it; the right premise stores b, which
            nothing closes.  Logs every predicate call."""

            def __init__(self):
                self.log = []

            def store_c(self, cert, formula):
                self.log.append(("store_c", cert))
                if cert == "left":
                    yield "l1", "left-1"
                    yield "l2", "left-2"
                else:
                    yield cert, cert

            def andneg_c(self, cert):
                self.log.append(("andneg_c", cert))
                yield "left", "right"

            def decide_e(self, cert):
                self.log.append(("decide_e", cert))
                yield {"left-1": "l1", "left-2": "l2"}.get(cert, cert), cert

            def initial_e(self, cert, index):
                self.log.append(("initial_e", cert, index))
                return True

        probe = Probe()
        result = check_polarized((NA, AndNeg(A, B)), "root", probe)
        assert not result.accepted
        # recorded with the recursive kernel the goal stack replaced: no
        # store_c("left") is retried to reach l2
        assert (result.steps, result.choice_points) == (8, 1)
        assert probe.log == [
            ("store_c", "root"), ("andneg_c", "root"), ("store_c", "left"),
            ("decide_e", "left-1"), ("initial_e", "left-1", "root"),
            ("store_c", "right"), ("decide_e", "right")]
        assert trace_lines(result.trace) == [
            "store root", "andneg L", "store l1", "decide l1", "init root",
            "andneg R", "store right", "decide right"]


class Sharing(Fpc):
    """Stores a negative atom at its predicate's name and a positive one
    at "x", or at each index places gives its predicate, one per
    alternative; splits every negative conjunction, names "x" at every
    decide and sanctions every init, logging the index it is asked of."""

    def __init__(self, **places):
        self.places = places
        self.log = []

    def store_c(self, cert, formula):
        if isinstance(formula, NAtom):
            return ((formula.pred, cert),)
        return tuple((index, cert) for index in self.places.get(formula.pred, ("x",)))

    def andneg_c(self, cert):
        return ((cert, cert),)

    def decide_e(self, cert):
        return (("x", cert),)

    def initial_e(self, cert, index):
        self.log.append(index)
        return True


class TestDecideOrder:
    """The kernel decides on the live entry of each index the
    certificate names, in the order named, and closes an init on the
    first complement initial_e sanctions: it orders and polls nothing."""

    def test_in_the_order_named(self):
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
        assert log == [("ix", A), ("ix", B)]

    def test_a_second_store_hides_the_first(self):
        # b, stored last at x, is the only entry decide sees: a, which ~a
        # would close, is never tried
        fpc = Sharing()
        result = check_polarized((NA, A, B), None, fpc)
        assert (result.accepted, result.steps, result.choice_points) == (False, 5, 0)
        assert trace_lines(result.trace) == ["store a", "store x", "store x", "decide x"]
        assert fpc.log == []

    def test_undo_in_a_right_premise_shows_the_first_again(self):
        # the left premise stores b at x and closes it on ~b; the right
        # one no longer holds that b, so it decides on a and closes on ~a
        fpc = Sharing()
        entry = (NA, NB, A, AndNeg(B, NAtom("c", ())))
        result = check_polarized(entry, None, fpc)
        assert (result.accepted, result.choice_points) == (True, 0)
        assert fpc.log == ["b", "a"]

    def test_undo_on_backtracking_shows_the_first_again(self):
        # b stored at x fails; stored at y on backtracking it leaves a live
        # at x, which closes on ~a
        fpc = Sharing(b=("x", "y"))
        result = check_polarized((NA, A, B), None, fpc)
        assert (result.accepted, result.choice_points) == (True, 1)
        assert trace_lines(result.trace) == [
            "store a", "store x", "store y", "decide x", "init a"]
        assert fpc.log == ["a"]

    @pytest.mark.parametrize("sanctioned,asked", [
        ({"n1", "n2"}, ["n1"]), ({"n2"}, ["n1", "n2"]), (set(), ["n1", "n2"])])
    def test_init_stops_at_the_first_sanctioned_complement(self, sanctioned, asked):
        class Probe(Sharing):
            """Stores two copies of ~a, at n1 and n2, and sanctions only
            the indexes it is given."""

            def store_c(self, cert, formula):
                if isinstance(formula, NAtom):
                    return ((f"n{cert}", cert + 1),)
                return super().store_c(cert, formula)

            def initial_e(self, cert, index):
                self.log.append(index)
                return index in sanctioned

        fpc = Probe()
        result = check_polarized((NA, NA, A), 1, fpc)
        assert (result.accepted, result.choice_points) == (bool(sanctioned), 0)
        assert fpc.log == asked
        if sanctioned:
            assert trace_lines(result.trace)[-1] == f"init {asked[-1]}"


WIDE3 = wide(3)


class TestSearchOrder:
    """Exact step and choice-point counts, the FITTINGS ones recorded
    before decide-by-name replaced the per-entry poll, the SIMPFIT ones
    once it offered only closable literals and split last: any change to
    the order or number of decide alternatives moves them.  sftab1 and
    sftab2 read (46, 4) and (59, 4) when every literal was offered."""

    @pytest.mark.parametrize("goal,cert,fpc,steps,choice_points", [
        (EXAMPLE1_THEOREM, ftab1_cert(), FITTINGS, 44, 0),
        (EXAMPLE2_THEOREM, ftab2_cert(), FITTINGS, 57, 0),
        (TAUT_THEOREM, taut_cert(), FITTINGS, 9, 0),
        (EXAMPLE1_THEOREM, sftab1_cert(), SIMPFIT, 44, 0),
        (EXAMPLE2_THEOREM, sftab2_cert(), SIMPFIT, 57, 0),
    ], ids=["ftab1", "ftab2", "taut", "sftab1", "sftab2"])
    def test_pinned_counts(self, goal, cert, fpc, steps, choice_points):
        # by the FPC named, and by the one the certificate carries
        for result in (check(goal, cert, fpc), check(goal, cert)):
            assert result.accepted
            assert (result.steps, result.choice_points) == (steps, choice_points)

    def test_wide3_without_its_last_boxinfo(self):
        # on the certificates that keep each boxinfo as often as the
        # decide tree names it: the last boxinfo is the only one of the
        # third diamond.  The others fire on the trunk, before the box's
        # conjunction splits, and the check rejects on the branch of the
        # third conjunct, which nothing closes: its literal has no stored
        # complement, so nothing is left to decide on.  The decide tree
        # the prover emitted before it pruned repeats two of them, each
        # used once.  Offering every literal, the reject read (79, 3) on
        # that tree and (58, 0) on the pruned one
        emitted = emit_dectree(prove(WIDE3), WIDE3)
        for tree in (wide3_unpruned_dectree(), emitted):
            cert = distill_with_repeats(tree)
            mutant = SimpfitCert.load(cert.closures, cert.boxinfos[:-1])
            result = check(WIDE3, mutant, SIMPFIT)
            assert not result.accepted
            assert (result.steps, result.choice_points) == (57, 0)
            assert trace_lines(result.trace[-2:]) == [
                "andneg R",
                "store (rind (lind (rind eind)))"]


class TestPinnedRuns:
    """One digest per format of verdict, steps, choice points and trace
    for every run below: a change to any rule's behaviour on these runs
    moves it.  The FITTINGS digest was recorded on the kernel that still
    asked the certificate at release and positive conjunction, the
    SIMPFIT one once it offered only closable literals and split last."""

    @staticmethod
    def digest(certs, emit):
        for family in (taut, kchain, wide):
            for n in (1, 2):
                goal = family(n)
                certs.append((goal, emit(prove(goal), goal)))
        digest = hashlib.sha256()
        runs = 0
        for goal, cert in certs:
            for c in [cert, *(m for _, m in certificate_mutants(cert))]:
                r = check(goal, c, max_steps=100_000)
                digest.update(f"{r.accepted} {r.steps} {r.choice_points}\n".encode())
                digest.update("".join(f"{line}\n" for line in trace_lines(r.trace)).encode())
                runs += 1
        return runs, digest.hexdigest()

    def test_fittings_digest(self):
        certs = [(EXAMPLE1_THEOREM, ftab1_cert()), (EXAMPLE2_THEOREM, ftab2_cert()),
                 (TAUT_THEOREM, taut_cert())]
        # re-pinned when the prover began to prune its certificates:
        # (194, "ce52532d...") before; when some_e began to offer only
        # the newest binding of its aux, which moved one mutant from 53
        # steps and 1 choice point to 41 and 0: (180, "2f390ca8...")
        # before; and when an index began to hold one live entry, which
        # moved four rejected mutants, each of 1 choice point, from 32,
        # 46, 24 and 32 steps to 27, 34, 23 and 27, with none:
        # (180, "3c2ae8d5...") before
        assert self.digest(certs, emit_fitcert) == (
            180, "2bc6d368473b4159240312cf7d775abc484b64aea2e457a20339d76e4007e019")

    def test_simpfit_digest(self):
        certs = [(EXAMPLE1_THEOREM, sftab1_cert()), (EXAMPLE2_THEOREM, sftab2_cert())]
        # re-pinned when it began to offer only closable literals and to
        # split last: (163, "b3bfc765...") before
        assert self.digest(certs, emit_simpfitcert) == (
            163, "b45b5a2abcec4100b09a515fa05d2b3319df3559dfefdf04b0082b3821c30d43")


def _pinned_runs():
    """Every (goal, certificate) run of TestPinnedRuns: both certificate
    sets, each certificate with its mutants."""
    for certs, emit in (
            ([(EXAMPLE1_THEOREM, ftab1_cert()), (EXAMPLE2_THEOREM, ftab2_cert()),
              (TAUT_THEOREM, taut_cert())], emit_fitcert),
            ([(EXAMPLE1_THEOREM, sftab1_cert()), (EXAMPLE2_THEOREM, sftab2_cert())],
             emit_simpfitcert)):
        for family in (taut, kchain, wide):
            for n in (1, 2):
                goal = family(n)
                certs.append((goal, emit(prove(goal), goal)))
        for goal, cert in certs:
            for c in [cert, *(m for _, m in certificate_mutants(cert))]:
                yield goal, c


class TestFittingsReplay:
    """Each FITTINGS predicate answers at most once, as test_fittings.py
    holds, and the kernel decides only on the live entry of the one
    index a tree node names, so a replay never makes a choice point."""

    def test_no_run_makes_a_choice_point(self):
        runs = 0
        for goal, cert in _pinned_runs():
            if type(cert) is FitCert:
                r = check(goal, cert, max_steps=100_000, trace=False)
                assert r.choice_points == 0
                runs += 1
        # four of them, all rejected mutants, made one each while an
        # index offered every entry stored at it
        assert runs == 180

    def test_a_tree_that_decides_an_index_twice(self):
        # the second decide on eind stores the disjuncts again: the
        # last-stored ones are live and close, with nothing to try
        # (2 choice points while an index offered every entry)
        goal = parse_formula_text("(or (+ p) (- p))")
        tree = DecTree(EIND, NONE, (DecTree(EIND, NONE, (DecTree(Lind(EIND), Rind(EIND)),)),))
        result = check(goal, FitCert.load(tree))
        assert (result.accepted, result.steps, result.choice_points) == (True, 15, 0)


class TestUntracedRuns:
    """A check that asks for no trace gives the traced verdict, steps and
    choice points, trace (), and builds no event on the way."""

    def test_untraced_runs_match_the_traced_ones(self):
        runs = 0
        for goal, cert in _pinned_runs():
            traced = check(goal, cert, max_steps=100_000)
            untraced = check(goal, cert, max_steps=100_000, trace=False)
            assert (untraced.accepted, untraced.steps, untraced.choice_points) == (
                traced.accepted, traced.steps, traced.choice_points)
            assert untraced.trace == ()
            runs += 1
        # 357 before the prover pruned the FITTINGS certificates of
        # kchain(1), kchain(2) and wide(2), which lost 14 mutants between them
        assert runs == 343

    @pytest.fixture
    def no_events(self, monkeypatch):
        def no_event(*args):
            raise AssertionError("an untraced check built a trace event")

        monkeypatch.setattr(kernel, "Ev", no_event)

    def test_untraced_checks_build_no_event(self, no_events):
        assert check(EXAMPLE1_THEOREM, ftab1_cert(), trace=False).accepted
        assert check(EXAMPLE1_THEOREM, sftab1_cert(), trace=False).accepted
        mutant = next(m for _, m in certificate_mutants(ftab1_cert()))
        assert not check(EXAMPLE1_THEOREM, mutant, trace=False).accepted
        # a traced check does build them
        with pytest.raises(AssertionError, match="built a trace event"):
            check(EXAMPLE1_THEOREM, ftab1_cert())

    def test_the_cli_traces_only_when_asked(self, no_events, tmp_path, capsys):
        path = tmp_path / "ftab1.prob"
        path.write_text(format_problem(ProblemFile("ftab1", EXAMPLE1_THEOREM, ftab1_cert())))
        assert cli.main(["check", str(path)]) == 0
        assert capsys.readouterr().out == "accepted\n"
        # prove checks what it emits without a trace
        assert cli.main(["prove", "(or (+ p) (- p))"]) == 0
        assert capsys.readouterr().out.startswith('(problem "emitted"')


class TestDeepProofs:
    """Proofs far taller than the recursion limit are found, emitted and
    checked at the default limit, with the counts the recursive kernel
    gave under a raised one.  Each proof is found once, also at the
    default limit.  fittings-kchain64 was re-pinned when the prover began
    to prune its certificates; it read (1815, 0) on the unpruned tree.
    simpfit-wide64 read (1346, 61) before SIMPFIT split last.  The
    prover's pruned trees name each boxinfo once, so a hand-built deep
    tree checks a simpfit certificate that repeats boxinfos."""

    @pytest.mark.parametrize("family,n,emit,steps,choice_points", [
        (kchain, 64, emit_fitcert, 1367, 0),
        (taut, 512, emit_fitcert, 7163, 0),
        (kchain, 128, emit_simpfitcert, 2711, 0),
        (wide, 64, emit_simpfitcert, 1346, 0),
    ], ids=["fittings-kchain64", "fittings-taut512", "simpfit-kchain128", "simpfit-wide64"])
    def test_default_recursion_limit(self, family, n, emit, steps, choice_points):
        goal = family(n)
        with recursion_limit(1000):
            cert = emit(family_proof(family, n), goal)
            result = check(goal, cert)
        assert result.accepted
        assert (result.steps, result.choice_points) == (steps, choice_points)

    @pytest.mark.parametrize("load,steps,choice_points", [
        (FitCert.load, 2886, 0),
        (distill_with_repeats, 2865, 0),
    ], ids=["fittings", "simpfit"])
    def test_repeated_boxinfos_at_depth(self, load, steps, choice_points):
        # box^400 wide(3): decide on each box, then wide(3)'s unpruned
        # tree rooted at the innermost box's body, whose three branches
        # decide on one, two and three of its diamonds.  SIMPFIT uses each
        # repeated boxinfo once; it read (2886, 3) when it offered every
        # literal and split as soon as no box propagation was ready
        goal, chain = wide(3), [EIND]
        for _ in range(400):
            goal = Box(goal)
            chain.append(Lind(chain[-1]))
        tree = wide3_unpruned_dectree(chain[-1])
        for index in reversed(chain[:-1]):
            tree = DecTree(index, NONE, (tree,))
        boxinfos = distill_with_repeats(tree).boxinfos
        assert (len(boxinfos), len(set(boxinfos))) == (6, 3)
        with recursion_limit(1000):
            result = check(goal, load(tree))
        assert result.accepted
        assert (result.steps, result.choice_points) == (steps, choice_points)

    def test_box_chain_3000_deep(self):
        # box^3000 (p | ~p), proved under the default limit: decide on
        # each diamond, then on the conjunction, whose two literals close
        # the branch
        n = 3000
        goal = parse_formula_text("(box " * n + "(or (+ p) (- p))" + ")" * n)
        chain = [EIND]
        for _ in range(n):
            chain.append(Lind(chain[-1]))
        tree = DecTree(Lind(chain[-1]), Rind(chain[-1]), ())
        for index in reversed(chain):
            tree = DecTree(index, NONE, (tree,))
        with recursion_limit(1000):
            assert same_dectree(emit_dectree(prove(goal), goal), tree)
            result = check(goal, FitCert.load(tree))
        assert result.accepted
        assert result.choice_points == 0

    @staticmethod
    def disjunct_chain(n):
        # box (q0 | (q1 | ... | (p | ~p))): the box's bound world occurs
        # in every disjunct, all in one quantifier body.  Its decide tree
        # is built by a loop as above: decide on the box, on its body,
        # then down the right disjuncts, and close on p and ~p.
        goal = parse_formula_text("(box " + "".join(f"(or (+ q{i}) " for i in range(n))
                                  + "(or (+ p) (- p))" + ")" * n + ")")
        chain = [EIND, Lind(EIND)]
        for _ in range(n):
            chain.append(Rind(chain[-1]))
        tree = DecTree(Lind(chain[-1]), Rind(chain[-1]), ())
        for index in reversed(chain):
            tree = DecTree(index, NONE, (tree,))
        return goal, tree

    def test_disjunct_chain_3000_long(self):
        goal, tree = self.disjunct_chain(3000)
        with recursion_limit(1000):
            assert same_dectree(emit_dectree(prove(goal), goal), tree)
            result = check(goal, FitCert.load(tree))
        assert result.accepted
        assert (result.steps, result.choice_points) == (18016, 0)

    def test_disjunct_chain_under_simpfit(self):
        # no q is an ancestor of the closure, so none gets a decide
        # token and none is a choice point
        n = 600
        goal, tree = self.disjunct_chain(n)
        with recursion_limit(1000):
            result = check(goal, distill(tree))
        assert result.accepted
        assert result.choice_points <= n

    def test_step_budget_stops_a_deep_proof(self):
        goal = kchain(64)
        with recursion_limit(1000), pytest.raises(StepBudgetExceeded):
            check(goal, emit_fitcert(prove(goal), goal), max_steps=1000)


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
            goal = wide(n)
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

    def test_a_positive_conjunction_scopes_its_left_premise_storage(self):
        # (~a | ~b | b) &+ a is just a: the left premise stores ~a, ~b and
        # b and closes on b, and its ~a must be gone when the right
        # premise reaches a
        entry = (AndPos(DelayNeg(OrNeg(NA, OrNeg(NB, B))), A),)
        result = check_polarized(entry, None, Witnessing(), max_steps=1000)
        assert not result.accepted
        assert (result.steps, result.choice_points) == (13, 1)

    def test_an_alternative_does_not_see_what_a_failed_one_stored(self):
        class OneDecide(Witnessing):
            """Witnessing, with one decide on each branch: the
            certificate counts the decides left."""

            def decide_e(self, cert):
                return self.named(cert - 1) if cert else ()

        # the newest entry, delayed ~a | b, is decided first: it stores ~a
        # and b and fails at the next decide; a, decided on backtracking,
        # must not close on that ~a
        entry = (A, DelayPos(OrNeg(NA, B)))
        result = check_polarized(entry, 1, OneDecide(), max_steps=1000)
        assert not result.accepted
        assert (result.steps, result.choice_points) == (10, 1)
        assert Ev("store", ("ix", NA)) in result.trace


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

    @pytest.mark.parametrize("family,n,emit", [
        (kchain, 2, emit_fitcert),
        (kchain, 3, emit_fitcert),
        (wide, 2, emit_fitcert),
        (wide, 2, emit_simpfitcert),
        (kchain, 2, emit_simpfitcert),
    ], ids=["fittings-kchain2", "fittings-kchain3", "fittings-wide2", "simpfit-wide2",
            "simpfit-kchain2"])
    def test_family_certificates(self, family, n, emit):
        # binders under binders, and eigenvariables that reach closures
        goal = family(n)
        cert = emit(prove(goal), goal)
        assert check(goal, cert).accepted
        assert brute_force_accepts(goal, cert, cert.fpc)
        for _, mutant in list(certificate_mutants(cert))[:3]:
            assert check(goal, mutant).accepted == brute_force_accepts(goal, mutant, mutant.fpc)

    def test_paper_certificates_agree(self):
        assert brute_force_accepts(EXAMPLE1_THEOREM, ftab1_cert(), FITTINGS)
        assert brute_force_accepts(EXAMPLE1_THEOREM, sftab1_cert(), SIMPFIT)


@cache
def _small_theorems() -> tuple:
    # the oracle decides at most 8 connectives: the corpus has at most 5,
    # these families 1 to 6
    families = (taut(1), taut(2), kchain(1), wide(1), wide(2))
    return corpus_proofs() + tuple((goal, prove(goal)) for goal in families)


class TestAcceptanceImpliesValidity:
    """An accepted check is a proof: both certificates of a theorem,
    checked against the theorem with one literal negated, are accepted
    only where the oracle finds the new formula valid."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.data())
    def test_flipped_literal(self, data):
        # drawn by position: a drawn value is printed, and a tableau is big
        theorems = _small_theorems()
        goal, ct = theorems[data.draw(st.integers(0, len(theorems) - 1))]
        flipped = data.draw(st.sampled_from(literal_flips(goal)))
        for cert in (emit_fitcert(ct, goal), emit_simpfitcert(ct, goal)):
            if check(flipped, cert, max_steps=100_000).accepted:
                assert bounded_validity_oracle(flipped), (goal, flipped, cert)


class Opening(Permissive):
    """Permissive, and opens every universal."""

    def all_c(self, cert):
        yield lambda eigen: cert


class TestEnvironment:
    """Binders are opened by environment: under binders BVar(k) is the
    eigenvariable of the k-th binder out, and a variable bound outside
    the entry keeps what substitution would leave of it."""

    @pytest.mark.parametrize("closed,opened", [(NAtom, PAtom), (PAtom, NAtom)],
                             ids=["positive-opened", "negative-opened"])
    @pytest.mark.parametrize("var,accepted", [(1, True), (0, False)],
                             ids=["binder-order", "swapped"])
    def test_atom_under_two_binders(self, closed, opened, var, accepted):
        # all x. (r(x) | all y. r(BVar(var))) opens x at e1, then y at e2:
        # under both binders x is BVar(1), and only it meets r(x)
        entry = (All(OrNeg(closed("r", (BVar(0),)), All(opened("r", (BVar(var),))))),)
        result = check_polarized(entry, None, Witnessing())
        assert result.accepted == accepted
        assert [e for e in result.trace if e.kind == "all"] == [
            Ev("all", Eigen(1)), Ev("all", Eigen(2))]

    @pytest.mark.parametrize("index,accepted", [(1, True), (0, False)])
    def test_variable_bound_outside_the_entry(self, index, accepted):
        # under one binder the entry's free BVar(0) reads BVar(1); BVar(0)
        # is the binder's own eigenvariable
        entry = (NAtom("r", (BVar(0),)), All(PAtom("r", (BVar(index),))))
        result = check_polarized(entry, None, Opening())
        assert result.accepted == accepted

    @pytest.mark.parametrize("index,accepted", [(3, True), (2, False)])
    def test_walk_past_two_binders(self, index, accepted):
        # the walk leaves the environment after two links: BVar(3) reads
        # BVar(1) and meets the stored r(BVar(1)); BVar(2) reads BVar(0)
        entry = (NAtom("r", (BVar(1),)), All(All(PAtom("r", (BVar(index),)))))
        result = check_polarized(entry, None, Opening())
        assert result.accepted == accepted


class TestTermsAreClassed:
    """Terms are values told apart by class: an eigenvariable and a
    variable with the same number are different keys in negative
    storage, so init never closes on an atom of the other class."""

    def test_equal_fields_different_classes(self):
        assert Eigen(1) != BVar(1)
        assert len({Eigen(1): "e", BVar(1): "b"}) == 2
        assert len({("r", (Eigen(1),)), ("r", (BVar(1),))}) == 2

    @pytest.mark.parametrize("stored,accepted", [
        (Exists(NAtom("r", (BVar(0),))), True),
        (NAtom("r", (BVar(1),)), False),
    ], ids=["same-class", "other-class"])
    def test_complement_must_match_the_term_class(self, stored, accepted):
        # the universal opens at e1, and the stored atom is r(e1), its
        # witness, or r(BVar(1)), left open: the only candidate complement
        # of r(e1), equal in number but not always in class
        entry = (stored, All(PAtom("r", (BVar(0),))))
        result = check_polarized(entry, None, Witnessing(Eigen(1)), max_steps=100)
        assert result.accepted == accepted


class TestEigenNumbering:
    def test_fresh_eigens_count_up_from_one(self):
        result = check(EXAMPLE1_THEOREM, ftab1_cert(), FITTINGS)
        alls = [str(e) for e in result.trace if e.kind == "all"]
        assert alls == ["all e1"]

    def test_two_branches_get_distinct_eigens(self):
        result = check(EXAMPLE2_THEOREM, ftab2_cert(), FITTINGS)
        alls = [str(e) for e in result.trace if e.kind == "all"]
        assert alls == ["all e1", "all e2"]


class Witnessing(Opening):
    """Opening, splits every disjunction, and answers every existential
    with the given witnesses in turn, whatever they are; records each
    eigenvariable the kernel introduces."""

    def __init__(self, *witnesses):
        super().__init__()
        self.witnesses = witnesses
        self.eigens = []

    def orneg_c(self, cert):
        yield cert

    def all_c(self, cert):
        yield lambda eigen: self.eigens.append(eigen) or cert

    def some_e(self, cert):
        for witness in self.witnesses:
            yield witness, cert


class Rigged:
    """Equal to everything, hashed as e1."""

    def __eq__(self, other):
        return True

    def __hash__(self):
        return hash(Eigen(1))


class TestWitnesses:
    """The some rule is sound whatever witness the FPC names: a witness
    is a term, an Eigen numbered by an int or a WorldConst, and no later
    all introduces a witness's eigenvariable as fresh."""

    # exists x. all y. S(x, y) | ~S(y, x): invalid, false on the naturals
    # with S(y, x) iff y = x + 1
    INVALID = Exists(DelayPos(All(OrNeg(PAtom("S", (BVar(1), BVar(0))),
                                        NAtom("S", (BVar(0), BVar(1)))))))
    # exists x. p(x) | ~p(x): valid, any term witnesses it
    VALID = Exists(DelayPos(OrNeg(PAtom("p", (BVar(0),)), NAtom("p", (BVar(0),)))))

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_a_witness_eigenvariable_is_never_fresh_again(self, k):
        # answering e1 (or e2) got INVALID accepted in 11 (20) steps,
        # the later all opening the witness itself as fresh
        fpc = Witnessing(Eigen(k))
        try:
            accepted = check_polarized((self.INVALID,), None, fpc, max_steps=2_000).accepted
        except StepBudgetExceeded:
            accepted = False
        assert not accepted
        assert fpc.eigens[0] == Eigen(k + 1)
        assert len(set(fpc.eigens)) == len(fpc.eigens)

    @pytest.mark.parametrize("witness", [W0, Eigen(1), Eigen(7)], ids=str)
    def test_terms_witness(self, witness):
        result = check_polarized((self.VALID,), None, Witnessing(witness))
        assert result.accepted
        assert Ev("some", witness) in result.trace

    @pytest.mark.parametrize("witness", [
        "e1", BVar(0), Eigen(True), Eigen("1"), Eigen(Rigged()), Rigged(),
        type("SubEigen", (Eigen,), {})(1)],
        ids=["str", "bvar", "bool-eigen", "str-eigen", "rigged-eigen", "rigged", "subclass"])
    def test_anything_else_fails_the_rule(self, witness):
        result = check_polarized((self.VALID,), None, Witnessing(witness))
        assert not result.accepted
        # store, decide, and the some rule that fails
        assert result.steps == 3
        assert trace_lines(result.trace)[-1].startswith("decide")

    def test_a_foreign_witness_tried_on_backtracking_fails_too(self):
        # p(w0) finds no complement; the next alternative is no term
        result = check_polarized((Exists(PAtom("p", (BVar(0),))),), None, Witnessing(W0, "x"))
        assert not result.accepted
        assert (result.steps, result.choice_points) == (4, 1)


class TestEntryEigens:
    """An Eigen numbered by an int in an entry is a constant: the kernel
    numbers its own eigenvariables past it, so no all opens it as fresh."""

    @pytest.mark.parametrize("entry", [
        # all x. p(x) | ~p(e1): invalid, false where p holds of all but e1
        (All(PAtom("p", (BVar(0),))), NAtom("p", (Eigen(1),))),
        # Eigen(True) == Eigen(1)
        (All(PAtom("p", (BVar(0),))), NAtom("p", (Eigen(True),))),
        # the same, as one disjunction
        (OrNeg(All(PAtom("p", (BVar(0),))), NAtom("p", (Eigen(1),))),),
    ], ids=["int", "bool", "nested"])
    def test_an_entry_eigenvariable_is_never_fresh(self, entry):
        # the FPC says yes to everything; the kernel numbered the all's
        # eigenvariable e1 and accepted in 5 steps
        assert first_order_countermodel(entry) is not None
        fpc = Witnessing()
        result = check_polarized(entry, None, fpc)
        assert not result.accepted
        assert fpc.eigens == [Eigen(2)]

    def test_the_numbering_starts_past_the_largest(self):
        entry = (NAtom("p", (Eigen(7),)), NAtom("p", (Eigen(3),)), All(PAtom("p", (BVar(0),))))
        fpc = Witnessing()
        assert not check_polarized(entry, None, fpc).accepted
        assert fpc.eigens == [Eigen(8)]


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
