"""The essential-evidence certificate format: closures plus boxinfos."""

import pytest

from kcert.fittings import Bind, EIND, Lind, NONE, Rind
from kcert.formulas import AndNeg, DelayPos, Eigen, Exists, NAtom, OrNeg, PAtom, REL, W0
from kcert.kernel import check
from kcert.simpfit import SIMPFIT, BoxInfo, Closure, SimpfitCert
from kcert.tableau import emit_simpfitcert, prove
from examples import (
    EXAMPLE1_THEOREM,
    EXAMPLE2_THEOREM,
    sftab1_cert,
    sftab2_cert,
)
from helpers import certificate_mutants, family_proof, kchain, taut, wide, wide_simpfitcert

P_W0 = PAtom("p", (W0,))
NP_W0 = NAtom("p", (W0,))
L, R = Lind(EIND), Rind(EIND)


def fresh(flag=0, pending=(), closures=(), boxinfos=(), exists=(), delayed=(), splits=(),
          eigmap=(), spent=0, positives=(), negatives=()):
    """A state of the certificate that loads closures and boxinfos, with
    the universals of eigmap bound in order, and positive and negative
    literals stored at the indexes given."""
    cert = SimpfitCert.load(closures, boxinfos)
    ev = cert.evidence
    chain, bound = (), 0
    for univ, eigen in eigmap:
        chain, bound = (univ, eigen, chain), bound | ev.universals.get(univ, 0)
    lits = mated = 0
    for i in positives:
        lits |= ev.bit[i]
    for i in negatives:
        mated |= ev.mates[i]
    return cert._replace(flag=flag, pending=tuple(pending), exists=tuple(exists),
                         delayed=tuple(delayed), splits=tuple(splits), eigmap=chain,
                         bound=bound, spent=spent, lits=lits, mated=mated)


def decides_at(cert, index):
    """The continuations decide_e names for one index."""
    return [c2 for named, c2 in SIMPFIT.decide_e(cert) if named is index]


# three positive literals and their complements, each pair a closure
A, B, C = Lind(L), Rind(L), Lind(Lind(R))
NA, NB, NC = Lind(Rind(R)), Rind(Rind(R)), Rind(Lind(R))
PAIRS = (Closure(A, NA), Closure(B, NB), Closure(C, NC))


class TestClauses:
    def test_load(self):
        cert = SimpfitCert.load([Closure(EIND, NONE)], [])
        assert cert.flag == 1
        assert cert.pending == (EIND,)
        assert (cert.exists, cert.delayed, cert.splits, cert.eigmap) == ((), (), (), ())
        assert (cert.bound, cert.spent, cert.lits, cert.mated) == (0, 0, 0, 0)

    def test_load_derives_the_relevant_set(self):
        # ancestors through lind, rind and both sides of bind
        ex = Bind(Rind(L), Lind(R))
        cert = SimpfitCert.load([Closure(Lind(ex), NONE)], [BoxInfo(R, L)])
        assert cert.evidence.relevant == {Lind(ex), ex, Rind(L), L, Lind(R), R, EIND, NONE}

    def test_load_indexes_closures_and_boxinfos(self):
        # a bit per closure index, with the bits of its mates either way
        # round, and the premises of their parent; a bit per universal,
        # and each existential's boxinfos in order with their positions,
        # a repeated one once
        boxinfos = [BoxInfo(R, L), BoxInfo(L, R), BoxInfo(R, EIND), BoxInfo(R, L)]
        cert = SimpfitCert.load([Closure(L, R)], boxinfos)
        ev = cert.evidence
        assert (ev.bit, ev.names, ev.mates) == ({L: 0b01, R: 0b10}, (L, R), {L: 0b10, R: 0b01})
        assert ev.premises == {EIND: (0b11, 0b11)}
        assert ev.universals == {L: 0b001, R: 0b010, EIND: 0b100}
        assert ev.uses == {R: ((0, L), (2, EIND)), L: ((1, R),)}
        assert cert.boxinfos == tuple(boxinfos)
        assert (cert.closures, cert.boxinfos) == (ev.closures, ev.boxinfos)

    def test_decide_consumes_one_matching_token(self):
        # the older of two delayed negatives at one index
        cert = fresh(delayed=(EIND, EIND, L))
        got = decides_at(cert, EIND)
        assert got == [fresh(flag=1, pending=(EIND,), delayed=(EIND, L))]

    def test_decide_offers_literals_then_the_oldest_instantiable_existential(self):
        # the literals whose complement is stored, each once, then the
        # first ready expansion: of two existentials the older's only
        # boxinfo names an unbound universal, and some_e could
        # instantiate the newer
        exists = (Lind(R), Rind(R))
        boxinfos = (BoxInfo(Lind(R), Lind(L)), BoxInfo(Rind(R), EIND))
        cert = fresh(closures=PAIRS, boxinfos=boxinfos, exists=exists, delayed=(L,), splits=(R,),
                     eigmap=((EIND, Eigen(1)),), positives=(A, B, C, A), negatives=(NA, NB))
        got = SIMPFIT.decide_e(cert)
        assert type(got) is tuple
        assert [named for named, _ in got] == [A, B, Rind(R)]
        assert got[0][1] == cert._replace(flag=1, pending=(A,))
        assert got[2][1] == cert._replace(flag=1, pending=(Rind(R),), exists=exists[:1])

    def test_decide_offers_no_literal_without_a_stored_partner(self):
        # A's complement is stored; B's is not; C is paired only with the
        # positive A; the stored NC is paired only with an unstored literal
        closures = PAIRS[:2] + (Closure(C, A), Closure(Lind(A), NC))
        cert = fresh(closures=closures, positives=(A, B, C), negatives=(NA, NC))
        assert [named for named, _ in SIMPFIT.decide_e(cert)] == [A]
        assert SIMPFIT.decide_e(fresh(closures=closures, positives=(B, C))) == ()

    def test_decide_falls_back_to_the_oldest_delayed_negative(self):
        # no existential is ready: one's only boxinfo names an unbound
        # universal, another's is used up, a third has none; a split
        # waits for every other delayed negative
        exists = (L, Rind(R), Lind(R))
        boxinfos = (BoxInfo(L, Lind(L)), BoxInfo(Rind(R), EIND))
        cert = fresh(exists=exists, delayed=(R, Lind(L)), splits=(Rind(L),), boxinfos=boxinfos,
                     eigmap=((EIND, Eigen(1)),), spent=0b10)
        got = SIMPFIT.decide_e(cert)
        assert got == ((R, cert._replace(flag=1, pending=(R,), delayed=(Lind(L),))),)

    def test_decide_splits_first_where_a_premise_closes_at_once(self):
        # of three splits the second has a premise that a closure pairs
        # with a stored negative, the third one paired with a stored
        # positive; the oldest goes first when neither is stored
        splits = (Lind(A), Lind(B), Lind(C))
        closures = (Closure(Rind(Lind(B)), NA), Closure(B, Lind(Lind(C))))
        cert = fresh(closures=closures, splits=splits, negatives=(NA,), positives=(B,))
        assert SIMPFIT.decide_e(cert) == (
            (Lind(B), cert._replace(flag=1, pending=(Lind(B),), splits=(Lind(A), Lind(C)))),)
        cert = fresh(closures=closures, splits=splits, positives=(B,))
        assert [named for named, _ in SIMPFIT.decide_e(cert)] == [Lind(C)]
        cert = fresh(closures=closures, splits=splits)
        assert [named for named, _ in SIMPFIT.decide_e(cert)] == [Lind(A)]

    def test_decide_without_token_refuses(self):
        assert decides_at(fresh(), EIND) == []

    def test_store_grants_a_token_for_decidables(self):
        # to a relevant index, in the queue of the stored formula's kind;
        # the closure makes L relevant and R not, and records a positive
        # literal stored at L
        closures = (Closure(L, NONE),)
        cert = fresh(pending=(L, R), closures=closures)
        for formula, queue in ((DelayPos(AndNeg(P_W0, P_W0)), "splits"),
                               (DelayPos(OrNeg(P_W0, P_W0)), "delayed"),
                               (Exists(P_W0), "exists")):
            got = SIMPFIT.store_c(cert, formula)
            assert got == (L, fresh(pending=(R,), closures=closures, **{queue: (L,)}))
        got = SIMPFIT.store_c(cert, P_W0)
        assert got == (L, fresh(pending=(R,), closures=closures, positives=(L,)))

    def test_store_grants_no_token_to_an_irrelevant_index(self):
        closures = (Closure(R, NONE),)
        cert = fresh(pending=(L, R), closures=closures)
        for formula in (P_W0, DelayPos(AndNeg(P_W0, P_W0)), Exists(P_W0)):
            got = SIMPFIT.store_c(cert, formula)
            assert got == (L, fresh(pending=(R,), closures=closures))

    def test_store_negative_literal_grants_no_token(self):
        cert = fresh(flag=1, pending=(Lind(EIND),))
        got = SIMPFIT.store_c(cert, NP_W0)
        assert got == (Lind(EIND), fresh(flag=0))
        # where a closure pairs it, its mates become closable
        cert = fresh(flag=1, pending=(NA,), closures=PAIRS)
        got = SIMPFIT.store_c(cert, NP_W0)
        assert got == (NA, fresh(closures=PAIRS, negatives=(NA,)))
        assert got[1].mated == got[1].evidence.bit[A]

    def test_store_rel_goes_to_none_keeping_pending(self):
        cert = fresh(flag=1, pending=(Lind(EIND),))
        rel = NAtom(REL, (W0, Eigen(1)))
        got = SIMPFIT.store_c(cert, rel)
        assert got == (NONE, fresh(flag=0, pending=(Lind(EIND),)))

    def test_initial_accepts_none(self):
        assert SIMPFIT.initial_e(fresh(pending=(Lind(EIND),)), NONE)

    def test_initial_checks_closures_both_ways(self):
        cl = Closure(Lind(EIND), Rind(EIND))
        left_first = fresh(pending=(Lind(EIND),), closures=(cl,))
        right_first = fresh(pending=(Rind(EIND),), closures=(cl,))
        assert SIMPFIT.initial_e(left_first, Rind(EIND))
        assert SIMPFIT.initial_e(right_first, Lind(EIND))
        assert not SIMPFIT.initial_e(left_first, Lind(EIND))
        assert not SIMPFIT.initial_e(fresh(), Rind(EIND))

    def test_orneg_mints_children_right_after_a_decide(self):
        cert = fresh(flag=1, pending=(EIND,))
        assert SIMPFIT.orneg_c(cert) == fresh(flag=0, pending=(Lind(EIND), Rind(EIND)))

    def test_orneg_passes_through_mid_bipole(self):
        cert = fresh(flag=0, pending=(Lind(EIND),))
        assert SIMPFIT.orneg_c(cert) is cert

    def test_andneg_splits_right_after_a_decide(self):
        cert = fresh(flag=1, pending=(EIND,))
        assert SIMPFIT.andneg_c(cert) == (
            fresh(flag=0, pending=(Lind(EIND),)), fresh(flag=0, pending=(Rind(EIND),)))

    def test_all_records_the_eigenvariable(self):
        boxinfos = (BoxInfo(R, Lind(EIND)),)
        cert = fresh(flag=1, pending=(Lind(EIND),), boxinfos=boxinfos, eigmap=((R, Eigen(3)),))
        got = SIMPFIT.all_c(cert, Eigen(4))
        assert got == fresh(flag=0, pending=(Lind(Lind(EIND)),), boxinfos=boxinfos,
                            eigmap=((R, Eigen(3)), (Lind(EIND), Eigen(4))))
        assert got.bound == got.evidence.universals[Lind(EIND)]
        # linked onto the old chain, not copied: the old state is unchanged
        assert got.eigmap[2] is cert.eigmap
        assert cert.eigmap == (R, Eigen(3), ())

    def test_some_consumes_one_boxinfo_and_regrants_the_token(self):
        # of the two instantiations the universals allow, only the first
        # is offered; the second stays for a later decide
        bi = BoxInfo(Rind(EIND), Lind(EIND))
        later = BoxInfo(Rind(EIND), EIND)
        other = BoxInfo(Lind(EIND), Rind(EIND))
        eigmap = ((EIND, Eigen(3)), (Lind(EIND), Eigen(2)))
        cert = fresh(flag=1, pending=(Rind(EIND),), boxinfos=(other, bi, later),
                     eigmap=eigmap)
        got = SIMPFIT.some_e(cert)
        assert got == ((Eigen(2),
                        fresh(flag=0, pending=(Bind(Rind(EIND), Lind(EIND)),),
                              boxinfos=(other, bi, later), eigmap=eigmap,
                              exists=(Rind(EIND),), spent=0b010)),)

    def test_some_hands_no_token_back_after_the_last_boxinfo(self):
        # the other boxinfo of the existential is used already
        bi = BoxInfo(Rind(EIND), Lind(EIND))
        used = BoxInfo(Rind(EIND), EIND)
        eigmap = ((Lind(EIND), Eigen(2)),)
        cert = fresh(flag=1, pending=(Rind(EIND),), boxinfos=(used, bi), eigmap=eigmap,
                     spent=0b01)
        got = SIMPFIT.some_e(cert)
        assert got == ((Eigen(2),
                        fresh(flag=0, pending=(Bind(Rind(EIND), Lind(EIND)),),
                              boxinfos=(used, bi), eigmap=eigmap, spent=0b11)),)

    def test_some_uses_a_repeated_boxinfo_once(self):
        # listed twice, it is one use: no token comes back for the copy
        bi = BoxInfo(Rind(EIND), Lind(EIND))
        eigmap = ((Lind(EIND), Eigen(2)),)
        cert = fresh(flag=1, pending=(Rind(EIND),), boxinfos=(bi, bi), eigmap=eigmap)
        ((_, got),) = SIMPFIT.some_e(cert)
        assert (got.exists, got.spent) == ((), 0b01)
        assert SIMPFIT.some_e(got._replace(pending=(Rind(EIND),))) == ()

    def test_some_skips_a_used_boxinfo(self):
        bi = BoxInfo(Rind(EIND), Lind(EIND))
        cert = fresh(flag=1, pending=(Rind(EIND),), boxinfos=(bi,),
                     eigmap=((Lind(EIND), Eigen(2)),), spent=0b1)
        assert SIMPFIT.some_e(cert) == ()

    @pytest.mark.parametrize("pending", [(), (L, R)], ids=["none", "two"])
    def test_steps_refuse_unless_one_index_is_pending(self, pending):
        # a decomposition right after a decide splits one decided index
        boxinfos = (BoxInfo(L, R),)
        cert = fresh(flag=1, pending=pending, boxinfos=boxinfos, eigmap=((R, Eigen(1)),))
        assert SIMPFIT.orneg_c(cert) is None
        assert SIMPFIT.andneg_c(cert) is None
        assert SIMPFIT.all_c(cert, Eigen(2)) is None
        assert SIMPFIT.some_e(cert) == ()
        # the same index alone is split, bound or instantiated
        one = cert._replace(pending=(L,))
        answers = (SIMPFIT.orneg_c(one), SIMPFIT.andneg_c(one), SIMPFIT.all_c(one, Eigen(2)))
        assert None not in answers
        assert len(SIMPFIT.some_e(one)) == 1

    def test_store_refuses_with_nothing_pending(self):
        assert SIMPFIT.store_c(fresh(), P_W0) is None
        assert SIMPFIT.store_c(fresh(), NP_W0) is None

    def test_some_without_matching_boxinfo_refuses(self):
        cert = fresh(flag=1, pending=(Rind(EIND),),
                     eigmap=((Lind(EIND), Eigen(2)),))
        assert SIMPFIT.some_e(cert) == ()


class TestEndToEnd:
    def test_essential_fixture_accepts(self):
        result = check(EXAMPLE1_THEOREM, sftab1_cert(), SIMPFIT)
        assert result.accepted

    def test_two_worlds_fixture_accepts(self):
        result = check(EXAMPLE2_THEOREM, sftab2_cert(), SIMPFIT)
        assert result.accepted

    def test_two_worlds_certificate_reuses_the_existential(self):
        cert = sftab2_cert()
        assert len(cert.boxinfos) == 2
        assert cert.boxinfos[0].ex == cert.boxinfos[1].ex
        assert cert.boxinfos[0].univ != cert.boxinfos[1].univ

    def test_essential_certificate_contents(self):
        # two closures and two boxinfos, exactly as extracted from the
        # detailed refutation of the same theorem
        cert = sftab1_cert()
        le = Lind(EIND)
        box_q = Rind(le)
        re = Rind(EIND)
        dia_body = Bind(re, box_q)
        assert cert.closures == (
            Closure(Lind(dia_body), Bind(Lind(le), box_q)),
            Closure(Lind(box_q), Rind(dia_body)),
        )
        assert cert.boxinfos == (
            BoxInfo(Lind(le), box_q),
            BoxInfo(re, box_q),
        )

    def test_mutants_reject_and_terminate(self):
        for cert_maker, goal in ((sftab1_cert, EXAMPLE1_THEOREM),
                                 (sftab2_cert, EXAMPLE2_THEOREM)):
            for label, mutant in certificate_mutants(cert_maker()):
                result = check(goal, mutant, SIMPFIT)
                assert not result.accepted, label

    def test_certificate_against_wrong_theorem_rejects(self):
        assert not check(EXAMPLE2_THEOREM, sftab1_cert(), SIMPFIT).accepted
        assert not check(EXAMPLE1_THEOREM, sftab2_cert(), SIMPFIT).accepted

    def test_empty_certificate_rejects(self):
        empty = SimpfitCert.load((), ())
        assert not check(EXAMPLE1_THEOREM, empty, SIMPFIT).accepted

    def test_extra_closures_are_harmless(self):
        # junk closures add search space, never unsoundness; the checker
        # still accepts using the two real ones
        cert = sftab1_cert()
        padded = SimpfitCert.load(cert.closures + (Closure(EIND, EIND),), cert.boxinfos)
        assert check(EXAMPLE1_THEOREM, padded, SIMPFIT).accepted

    def test_family_mutants_reject_within_a_small_budget(self):
        # criterion 9 at scale, up to the sizes the benchmark checks:
        # every single mutation of these certificates gets its verdict
        # within 800 steps, about twice the worst (wide(12), 397 steps)
        runs = 0
        for family in (kchain, wide):
            for n in (*range(1, 9), 12):
                goal = family(n)
                cert = emit_simpfitcert(family_proof(family, n), goal)
                for label, mutant in certificate_mutants(cert):
                    result = check(goal, mutant, SIMPFIT, max_steps=800, trace=False)
                    assert not result.accepted, (family.__name__, n, label)
                    runs += 1
        assert runs == 3209

    @pytest.mark.parametrize("family,steps", [
        (kchain, (359, 1367, 2711)),
        (taut, (219, 891, 1787)),
        (wide, (338, 1346, 2690)),
    ], ids=["kchain", "taut", "wide"])
    def test_family_checks_keep_their_steps(self, family, steps):
        # at n = 16, 64 and 128, with no choice point; offering every
        # literal and splitting as soon as no box propagation was ready,
        # the steps were the same and wide read 13, 61 and 125 choice
        # points.  wide's certificate is built, not proved, and is the
        # emitted one
        if family is wide:
            assert wide_simpfitcert(16) == emit_simpfitcert(family_proof(wide, 16), wide(16))
        for n, pinned in zip((16, 64, 128), steps):
            goal = family(n)
            cert = (wide_simpfitcert(n) if family is wide
                    else emit_simpfitcert(family_proof(family, n), goal))
            result = check(goal, cert, trace=False)
            assert (result.accepted, result.steps, result.choice_points) == (True, pinned, 0)

    @pytest.mark.parametrize("family", [kchain, wide], ids=["kchain", "wide"])
    def test_steps_grow_linearly(self, family):
        # box propagations go before splits, so no branch repeats one:
        # kchain(n) takes 21n + 23 steps, wide(n) 21n + 2 (splitting first
        # took wide(64) 28,945), and only wide's literals backtrack
        for n in (8, 16, 32, 64):
            goal = family(n)
            result = check(goal, emit_simpfitcert(family_proof(family, n), goal), trace=False)
            assert result.accepted
            assert result.steps <= 22 * n + 24
            assert result.choice_points <= (0 if family is kchain else n)
