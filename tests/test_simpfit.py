"""The essential-evidence certificate format: closures plus boxinfos."""

import dataclasses

import pytest

from kcert.fittings import Bind, EIND, Lind, NONE, Rind
from kcert.formulas import AndNeg, DelayPos, Eigen, Exists, NAtom, PAtom, REL, W0
from kcert.kernel import check
from kcert.simpfit import SIMPFIT, BoxInfo, Closure, SimpfitCert
from kcert.tableau import emit_simpfitcert, prove
from examples import (
    EXAMPLE1_THEOREM,
    EXAMPLE2_THEOREM,
    sftab1_cert,
    sftab2_cert,
)
from helpers import certificate_mutants, family_proof, kchain, wide

P_W0 = PAtom("p", (W0,))
NP_W0 = NAtom("p", (W0,))
L, R = Lind(EIND), Rind(EIND)


def fresh(flag=0, pending=(), closures=(), boxinfos=(), eigmap=(), usable=(), spent=0):
    """A state of the certificate that loads closures and boxinfos."""
    return dataclasses.replace(SimpfitCert.load(closures, boxinfos), flag=flag,
                               pending=tuple(pending), usable=tuple(usable),
                               eigmap=dict(eigmap), spent=spent)


def decides_at(cert, index):
    """The continuations decide_e names for one index."""
    return [c2 for named, c2 in SIMPFIT.decide_e(cert) if named is index]


class TestClauses:
    def test_load(self):
        cert = SimpfitCert.load([Closure(EIND, NONE)], [])
        assert cert.flag == 1
        assert cert.pending == (EIND,)
        assert cert.usable == ()

    def test_load_derives_the_relevant_set(self):
        # ancestors through lind, rind and both sides of bind
        ex = Bind(Rind(L), Lind(R))
        cert = SimpfitCert.load([Closure(Lind(ex), NONE)], [BoxInfo(R, L)])
        assert cert.evidence.relevant == {Lind(ex), ex, Rind(L), L, Lind(R), R, EIND, NONE}

    def test_load_indexes_closures_and_boxinfos(self):
        # each closure both ways round; each existential's boxinfos in
        # order, with their positions
        cert = SimpfitCert.load([Closure(L, R)], [BoxInfo(R, L), BoxInfo(L, R), BoxInfo(R, EIND)])
        assert cert.evidence.closes == {(L, R), (R, L)}
        assert cert.evidence.uses == {R: ((0, L), (2, EIND)), L: ((1, R),)}
        assert (cert.closures, cert.boxinfos) == (cert.evidence.closures, cert.evidence.boxinfos)

    def test_decide_consumes_one_matching_token(self):
        # the older of two delayed negatives at one index
        cert = fresh(usable=((DelayPos, EIND), (DelayPos, EIND), (DelayPos, L)))
        got = decides_at(cert, EIND)
        assert got == [fresh(flag=1, pending=(EIND,),
                             usable=((DelayPos, EIND), (DelayPos, L)))]

    def test_decide_offers_literals_then_the_oldest_instantiable_existential(self):
        # oldest first: two delayed negatives, two literals (one named
        # twice) and two existentials; the older one's only boxinfo names
        # an unbound universal, and some_e could instantiate the newer
        usable = ((DelayPos, L), (Exists, Lind(R)), (PAtom, Lind(L)), (DelayPos, R),
                  (PAtom, Rind(L)), (Exists, Rind(R)), (PAtom, Lind(L)))
        boxinfos = (BoxInfo(Lind(R), Lind(L)), BoxInfo(Rind(R), EIND))
        cert = fresh(usable=usable, boxinfos=boxinfos, eigmap=((EIND, Eigen(1)),))
        got = list(SIMPFIT.decide_e(cert))
        assert [named for named, _ in got] == [Lind(L), Rind(L), Rind(R)]
        assert got[0][1] == dataclasses.replace(cert, flag=1, pending=(Lind(L),))
        assert got[2][1] == dataclasses.replace(cert, flag=1, pending=(Rind(R),),
                                                usable=usable[:5] + usable[6:])

    def test_decide_falls_back_to_the_oldest_delayed_negative(self):
        # no existential is ready: one's only boxinfo names an unbound
        # universal, another's is used up, a third has none
        usable = ((Exists, L), (Exists, Rind(R)), (DelayPos, R), (Exists, Lind(R)),
                  (DelayPos, Lind(L)))
        boxinfos = (BoxInfo(L, Lind(L)), BoxInfo(Rind(R), EIND))
        cert = fresh(usable=usable, boxinfos=boxinfos, eigmap=((EIND, Eigen(1)),), spent=0b10)
        got = list(SIMPFIT.decide_e(cert))
        assert got == [(R, dataclasses.replace(
            cert, flag=1, pending=(R,), usable=usable[:2] + usable[3:]))]

    def test_decide_without_token_refuses(self):
        assert decides_at(fresh(), EIND) == []

    def test_store_grants_a_token_for_decidables(self):
        # to a relevant index, tagged with the stored formula's class;
        # the closure makes L relevant and R not
        closures = (Closure(L, NONE),)
        cert = fresh(pending=(L, R), closures=closures)
        for formula in (P_W0, DelayPos(AndNeg(P_W0, P_W0)), Exists(P_W0)):
            got = list(SIMPFIT.store_c(cert, formula))
            assert got == [(L, fresh(pending=(R,), usable=((type(formula), L),),
                                     closures=closures))]

    def test_store_grants_no_token_to_an_irrelevant_index(self):
        closures = (Closure(R, NONE),)
        cert = fresh(pending=(L, R), closures=closures)
        got = list(SIMPFIT.store_c(cert, P_W0))
        assert got == [(L, fresh(pending=(R,), closures=closures))]

    def test_store_negative_literal_grants_no_token(self):
        cert = fresh(flag=1, pending=(Lind(EIND),))
        got = list(SIMPFIT.store_c(cert, NP_W0))
        assert got == [(Lind(EIND), fresh(flag=0))]

    def test_store_rel_goes_to_none_keeping_pending(self):
        cert = fresh(flag=1, pending=(Lind(EIND),))
        rel = NAtom(REL, (W0, Eigen(1)))
        got = list(SIMPFIT.store_c(cert, rel))
        assert got == [(NONE, fresh(flag=0, pending=(Lind(EIND),)))]

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
        assert list(SIMPFIT.orneg_c(cert)) == [
            fresh(flag=0, pending=(Lind(EIND), Rind(EIND)))]

    def test_orneg_passes_through_mid_bipole(self):
        cert = fresh(flag=0, pending=(Lind(EIND),))
        assert list(SIMPFIT.orneg_c(cert)) == [cert]

    def test_andneg_splits_right_after_a_decide(self):
        cert = fresh(flag=1, pending=(EIND,))
        assert list(SIMPFIT.andneg_c(cert)) == [
            (fresh(flag=0, pending=(Lind(EIND),)),
             fresh(flag=0, pending=(Rind(EIND),)))]

    def test_all_records_the_eigenvariable(self):
        cert = fresh(flag=1, pending=(Lind(EIND),))
        (mk,) = SIMPFIT.all_c(cert)
        got = mk(Eigen(4))
        assert got == fresh(flag=0, pending=(Lind(Lind(EIND)),),
                            eigmap=((Lind(EIND), Eigen(4)),))
        # into a copy: the state it came from is unchanged
        assert cert.eigmap == {}

    def test_some_consumes_one_boxinfo_and_regrants_the_token(self):
        # of the two instantiations the universals allow, only the first
        # is offered; the second stays for a later decide
        bi = BoxInfo(Rind(EIND), Lind(EIND))
        later = BoxInfo(Rind(EIND), EIND)
        other = BoxInfo(Lind(EIND), Rind(EIND))
        eigmap = ((EIND, Eigen(3)), (Lind(EIND), Eigen(2)))
        cert = fresh(flag=1, pending=(Rind(EIND),), boxinfos=(other, bi, later),
                     eigmap=eigmap)
        got = list(SIMPFIT.some_e(cert))
        assert got == [(Eigen(2),
                        fresh(flag=0, pending=(Bind(Rind(EIND), Lind(EIND)),),
                              boxinfos=(other, bi, later), eigmap=eigmap,
                              usable=((Exists, Rind(EIND)),), spent=0b010))]

    def test_some_hands_no_token_back_after_the_last_boxinfo(self):
        # the other boxinfo of the existential is used already
        bi = BoxInfo(Rind(EIND), Lind(EIND))
        used = BoxInfo(Rind(EIND), EIND)
        eigmap = ((Lind(EIND), Eigen(2)),)
        cert = fresh(flag=1, pending=(Rind(EIND),), boxinfos=(used, bi), eigmap=eigmap,
                     spent=0b01)
        got = list(SIMPFIT.some_e(cert))
        assert got == [(Eigen(2),
                        fresh(flag=0, pending=(Bind(Rind(EIND), Lind(EIND)),),
                              boxinfos=(used, bi), eigmap=eigmap, spent=0b11))]

    def test_some_skips_a_used_boxinfo(self):
        bi = BoxInfo(Rind(EIND), Lind(EIND))
        cert = fresh(flag=1, pending=(Rind(EIND),), boxinfos=(bi,),
                     eigmap=((Lind(EIND), Eigen(2)),), spent=0b1)
        assert list(SIMPFIT.some_e(cert)) == []

    def test_some_without_matching_boxinfo_refuses(self):
        cert = fresh(flag=1, pending=(Rind(EIND),),
                     eigmap=((Lind(EIND), Eigen(2)),))
        assert list(SIMPFIT.some_e(cert)) == []


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
