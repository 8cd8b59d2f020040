"""The package's acceptance checklist, one test per criterion.

Every test prints exactly one line, "criterion N: PASS (...)" or
"criterion N: FAIL (...)", before its assertions fire.  Run with

    pytest -s tests/test_acceptance.py

to see the lines as they happen.  The slow shared work (proving and
checking every small formula) runs once in a module fixture and is
reused by criteria 6, 8 and 9.
"""

import random
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from kcert.fittings import FITTINGS, FitCert
from kcert.formulas import (
    ModalFormula,
    W0,
    polarized_translation,
)
from kcert.firstorder import standard_translation
from kcert.kernel import CheckResult, StepBudgetExceeded, check
from kcert.problems import parse_problem
from kcert.simpfit import SIMPFIT, SimpfitCert
from kcert.tableau import (
    ClosedTableau,
    ROOT_WORLD,
    bounded_validity_oracle,
    emit_dectree,
    emit_fitcert,
    emit_simpfitcert,
    eval_modal,
    prove,
)
from examples import (
    EXAMPLE2_FV_TABLEAU,
    EXAMPLE2_STANDARD_TABLEAU,
    scripted_node_count,
)
from helpers import (
    agreement_corpus,
    bipole_violations,
    certificate_mutants,
    eval_fo,
    node_count,
    random_formula,
    random_model,
    strip_polarities,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

ACCEPTED_FIXTURES = ("ftab1.prob", "sftab1.prob", "ftab2.prob",
                     "sftab2.prob", "taut.prob")


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")


def run_fixture(name: str) -> CheckResult:
    pf = parse_problem((FIXTURES / name).read_text())
    fpc = FITTINGS if isinstance(pf.certificate, FitCert) else SIMPFIT
    return check(pf.theorem, pf.certificate, fpc)


@dataclass
class SweepOutcome:
    corpus_size: int
    valid: list[tuple[ModalFormula, "DecTree", CheckResult, CheckResult]]
    disagreements: list[str]
    elapsed: float


@pytest.fixture(scope="module")
def sweep():
    """Prove every formula in the exhaustive corpus, check both emitted
    certificate formats, and compare against the semantic oracle."""
    corpus = agreement_corpus()
    valid = []
    disagreements = []
    t0 = time.perf_counter()
    for a in corpus:
        oracle_says = bounded_validity_oracle(a)
        outcome = prove(a)
        prover_says = isinstance(outcome, ClosedTableau)
        if oracle_says != prover_says:
            disagreements.append(f"oracle vs prover on {a}")
            continue
        if not prover_says:
            continue
        tree = emit_dectree(outcome, a)
        fit = check(a, emit_fitcert(outcome, a), FITTINGS)
        simp = check(a, emit_simpfitcert(outcome, a), SIMPFIT)
        if not fit.accepted:
            disagreements.append(f"kernel rejects fittings cert for {a}")
        if not simp.accepted:
            disagreements.append(f"kernel rejects simpfit cert for {a}")
        valid.append((a, tree, fit, simp))
    return SweepOutcome(len(corpus), valid, disagreements,
                        time.perf_counter() - t0)


class TestAcceptance:
    def test_criterion_1_detailed_example_certificate(self):
        t0 = time.perf_counter()
        result = run_fixture("ftab1.prob")
        elapsed = time.perf_counter() - t0
        decides = sum(1 for ev in result.trace if ev.kind == "decide")
        ok = result.accepted and decides == 8 and elapsed < 1.0
        report(1, ok, f"ftab1.prob accepted, {decides} decide events, "
                      f"{elapsed:.3f}s")
        assert result.accepted
        assert decides == 8
        assert elapsed < 1.0

    def test_criterion_2_essential_example_certificate(self):
        t0 = time.perf_counter()
        result = run_fixture("sftab1.prob")
        elapsed = time.perf_counter() - t0
        ok = result.accepted and elapsed < 1.0
        report(2, ok, f"sftab1.prob accepted, {elapsed:.3f}s")
        assert result.accepted
        assert elapsed < 1.0

    def test_criterion_3_two_worlds_example_both_formats(self):
        fit = run_fixture("ftab2.prob")
        simp = run_fixture("sftab2.prob")
        cert = parse_problem((FIXTURES / "sftab2.prob").read_text()).certificate
        reused = (len(cert.boxinfos) == 2
                  and cert.boxinfos[0].ex == cert.boxinfos[1].ex)
        ok = fit.accepted and simp.accepted and reused
        report(3, ok, "ftab2.prob and sftab2.prob accepted, one diamond "
                      "index instantiated under both boxinfo entries")
        assert fit.accepted
        assert simp.accepted
        assert reused

    def test_criterion_4_scripted_tableau_node_counts(self):
        standard = scripted_node_count(EXAMPLE2_STANDARD_TABLEAU)
        free_var = scripted_node_count(EXAMPLE2_FV_TABLEAU)
        ok = standard == 12 and free_var == 9
        report(4, ok, f"standard tableau {standard} nodes, "
                      f"free-variable tableau {free_var} nodes")
        assert standard == 12
        assert free_var == 9

    def test_criterion_5_single_mutations_all_reject(self):
        t0 = time.perf_counter()
        total = 0
        accepted_mutants = []
        for name in ACCEPTED_FIXTURES:
            pf = parse_problem((FIXTURES / name).read_text())
            fpc = FITTINGS if isinstance(pf.certificate, FitCert) else SIMPFIT
            for label, mutant in certificate_mutants(pf.certificate):
                total += 1
                if check(pf.theorem, mutant, fpc).accepted:
                    accepted_mutants.append(f"{name}: {label}")
        elapsed = time.perf_counter() - t0
        ok = total == 113 and not accepted_mutants and elapsed < 10.0
        report(5, ok, f"{total} mutants, {len(accepted_mutants)} wrongly "
                      f"accepted, {elapsed:.2f}s")
        # the mutant count is frozen: the generators are deterministic
        assert total == 113
        assert accepted_mutants == []
        assert elapsed < 10.0

    def test_criterion_6_three_way_agreement(self, sweep):
        ok = (not sweep.disagreements and sweep.elapsed < 300.0
              and sweep.corpus_size == 19676 and len(sweep.valid) == 2176)
        report(6, ok, f"{sweep.corpus_size} formulas, {len(sweep.valid)} "
                      f"valid, {len(sweep.disagreements)} disagreements, "
                      f"{sweep.elapsed:.1f}s")
        assert sweep.corpus_size == 19676
        assert len(sweep.valid) == 2176
        assert sweep.disagreements == []
        assert sweep.elapsed < 300.0

    def test_criterion_7_semantic_bridge(self):
        rng = random.Random(20260816)
        failures = 0
        for _ in range(1000):
            a = random_formula(rng, max_size=6)
            model = random_model(rng, max_worlds=4)
            world = rng.choice(sorted(model.worlds))
            direct = eval_modal(model, world, a)
            relational = eval_fo(model, standard_translation(a, W0),
                                 {W0: world})
            depolarized = eval_fo(
                model, strip_polarities(polarized_translation(a, W0)),
                {W0: world})
            if not direct == relational == depolarized:
                failures += 1
        ok = failures == 0
        report(7, ok, f"1000 formula/model/world triples, "
                      f"{failures} failures")
        assert failures == 0

    def test_criterion_8_bipole_discipline(self, sweep):
        bad_counts = 0
        violations = 0
        for a, tree, fit, _ in sweep.valid:
            decides = sum(1 for ev in fit.trace if ev.kind == "decide")
            if decides != node_count(tree):
                bad_counts += 1
            violations += len(bipole_violations(fit.trace))
        ok = bad_counts == 0 and violations == 0
        report(8, ok, f"{len(sweep.valid)} accept traces, {bad_counts} "
                      f"decide-count mismatches, {violations} phase "
                      f"violations")
        assert bad_counts == 0
        assert violations == 0

    def test_criterion_9_determinism_and_termination(self, sweep):
        backtrackers = sum(1 for _, _, fit, _ in sweep.valid
                           if fit.choice_points != 0)
        unfinished = 0
        checked = 0
        for name in ACCEPTED_FIXTURES:
            pf = parse_problem((FIXTURES / name).read_text())
            if not isinstance(pf.certificate, SimpfitCert):
                continue
            for _, mutant in certificate_mutants(pf.certificate):
                checked += 1
                try:
                    check(pf.theorem, mutant, SIMPFIT, max_steps=100_000)
                except StepBudgetExceeded:
                    unfinished += 1
        ok = backtrackers == 0 and unfinished == 0
        report(9, ok, f"{len(sweep.valid)} backtrack-free fittings runs, "
                      f"{checked} simpfit mutants all terminated")
        assert backtrackers == 0
        assert unfinished == 0
