"""Regenerate the .prob fixtures from the canonical printer.

Run from the repository root:  python3 fixtures/make_fixtures.py
The certificate bodies are produced by the package's own printer so the
files always stay in canonical form; only the comment headers live here.
"""

import dataclasses
import pathlib

from kcert.examples import (
    EXAMPLE1_THEOREM,
    EXAMPLE2_THEOREM,
    TAUT_THEOREM,
    ftab1_cert,
    ftab1_dectree,
    ftab2_cert,
    sftab1_cert,
    sftab2_cert,
    taut_cert,
)
from kcert.fittings import EIND, FitCert
from kcert.problems import ProblemFile, format_problem

HERE = pathlib.Path(__file__).resolve().parent

FTAB1_EVIDENCE = """\
;; Fully detailed tableau certificate for the ModLeanTAP problem t1.
;; Transliterated from the lambda-Prolog test module ftab1.mod, whose
;; original text is kept below for traceability:
;;
;;   module ftab1.
;;   accumulate fittings-tableaux.
;;   accumulate lkf-kernel.
;;   modalProblem "Detailed proof of ModLeanTAP problem t1"
;;   (((dia (-- p1)) !! (box (++ q1))) !! (dia ((++ p1) && (-- q1))))
;;   (fitcert [] (
;;    (dectree eind none [
;;     (dectree (lind eind) none [
;;      (dectree (rind (lind eind)) none [
;;       (dectree (lind (lind eind)) (rind (lind eind)) [
;;        (dectree (rind eind) (rind (lind eind)) [
;;         (dectree (bind ((rind eind)) ((rind (lind eind)))) none [
;;          (dectree (lind (bind ((rind eind)) ((rind (lind eind)))))
;;            (bind ((lind (lind eind))) ((rind (lind eind)))) []),
;;          (dectree (lind (rind (lind eind)))
;;            (rind (bind ((rind eind)) ((rind (lind eind)))))
;;            [])])])])])])])) [] ).
;;
;; The atoms p1/q1 are spelled p/q here and the initial pending list is
;; normalized to hold the entry index.
"""

SFTAB1_EVIDENCE = """\
;; Essential (closures + box instantiations only) certificate for the
;; ModLeanTAP problem t1.  Transliterated from the lambda-Prolog test
;; module sftab1.mod, whose original text is kept below for traceability:
;;
;;   module sftab1.
;;   accumulate simpfit-tableaux.
;;   accumulate lkf-kernel.
;;   modalProblem "Essential proof of ModLeanTAP problem t1"
;;   (((dia (-- p1)) !! (box (++ q1))) !! (dia ((++ p1) && (-- q1))))
;;   (simpfitcert 1 [eind]
;;    [ closure (lind (bind (rind eind) (rind (lind eind))))
;;        (bind (lind (lind eind)) (rind (lind eind))),
;;      closure (lind (rind (lind eind)))
;;        (rind (bind (rind eind) (rind (lind eind)))) ]
;;    [ boxinfo (lind (lind eind)) (rind (lind eind)),
;;      boxinfo (rind eind) (rind (lind eind)) ] [] [] ).
;;
;; The atoms p1/q1 are spelled p/q here.
"""

FTAB2_COMMENT = """\
;; Detailed certificate for (box p & box q) | dia(~p | ~q), derived by
;; replaying its two-branch tableau refutation.  The refutation splits
;; on the negated theorem's diamond disjunction, so the decision tree
;; forks immediately under the entry index.
"""

SFTAB2_COMMENT = """\
;; Essential certificate for (box p & box q) | dia(~p | ~q).  The same
;; existential (the theorem's diamond, index (rind eind)) must fire at
;; two different successor worlds, one per branch, so it appears in two
;; boxinfo entries with different universal partners.
"""

TAUT_COMMENT = """\
;; Smallest useful problem: a propositional tautology with a two-node
;; decision tree (decide on the stored disjunction, close immediately).
"""

MUTATED_COMMENT = """\
;; ftab1 with a single index mutated: the aux of the final closure leaf
;; is replaced by eind, which names no complementary stored literal.
;; The kernel must reject this file (exit code 1).
"""


def mutate_last_leaf_aux(cert: FitCert) -> FitCert:
    """Replace the aux of the rightmost leaf with the entry index."""
    def walk(t):
        if not t.children:
            return dataclasses.replace(t, aux=EIND)
        kids = t.children[:-1] + (walk(t.children[-1]),)
        return dataclasses.replace(t, children=kids)
    return cert._replace(tree=walk(cert.tree))


FIXTURES = [
    ("ftab1.prob", FTAB1_EVIDENCE, "ftab1", EXAMPLE1_THEOREM, ftab1_cert()),
    ("sftab1.prob", SFTAB1_EVIDENCE, "sftab1", EXAMPLE1_THEOREM, sftab1_cert()),
    ("ftab2.prob", FTAB2_COMMENT, "ftab2", EXAMPLE2_THEOREM, ftab2_cert()),
    ("sftab2.prob", SFTAB2_COMMENT, "sftab2", EXAMPLE2_THEOREM, sftab2_cert()),
    ("taut.prob", TAUT_COMMENT, "taut", TAUT_THEOREM, taut_cert()),
    ("ftab1-mutated.prob", MUTATED_COMMENT, "ftab1-mutated",
     EXAMPLE1_THEOREM, mutate_last_leaf_aux(FitCert.load(ftab1_dectree()))),
]


def main() -> None:
    for filename, comment, name, theorem, cert in FIXTURES:
        body = format_problem(ProblemFile(name, theorem, cert))
        (HERE / filename).write_text(comment + body, encoding="utf-8")
        print("wrote", filename)


if __name__ == "__main__":
    main()
