"""The four workloads: their inputs and the answer key for each input.

Each workload function runs during set-up.  It generates formula text,
proves and prints the certificates the check workloads read, writes them
as problem files, and adds one Input per `kcert` invocation.  The expected
verdict of an input never comes from the code under test: families are
valid or invalid by construction, emitted certificates of valid formulas
must be accepted, mutants must be rejected, and corpus formulas are
decided by the bounded semantic oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import families

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# how many formulas of the agreement corpus the prove workload samples
CORPUS_SAMPLE = 1000


@dataclass(frozen=True)
class Input:
    """One `kcert` invocation and its answer key.

    `expect` is what stdout must start with; `code` the exit code.
    `timed` is false for inputs whose time must not count, namely the
    ones on the failing side of a crash size in `limits`."""

    id: str
    family: str
    n: int
    fmt: str
    argv: tuple[str, ...]
    code: int
    expect: str
    timed: bool = True

    @property
    def command(self) -> str:
        return self.argv[0]


ACCEPTED = "accepted\n"
REJECTED = "rejected\n"
REFUTED = "countermodel:\n"


class InputSet:
    """Collects the inputs of one workload; files go to workdir."""

    def __init__(self, kc: SimpleNamespace, workdir: Path, rng: random.Random):
        self.kc = kc
        self.workdir = workdir
        self.rng = rng
        self.inputs: list[Input] = []

    # problem files -------------------------------------------------------

    def emitted_problem(self, family: str, n: int, fmt: str) -> str:
        k = self.kc.k
        theorem = k.parse_formula_text(families.FAMILIES[family](n))
        tableau = k.prove(theorem)
        if not isinstance(tableau, k.ClosedTableau):
            raise RuntimeError(f"{family}({n}) has no proof; set-up cannot emit it")
        emit = k.emit_fitcert if fmt == "fittings" else k.emit_simpfitcert
        cert = emit(tableau, theorem)
        return k.format_problem(k.ProblemFile(f"{family}-{n}", theorem, cert))

    def mutant_problem(self, text: str, name: str, label: str, pick: int) -> str:
        """The pick-th certificate mutant with this label, from the same
        generator the acceptance tests use for criterion 5."""
        k = self.kc.k
        pf = k.parse_problem(text)
        mutants = [m for lab, m in self.kc.helpers.certificate_mutants(pf.certificate)
                   if lab == label]
        return k.format_problem(k.ProblemFile(name, pf.theorem, mutants[pick]))

    def check(self, family: str, n: int, fmt: str, variant: str, text: str,
              accepted: bool, timed: bool = True) -> None:
        iid = f"check:{family}({n}):{fmt}:{variant}"
        path = self.workdir / f"{len(self.inputs):04d}.prob"
        path.write_text(text, encoding="utf-8")
        self.inputs.append(Input(iid, family, n, fmt, ("check", str(path)),
                                 0 if accepted else 1,
                                 ACCEPTED if accepted else REJECTED, timed))

    def fixture(self, name: str, fmt: str, accepted: bool) -> None:
        text = (FIXTURES / f"{name}.prob").read_text(encoding="utf-8")
        self.check("fixture", 0, fmt, name, text, accepted)

    # prove and translate -------------------------------------------------

    def prove(self, family: str, n: int, text: str, valid: bool, fmt: str = "fittings",
              timed: bool = True) -> None:
        argv = ("prove", text) if fmt == "fittings" else ("prove", text, "--emit", fmt)
        # a proof prints the theorem back in canonical form, which the
        # family text and the corpus text already are
        proved = f'(problem "emitted"\n  {text}\n  ({fmt}\n'
        self.inputs.append(Input(f"prove:{family}({n}):{fmt}", family, n, fmt, argv,
                                 0 if valid else 1, proved if valid else REFUTED,
                                 timed))

    def prove_family(self, family: str, n: int, fmt: str = "fittings",
                     timed: bool = True) -> None:
        self.prove(family, n, families.FAMILIES[family](n), families.VALID[family],
                   fmt, timed)

    def translate(self, d: int, timed: bool) -> None:
        self.inputs.append(Input(f"translate:box_atom({d})", "box_atom", d, "-",
                                 ("translate", families.box_atom(d)), 0,
                                 families.translate_output(d), timed))


def check_fittings(b: InputSet, quick: bool) -> None:
    sizes = {"taut": (2,)} if quick else {
        "taut": (32, 64, 96), "kchain": (16, 24, 32), "wide": (8, 16, 24)}
    for family, ns in sizes.items():
        for n in ns:
            text = b.emitted_problem(family, n, "fittings")
            b.check(family, n, "fittings", "emitted", text, True)
            if not quick:
                bad = families.corrupt_late_leaf(text, b.rng.randrange(1 << 30))
                b.check(family, n, "fittings", "leaf-none", bad, False)
    if not quick:
        for name in ("ftab1", "ftab2", "taut"):
            b.fixture(name, "fittings", True)
        b.fixture("ftab1-mutated", "fittings", False)


def check_simpfit(b: InputSet, quick: bool) -> None:
    if quick:
        b.fixture("sftab1", "simpfit", True)
        return
    for family in ("kchain", "wide"):
        for n in (4, 8, 12):
            b.check(family, n, "simpfit", "emitted",
                    b.emitted_problem(family, n, "simpfit"), True)
    for name in ("sftab1", "sftab2"):
        b.fixture(name, "simpfit", True)
        text = (FIXTURES / f"{name}.prob").read_text(encoding="utf-8")
        pf = b.kc.k.parse_problem(text)
        for i, (label, mutant) in enumerate(
                b.kc.helpers.certificate_mutants(pf.certificate)):
            out = b.kc.k.format_problem(b.kc.k.ProblemFile(name, pf.theorem, mutant))
            b.check("fixture", 0, "simpfit", f"{name}-{label}-{i}", out, False)
    for family, n in (("kchain", 1), ("wide", 2)):
        text = b.emitted_problem(family, n, "simpfit")
        n_closures = len(b.kc.k.parse_problem(text).certificate.closures)
        for i in range(n_closures):
            b.check(family, n, "simpfit", f"drop-closure-{i}",
                    b.mutant_problem(text, f"{family}-{n}", "drop-closure", i), False)
    # of the six boxinfos of wide(3) only the last is needed; dropping it
    # makes the search exhaust every reconstruction before rejecting
    text = b.emitted_problem("wide", 3, "simpfit")
    b.check("wide", 3, "simpfit", "drop-boxinfo-last",
            b.mutant_problem(text, "wide-3", "drop-boxinfo", -1), False)


def prove(b: InputSet, quick: bool) -> None:
    if quick:
        b.prove_family("taut", 2)
        return
    b.prove_family("taut", 128, "fittings")
    b.prove_family("taut", 128, "simpfit")
    for n in (32, 64):
        b.prove_family("kchain", n)
    b.prove_family("wide", 16)
    for n in (64, 128):
        b.prove_family("kchain_bad", n)
    for n in (16, 32):
        b.prove_family("wide_bad", n)
    k = b.kc.k
    corpus = b.kc.helpers.agreement_corpus()
    for i, formula in enumerate(b.rng.sample(corpus, CORPUS_SAMPLE)):
        b.prove("corpus", i, k.format_formula(formula),
                k.bounded_validity_oracle(formula))


def limits(b: InputSet, quick: bool) -> None:
    """Inputs on both sides of each size at which the seed code crashed
    with RecursionError at the default recursion limit.  Only the side
    below the crash is timed."""
    if quick:
        b.translate(2, True)
        return
    for family, fmt, ok, crash in (("taut", "fittings", 56, 64),
                                   ("kchain", "fittings", 16, 20),
                                   ("kchain", "simpfit", 12, 14),
                                   ("wide", "simpfit", 8, 10)):
        for n in (ok, crash):
            b.check(family, n, fmt, "emitted", b.emitted_problem(family, n, fmt),
                    True, timed=n == ok)
    for family, ok, crash in (("box_taut", 32, 250), ("box_atom", 150, 400)):
        for n in (ok, crash):
            b.prove_family(family, n, timed=n == ok)
    for d in (250, 400):
        b.translate(d, timed=d == 250)


WORKLOADS = {
    "check-fittings": check_fittings,
    "check-simpfit": check_simpfit,
    "prove": prove,
    "limits": limits,
}

# workloads measured on the main thread at the interpreter's default
# recursion limit; the others run in a worker thread with raised limits
DEFAULT_LIMITS = {"limits"}
