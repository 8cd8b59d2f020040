"""Certificate checking for propositional modal logic K.

A candidate theorem is translated into polarized classical first-order
logic and handed to a small focused sequent kernel.  The kernel consults
a certificate through a fixed clerk/expert interface; two certificate
formats are provided, one carrying the full decision tree of a tableau
refutation and one carrying only its branch closures and box
instantiations.  A prefixed tableau prover, a bounded semantic oracle,
and a problem-file front end round out the package.

The names below are the public API; everything else stays importable
from its submodule.
"""

from .formulas import (
    And,
    Box,
    Dia,
    ModalFormula,
    NegAtom,
    Or,
    PosAtom,
    W0,
    delay_if_negative,
    polarized_translation,
    render_fo,
    render_polarized,
    standard_translation,
)
from .kernel import (
    CheckResult,
    Fpc,
    StepBudgetExceeded,
    check,
    check_polarized,
)
from .fittings import FITTINGS, FitCert
from .simpfit import SIMPFIT, SimpfitCert
from .tableau import (
    ClosedTableau,
    EmitError,
    OpenBranch,
    bounded_validity_oracle,
    emit_fitcert,
    emit_simpfitcert,
    format_model,
    prove,
)
from .problems import (
    ParseError,
    ProblemFile,
    format_formula,
    format_problem,
    parse_formula_text,
    parse_problem,
)

__all__ = [
    "And", "Box", "Dia", "ModalFormula", "NegAtom", "Or", "PosAtom", "W0",
    "delay_if_negative", "polarized_translation", "render_fo",
    "render_polarized", "standard_translation",
    "CheckResult", "Fpc", "StepBudgetExceeded", "check", "check_polarized",
    "FITTINGS", "FitCert", "SIMPFIT", "SimpfitCert",
    "ClosedTableau", "EmitError", "OpenBranch", "bounded_validity_oracle",
    "emit_fitcert", "emit_simpfitcert", "format_model", "prove",
    "ParseError", "ProblemFile", "format_formula", "format_problem",
    "parse_formula_text", "parse_problem",
]
