"""Worked examples: hand-built certificates for two K theorems, plus
scripted tableau transcripts used for node-count comparisons.

The first theorem is the K distribution instance box(p => q) => (box p
=> box q) in negation normal form, exercised because its refutation
needs one box propagated into a world created by a different diamond.
The second needs the same diamond fired at two distinct successor
worlds, which is exactly what a decide tree spells out twice and an
essential certificate records as two boxinfo entries sharing their
existential index.
"""

from __future__ import annotations

from dataclasses import dataclass

from kcert.fittings import Bind, DecTree, EIND, FitCert, Lind, NONE, Rind, child_kids
from kcert.formulas import And, Box, Dia, ModalFormula, NegAtom, Or, PosAtom, fold
from kcert.simpfit import BoxInfo, Closure, SimpfitCert
from helpers import negate_nnf

_P = PosAtom("p")
_Q = PosAtom("q")
_NP = NegAtom("p")
_NQ = NegAtom("q")

EXAMPLE1_THEOREM = Or(Or(Dia(_NP), Box(_Q)), Dia(And(_P, _NQ)))

EXAMPLE2_THEOREM = Or(And(Box(_P), Box(_Q)), Dia(Or(_NP, _NQ)))
EXAMPLE2_REFUTED = negate_nnf(EXAMPLE2_THEOREM)

TAUT_THEOREM = Or(_P, _NP)

# shared index shorthands for example 1:
#   eind             whole theorem
#   (lind eind)      dia ~p | box q
#   (rind eind)      dia (p & ~q)
#   (lind (lind eind))   dia ~p
#   (rind (lind eind))   box q
_E1_LE = Lind(EIND)
_E1_RE = Rind(EIND)
_E1_DIA_NP = Lind(_E1_LE)
_E1_BOX_Q = Rind(_E1_LE)
_E1_BODY = Bind(_E1_RE, _E1_BOX_Q)  # (p & ~q) instantiated at the new world


def ftab1_dectree() -> DecTree:
    close_p = DecTree(Lind(_E1_BODY), Bind(_E1_DIA_NP, _E1_BOX_Q))
    close_q = DecTree(Lind(_E1_BOX_Q), Rind(_E1_BODY))
    return DecTree(EIND, NONE, (
        DecTree(_E1_LE, NONE, (
            DecTree(_E1_BOX_Q, NONE, (
                DecTree(_E1_DIA_NP, _E1_BOX_Q, (
                    DecTree(_E1_RE, _E1_BOX_Q, (
                        DecTree(_E1_BODY, NONE, (close_p, close_q)),
                    )),
                )),
            )),
        )),
    ))


def ftab1_cert() -> FitCert:
    return FitCert.load(ftab1_dectree())


def sftab1_cert() -> SimpfitCert:
    closures = (
        Closure(Lind(_E1_BODY), Bind(_E1_DIA_NP, _E1_BOX_Q)),
        Closure(Lind(_E1_BOX_Q), Rind(_E1_BODY)),
    )
    boxinfos = (
        BoxInfo(_E1_DIA_NP, _E1_BOX_Q),
        BoxInfo(_E1_RE, _E1_BOX_Q),
    )
    return SimpfitCert.load(closures, boxinfos)


# example 2 shorthands:
#   (lind eind)          box p & box q
#   (rind eind)          dia (~p | ~q)
#   (lind (lind eind))   box p
#   (rind (lind eind))   box q
_E2_LE = Lind(EIND)
_E2_RE = Rind(EIND)
_E2_BOX_P = Lind(_E2_LE)
_E2_BOX_Q = Rind(_E2_LE)
_E2_BODY_P = Bind(_E2_RE, _E2_BOX_P)  # (~p | ~q) at box p's world
_E2_BODY_Q = Bind(_E2_RE, _E2_BOX_Q)  # (~p | ~q) at box q's world


def ftab2_dectree() -> DecTree:
    branch_p = DecTree(_E2_BOX_P, NONE, (
        DecTree(_E2_RE, _E2_BOX_P, (
            DecTree(_E2_BODY_P, NONE, (
                DecTree(Lind(_E2_BOX_P), Lind(_E2_BODY_P)),
            )),
        )),
    ))
    branch_q = DecTree(_E2_BOX_Q, NONE, (
        DecTree(_E2_RE, _E2_BOX_Q, (
            DecTree(_E2_BODY_Q, NONE, (
                DecTree(Lind(_E2_BOX_Q), Rind(_E2_BODY_Q)),
            )),
        )),
    ))
    return DecTree(EIND, NONE, (
        DecTree(_E2_LE, NONE, (branch_p, branch_q)),
    ))


def ftab2_cert() -> FitCert:
    return FitCert.load(ftab2_dectree())


def sftab2_cert() -> SimpfitCert:
    closures = (
        Closure(Lind(_E2_BOX_P), Lind(_E2_BODY_P)),
        Closure(Lind(_E2_BOX_Q), Rind(_E2_BODY_Q)),
    )
    # the same existential index twice: the diamond fires at both worlds
    boxinfos = (
        BoxInfo(_E2_RE, _E2_BOX_P),
        BoxInfo(_E2_RE, _E2_BOX_Q),
    )
    return SimpfitCert.load(closures, boxinfos)


def taut_dectree() -> DecTree:
    return DecTree(EIND, NONE, (DecTree(Lind(EIND), Rind(EIND)),))


def taut_cert() -> FitCert:
    return FitCert.load(taut_dectree())


# ---------------------------------------------------------------------------
# scripted tableau transcripts
#
# These record, node for node, two refutations of EXAMPLE2_REFUTED as a
# human would write them on paper: the standard prefixed tableau, and
# the free-variable variant where the box rule instantiates a prefix
# variable x that later substitutions pin down.  Prefix components are
# ints for concrete worlds and the string "x" for the variable; the
# substitution records are annotation nodes without a formula and are
# excluded from node counts.

ScriptPrefix = tuple["int | str", ...]


@dataclass(frozen=True)
class ScriptedNode:
    prefix: ScriptPrefix | None
    body: ModalFormula | None
    note: str = ""
    children: tuple[ScriptedNode, ...] = ()


def scripted_node_count(node: ScriptedNode) -> int:
    return fold(node, None, {ScriptedNode: (
        child_kids, lambda n, _, v: (n.body is not None) + sum(v))}, "scripted tableau")


def scripted_annotation_count(node: ScriptedNode) -> int:
    return fold(node, None, {ScriptedNode: (
        child_kids, lambda n, _, v: (n.body is None) + sum(v))}, "scripted tableau")


def _chain(*nodes: ScriptedNode) -> ScriptedNode:
    out = nodes[-1]
    for node in reversed(nodes[:-1]):
        out = ScriptedNode(node.prefix, node.body, node.note, (out,))
    return out


_PQ = And(_P, _Q)

EXAMPLE2_STANDARD_TABLEAU = _chain(
    ScriptedNode((1,), Or(Dia(_NP), Dia(_NQ))),
    ScriptedNode((1,), Box(_PQ), "", (
        _chain(
            ScriptedNode((1,), Dia(_NP)),
            ScriptedNode((1, 1), _NP),
            ScriptedNode((1, 1), _PQ),
            ScriptedNode((1, 1), _P),
            ScriptedNode((1, 1), _Q),
        ),
        _chain(
            ScriptedNode((1,), Dia(_NQ)),
            ScriptedNode((1, 2), _NQ),
            ScriptedNode((1, 2), _PQ),
            ScriptedNode((1, 2), _P),
            ScriptedNode((1, 2), _Q),
        ),
    )),
)

EXAMPLE2_FV_TABLEAU = _chain(
    ScriptedNode((1,), Or(Dia(_NP), Dia(_NQ))),
    ScriptedNode((1,), Box(_PQ)),
    ScriptedNode((1, "x"), _PQ),
    ScriptedNode((1, "x"), _P),
    ScriptedNode((1, "x"), _Q, "", (
        _chain(
            ScriptedNode((1,), Dia(_NP)),
            ScriptedNode((1, 1), _NP),
            ScriptedNode(None, None, "x -> 1"),
        ),
        _chain(
            ScriptedNode((1,), Dia(_NQ)),
            ScriptedNode((1, 2), _NQ),
            ScriptedNode(None, None, "x -> 2"),
        ),
    )),
)
