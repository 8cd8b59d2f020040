"""Plain first-order syntax, the standard translation, and the printers.

Nothing here is trusted: no check runs it.  The plain first-order
syntax serves semantic cross-checks, so meaning can be evaluated on a
path that never involves polarities, and one printer writes all three
syntaxes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formulas import (All, And, AndNeg, AndPos, Box, BVar, DelayNeg, DelayPos, Dia, Exists,
                       ModalFormula, NAtom, NegAtom, Or, OrNeg, PAtom, PolarizedFormula, PosAtom,
                       REL, Term, _bound_world, _shift, body_kid, both_kids, fold, no_kids)


# ---------------------------------------------------------------------------
# plain first-order formulas


@dataclass(frozen=True)
class FoAtom:
    pred: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class FoNeg:
    body: FoFormula


@dataclass(frozen=True)
class FoAnd:
    left: FoFormula
    right: FoFormula


@dataclass(frozen=True)
class FoOr:
    left: FoFormula
    right: FoFormula


@dataclass(frozen=True)
class FoImp:
    left: FoFormula
    right: FoFormula


@dataclass(frozen=True)
class FoAll:
    body: FoFormula


@dataclass(frozen=True)
class FoEx:
    body: FoFormula


FoFormula = FoAtom | FoNeg | FoAnd | FoOr | FoImp | FoAll | FoEx


_STANDARD = {
    PosAtom: (no_kids, lambda a, w, _: FoAtom(a.name, (w,))),
    NegAtom: (no_kids, lambda a, w, _: FoNeg(FoAtom(a.name, (w,)))),
    And: (both_kids, lambda a, w, v: FoAnd(*v)),
    Or: (both_kids, lambda a, w, v: FoOr(*v)),
    Box: (_bound_world, lambda a, w, v: FoAll(FoImp(FoAtom(REL, (_shift(w), BVar(0))), *v))),
    Dia: (_bound_world, lambda a, w, v: FoEx(FoAnd(FoAtom(REL, (_shift(w), BVar(0))), *v))),
}

_STRIP = {
    PAtom: (no_kids, lambda f, _, __: FoAtom(f.pred, f.args)),
    NAtom: (no_kids, lambda f, _, __: FoNeg(FoAtom(f.pred, f.args))),
    AndNeg: (both_kids, lambda f, _, v: FoAnd(*v)),
    AndPos: (both_kids, lambda f, _, v: FoAnd(*v)),
    OrNeg: (both_kids, lambda f, _, v: FoOr(*v)),
    All: (body_kid, lambda f, _, v: FoAll(*v)),
    Exists: (body_kid, lambda f, _, v: FoEx(*v)),
    DelayPos: (body_kid, lambda f, _, v: v[0]),
    DelayNeg: (body_kid, lambda f, _, v: v[0]),
}


def standard_translation(a: ModalFormula, world: Term) -> FoFormula:
    """The textbook relational translation into unpolarized first-order logic."""
    return fold(a, world, _STANDARD, "modal")


def strip_polarities(f: PolarizedFormula) -> FoFormula:
    """Forget polarities and delays, keeping the classical content."""
    return fold(f, None, _STRIP, "polarized")


# ---------------------------------------------------------------------------
# human-readable renderings


# each connective's text before, between and after its subformulas; an
# atom's "{}" is its name, with its arguments in the first-order
# syntaxes, and a binder's "{}" the name of the variable it binds
_SPELLING: dict[type, tuple[str, ...]] = {
    PosAtom: ("(+ {})",), NegAtom: ("(- {})",),
    And: ("(and ", " ", ")"), Or: ("(or ", " ", ")"),
    Box: ("(box ", ")"), Dia: ("(dia ", ")"),
    PAtom: ("{}",), NAtom: ("~{}",), FoAtom: ("{}",), FoNeg: ("~", ""),
    AndNeg: ("(", " &- ", ")"), OrNeg: ("(", " |- ", ")"),
    AndPos: ("(", " &+ ", ")"),
    FoAnd: ("(", " & ", ")"), FoOr: ("(", " | ", ")"), FoImp: ("(", " => ", ")"),
    All: ("(all {}. ", ")"), Exists: ("(ex {}. ", ")"),
    FoAll: ("(all {}. ", ")"), FoEx: ("(ex {}. ", ")"),
    DelayPos: ("d+(", ")"), DelayNeg: ("d-(", ")"),
}


def _render(f: ModalFormula | PolarizedFormula | FoFormula, syntax: tuple[type, ...],
            what: str) -> str:
    """Print f, whose nodes must all be of the syntax given, naming
    bound variables y1, y2, ... from the outermost binder in.  One loop
    over an explicit stack of nodes, each with its binder depth, and of
    the text still to print after them."""
    out: list[str] = []
    stack: list = [(f, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, depth = item
        cls = type(node)
        if cls not in syntax:
            raise TypeError(f"not a {what} formula: {node!r}")
        spelling = _SPELLING[cls]
        if len(spelling) == 3:
            out.append(spelling[0])
            stack += (spelling[2], (node.right, depth), spelling[1], (node.left, depth))
        elif len(spelling) == 2:
            if cls in (All, Exists, FoAll, FoEx):
                depth += 1
                out.append(spelling[0].format(f"y{depth}"))
            else:
                out.append(spelling[0])
            stack += (spelling[1], (node.body, depth))
        elif cls is PosAtom or cls is NegAtom:
            out.append(spelling[0].format(node.name))
        else:
            args = ",".join(f"y{depth - t.index}" if isinstance(t, BVar) and t.index < depth
                            else str(t) for t in node.args)
            out.append(spelling[0].format(f"{node.pred}({args})"))
    return "".join(out)


def format_formula(a: ModalFormula) -> str:
    """The problem-file text of a modal formula."""
    return _render(a, ModalFormula.__args__, "modal")


def render_polarized(f: PolarizedFormula) -> str:
    return _render(f, PolarizedFormula.__args__, "polarized")


def render_fo(f: FoFormula) -> str:
    return _render(f, FoFormula.__args__, "first-order")
