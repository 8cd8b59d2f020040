"""Formula syntax and translations for the modal-K certificate checker.

Three syntax layers live here:

* modal formulas in negation normal form (negation occurs only on atoms),
* the polarized first-order correspondence language that the checking
  kernel works on, with positive/negative connective variants and two
  delay wrappers that control how far an inference phase may run,
* a plain first-order syntax used for semantic cross-checks, so meaning
  can be evaluated on a path that never involves polarities.

World terms are shared by the last two layers.  Binders use de Bruijn
indices (BVar), which keeps instantiation capture-free and makes formula
comparison plain structural equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


# ---------------------------------------------------------------------------
# modal formulas, negation normal form


@dataclass(frozen=True)
class PosAtom:
    name: str


@dataclass(frozen=True)
class NegAtom:
    name: str


@dataclass(frozen=True)
class And:
    left: ModalFormula
    right: ModalFormula


@dataclass(frozen=True)
class Or:
    left: ModalFormula
    right: ModalFormula


@dataclass(frozen=True)
class Box:
    body: ModalFormula


@dataclass(frozen=True)
class Dia:
    body: ModalFormula


ModalFormula = PosAtom | NegAtom | And | Or | Box | Dia


# ---------------------------------------------------------------------------
# one fold for every walker


def fold(f, ctx, rules: dict[type, tuple[Callable, Callable]], what: str):
    """The value of f, built bottom-up.  rules maps each node class to a
    pair (kids, build): kids(node, ctx) lists the (subformula, context)
    pairs to visit, and build(node, ctx, values) makes the node's value
    from theirs, in the same order.  The nodes are listed in preorder,
    last child first, then built in reverse, so each node's children are
    built before it; both loops run on explicit stacks, so no formula is
    too deep to fold."""
    visits: list = []
    todo: list = [(f, ctx)]
    while todo:
        node, ctx = todo.pop()
        try:
            kids, build = rules[type(node)]
        except KeyError:
            raise TypeError(f"not a {what} formula: {node!r}") from None
        pairs = kids(node, ctx)
        visits.append((node, ctx, build, len(pairs)))
        todo += pairs
    values: list = []
    for node, ctx, build, n in reversed(visits):
        if n:
            done = values[-n:]
            del values[-n:]
        else:
            done = ()
        values.append(build(node, ctx, done))
    return values[0]


def no_kids(f, ctx) -> tuple:
    return ()


def both_kids(f, ctx) -> tuple:
    return (f.left, ctx), (f.right, ctx)


def body_kid(f, ctx) -> tuple:
    return ((f.body, ctx),)


def child_kids(node, ctx) -> list:
    return [(child, ctx) for child in node.children]


_NEGATE = {
    PosAtom: (no_kids, lambda a, _, __: NegAtom(a.name)),
    NegAtom: (no_kids, lambda a, _, __: PosAtom(a.name)),
    And: (both_kids, lambda a, _, v: Or(*v)),
    Or: (both_kids, lambda a, _, v: And(*v)),
    Box: (body_kid, lambda a, _, v: Dia(*v)),
    Dia: (body_kid, lambda a, _, v: Box(*v)),
}

_COUNT = {
    PosAtom: (no_kids, lambda *_: 0),
    NegAtom: (no_kids, lambda *_: 0),
    And: (both_kids, lambda a, _, v: 1 + sum(v)),
    Or: (both_kids, lambda a, _, v: 1 + sum(v)),
    Box: (body_kid, lambda a, _, v: 1 + sum(v)),
    Dia: (body_kid, lambda a, _, v: 1 + sum(v)),
}


def negate_nnf(a: ModalFormula) -> ModalFormula:
    """De Morgan negation, staying inside negation normal form."""
    return fold(a, None, _NEGATE, "modal")


def connective_count(a: ModalFormula) -> int:
    return fold(a, None, _COUNT, "modal")


# ---------------------------------------------------------------------------
# terms

@dataclass(frozen=True)
class WorldConst:
    tag: str = "w0"

    def __str__(self) -> str:
        return self.tag


@dataclass(frozen=True)
class Eigen:
    id: int

    def __str__(self) -> str:
        return f"e{self.id}"


@dataclass(frozen=True)
class BVar:
    # de Bruijn index, 0 bound by the nearest enclosing quantifier
    index: int

    def __str__(self) -> str:
        return f"_{self.index}"


Term = WorldConst | Eigen | BVar

W0 = WorldConst()

# reserved name of the accessibility relation; every other predicate is a
# unary propositional symbol
REL = "R"


def _shift(t: Term) -> Term:
    if isinstance(t, BVar):
        return BVar(t.index + 1)
    return t


# ---------------------------------------------------------------------------
# polarized first-order formulas


@dataclass(frozen=True)
class PAtom:
    pred: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class NAtom:
    pred: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class AndNeg:
    left: PolarizedFormula
    right: PolarizedFormula


@dataclass(frozen=True)
class OrNeg:
    left: PolarizedFormula
    right: PolarizedFormula


@dataclass(frozen=True)
class AndPos:
    left: PolarizedFormula
    right: PolarizedFormula


@dataclass(frozen=True)
class All:
    body: PolarizedFormula


@dataclass(frozen=True)
class Exists:
    body: PolarizedFormula


@dataclass(frozen=True)
class DelayPos:
    body: PolarizedFormula


@dataclass(frozen=True)
class DelayNeg:
    body: PolarizedFormula


PolarizedFormula = (
    PAtom | NAtom | AndNeg | OrNeg | AndPos | All | Exists | DelayPos | DelayNeg
)

_POSITIVE_CLASSES = (PAtom, AndPos, Exists, DelayPos)


def is_positive(f: PolarizedFormula) -> bool:
    return isinstance(f, _POSITIVE_CLASSES)


def is_rel_literal(f: PolarizedFormula) -> bool:
    """Atom over the binary accessibility relation, either polarity."""
    return isinstance(f, (PAtom, NAtom)) and f.pred == REL and len(f.args) == 2


def delay_if_negative(f: PolarizedFormula) -> PolarizedFormula:
    """Wrap a decomposable negative formula in a positive delay.

    Literals and positive formulas pass through unchanged, so the result
    is always a literal or positive.  This is what makes the translation
    of a classical connective cost exactly one focusing phase.
    """
    if isinstance(f, NAtom) or is_positive(f):
        return f
    return DelayPos(f)


# ---------------------------------------------------------------------------
# the two translations of modal formulas


def _bound_world(a: Box | Dia, world: Term) -> tuple:
    # a box's or a diamond's body is translated at the world its
    # quantifier binds
    return ((a.body, BVar(0)),)


_POLARIZED = {
    PosAtom: (no_kids, lambda a, w, _: PAtom(a.name, (w,))),
    NegAtom: (no_kids, lambda a, w, _: NAtom(a.name, (w,))),
    And: (both_kids, lambda a, w, v: AndNeg(*map(delay_if_negative, v))),
    Or: (both_kids, lambda a, w, v: OrNeg(*map(delay_if_negative, v))),
    Box: (_bound_world, lambda a, w, v: All(OrNeg(
        NAtom(REL, (_shift(w), BVar(0))), delay_if_negative(v[0])))),
    Dia: (_bound_world, lambda a, w, v: Exists(AndPos(
        PAtom(REL, (_shift(w), BVar(0))), DelayNeg(delay_if_negative(v[0]))))),
}


def polarized_translation(a: ModalFormula, world: Term) -> PolarizedFormula:
    """Translate a modal formula into the polarized language, at a world.

    Classical connectives become their negative variants with delayed
    subformulas.  Box becomes a universal over successor worlds, diamond
    an existential guarded by the accessibility atom; the extra negative
    delay under the existential stops the focused phase at the successor
    world's formula.
    """
    return fold(a, world, _POLARIZED, "modal")


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
