"""The trusted syntax: modal formulas in negation normal form, the
polarized first-order formulas the kernel works on, with positive and
negative connectives and two delays that bound an inference phase, and
the translation between them.  With kernel.py this module is the trusted
base, and it imports nothing from kcert.  Binders use de Bruijn indices
(BVar), which keeps instantiation capture-free and makes formula
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
# the polarized translation of modal formulas


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
