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


def negate_nnf(a: ModalFormula) -> ModalFormula:
    """De Morgan negation, staying inside negation normal form."""
    if isinstance(a, PosAtom):
        return NegAtom(a.name)
    if isinstance(a, NegAtom):
        return PosAtom(a.name)
    if isinstance(a, And):
        return Or(negate_nnf(a.left), negate_nnf(a.right))
    if isinstance(a, Or):
        return And(negate_nnf(a.left), negate_nnf(a.right))
    if isinstance(a, Box):
        return Dia(negate_nnf(a.body))
    if isinstance(a, Dia):
        return Box(negate_nnf(a.body))
    raise TypeError(f"not a modal formula: {a!r}")


def modal_size(a: ModalFormula) -> int:
    """Number of syntax tree nodes; a literal counts as one node."""
    if isinstance(a, (PosAtom, NegAtom)):
        return 1
    if isinstance(a, (And, Or)):
        return 1 + modal_size(a.left) + modal_size(a.right)
    return 1 + modal_size(a.body)


def connective_count(a: ModalFormula) -> int:
    if isinstance(a, (PosAtom, NegAtom)):
        return 0
    if isinstance(a, (And, Or)):
        return 1 + connective_count(a.left) + connective_count(a.right)
    return 1 + connective_count(a.body)


def modal_depth(a: ModalFormula) -> int:
    if isinstance(a, (PosAtom, NegAtom)):
        return 0
    if isinstance(a, (And, Or)):
        return max(modal_depth(a.left), modal_depth(a.right))
    return 1 + modal_depth(a.body)


def atom_names(a: ModalFormula) -> frozenset[str]:
    if isinstance(a, (PosAtom, NegAtom)):
        return frozenset((a.name,))
    if isinstance(a, (And, Or)):
        return atom_names(a.left) | atom_names(a.right)
    return atom_names(a.body)


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
class OrPos:
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
    PAtom | NAtom | AndNeg | OrNeg | AndPos | OrPos
    | All | Exists | DelayPos | DelayNeg
)

_POSITIVE_CLASSES = (PAtom, AndPos, OrPos, Exists, DelayPos)


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


def open_binder(body: PolarizedFormula, t: Term) -> PolarizedFormula:
    """Instantiate the outermost bound variable of a quantifier body with t.

    t must not contain bound variables itself; the kernel only ever
    instantiates with eigenvariables and world constants, so substitution
    cannot capture.
    """

    def go_term(u: Term, depth: int) -> Term:
        if isinstance(u, BVar):
            if u.index == depth:
                return t
            if u.index > depth:
                return BVar(u.index - 1)
        return u

    def go(f: PolarizedFormula, depth: int) -> PolarizedFormula:
        if isinstance(f, (PAtom, NAtom)):
            return type(f)(f.pred, tuple(go_term(u, depth) for u in f.args))
        if isinstance(f, (AndNeg, OrNeg, AndPos, OrPos)):
            return type(f)(go(f.left, depth), go(f.right, depth))
        if isinstance(f, (All, Exists)):
            return type(f)(go(f.body, depth + 1))
        if isinstance(f, (DelayPos, DelayNeg)):
            return type(f)(go(f.body, depth))
        return f

    return go(body, 0)


# ---------------------------------------------------------------------------
# the two translations of modal formulas


def polarized_translation(a: ModalFormula, world: Term) -> PolarizedFormula:
    """Translate a modal formula into the polarized language, at a world.

    Classical connectives become their negative variants with delayed
    subformulas.  Box becomes a universal over successor worlds, diamond
    an existential guarded by the accessibility atom; the extra negative
    delay under the existential stops the focused phase at the successor
    world's formula.
    """
    if isinstance(a, PosAtom):
        return PAtom(a.name, (world,))
    if isinstance(a, NegAtom):
        return NAtom(a.name, (world,))
    if isinstance(a, And):
        return AndNeg(
            delay_if_negative(polarized_translation(a.left, world)),
            delay_if_negative(polarized_translation(a.right, world)),
        )
    if isinstance(a, Or):
        return OrNeg(
            delay_if_negative(polarized_translation(a.left, world)),
            delay_if_negative(polarized_translation(a.right, world)),
        )
    if isinstance(a, Box):
        return All(OrNeg(
            NAtom(REL, (_shift(world), BVar(0))),
            delay_if_negative(polarized_translation(a.body, BVar(0))),
        ))
    if isinstance(a, Dia):
        return Exists(AndPos(
            PAtom(REL, (_shift(world), BVar(0))),
            DelayNeg(delay_if_negative(polarized_translation(a.body, BVar(0)))),
        ))
    raise TypeError(f"not a modal formula: {a!r}")


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


def standard_translation(a: ModalFormula, world: Term) -> FoFormula:
    """The textbook relational translation into unpolarized first-order logic."""
    if isinstance(a, PosAtom):
        return FoAtom(a.name, (world,))
    if isinstance(a, NegAtom):
        return FoNeg(FoAtom(a.name, (world,)))
    if isinstance(a, And):
        return FoAnd(standard_translation(a.left, world),
                     standard_translation(a.right, world))
    if isinstance(a, Or):
        return FoOr(standard_translation(a.left, world),
                    standard_translation(a.right, world))
    if isinstance(a, Box):
        return FoAll(FoImp(
            FoAtom(REL, (_shift(world), BVar(0))),
            standard_translation(a.body, BVar(0)),
        ))
    if isinstance(a, Dia):
        return FoEx(FoAnd(
            FoAtom(REL, (_shift(world), BVar(0))),
            standard_translation(a.body, BVar(0)),
        ))
    raise TypeError(f"not a modal formula: {a!r}")


def strip_polarities(f: PolarizedFormula) -> FoFormula:
    """Forget polarities and delays, keeping the classical content."""
    if isinstance(f, PAtom):
        return FoAtom(f.pred, f.args)
    if isinstance(f, NAtom):
        return FoNeg(FoAtom(f.pred, f.args))
    if isinstance(f, (AndNeg, AndPos)):
        return FoAnd(strip_polarities(f.left), strip_polarities(f.right))
    if isinstance(f, (OrNeg, OrPos)):
        return FoOr(strip_polarities(f.left), strip_polarities(f.right))
    if isinstance(f, All):
        return FoAll(strip_polarities(f.body))
    if isinstance(f, Exists):
        return FoEx(strip_polarities(f.body))
    if isinstance(f, (DelayPos, DelayNeg)):
        return strip_polarities(f.body)
    raise TypeError(f"not a polarized formula: {f!r}")


# ---------------------------------------------------------------------------
# human-readable renderings


def render_modal(a: ModalFormula) -> str:
    if isinstance(a, PosAtom):
        return a.name
    if isinstance(a, NegAtom):
        return f"~{a.name}"
    if isinstance(a, And):
        return f"({render_modal(a.left)} & {render_modal(a.right)})"
    if isinstance(a, Or):
        return f"({render_modal(a.left)} | {render_modal(a.right)})"
    if isinstance(a, Box):
        return f"box {render_modal(a.body)}"
    return f"dia {render_modal(a.body)}"


def _term_name(t: Term, names: list[str]) -> str:
    if isinstance(t, BVar):
        return names[t.index]
    return str(t)


def _atom_str(pred: str, args: tuple[Term, ...], names: list[str]) -> str:
    return f"{pred}({','.join(_term_name(t, names) for t in args)})"


def render_polarized(f: PolarizedFormula) -> str:
    def go(f: PolarizedFormula, names: list[str]) -> str:
        if isinstance(f, PAtom):
            return _atom_str(f.pred, f.args, names)
        if isinstance(f, NAtom):
            return "~" + _atom_str(f.pred, f.args, names)
        if isinstance(f, AndNeg):
            return f"({go(f.left, names)} &- {go(f.right, names)})"
        if isinstance(f, OrNeg):
            return f"({go(f.left, names)} |- {go(f.right, names)})"
        if isinstance(f, AndPos):
            return f"({go(f.left, names)} &+ {go(f.right, names)})"
        if isinstance(f, OrPos):
            return f"({go(f.left, names)} |+ {go(f.right, names)})"
        if isinstance(f, (All, Exists)):
            name = f"y{len(names) + 1}"
            q = "all" if isinstance(f, All) else "ex"
            return f"({q} {name}. {go(f.body, [name] + names)})"
        if isinstance(f, DelayPos):
            return f"d+({go(f.body, names)})"
        if isinstance(f, DelayNeg):
            return f"d-({go(f.body, names)})"
        raise TypeError(f"not a polarized formula: {f!r}")

    return go(f, [])


def render_fo(f: FoFormula) -> str:
    def go(f: FoFormula, names: list[str]) -> str:
        if isinstance(f, FoAtom):
            return _atom_str(f.pred, f.args, names)
        if isinstance(f, FoNeg):
            return f"~{go(f.body, names)}"
        if isinstance(f, FoAnd):
            return f"({go(f.left, names)} & {go(f.right, names)})"
        if isinstance(f, FoOr):
            return f"({go(f.left, names)} | {go(f.right, names)})"
        if isinstance(f, FoImp):
            return f"({go(f.left, names)} => {go(f.right, names)})"
        if isinstance(f, (FoAll, FoEx)):
            name = f"y{len(names) + 1}"
            q = "all" if isinstance(f, FoAll) else "ex"
            return f"({q} {name}. {go(f.body, [name] + names)})"
        raise TypeError(f"not a first-order formula: {f!r}")

    return go(f, [])
