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

from dataclasses import dataclass, field


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
class _Polarized:
    """Base of the polarized nodes.  free_depth is one more than the
    largest de Bruijn index free in the node, 0 when it is closed: the
    number of binders the node needs around it.  Each node works it out
    once, from its children, and it takes no part in equality or
    hashing."""

    free_depth: int = field(init=False, compare=False, repr=False)


def _atom_depth(self: PAtom | NAtom) -> None:
    depth = 0
    for t in self.args:
        if isinstance(t, BVar) and t.index >= depth:
            depth = t.index + 1
    object.__setattr__(self, "free_depth", depth)


def _pair_depth(self: AndNeg | OrNeg | AndPos | OrPos) -> None:
    object.__setattr__(self, "free_depth", max(self.left.free_depth, self.right.free_depth))


def _binder_depth(self: All | Exists) -> None:
    object.__setattr__(self, "free_depth", max(self.body.free_depth - 1, 0))


def _delay_depth(self: DelayPos | DelayNeg) -> None:
    object.__setattr__(self, "free_depth", self.body.free_depth)


@dataclass(frozen=True)
class PAtom(_Polarized):
    pred: str
    args: tuple[Term, ...]
    __post_init__ = _atom_depth


@dataclass(frozen=True)
class NAtom(_Polarized):
    pred: str
    args: tuple[Term, ...]
    __post_init__ = _atom_depth


@dataclass(frozen=True)
class AndNeg(_Polarized):
    left: PolarizedFormula
    right: PolarizedFormula
    __post_init__ = _pair_depth


@dataclass(frozen=True)
class OrNeg(_Polarized):
    left: PolarizedFormula
    right: PolarizedFormula
    __post_init__ = _pair_depth


@dataclass(frozen=True)
class AndPos(_Polarized):
    left: PolarizedFormula
    right: PolarizedFormula
    __post_init__ = _pair_depth


@dataclass(frozen=True)
class OrPos(_Polarized):
    left: PolarizedFormula
    right: PolarizedFormula
    __post_init__ = _pair_depth


@dataclass(frozen=True)
class All(_Polarized):
    body: PolarizedFormula
    __post_init__ = _binder_depth


@dataclass(frozen=True)
class Exists(_Polarized):
    body: PolarizedFormula
    __post_init__ = _binder_depth


@dataclass(frozen=True)
class DelayPos(_Polarized):
    body: PolarizedFormula
    __post_init__ = _delay_depth


@dataclass(frozen=True)
class DelayNeg(_Polarized):
    body: PolarizedFormula
    __post_init__ = _delay_depth


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
    cannot capture.  A subformula whose free indexes are all bound inside
    the body is returned as it is, so only the paths down to occurrences
    of the variable, or of outer ones, are rebuilt.
    """

    def go_term(u: Term, depth: int) -> Term:
        if isinstance(u, BVar):
            if u.index == depth:
                return t
            if u.index > depth:
                return BVar(u.index - 1)
        return u

    def go(f: PolarizedFormula, depth: int) -> PolarizedFormula:
        if f.free_depth <= depth:
            return f
        if isinstance(f, (PAtom, NAtom)):
            return type(f)(f.pred, tuple(go_term(u, depth) for u in f.args))
        if isinstance(f, (AndNeg, OrNeg, AndPos, OrPos)):
            return type(f)(go(f.left, depth), go(f.right, depth))
        if isinstance(f, (All, Exists)):
            return type(f)(go(f.body, depth + 1))
        return type(f)(go(f.body, depth))

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


# each connective's text before, between and after its subformulas; a
# binder's "{}" is the name of the variable it binds
_SPELLING: dict[type, tuple[str, ...]] = {
    PAtom: ("",), NAtom: ("~",), FoAtom: ("",), FoNeg: ("~", ""),
    AndNeg: ("(", " &- ", ")"), OrNeg: ("(", " |- ", ")"),
    AndPos: ("(", " &+ ", ")"), OrPos: ("(", " |+ ", ")"),
    FoAnd: ("(", " & ", ")"), FoOr: ("(", " | ", ")"), FoImp: ("(", " => ", ")"),
    All: ("(all {}. ", ")"), Exists: ("(ex {}. ", ")"),
    FoAll: ("(all {}. ", ")"), FoEx: ("(ex {}. ", ")"),
    DelayPos: ("d+(", ")"), DelayNeg: ("d-(", ")"),
}


def _render(f: PolarizedFormula | FoFormula, syntax: type, what: str) -> str:
    """Print f, whose nodes must all be of the syntax given, naming
    bound variables y1, y2, ... from the outermost binder in.  One loop
    over an explicit stack of nodes, each with its binder depth, and of
    the text still to print after them."""
    out: list[str] = []
    stack: list = [(f, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, depth = item
        if not isinstance(node, syntax):
            raise TypeError(f"not a {what} formula: {node!r}")
        spelling = _SPELLING[type(node)]
        if isinstance(node, (PAtom, NAtom, FoAtom)):
            args = ",".join(f"y{depth - t.index}" if isinstance(t, BVar) and t.index < depth
                            else str(t) for t in node.args)
            out.append(f"{spelling[0]}{node.pred}({args})")
            continue
        if isinstance(node, (All, Exists, FoAll, FoEx)):
            depth += 1
            out.append(spelling[0].format(f"y{depth}"))
        else:
            out.append(spelling[0])
        kids = (node.left, node.right) if len(spelling) == 3 else (node.body,)
        for kid, after in zip(reversed(kids), reversed(spelling[1:])):
            stack.append(after)
            stack.append((kid, depth))
    return "".join(out)


def render_polarized(f: PolarizedFormula) -> str:
    return _render(f, PolarizedFormula, "polarized")


def render_fo(f: FoFormula) -> str:
    return _render(f, FoFormula, "first-order")
