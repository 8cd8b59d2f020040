"""Prefixed tableau prover for K, Kripke semantics, and certificate
extraction.

The prover refutes the negation of a candidate theorem with a prefixed
tableau: nodes are world-prefixed formulas, worlds are dotted sequences
of integers, and the accessibility relation is exactly prefix extension.
A closed tableau is replayed into either certificate format; a saturated
open branch yields a finite countermodel which is verified against the
semantics before being reported.

The expansion order is deterministic: branch closure is checked first,
then conjunctive and disjunctive entries, then each diamond (once per
branch, creating a fresh child world), then each box against each child
world already present.  Within a rule class, candidates are ordered by
their descent path in the original formula (left before right), then by
prefix, then by age.  Certificate emission relies on this determinism
only for reproducibility, not for correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .fittings import (
    Bind,
    DecTree,
    EIND,
    FitCert,
    Index,
    Lind,
    NONE,
    Rind,
)
from .formulas import (
    And,
    BVar,
    Box,
    Dia,
    FoAll,
    FoAnd,
    FoAtom,
    FoEx,
    FoFormula,
    FoImp,
    FoNeg,
    FoOr,
    ModalFormula,
    NegAtom,
    Or,
    PosAtom,
    REL,
    Term,
    connective_count,
    negate_nnf,
)
from .simpfit import BoxInfo, Closure, SimpfitCert

Prefix = tuple[int, ...]

ROOT_WORLD: Prefix = (1,)


def format_prefix(prefix: Prefix) -> str:
    return ".".join(str(n) for n in prefix)


# ---------------------------------------------------------------------------
# Kripke models over prefix-named worlds


@dataclass(frozen=True)
class KripkeModel:
    worlds: frozenset[Prefix]
    rel: frozenset[tuple[Prefix, Prefix]]
    val: Mapping[Prefix, frozenset[str]]

    def __post_init__(self) -> None:
        missing = self.worlds - set(self.val)
        if missing:
            raise ValueError(f"no valuation for worlds {sorted(missing)}")
        for src, dst in self.rel:
            if src not in self.worlds or dst not in self.worlds:
                raise ValueError(f"edge ({src}, {dst}) leaves the world set")


def eval_modal(model: KripkeModel, world: Prefix, a: ModalFormula) -> bool:
    if world not in model.worlds:
        raise ValueError(f"world {world} not in model")
    if isinstance(a, PosAtom):
        return a.name in model.val[world]
    if isinstance(a, NegAtom):
        return a.name not in model.val[world]
    if isinstance(a, And):
        return eval_modal(model, world, a.left) and eval_modal(model, world, a.right)
    if isinstance(a, Or):
        return eval_modal(model, world, a.left) or eval_modal(model, world, a.right)
    if isinstance(a, Box):
        return all(eval_modal(model, dst, a.body)
                   for src, dst in model.rel if src == world)
    if isinstance(a, Dia):
        return any(eval_modal(model, dst, a.body)
                   for src, dst in model.rel if src == world)
    raise TypeError(f"not a modal formula: {a!r}")


def eval_fo(model: KripkeModel, f: FoFormula, env: Mapping[Term, Prefix]) -> bool:
    """Evaluate a first-order formula over a model's worlds.  env gives
    worlds for the free constants; quantifiers range over all worlds."""

    def world_of(t: Term, stack: list[Prefix]) -> Prefix:
        if isinstance(t, BVar):
            if t.index >= len(stack):
                raise ValueError(f"unbound variable {t}")
            return stack[t.index]
        try:
            w = env[t]
        except KeyError:
            raise ValueError(f"no world assigned to {t}") from None
        if w not in model.worlds:
            raise ValueError(f"{t} assigned to {w}, which is not a world")
        return w

    def go(f: FoFormula, stack: list[Prefix]) -> bool:
        if isinstance(f, FoAtom):
            if f.pred == REL and len(f.args) == 2:
                pair = (world_of(f.args[0], stack), world_of(f.args[1], stack))
                return pair in model.rel
            if len(f.args) != 1:
                raise ValueError(f"unexpected atom arity: {f.pred}/{len(f.args)}")
            return f.pred in model.val[world_of(f.args[0], stack)]
        if isinstance(f, FoNeg):
            return not go(f.body, stack)
        if isinstance(f, FoAnd):
            return go(f.left, stack) and go(f.right, stack)
        if isinstance(f, FoOr):
            return go(f.left, stack) or go(f.right, stack)
        if isinstance(f, FoImp):
            return (not go(f.left, stack)) or go(f.right, stack)
        if isinstance(f, FoAll):
            return all(go(f.body, [w] + stack) for w in model.worlds)
        if isinstance(f, FoEx):
            return any(go(f.body, [w] + stack) for w in model.worlds)
        raise TypeError(f"not a first-order formula: {f!r}")

    return go(f, [])


def format_model(model: KripkeModel) -> str:
    lines = []
    for w in sorted(model.worlds):
        atoms = ", ".join(sorted(model.val[w]))
        lines.append(f"world {format_prefix(w)}: {{{atoms}}}")
    for src, dst in sorted(model.rel):
        lines.append(f"edge {format_prefix(src)} {format_prefix(dst)}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# prefixed tableaux


@dataclass(frozen=True)
class PrefixedFormula:
    prefix: Prefix
    body: ModalFormula
    # "L"/"R" descent path from the root formula; drives rule ordering
    origin: tuple[str, ...] = ()

    def __str__(self) -> str:
        from .formulas import render_modal
        return f"{format_prefix(self.prefix)}: {render_modal(self.body)}"


@dataclass(frozen=True)
class TabStep:
    """One expansion step.  rule is andF/orF/diaF/boxF/close; created
    lists the entries the step adds; target names the world a diaF
    creates or a boxF reuses; closing holds the (negative literal,
    positive literal) pair ending a branch."""

    rule: str
    source: PrefixedFormula | None
    created: tuple[PrefixedFormula, ...] = ()
    target: Prefix | None = None
    closing: tuple[PrefixedFormula, PrefixedFormula] | None = None
    children: tuple[TabStep, ...] = ()


@dataclass(frozen=True)
class ClosedTableau:
    theorem: ModalFormula
    root: PrefixedFormula
    step: TabStep


@dataclass(frozen=True)
class OpenBranch:
    model: KripkeModel
    entries: tuple[PrefixedFormula, ...]


class _Prover:
    def __init__(self) -> None:
        # world numbering is global, so a later branch continues where
        # an earlier one left off
        self.next_child: dict[Prefix, int] = {}

    def expand(self, entries: list[PrefixedFormula],
               conj_done: frozenset[int], dia_done: frozenset[int],
               box_done: frozenset[tuple[int, Prefix]]) -> TabStep | OpenBranch:
        closing = self._find_closure(entries)
        if closing is not None:
            return TabStep("close", source=None, closing=closing)

        pos = self._pick(entries, lambda p, e: p not in conj_done
                         and isinstance(e.body, (And, Or)))
        if pos is not None:
            e = entries[pos]
            left = PrefixedFormula(e.prefix, e.body.left, e.origin + ("L",))
            right = PrefixedFormula(e.prefix, e.body.right, e.origin + ("R",))
            done = conj_done | {pos}
            if isinstance(e.body, And):
                sub = self.expand(entries + [left, right], done, dia_done, box_done)
                if isinstance(sub, OpenBranch):
                    return sub
                return TabStep("andF", e, created=(left, right), children=(sub,))
            sub_l = self.expand(entries + [left], done, dia_done, box_done)
            if isinstance(sub_l, OpenBranch):
                return sub_l
            sub_r = self.expand(entries + [right], done, dia_done, box_done)
            if isinstance(sub_r, OpenBranch):
                return sub_r
            return TabStep("orF", e, created=(left, right), children=(sub_l, sub_r))

        pos = self._pick(entries, lambda p, e: p not in dia_done
                         and isinstance(e.body, Dia))
        if pos is not None:
            e = entries[pos]
            n = self.next_child.get(e.prefix, 1)
            self.next_child[e.prefix] = n + 1
            target = e.prefix + (n,)
            child = PrefixedFormula(target, e.body.body, e.origin + ("L",))
            sub = self.expand(entries + [child], conj_done, dia_done | {pos}, box_done)
            if isinstance(sub, OpenBranch):
                return sub
            return TabStep("diaF", e, created=(child,), target=target, children=(sub,))

        box_cand = self._pick_box(entries, box_done)
        if box_cand is not None:
            pos, target = box_cand
            e = entries[pos]
            child = PrefixedFormula(target, e.body.body, e.origin + ("L",))
            sub = self.expand(entries + [child], conj_done, dia_done,
                              box_done | {(pos, target)})
            if isinstance(sub, OpenBranch):
                return sub
            return TabStep("boxF", e, created=(child,), target=target, children=(sub,))

        return self._open(entries)

    @staticmethod
    def _find_closure(entries: list[PrefixedFormula]) -> tuple[PrefixedFormula, PrefixedFormula] | None:
        for j in range(len(entries)):
            ej = entries[j]
            if not isinstance(ej.body, (PosAtom, NegAtom)):
                continue
            for i in range(j):
                ei = entries[i]
                if ei.prefix != ej.prefix:
                    continue
                if not isinstance(ei.body, (PosAtom, NegAtom)):
                    continue
                if ei.body.name != ej.body.name or type(ei.body) is type(ej.body):
                    continue
                if isinstance(ei.body, NegAtom):
                    return ei, ej
                return ej, ei
        return None

    @staticmethod
    def _pick(entries: list[PrefixedFormula], want) -> int | None:
        cands = [(e.origin, e.prefix, p) for p, e in enumerate(entries) if want(p, e)]
        if not cands:
            return None
        return min(cands)[2]

    @staticmethod
    def _pick_box(entries: list[PrefixedFormula],
                  box_done: frozenset[tuple[int, Prefix]]) -> tuple[int, Prefix] | None:
        prefixes = {e.prefix for e in entries}
        cands = []
        for pos, e in enumerate(entries):
            if not isinstance(e.body, Box):
                continue
            for target in prefixes:
                if (len(target) == len(e.prefix) + 1
                        and target[:len(e.prefix)] == e.prefix
                        and (pos, target) not in box_done):
                    cands.append((e.origin, target, pos))
        if not cands:
            return None
        _, target, pos = min(cands)
        return pos, target

    @staticmethod
    def _open(entries: list[PrefixedFormula]) -> OpenBranch:
        worlds = frozenset(e.prefix for e in entries)
        rel = frozenset((w[:-1], w) for w in worlds if w[:-1] in worlds)
        val: dict[Prefix, frozenset[str]] = {
            w: frozenset(e.body.name for e in entries
                         if e.prefix == w and isinstance(e.body, PosAtom))
            for w in worlds
        }
        model = KripkeModel(worlds, rel, val)
        root = entries[0]
        if not eval_modal(model, root.prefix, root.body):
            raise RuntimeError("open branch produced a model that fails "
                               "to satisfy the branch root")
        return OpenBranch(model, tuple(entries))


def prove(theorem: ModalFormula) -> ClosedTableau | OpenBranch:
    """Refute the negation of theorem.  A ClosedTableau means theorem is
    K-valid; an OpenBranch carries a verified countermodel."""
    root = PrefixedFormula(ROOT_WORLD, negate_nnf(theorem), ())
    result = _Prover().expand([root], frozenset(), frozenset(), frozenset())
    if isinstance(result, OpenBranch):
        return result
    return ClosedTableau(theorem, root, result)


# ---------------------------------------------------------------------------
# certificate extraction from a closed tableau

class EmitError(ValueError):
    pass


class _Emitter:
    """Replay a closed refutation on the theorem side of the index
    algebra.  Refutation rules map to their duals: a conjunction split
    becomes a disjunctive decide, a branch split a conjunctive one, a
    world-creating diamond a universal decide (whose index then names
    the world's eigenvariable), and a box propagation an existential
    decide borrowing that eigenvariable."""

    def __init__(self, root: PrefixedFormula):
        self.index_of: dict[int, Index] = {id(root): EIND}
        self.creator: dict[Prefix, Index] = {}
        self.closures: list[Closure] = []
        self.boxinfos: list[BoxInfo] = []

    def _lookup(self, entry: PrefixedFormula) -> Index:
        try:
            return self.index_of[id(entry)]
        except KeyError:
            raise EmitError(f"step refers to an entry never introduced: {entry}") from None

    def walk(self, step: TabStep) -> DecTree:
        if step.rule == "close":
            if step.closing is None:
                raise EmitError("close step without a closing pair")
            neg, pos = step.closing
            if not isinstance(neg.body, NegAtom) or not isinstance(pos.body, PosAtom):
                raise EmitError("closing pair must be (negative, positive)")
            node = DecTree(self._lookup(neg), self._lookup(pos), ())
            self.closures.append(Closure(node.decide_on, node.aux))
            return node

        if step.source is None:
            raise EmitError(f"{step.rule} step without a source entry")
        i = self._lookup(step.source)

        if step.rule in ("andF", "orF"):
            left, right = step.created
            self.index_of[id(left)] = Lind(i)
            self.index_of[id(right)] = Rind(i)
            kids = tuple(self.walk(child) for child in step.children)
            want = 2 if step.rule == "orF" else 1
            if len(kids) != want:
                raise EmitError(f"{step.rule} step with {len(kids)} subtrees")
            return DecTree(i, NONE, kids)

        if step.rule == "diaF":
            if step.target is None:
                raise EmitError("diaF step without a target world")
            (child,) = step.created
            self.creator[step.target] = i
            self.index_of[id(child)] = Lind(i)
            return DecTree(i, NONE, (self.walk(step.children[0]),))

        if step.rule == "boxF":
            if step.target not in self.creator:
                raise EmitError(f"boxF step targets world {step.target} "
                                "before any diamond created it")
            donor = self.creator[step.target]
            (child,) = step.created
            self.index_of[id(child)] = Bind(i, donor)
            self.boxinfos.append(BoxInfo(i, donor))
            return DecTree(i, donor, (self.walk(step.children[0]),))

        raise EmitError(f"unknown rule {step.rule!r}")


def _check_theorem(ct: ClosedTableau, theorem: ModalFormula | None) -> None:
    if theorem is not None and ct.root.body != negate_nnf(theorem):
        raise EmitError("tableau does not refute the negation of the "
                        "given theorem")


def emit_dectree(ct: ClosedTableau, theorem: ModalFormula | None = None) -> DecTree:
    _check_theorem(ct, theorem)
    return _Emitter(ct.root).walk(ct.step)


def emit_fitcert(ct: ClosedTableau, theorem: ModalFormula | None = None) -> FitCert:
    return FitCert.load(emit_dectree(ct, theorem))


def emit_essentials(ct: ClosedTableau, theorem: ModalFormula | None = None,
                    ) -> tuple[tuple[Closure, ...], tuple[BoxInfo, ...]]:
    """Closures (deduplicated, in closing order) and box instantiations
    (one per box propagation, multiplicity kept) of a closed tableau."""
    _check_theorem(ct, theorem)
    emitter = _Emitter(ct.root)
    emitter.walk(ct.step)
    seen: list[Closure] = []
    for c in emitter.closures:
        if c not in seen:
            seen.append(c)
    return tuple(seen), tuple(emitter.boxinfos)


def emit_simpfitcert(ct: ClosedTableau, theorem: ModalFormula | None = None) -> SimpfitCert:
    closures, boxinfos = emit_essentials(ct, theorem)
    return SimpfitCert.load(closures, boxinfos)


# ---------------------------------------------------------------------------
# bounded validity oracle

_ORACLE_CAP = 8


def bounded_validity_oracle(a: ModalFormula) -> bool:
    """Decide K-validity by exhaustive countermodel search.

    K has the finite tree model property with depth bounded by modal
    depth and branching bounded by the number of diamonds, so searching
    the finite space of candidate tree models is a complete decision
    procedure.  Deliberately independent of both the tableau prover and
    the kernel; capped to small formulas because the search is
    exponential."""
    if connective_count(a) > _ORACLE_CAP:
        raise ValueError(f"oracle capped at {_ORACLE_CAP} connectives")
    return find_countermodel(a) is None


def find_countermodel(a: ModalFormula) -> KripkeModel | None:
    for tree in _tree_models(negate_nnf(a)):
        model = _assemble(tree)
        if not eval_modal(model, ROOT_WORLD, negate_nnf(a)):
            raise RuntimeError("oracle assembled a model that fails its goal")
        return model
    return None


# a candidate tree model: atoms true here, and one subtree per child world
_Tree = tuple[frozenset[str], tuple["_Tree", ...]]


def _tree_models(goal: ModalFormula) -> Iterator[_Tree]:
    """All tree models (up to the relevant atoms) whose root satisfies
    goal, smallest choices first.  Terminates: every child world's
    obligations have strictly smaller modal depth."""

    def satisfy(obligations: list[ModalFormula]) -> Iterator[_Tree]:
        # split the propositional layer first
        literals: list[ModalFormula] = []
        boxes: list[ModalFormula] = []
        dias: list[ModalFormula] = []
        queue = list(obligations)
        while queue:
            f = queue.pop(0)
            if isinstance(f, And):
                queue[:0] = [f.left, f.right]
            elif isinstance(f, Or):
                # disjunction: two candidate branches
                for side in (f.left, f.right):
                    yield from satisfy([side] + queue + literals + boxes + dias)
                return
            elif isinstance(f, (PosAtom, NegAtom)):
                literals.append(f)
            elif isinstance(f, Box):
                boxes.append(f)
            elif isinstance(f, Dia):
                dias.append(f)
            else:
                raise TypeError(f"not a modal formula: {f!r}")

        positive = {f.name for f in literals if isinstance(f, PosAtom)}
        negative = {f.name for f in literals if isinstance(f, NegAtom)}
        if positive & negative:
            return
        children_obligations = [[d.body] + [b.body for b in boxes] for d in dias]

        def build(i: int, acc: tuple[_Tree, ...]) -> Iterator[_Tree]:
            if i == len(children_obligations):
                yield frozenset(positive), acc
                return
            for sub in satisfy(children_obligations[i]):
                yield from build(i + 1, acc + (sub,))

        yield from build(0, ())

    return satisfy([goal])


def _assemble(tree: _Tree) -> KripkeModel:
    worlds: list[Prefix] = []
    rel: list[tuple[Prefix, Prefix]] = []
    val: dict[Prefix, frozenset[str]] = {}

    def place(node: _Tree, here: Prefix) -> None:
        atoms, children = node
        worlds.append(here)
        val[here] = atoms
        for n, child in enumerate(children, start=1):
            rel.append((here, here + (n,)))
            place(child, here + (n,))

    place(tree, ROOT_WORLD)
    return KripkeModel(frozenset(worlds), frozenset(rel), val)
