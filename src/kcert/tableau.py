"""Prefixed tableau prover for K, Kripke semantics, and certificate
extraction.

The prover refutes the negation of a candidate theorem with a prefixed
tableau: nodes are world-prefixed formulas, worlds are dotted sequences
of integers, and the accessibility relation is exactly prefix extension.
Each entry is created with the storage index the kernel will give it,
so a closed tableau reads off directly as a decide tree, from which the
essential certificate is distilled; a saturated open branch yields a
finite countermodel which is verified against the semantics before being
reported.

The expansion order is deterministic: branch closure is checked first,
then conjunctive and disjunctive entries, then each diamond (once per
branch, creating a fresh child world), then each box against each child
world already present.  Within a rule class, candidates are ordered by
their descent path in the original formula (left before right), then by
prefix, then by age.  Certificate emission relies on this determinism
only for reproducibility, not for correctness.

A closed subtree keeps the set of the entries above it that it uses, by
index: a closure uses its two literals, and a step that creates an
entry in use uses its source and, for a box propagation, the entry that
made its target world (dependency-directed backtracking, after Horrocks
and Patel-Schneider, "Optimizing description logic subsumption", 1999).
Two rules act on the sets.  A step that creates no entry in use is
dropped from the tree, and its child closes the branch alone; for a
split, each side's subtree that does not use its own entry closes the
branch alone.  For the left side that is a backjump: the right branch is
never expanded.  Only a branch that would close is skipped, so verdicts
do not change, but world numbers are global: a skipped branch makes no
world, and a later branch numbers its worlds from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .firstorder import format_formula
from .fittings import (
    Bind,
    DecTree,
    EIND,
    FitCert,
    Index,
    Lind,
    NONE,
    Rind,
    child_kids,
)
from .formulas import (
    And,
    Box,
    Dia,
    ModalFormula,
    NegAtom,
    Or,
    PosAtom,
    both_kids,
    body_kid,
    fold,
    no_kids,
)
from .kernel import StepBudgetExceeded
from .simpfit import SimpfitCert, distill

Prefix = tuple[int, ...]

# the step budget of every proof search that names none: a hundred times
# the largest search in the tests and the benchmark (1,535 steps, taut(512))
DEFAULT_MAX_TABLEAU_STEPS = 153_500

ROOT_WORLD: Prefix = (1,)


def format_prefix(prefix: Prefix) -> str:
    return ".".join(str(n) for n in prefix)


# ---------------------------------------------------------------------------
# negation and size of modal formulas

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


def _every(node, ctx, values: list[bool]) -> bool:
    return all(values)


def _some(node, ctx, values: list[bool]) -> bool:
    return any(values)


def eval_modal(model: KripkeModel, world: Prefix, a: ModalFormula) -> bool:
    if world not in model.worlds:
        raise ValueError(f"world {world} not in model")
    successors: dict[Prefix, list[Prefix]] = {w: [] for w in model.worlds}
    for src, dst in model.rel:
        successors[src].append(dst)

    def at_successors(a: Box | Dia, w: Prefix) -> list:
        return [(a.body, dst) for dst in successors[w]]

    return fold(a, world, {
        PosAtom: (no_kids, lambda a, w, _: a.name in model.val[w]),
        NegAtom: (no_kids, lambda a, w, _: a.name not in model.val[w]),
        And: (both_kids, _every),
        Or: (both_kids, _some),
        Box: (at_successors, _every),
        Dia: (at_successors, _some),
    }, "modal")


def format_model(model: KripkeModel) -> str:
    # each world is named once, from its parent's name where it has one:
    # a parent sorts before its children
    names: dict[Prefix, str] = {}
    lines = []
    for w in sorted(model.worlds):
        parent = names.get(w[:-1])
        name = names[w] = format_prefix(w) if parent is None else f"{parent}.{w[-1]}"
        atoms = ", ".join(sorted(model.val[w]))
        lines.append(f"world {name}: {{{atoms}}}")
    for src, dst in sorted(model.rel):
        lines.append(f"edge {names[src]} {names[dst]}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# prefixed tableaux


@dataclass(frozen=True)
class PrefixedFormula:
    prefix: Prefix
    body: ModalFormula
    # "L"/"R" descent path from the root formula; drives rule ordering
    origin: tuple[str, ...]
    # the storage index the kernel gives this formula on the theorem side
    index: Index


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
        # index of the diamond entry that created each world: a box
        # propagated there borrows its eigenvariable
        self.creator: dict[Prefix, Index] = {}

    def step(self, entries: list[PrefixedFormula],
             done: frozenset) -> tuple[TabStep, list] | OpenBranch:
        """The next step on a branch, as a TabStep still to be given its
        children, and the (entries, done) branches it leaves, left first;
        done holds split and diamond positions and box (position, world) pairs."""
        closing = self._find_closure(entries)
        if closing is not None:
            return TabStep("close", None, closing=closing), []

        pos = self._pick(entries, lambda p, e: p not in done and isinstance(e.body, (And, Or)))
        if pos is not None:
            e = entries[pos]
            left = PrefixedFormula(e.prefix, e.body.left, e.origin + ("L",), Lind(e.index))
            right = PrefixedFormula(e.prefix, e.body.right, e.origin + ("R",), Rind(e.index))
            done |= {pos}
            if isinstance(e.body, And):
                return (TabStep("andF", e, (left, right)),
                        [(entries + [left, right], done)])
            return (TabStep("orF", e, (left, right)),
                    [(entries + [left], done), (entries + [right], done)])

        pos = self._pick(entries, lambda p, e: p not in done and isinstance(e.body, Dia))
        if pos is not None:
            e = entries[pos]
            n = self.next_child.get(e.prefix, 1)
            self.next_child[e.prefix] = n + 1
            target = e.prefix + (n,)
            self.creator[target] = e.index
            child = PrefixedFormula(target, e.body.body, e.origin + ("L",), Lind(e.index))
            return (TabStep("diaF", e, (child,), target),
                    [(entries + [child], done | {pos})])

        box_cand = self._pick_box(entries, done)
        if box_cand is not None:
            pos, target = box_cand
            e = entries[pos]
            child = PrefixedFormula(target, e.body.body, e.origin + ("L",),
                                    Bind(e.index, self.creator[target]))
            return (TabStep("boxF", e, (child,), target),
                    [(entries + [child], done | {(pos, target)})])

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
    def _pick_box(entries: list[PrefixedFormula], done: frozenset) -> tuple[int, Prefix] | None:
        prefixes = {e.prefix for e in entries}
        cands = []
        for pos, e in enumerate(entries):
            if not isinstance(e.body, Box):
                continue
            for target in prefixes:
                if (len(target) == len(e.prefix) + 1
                        and target[:len(e.prefix)] == e.prefix
                        and (pos, target) not in done):
                    cands.append((e.origin, target, pos))
        if not cands:
            return None
        _, target, pos = min(cands)
        return pos, target

    @staticmethod
    def _open(entries: list[PrefixedFormula]) -> OpenBranch:
        # one pass: every prefix on the branch is a world, true at it
        # exactly the positive atoms stored there
        atoms: dict[Prefix, set[str]] = {}
        for e in entries:
            here = atoms.setdefault(e.prefix, set())
            if isinstance(e.body, PosAtom):
                here.add(e.body.name)
        worlds = frozenset(atoms)
        rel = frozenset((w[:-1], w) for w in worlds if w[:-1] in worlds)
        val = {w: frozenset(names) for w, names in atoms.items()}
        model = KripkeModel(worlds, rel, val)
        root = entries[0]
        if not eval_modal(model, root.prefix, root.body):
            raise RuntimeError("open branch produced a model that fails "
                               "to satisfy the branch root")
        return OpenBranch(model, tuple(entries))


def _join(step: TabStep, built: list[tuple[TabStep, set[Index]]]) -> None:
    """Give step its children, the subtrees on top of built, and replace
    them by the step's own subtree and the set of the entries above it
    that the subtree uses.  A step that creates no entry in use is
    dropped, and its child closes the branch alone; so is a split whose
    right subtree does not use the right entry, as its left subtree uses
    the left one (prove skipped the split otherwise).  A single child's
    set is updated in place, and at a split the larger set takes in the
    smaller, so no step copies a set."""
    if step.rule == "orF":
        if step.created[1].index not in built[-1][1]:
            built[-2:] = built[-1:]
            return
        kids = (built[-2][0], built[-1][0])
        used, other = built[-2][1], built.pop()[1]
        if len(used) < len(other):
            used, other = other, used
        used |= other
    else:
        child, used = built[-1]
        if not any(e.index in used for e in step.created):
            return
        kids = (child,)
    for e in step.created:
        used.discard(e.index)
    used.add(step.source.index)
    if step.rule == "boxF":
        # the entry (lind D) that diamond D, the aux, made the world with
        used.add(Lind(step.created[0].index.right))
    built[-1] = (TabStep(step.rule, step.source, step.created, step.target, children=kids), used)


def prove(theorem: ModalFormula,
          max_steps: int = DEFAULT_MAX_TABLEAU_STEPS) -> ClosedTableau | OpenBranch:
    """Refute the negation of theorem.  A ClosedTableau means theorem is
    K-valid; an OpenBranch carries the first countermodel found, verified.
    One stack holds the branches to expand, left first, and the steps
    waiting for their children; a split waits with its right branch
    until its left subtree is built.  Each built subtree carries the
    indexes of the entries above it that it uses (see _join), and a
    split whose left subtree does not use the left entry is skipped: that
    subtree closes the branch alone, and the right branch is never
    expanded.  Each step on a branch counts against max_steps, and the
    search raises StepBudgetExceeded past it."""
    root = PrefixedFormula(ROOT_WORLD, negate_nnf(theorem), (), EIND)
    prover = _Prover()
    built: list[tuple[TabStep, set[Index]]] = []
    todo: list = [([root], frozenset())]
    steps = 0
    while todo:
        item = todo.pop()
        if type(item[0]) is TabStep:
            step, right = item
            if right is None:
                _join(step, built)
            elif step.created[0].index in built[-1][1]:
                todo += [(step, None), right]
            continue
        steps += 1
        if steps > max_steps:
            raise StepBudgetExceeded(f"proof search gave up after {max_steps} tableau steps")
        found = prover.step(*item)
        if isinstance(found, OpenBranch):
            return found
        step, branches = found
        if step.rule == "close":
            neg, pos = step.closing
            built.append((step, {neg.index, pos.index}))
            continue
        todo.append((step, branches[1] if len(branches) == 2 else None))
        todo.append(branches[0])
    return ClosedTableau(theorem, root, built[0][0])


# ---------------------------------------------------------------------------
# certificate extraction from a closed tableau

class EmitError(ValueError):
    pass


def _decide_node(step: TabStep, _, kids: list[DecTree]) -> DecTree:
    if step.rule == "close":
        neg, pos = step.closing
        return DecTree(neg.index, pos.index, ())
    aux = step.created[0].index.right if step.rule == "boxF" else NONE
    return DecTree(step.source.index, aux, tuple(kids))


def emit_dectree(ct: ClosedTableau, theorem: ModalFormula | None = None) -> DecTree:
    """The refutation read as a decide tree on the theorem side: each
    step decides on its source entry's index (its dual rule: a split
    becomes a disjunctive or conjunctive decide, a diamond a universal,
    a box an existential whose aux names the diamond that made its
    world), and a closed branch is a leaf on its (negative, positive)
    literal pair.  A theorem given must be the tableau's, or print alike."""
    if (theorem is not None and theorem is not ct.theorem
            and format_formula(theorem) != format_formula(ct.theorem)):
        raise EmitError("tableau does not refute the negation of the given theorem")
    return fold(ct.step, None, {TabStep: (child_kids, _decide_node)}, "tableau")


def emit_fitcert(ct: ClosedTableau, theorem: ModalFormula | None = None) -> FitCert:
    return FitCert.load(emit_dectree(ct, theorem))


def emit_simpfitcert(ct: ClosedTableau, theorem: ModalFormula | None = None) -> SimpfitCert:
    return distill(emit_dectree(ct, theorem))


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
