"""Prefixed tableau prover for K, Kripke semantics, and certificate
extraction.

The prover refutes the negation of a candidate theorem with a prefixed
tableau: nodes are world-prefixed formulas, worlds are dotted sequences
of integers, and the accessibility relation is exactly prefix extension.
The prover gives each world a number when a diamond step makes it, and
keeps each world's parent once per proof, so no step builds a prefix: a
prefix is built only for a countermodel, from the parents.  The search
builds nothing that only a certificate needs: an entry is a world, a
formula and its place in the formula, and a step is a plain record that
becomes a TabStep once its subtree closes.  The storage indexes the
kernel gives the entries are derived from a closed tableau alone, as it
is read off as a decide tree, from which the essential certificate is
distilled.  A saturated open branch yields a finite countermodel which
is verified against the semantics before being reported.  The bounded
validity oracle searches for a countermodel on its own, without the
prover's rules, but names its worlds by prefix too: both read their
model off a prefix-keyed valuation, the edges going from each prefix to
its extensions by one, and verify it the same way.

The expansion order is deterministic: branch closure is checked first,
then conjunctive and disjunctive entries, then each diamond (once per
branch, creating a fresh child world), then each box against each child
world already present.  Within a rule class, candidates are ordered by
their descent path in the original formula (left before right), then by
prefix, then by age.  Two candidates on one descent path sit at worlds
of one depth, and only box propagations meet on one across worlds: the
splits waiting on a branch are all at one world, and the diamonds at
worlds each made from a different diamond.  Such a tie is broken by
walking the two worlds' parent chains up to a common parent, as world
numbers need not follow prefixes: a cousin can be made before a world's
later child.  Certificate emission relies on this determinism only for
reproducibility, not for correctness.

A step finds its closure, split or diamond without rescanning the
branch (the agendas and closure detection of Horrocks and
Patel-Schneider, "Optimizing description logic subsumption", 1999).
Each branch indexes its literals by world number and atom name, so only
the entries the last step added are probed for a complement, and keeps
the splits and the diamonds not yet expanded on one heap in rule order,
its agenda.  A step extends its branch in place, and a split forks a
copy of that state for its right side.  A box propagation still scans
the branch, each box against each world on it, and takes a world whose
parent is the box's world; boxes are not on the agenda yet.  An entry's
descent path is kept as its place in the formula in preorder, a number,
which orders as the path does.

A closed subtree keeps the set of the entries above it that it uses, by
identity: a closure uses its two literals, and a step that creates an
entry in use uses its source and, for a box propagation, the entry the
diamond step that made its target world added there
(dependency-directed backtracking, after the same paper).
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
from heapq import heappop, heappush
from typing import Mapping

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

# the step budget of every proof search that names none: about fifty times
# the largest search in the tests and the benchmark (3,003 steps, the
# 3,000-long disjunct chain of TestDeepProofs), and a hundred times
# taut(512)'s 1,535, the largest when it was set
DEFAULT_MAX_TABLEAU_STEPS = 153_500

ROOT_WORLD: Prefix = (1,)


def format_prefix(prefix: Prefix) -> str:
    return ".".join(str(n) for n in prefix)


# ---------------------------------------------------------------------------
# negation and size of modal formulas

def _negated_split(cls: type):
    def build(a, lefts: dict[int, int], values: list) -> tuple:
        (left, n), (right, m) = values
        split = cls(left, right)
        lefts[id(split)] = n
        return split, 1 + n + m
    return build


# each value is the negated node and its number of nodes; a split's
# left side's number is also kept in the context, keyed by the split's id
_NEGATE = {
    PosAtom: (no_kids, lambda a, _, __: (NegAtom(a.name), 1)),
    NegAtom: (no_kids, lambda a, _, __: (PosAtom(a.name), 1)),
    And: (both_kids, _negated_split(Or)),
    Or: (both_kids, _negated_split(And)),
    Box: (body_kid, lambda a, _, v: (Dia(v[0][0]), 1 + v[0][1])),
    Dia: (body_kid, lambda a, _, v: (Box(v[0][0]), 1 + v[0][1])),
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
    return _negate_sized(a)[0]


def _negate_sized(a: ModalFormula) -> tuple[ModalFormula, dict[int, int]]:
    """negate_nnf(a), and the number of nodes of each split's left side
    in it, keyed by the split's id, so the negation must outlive the
    table."""
    lefts: dict[int, int] = {}
    return fold(a, lefts, _NEGATE, "modal")[0], lefts


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


def _tree_model(val: dict[Prefix, frozenset[str]], goal: ModalFormula) -> KripkeModel:
    """The model on val's worlds, each world the successor of the world
    named by its prefix less its last number, verified to satisfy goal
    at the root world."""
    worlds = frozenset(val)
    rel = frozenset((w[:-1], w) for w in worlds if w[:-1] in worlds)
    model = KripkeModel(worlds, rel, val)
    if not eval_modal(model, ROOT_WORLD, goal):
        raise RuntimeError("a countermodel fails the goal it was built for")
    return model


# ---------------------------------------------------------------------------
# prefixed tableaux


@dataclass(frozen=True, eq=False, slots=True)
class PrefixedFormula:
    """A tableau entry.  Entries compare and hash by identity: the same
    formula at the same world, made on two branches, is two entries.  An
    entry does not carry its storage index, the name the kernel gives it
    on the theorem side: that follows from the steps that made it, and
    emit_dectree derives it only for a closed tableau."""

    # the number of the formula's world: the root world is 0, and each
    # diamond step numbers the world it makes next, counting over the
    # whole proof; the prefix it names is built only for a countermodel
    world: int
    body: ModalFormula
    # the place of body in the root formula, counted in preorder, left
    # before right: the order of the "L"/"R" descent paths from the
    # root; drives rule ordering
    origin: int


@dataclass(frozen=True)
class TabStep:
    """One expansion step.  rule is andF/orF/diaF/boxF/close; created
    lists the entries the step adds; target numbers the world a diaF
    creates or a boxF reuses; closing holds the (negative literal,
    positive literal) pair ending a branch."""

    rule: str
    source: PrefixedFormula | None
    created: tuple[PrefixedFormula, ...] = ()
    target: int | None = None
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
    # the prefix of each world on the branch, by number: the model's
    # name for it
    prefixes: Mapping[int, Prefix]


# the rule classes of a branch's agenda, in the order they are expanded
_SPLIT, _DIAMOND = 0, 1


class _Branch:
    """A branch's entries, and what a step needs of them without a scan:
    - literals: the first negative and the first positive literal stored
      at each (world number, atom name), kept apart by polarity;
    - closing: the closure the latest entries made, if any;
    - agenda: the splits and the diamonds not yet expanded, one heap of
      (rule class, origin, world number, position) in rule order, every
      split before any diamond;
    - done: the (position, world number) pairs of the box propagations
      made.
    A world is a number: its parent, the entry its diamond made and its
    children are kept once per proof, by _Prover, and its prefix is
    built only for a countermodel.  Nothing here finds a box
    propagation: _Prover._pick_box still scans each box entry against
    each world on the branch."""

    __slots__ = ("entries", "literals", "closing", "agenda", "done")

    def __init__(self, root: PrefixedFormula) -> None:
        self.entries: list[PrefixedFormula] = []
        self.literals: tuple[dict, dict] = ({}, {})
        self.closing: tuple[PrefixedFormula, PrefixedFormula] | None = None
        self.agenda: list[tuple[int, int, int, int]] = []
        self.done: set[tuple[int, int]] = set()
        self.add(root)

    def fork(self) -> _Branch:
        """A copy to take the other side of a split, made before either
        side adds its entry."""
        other = object.__new__(_Branch)
        other.entries = self.entries.copy()
        other.literals = (self.literals[0].copy(), self.literals[1].copy())
        other.closing = None
        other.agenda = self.agenda.copy()
        other.done = self.done.copy()
        return other

    def add(self, e: PrefixedFormula) -> None:
        """Store e.  Entries before it close no branch, or it would have
        closed, so a literal closes the branch only with a complement
        stored before it: the first such literal added, paired with its
        complement's first occurrence, is the closure."""
        pos = len(self.entries)
        self.entries.append(e)
        body = e.body
        if isinstance(body, (PosAtom, NegAtom)):
            key = (e.world, body.name)
            positive = isinstance(body, PosAtom)
            other = self.literals[not positive].get(key)
            if other is not None and self.closing is None:
                self.closing = (other, e) if positive else (e, other)
            self.literals[positive].setdefault(key, e)
        elif isinstance(body, (And, Or)):
            heappush(self.agenda, (_SPLIT, e.origin, e.world, pos))
        elif isinstance(body, Dia):
            heappush(self.agenda, (_DIAMOND, e.origin, e.world, pos))


class _Prover:
    def __init__(self, lefts: dict[int, int]) -> None:
        # a right split's place is past the nodes of its left sibling,
        # counted by _negate_sized
        self.lefts = lefts
        # by world number: its parent (the root has none), the entry the
        # diamond step that made it added there, which a box propagated
        # there uses, as it borrows that diamond's eigenvariable, and the
        # worlds made from it, in order, the n-th named by its parent's
        # prefix and n.  Every branch through a world shares them, as
        # world numbering is global: a later branch continues where an
        # earlier one left off
        self.parent: list[int] = [-1]
        self.maker: list[PrefixedFormula | None] = [None]
        self.children: list[list[int]] = [[]]

    def step(self, branch: _Branch) -> tuple[tuple, list[_Branch]] | OpenBranch:
        """The next step on branch, and the branches it leaves, left
        first.  The step is a plain record of TabStep's fields but its
        children, (rule, source, created, target, closing): _join makes
        the TabStep once the step's subtree has closed, and no step
        names a storage index, so a search that ends on an open branch
        builds no index, and a TabStep only for a subtree that closed
        on the way.  The closure is the one the branch's literal
        index found when the last step added its entries, and the split
        or the diamond is the least on the branch's agenda; only a box
        propagation scans the branch.  A step extends branch in place,
        and a split takes a fork of it for its right side."""
        if branch.closing is not None:
            return ("close", None, (), None, branch.closing), []

        if branch.agenda:
            rule_class, _, _, pos = heappop(branch.agenda)
            e = branch.entries[pos]
            body = e.body
            if rule_class == _DIAMOND:
                target = len(self.parent)
                child = PrefixedFormula(target, body.body, e.origin + 1)
                self.parent.append(e.world)
                self.maker.append(child)
                self.children.append([])
                self.children[e.world].append(target)
                branch.add(child)
                return ("diaF", e, (child,), target, None), [branch]
            left = PrefixedFormula(e.world, body.left, e.origin + 1)
            right = PrefixedFormula(e.world, body.right, e.origin + 1 + self.lefts[id(body)])
            if isinstance(body, And):
                branch.add(left)
                branch.add(right)
                return ("andF", e, (left, right), None, None), [branch]
            other = branch.fork()
            branch.add(left)
            other.add(right)
            return ("orF", e, (left, right), None, None), [branch, other]

        box_cand = self._pick_box(branch.entries, branch.done)
        if box_cand is not None:
            pos, target = box_cand
            e = branch.entries[pos]
            child = PrefixedFormula(target, e.body.body, e.origin + 1)
            branch.done.add((pos, target))
            branch.add(child)
            return ("boxF", e, (child,), target, None), [branch]

        return self._open(branch.entries)

    def _pick_box(self, entries: list[PrefixedFormula], done: set) -> tuple[int, int] | None:
        """The first box propagation not yet made on the branch, in rule
        order, as the box entry's position and the world: each box entry
        against each world on the branch whose parent is the box's world."""
        parent = self.parent
        worlds = {e.world for e in entries}
        cands = [(e.origin, target, pos)
                 for pos, e in enumerate(entries) if isinstance(e.body, Box)
                 for target in worlds
                 if parent[target] == e.world and (pos, target) not in done]
        if not cands:
            return None
        origin, target, pos = min(cands)
        # on a tie in origin, the world whose prefix comes first: world
        # numbers count in the order worlds were made, and a cousin can be
        # made before a world's later child
        for o, t, p in cands:
            if o == origin and (p < pos if t == target else self._before(t, target)):
                target, pos = t, p
        return pos, target

    def _before(self, a: int, b: int) -> bool:
        """Whether world a's prefix comes before world b's, for two worlds
        of one depth: siblings are numbered in the order of their prefixes,
        so walk both parent chains up to the first common parent."""
        parent = self.parent
        while parent[a] != parent[b]:
            a, b = parent[a], parent[b]
        return a < b

    def _open(self, entries: list[PrefixedFormula]) -> OpenBranch:
        # one pass: every world on the branch is a world of the model,
        # true at it exactly the positive atoms stored there, named by
        # its prefix; a parent is numbered before its children
        atoms: dict[int, set[str]] = {}
        for e in entries:
            here = atoms.setdefault(e.world, set())
            if isinstance(e.body, PosAtom):
                here.add(e.body.name)
        prefixes = {0: ROOT_WORLD}
        for w in sorted(atoms):
            for n, child in enumerate(self.children[w], start=1):
                if child in atoms:
                    prefixes[child] = prefixes[w] + (n,)
        val = {prefixes[w]: frozenset(names) for w, names in atoms.items()}
        return OpenBranch(_tree_model(val, entries[0].body), tuple(entries), prefixes)


def _join(step: tuple, built: list[tuple[TabStep, set[PrefixedFormula]]],
          maker: list[PrefixedFormula | None]) -> None:
    """Make step, a record from _Prover.step, a TabStep whose children
    are the subtrees on top of built, and replace them by the step's own
    subtree and the set of the entries above it that the subtree uses.
    A step that creates no entry in use is dropped, and its child closes
    the branch alone; so is a split whose right subtree does not use the
    right entry, as its left subtree uses the left one (prove skipped the
    split otherwise).  A single child's set is updated in place, and at a
    split the larger set takes in the smaller, so no step copies a set."""
    rule, source, created, target, _ = step
    if rule == "orF":
        if created[1] not in built[-1][1]:
            built[-2:] = built[-1:]
            return
        kids = (built[-2][0], built[-1][0])
        used, other = built[-2][1], built.pop()[1]
        if len(used) < len(other):
            used, other = other, used
        used |= other
    else:
        child, used = built[-1]
        if not any(e in used for e in created):
            return
        kids = (child,)
    for e in created:
        used.discard(e)
    used.add(source)
    if rule == "boxF":
        # the entry the diamond that made the target world added there,
        # (lind D) for the aux D
        used.add(maker[target])
    built[-1] = (TabStep(*step, kids), used)


def prove(theorem: ModalFormula,
          max_steps: int = DEFAULT_MAX_TABLEAU_STEPS) -> ClosedTableau | OpenBranch:
    """Refute the negation of theorem.  A ClosedTableau means theorem is
    K-valid; an OpenBranch carries the first countermodel found, verified.
    One stack holds the branches to expand, left first, and the steps
    waiting for their children; a split waits with its right branch, a
    copy of the branch state taken at the split (see _Branch), until its
    left subtree is built.  Each built subtree carries the entries above
    it that it uses (see _join), and a split whose left subtree does not
    use the left entry is skipped: that subtree closes the branch alone,
    and the right branch is never expanded.  Each step on a branch counts
    against max_steps, and the search raises StepBudgetExceeded past it."""
    body, lefts = _negate_sized(theorem)
    root = PrefixedFormula(0, body, 0)
    prover = _Prover(lefts)
    built: list[tuple[TabStep, set[PrefixedFormula]]] = []
    todo: list = [_Branch(root)]
    steps = 0
    while todo:
        item = todo.pop()
        if type(item) is tuple:
            step, right = item
            if right is None:
                _join(step, built, prover.maker)
            elif step[2][0] in built[-1][1]:  # the split's left entry is in use
                todo += [(step, None), right]
            continue
        steps += 1
        if steps > max_steps:
            raise StepBudgetExceeded(f"proof search gave up after {max_steps} tableau steps")
        found = prover.step(item)
        if isinstance(found, OpenBranch):
            return found
        step, branches = found
        if step[0] == "close":
            # a closure uses its two literals
            built.append((TabStep(*step), set(step[4])))
            continue
        todo.append((step, branches[1] if len(branches) == 2 else None))
        todo.append(branches[0])
    return ClosedTableau(theorem, root, built[0][0])


# ---------------------------------------------------------------------------
# certificate extraction from a closed tableau

class EmitError(ValueError):
    pass


def emit_dectree(ct: ClosedTableau, theorem: ModalFormula | None = None) -> DecTree:
    """The refutation read as a decide tree on the theorem side: each
    step decides on its source entry's index (its dual rule: a split
    becomes a disjunctive or conjunctive decide, a diamond a universal,
    a box an existential whose aux names the diamond that made its
    world), and a closed branch is a leaf on its (negative, positive)
    literal pair.  A theorem given must be the tableau's, or print alike.

    The prover names no index, so the walk derives them top-down: the
    root is eind, and a step names the entries it creates from its
    source's index, (lind I) and (rind I) for a split, (lind I) for a
    diamond, and (bind I D) for a box propagated into the world diamond
    D made.  Every entry and world a step names was made by a step above
    it, and fold visits a step before its children, on an explicit
    stack, so no proof is too deep to emit."""
    if (theorem is not None and theorem is not ct.theorem
            and format_formula(theorem) != format_formula(ct.theorem)):
        raise EmitError("tableau does not refute the negation of the given theorem")
    # by entry, its storage index; by world number, the index of the
    # diamond that made the world
    index: dict[PrefixedFormula, Index] = {ct.root: EIND}
    made_by: dict[int, Index] = {}

    def name_created(step: TabStep, _) -> list:
        rule, created = step.rule, step.created
        if rule != "close":
            source = index[step.source]
            if rule == "boxF":
                index[created[0]] = Bind(source, made_by[step.target])
            else:
                index[created[0]] = Lind(source)
                if rule == "diaF":
                    made_by[step.target] = source
                else:
                    index[created[1]] = Rind(source)
        return child_kids(step, None)

    def decide(step: TabStep, _, kids: list[DecTree]) -> DecTree:
        if step.rule == "close":
            neg, pos = step.closing
            return DecTree(index[neg], index[pos], ())
        aux = made_by[step.target] if step.rule == "boxF" else NONE
        return DecTree(index[step.source], aux, tuple(kids))

    return fold(ct.step, None, {TabStep: (name_created, decide)}, "tableau")


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
    depth and branching bounded by the number of diamonds, so a depth-
    first search of the finite space of candidate tree models, stopping
    at the first that falsifies a, is a complete decision procedure.
    Deliberately independent of both the tableau prover and the kernel;
    capped to small formulas because the search is exponential."""
    if connective_count(a) > _ORACLE_CAP:
        raise ValueError(f"oracle capped at {_ORACLE_CAP} connectives")
    return find_countermodel(a) is None


def find_countermodel(a: ModalFormula) -> KripkeModel | None:
    """The first tree model found whose root falsifies a, or None."""
    goal = negate_nnf(a)
    val = _satisfy([goal], ROOT_WORLD)
    return None if val is None else _tree_model(val, goal)


def _satisfy(obligations: list[ModalFormula],
             here: Prefix) -> dict[Prefix, frozenset[str]] | None:
    """The valuation of the first tree model (up to the relevant atoms)
    whose world here satisfies every obligation, or None: the left
    disjunct is tried first, and the n-th diamond gets the world
    here + (n,).  Terminates: every child world's obligations have
    strictly smaller modal depth."""
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
            rest = queue + literals + boxes + dias
            return _satisfy([f.left] + rest, here) or _satisfy([f.right] + rest, here)
        elif isinstance(f, (PosAtom, NegAtom)):
            literals.append(f)
        elif isinstance(f, Box):
            boxes.append(f)
        elif isinstance(f, Dia):
            dias.append(f)
        else:
            raise TypeError(f"not a modal formula: {f!r}")

    positive = {f.name for f in literals if isinstance(f, PosAtom)}
    if any(isinstance(f, NegAtom) and f.name in positive for f in literals):
        return None
    val = {here: frozenset(positive)}
    for n, d in enumerate(dias, start=1):
        child = _satisfy([d.body] + [b.body for b in boxes], here + (n,))
        if child is None:
            return None
        val.update(child)
    return val
