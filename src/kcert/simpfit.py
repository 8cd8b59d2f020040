"""Essential-evidence certificates: closures and box instantiations only.

Instead of a full decide tree, this format carries just two relations
distilled from one (`distill`): which pairs of storage indexes close a
branch, and which universal each existential borrows its witness world
from.  The checker rebuilds the rest by committed saturation.  Every
tableau rule but closure is proof-confluent (Haehnle, "Tableaux and
related methods", 2001) and weakening is admissible in LKF (Liang and
Miller, TCS 2009), so a decide that only adds formulas to the branch
never has to be undone: only closures branch.

At each decide the certificate offers every closable literal: a stored
positive literal that a closure pairs with a negative literal stored on
the branch.  Each is a leaf that init closes or fails at once, and no
other literal could close, so the expert names only these
(decide-by-name, after Chihani, Miller and Renaud, JAR 2017).  Then it
commits to one expansion, the first of:

- the oldest existential with an unused boxinfo whose universal is
  already bound: a box propagation;
- the oldest delayed negative that does not split the branch: a
  disjunction, or a universal, which opens a new world;
- the oldest split with a premise, its lind or rind, that a closure
  pairs with a literal on the branch, so that the premise's branch
  closes at once: unit propagation, as in the KE tableaux of D'Agostino
  and Mondadori (J. Logic Comput. 1994);
- the oldest split.

Propagations and the expansions that do not split come first because
they only add formulas, so one made before a split serves every branch
below it.  On wide(n), n diamonds beside a box of an n-way conjunction,
the n propagations run once on the trunk and each conjunct's branch
then closes at once, with no token left to offer beside its literal:
the check takes linear steps and makes no choice point.  Splitting
first made every branch propagate again until its own diamond fired,
which took quadratic steps.  Among splits, the one that closes a branch
at once costs least; on php(3) taking it first cuts the search from
millions of steps to thousands.

A decide token is granted to each stored delayed negative and
existential whose index is relevant: an ancestor of some closure or
boxinfo index.  An expansion spends its token.  An existential gets its
token back, as the newest, while one of its boxinfos is left unused, so
each expansion uses up a token or a boxinfo and the search terminates;
a certificate makes one diamond fire at several successor worlds by
listing its index in several boxinfo entries, one per universal.  A
boxinfo listed twice is used once.

load indexes the evidence once, so that no step scans it, and numbers
each index a closure names and each universal a boxinfo names with a
bit.  A branch keeps its stored literals and bound universals as bit
sets, so a store updates them in an integer operation or two, and a
decide reads its closable literals off one conjunction.  The
eigenvariables a branch binds form a chain that each universal extends
without copying and newest_eigen reads; its tokens wait in three short
tuples that change only when a token is granted or spent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

from .fittings import (Bind, DecTree, EIND, Index, Lind, NONE, Rind, _new, is_rel_literal,
                       newest_eigen)
from .formulas import AndNeg, DelayPos, Exists, NAtom, PAtom, PolarizedFormula, Term
from .kernel import Fpc


@dataclass(frozen=True, slots=True)
class Closure:
    """Complementary pair of storage indexes allowed to close a branch:
    left is the positive literal decided on, right its stored complement."""

    left: Index
    right: Index


@dataclass(frozen=True, slots=True)
class BoxInfo:
    """One permitted instantiation: the existential at ex may use the
    eigenvariable introduced by the universal at univ."""

    ex: Index
    univ: Index


@dataclass(frozen=True, slots=True)
class Evidence:
    """A certificate's closures and boxinfos, indexed once by load so
    that no step scans them: relevant, the indexes that may get tokens;
    bit, one bit per index a closure names, and names, the index of each
    bit, lowest first; mates, for each such index, the bits of the
    indexes a closure pairs it with, either way round; premises, for
    each index whose lind or rind a closure names, the bits of those
    premises and the bits of their mates; universals, one bit per
    universal a boxinfo names; uses, each existential's boxinfos in
    order, as pairs (position, universal), each pair once.  Only the
    closures and boxinfos take part in equality."""

    closures: tuple[Closure, ...]
    boxinfos: tuple[BoxInfo, ...]
    relevant: frozenset[Index] = field(compare=False)
    bit: dict[Index, int] = field(compare=False)
    names: tuple[Index, ...] = field(compare=False)
    mates: dict[Index, int] = field(compare=False)
    premises: dict[Index, tuple[int, int]] = field(compare=False)
    universals: dict[Index, int] = field(compare=False)
    uses: dict[Index, tuple[tuple[int, Index], ...]] = field(compare=False)


class SimpfitCert(NamedTuple):
    """Checker-side state of one branch.  flag is 1 right after a
    decide, telling the first connective rule of the bipole to mint child
    indexes; pending carries indexes for upcoming stores; exists, delayed
    and splits hold the decide tokens of existentials, of delayed
    negatives that do not split and of those that do, oldest first;
    eigmap is the chain (universal, eigenvariable, rest) of the
    universals bound on the branch, newest first, or (); bound has the
    bit of each of them that a boxinfo names, and spent bit k once the
    branch has used boxinfos[k]; lits has the bit of each stored
    positive literal, and mated the mates of each stored negative one,
    so lits & mated are the closable literals.  Tuple-backed, and built
    by tuple.__new__ as FitCert is.  evidence is derived by load: give
    a certificate other evidence through load, not _replace.  fpc, the
    FPC that reads this format, is a class attribute set once SIMPFIT
    exists."""

    flag: int
    pending: tuple[Index, ...]
    exists: tuple[Index, ...]
    delayed: tuple[Index, ...]
    splits: tuple[Index, ...]
    eigmap: tuple
    bound: int
    spent: int
    lits: int
    mated: int
    evidence: Evidence

    @property
    def closures(self) -> tuple[Closure, ...]:
        return self.evidence.closures

    @property
    def boxinfos(self) -> tuple[BoxInfo, ...]:
        return self.evidence.boxinfos

    @staticmethod
    def load(closures: Iterable[Closure], boxinfos: Iterable[BoxInfo]) -> SimpfitCert:
        # seed one pending index so the entry formula is stored at eind
        return _new(SimpfitCert, (1, (EIND,), (), (), (), (), 0, 0, 0, 0,
                                  _evidence(tuple(closures), tuple(boxinfos))))


def _evidence(closures: tuple[Closure, ...], boxinfos: tuple[BoxInfo, ...]) -> Evidence:
    bit: dict[Index, int] = {}
    for cl in closures:
        for i in (cl.left, cl.right):
            bit.setdefault(i, 1 << len(bit))
    mates = dict.fromkeys(bit, 0)
    for cl in closures:
        mates[cl.left] |= bit[cl.right]
        mates[cl.right] |= bit[cl.left]
    premises: dict[Index, tuple[int, int]] = {}
    for i in bit:
        if isinstance(i, (Lind, Rind)):
            own, their = premises.get(i.sub, (0, 0))
            premises[i.sub] = (own | bit[i], their | mates[i])
    universals: dict[Index, int] = {}
    uses: dict[Index, dict[Index, int]] = {}  # the first position of each pair
    for k, info in enumerate(boxinfos):
        universals.setdefault(info.univ, 1 << len(universals))
        uses.setdefault(info.ex, {}).setdefault(info.univ, k)
    return Evidence(closures, boxinfos, _relevant(closures, boxinfos), bit, tuple(bit), mates,
                    premises, universals, {ex: tuple((k, univ) for univ, k in first.items())
                                           for ex, first in uses.items()})


def _relevant(closures: tuple[Closure, ...], boxinfos: tuple[BoxInfo, ...]) -> frozenset[Index]:
    """Every index a closure or boxinfo names, with its ancestors through
    the sub of lind and rind and both sides of bind: only these are ever
    decided on."""
    todo = [i for cl in closures for i in (cl.left, cl.right)]
    todo += [i for bi in boxinfos for i in (bi.ex, bi.univ)]
    seen: set[Index] = set()
    while todo:
        i = todo.pop()
        if i not in seen:
            seen.add(i)
            if isinstance(i, (Lind, Rind)):
                todo.append(i.sub)
            elif isinstance(i, Bind):
                todo += (i.left, i.right)
    return frozenset(seen)


def distill(tree: DecTree) -> SimpfitCert:
    """The essential evidence of a decide tree, in preorder: each leaf's
    pair as a closure and each node with an aux other than none as a
    boxinfo, each kept once: every premise gets its own copy of both."""
    closures: dict[Closure, None] = {}
    boxinfos: dict[BoxInfo, None] = {}
    stack = [tree]
    while stack:
        node = stack.pop()
        if not node.children:
            closures.setdefault(Closure(node.decide_on, node.aux))
        elif node.aux is not NONE:
            boxinfos.setdefault(BoxInfo(node.decide_on, node.aux))
        stack.extend(reversed(node.children))
    return SimpfitCert.load(closures, boxinfos)


def _next_use(ev: Evidence, ex: Index, spent: int, bound: int) -> tuple[int, Index] | None:
    """The first boxinfo of ex, as (position, universal), that the branch
    has not used and whose universal it has bound; None if there is none."""
    for k, univ in ev.uses.get(ex, ()):
        if not spent >> k & 1 and bound & ev.universals[univ]:
            return k, univ
    return None


def _expansion(cert: SimpfitCert) -> tuple[Index, SimpfitCert] | None:
    """The one expansion a decide commits to, with its token spent: the
    oldest ready box propagation, else the oldest delayed negative that
    does not split, else the oldest split with a premise that closes at
    once, else the oldest split."""
    _, _, exists, delayed, splits, eigmap, bound, spent, lits, mated, ev = cert
    for pos, token in enumerate(exists):
        if _next_use(ev, token, spent, bound):
            exists = exists[:pos] + exists[pos + 1:]
            break
    else:
        if delayed:
            token, delayed = delayed[0], delayed[1:]
        elif splits:
            pos = 0
            for k, i in enumerate(splits):
                own, their = ev.premises.get(i, (0, 0))
                if own & mated or their & lits:
                    pos = k
                    break
            token, splits = splits[pos], splits[:pos] + splits[pos + 1:]
        else:
            return None
    return token, _new(SimpfitCert, (1, (token,), exists, delayed, splits, eigmap, bound, spent,
                                     lits, mated, ev))


class SimpfitFpc(Fpc):
    """Reconstruct a proof guided only by closures and boxinfos, by
    committed saturation: offer every closable literal, commit to one
    expansion.  Each predicate answers with a tuple."""

    def decide_e(self, cert: SimpfitCert) -> tuple[tuple[object, object], ...]:
        offers = []
        closable, names, rest = cert.lits & cert.mated, cert.evidence.names, cert[2:]
        while closable:
            low = closable & -closable
            closable ^= low
            i = names[low.bit_length() - 1]
            offers.append((i, _new(SimpfitCert, (1, (i,)) + rest)))
        expansion = _expansion(cert)
        if expansion is not None:
            offers.append(expansion)
        return tuple(offers)

    def store_c(self, cert: SimpfitCert,
                formula: PolarizedFormula) -> tuple[tuple[object, object], ...]:
        if is_rel_literal(formula):
            return ((NONE, _new(SimpfitCert, (0,) + cert[1:])),)
        _, pending, exists, delayed, splits, eigmap, bound, spent, lits, mated, ev = cert
        if not pending:
            return ()
        head, kind = pending[0], type(formula)
        if kind is PAtom or kind is NAtom:
            mates = ev.mates.get(head)
            if mates is not None:
                if kind is PAtom:
                    lits |= ev.bit[head]
                else:
                    mated |= mates
        elif head in ev.relevant:
            if kind is Exists:
                exists += (head,)
            elif kind is DelayPos:
                if type(formula.body) is AndNeg:
                    splits += (head,)
                else:
                    delayed += (head,)
        return ((head, _new(SimpfitCert, (0, pending[1:], exists, delayed, splits, eigmap, bound,
                                          spent, lits, mated, ev))),)

    def initial_e(self, cert: SimpfitCert, index: object) -> bool:
        pending, ev = cert.pending, cert.evidence
        if not pending:
            return False
        return index is NONE or ev.mates.get(pending[0], 0) & ev.bit.get(index, 0) != 0

    def orneg_c(self, cert: SimpfitCert) -> tuple[object, ...]:
        if cert.flag == 1 and len(cert.pending) == 1:
            i = cert.pending[0]
            return (_new(SimpfitCert, (0, (Lind(i), Rind(i))) + cert[2:]),)
        if cert.flag == 0:
            return (cert,)
        return ()

    def andneg_c(self, cert: SimpfitCert) -> tuple[tuple[object, object], ...]:
        if len(cert.pending) != 1:
            return ()
        i, rest = cert.pending[0], cert[2:]
        return ((_new(SimpfitCert, (0, (Lind(i),)) + rest),
                 _new(SimpfitCert, (0, (Rind(i),)) + rest)),)

    def all_c(self, cert: SimpfitCert) -> tuple[Callable[[Term], object], ...]:
        _, pending, exists, delayed, splits, eigmap, bound, spent, lits, mated, ev = cert
        if len(pending) != 1:
            return ()
        i = pending[0]
        bound |= ev.universals.get(i, 0)

        def bind_eigen(eigen: Term) -> SimpfitCert:
            return _new(SimpfitCert, (0, (Lind(i),), exists, delayed, splits, (i, eigen, eigmap),
                                      bound, spent, lits, mated, ev))

        return (bind_eigen,)

    def some_e(self, cert: SimpfitCert) -> tuple[tuple[Term, object], ...]:
        _, pending, exists, delayed, splits, eigmap, bound, spent, lits, mated, ev = cert
        if len(pending) != 1:
            return ()
        i = pending[0]
        use = _next_use(ev, i, spent, bound)
        if use is None:
            return ()
        # use the first instantiation the branch allows, and hand the
        # token back while another boxinfo of i is left for later
        k, univ = use
        spent |= 1 << k
        if any(not spent >> j & 1 for j, _ in ev.uses[i]):
            exists += (i,)
        return ((newest_eigen(eigmap, univ),
                 _new(SimpfitCert, (0, (Bind(i, univ),), exists, delayed, splits, eigmap, bound,
                                    spent, lits, mated, ev))),)


SIMPFIT = SimpfitFpc()
SimpfitCert.fpc = SIMPFIT
