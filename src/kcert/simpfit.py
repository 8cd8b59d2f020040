"""Essential-evidence certificates: closures and box instantiations only.

Instead of a full decide tree, this format carries just two relations
distilled from one (`distill`): which pairs of storage indexes close a
branch, and which universal each existential borrows its witness world
from.  The checker rebuilds the rest by committed saturation.  Every
tableau rule but closure is proof-confluent (Haehnle, "Tableaux and
related methods", 2001) and weakening is admissible in LKF (Liang and
Miller, TCS 2009), so a decide that only adds formulas to the branch
never has to be undone: only closures branch.

A decide token is granted to each stored positive literal, delayed
negative and existential whose index is relevant: an ancestor of some
closure or boxinfo index.  At each decide the certificate offers every
literal token, each a leaf that closes or fails at once, and then
commits to one expansion: the oldest delayed negative (a split, or a
new world) or, when none is left, the oldest existential with a
boxinfo whose universal is already bound (a box propagation).  An
expansion spends its token.  An existential gets its token back, as
the newest, for the boxinfo it consumes, so each expansion uses up a
token or a boxinfo and the search terminates; a certificate makes one
diamond fire at several successor worlds by listing its index in
several boxinfo entries, one per universal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable

from .fittings import Bind, DecTree, EIND, Index, Lind, NONE, Rind, is_rel_literal
from .formulas import DelayPos, Exists, PAtom, PolarizedFormula, Term
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
class SimpfitCert:
    """Checker-side state.  flag is 1 right after a decide, telling the
    first connective rule of the bipole to mint child indexes; pending
    carries indexes for upcoming stores; usable holds the branch's
    decide tokens, oldest first, each a pair (class of the stored
    formula, index).  relevant, the indexes that may get tokens, is
    derived by load from the closures and boxinfos: give a certificate
    other evidence through load, not dataclasses.replace."""

    flag: int
    pending: tuple[Index, ...]
    closures: tuple[Closure, ...]
    boxinfos: tuple[BoxInfo, ...]
    eigmap: tuple[tuple[Index, Term], ...]
    usable: tuple[tuple[type, Index], ...]
    relevant: frozenset[Index]
    # the FPC that reads this format; set once SIMPFIT exists
    fpc: ClassVar[Fpc]

    @staticmethod
    def load(closures: Iterable[Closure], boxinfos: Iterable[BoxInfo]) -> SimpfitCert:
        closures, boxinfos = tuple(closures), tuple(boxinfos)
        # seed one pending index so the entry formula is stored at eind
        return SimpfitCert(1, (EIND,), closures, boxinfos, (), (),
                           _relevant(closures, boxinfos))


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


def _drop_at(items: tuple, pos: int) -> tuple:
    return items[:pos] + items[pos + 1:]


def _state(cert: SimpfitCert, flag: int, pending: tuple[Index, ...],
           usable: tuple[tuple[type, Index], ...]) -> SimpfitCert:
    """cert with a new flag, pending indexes and tokens."""
    return SimpfitCert(flag, pending, cert.closures, cert.boxinfos, cert.eigmap,
                       usable, cert.relevant)


# the classes of stored formula that get a decide token
_DECIDABLE = frozenset((PAtom, DelayPos, Exists))


class SimpfitFpc(Fpc):
    """Reconstruct a proof guided only by closures and boxinfos, by
    committed saturation: offer every literal, commit to one expansion."""

    def decide_e(self, cert: SimpfitCert) -> Iterable[tuple[object, object]]:
        usable = cert.usable
        # each distinct literal, none spent: init closes or fails at once
        seen = set()
        for kind, token in usable:
            if kind is PAtom and token not in seen:
                seen.add(token)
                yield token, _state(cert, 1, (token,), usable)
        # then one expansion, spending its token: the oldest delayed
        # negative, or else the oldest existential some_e can instantiate
        for pos, (kind, token) in enumerate(usable):
            if kind is DelayPos:
                yield token, _state(cert, 1, (token,), _drop_at(usable, pos))
                return
        bound = {key for key, _ in cert.eigmap}
        ready = {info.ex for info in cert.boxinfos if info.univ in bound}
        for pos, (kind, token) in enumerate(usable):
            if kind is Exists and token in ready:
                yield token, _state(cert, 1, (token,), _drop_at(usable, pos))
                return

    def store_c(self, cert: SimpfitCert,
                formula: PolarizedFormula) -> Iterable[tuple[object, object]]:
        if is_rel_literal(formula):
            yield NONE, _state(cert, 0, cert.pending, cert.usable)
        elif cert.pending:
            head, rest = cert.pending[0], cert.pending[1:]
            kind, usable = type(formula), cert.usable
            if kind in _DECIDABLE and head in cert.relevant:
                usable += ((kind, head),)
            yield head, _state(cert, 0, rest, usable)

    def initial_e(self, cert: SimpfitCert, index: object) -> bool:
        if not cert.pending:
            return False
        here = cert.pending[0]
        if index is NONE:
            return True
        return (Closure(here, index) in cert.closures
                or Closure(index, here) in cert.closures)

    def orneg_c(self, cert: SimpfitCert) -> Iterable[object]:
        if cert.flag == 1 and len(cert.pending) == 1:
            i = cert.pending[0]
            yield _state(cert, 0, (Lind(i), Rind(i)), cert.usable)
        elif cert.flag == 0:
            yield cert

    def andneg_c(self, cert: SimpfitCert) -> Iterable[tuple[object, object]]:
        if len(cert.pending) == 1:
            i = cert.pending[0]
            yield (_state(cert, 0, (Lind(i),), cert.usable),
                   _state(cert, 0, (Rind(i),), cert.usable))

    def all_c(self, cert: SimpfitCert) -> Iterable[Callable[[Term], object]]:
        if len(cert.pending) != 1:
            return
        i = cert.pending[0]

        def bind_eigen(eigen: Term) -> SimpfitCert:
            return SimpfitCert(0, (Lind(i),), cert.closures, cert.boxinfos,
                               ((i, eigen),) + cert.eigmap, cert.usable, cert.relevant)

        yield bind_eigen

    def some_e(self, cert: SimpfitCert) -> Iterable[tuple[Term, object]]:
        if len(cert.pending) != 1:
            return
        i = cert.pending[0]
        eigens = dict(reversed(cert.eigmap))
        for pos, info in enumerate(cert.boxinfos):
            if info.ex is i and info.univ in eigens:
                # consume the first usable instantiation and hand back
                # the token: the others stay for later decides
                yield eigens[info.univ], SimpfitCert(
                    0, (Bind(i, info.univ),), cert.closures, _drop_at(cert.boxinfos, pos),
                    cert.eigmap, cert.usable + ((Exists, i),), cert.relevant)
                return


SIMPFIT = SimpfitFpc()
SimpfitCert.fpc = SIMPFIT
