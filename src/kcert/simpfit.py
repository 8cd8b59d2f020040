"""Essential-evidence certificates: closures and box instantiations only.

Instead of a full decide tree, this format carries just two relations
extracted from a refutation: which pairs of storage indexes close a
branch, and which universal each existential borrows its witness world
from.  The checker reconstructs the decide structure itself, searching
depth-first; a use-token multiset meters the decides so the search
always terminates.

Tokens are granted once per stored decidable formula and once more per
consumed box instantiation, so a certificate can make one diamond fire
at several successor worlds by listing its index in several boxinfo
entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable

from .fittings import Bind, EIND, Index, Lind, NONE, Rind
from .formulas import NAtom, PolarizedFormula, Term, is_rel_literal
from .kernel import Fpc


@dataclass(frozen=True, slots=True)
class Closure:
    """Complementary pair of storage indexes allowed to close a branch:
    left is the positive literal decided on, right its stored complement."""

    left: Index
    right: Index

    def __str__(self) -> str:
        return f"(cl {self.left} {self.right})"


@dataclass(frozen=True, slots=True)
class BoxInfo:
    """One permitted instantiation: the existential at ex may use the
    eigenvariable introduced by the universal at univ."""

    ex: Index
    univ: Index

    def __str__(self) -> str:
        return f"(bi {self.ex} {self.univ})"


@dataclass(frozen=True, slots=True)
class SimpfitCert:
    """Checker-side state.  flag is 1 right after a decide, telling the
    first connective rule of the bipole to mint child indexes; pending
    carries indexes for upcoming stores; usable is the multiset of
    decide tokens still available."""

    flag: int
    pending: tuple[Index, ...]
    closures: tuple[Closure, ...]
    boxinfos: tuple[BoxInfo, ...]
    eigmap: tuple[tuple[Index, Term], ...]
    usable: tuple[Index, ...]
    # the FPC that reads this format; set once SIMPFIT exists
    fpc: ClassVar[Fpc]

    @staticmethod
    def load(closures: Iterable[Closure], boxinfos: Iterable[BoxInfo]) -> SimpfitCert:
        # seed one pending index so the entry formula is stored at eind
        return SimpfitCert(1, (EIND,), tuple(closures), tuple(boxinfos), (), ())


def _drop_at(items: tuple, pos: int) -> tuple:
    return items[:pos] + items[pos + 1:]


def _state(cert: SimpfitCert, flag: int, pending: tuple[Index, ...],
           usable: tuple[Index, ...]) -> SimpfitCert:
    """cert with a new flag, pending indexes and tokens."""
    return SimpfitCert(flag, pending, cert.closures, cert.boxinfos, cert.eigmap, usable)


class SimpfitFpc(Fpc):
    """Reconstruct a proof guided only by closures and boxinfos."""

    def decide_e(self, cert: SimpfitCert) -> Iterable[tuple[object, object]]:
        # each distinct token once, spending its first occurrence; none
        # last, spending its token before the free decide
        usable = cert.usable
        seen = {NONE}
        for pos, token in enumerate(usable):
            if token not in seen:
                seen.add(token)
                yield token, _state(cert, 1, (token,), _drop_at(usable, pos))
        if NONE in usable:
            yield NONE, _state(cert, 1, (NONE,), _drop_at(usable, usable.index(NONE)))
        yield NONE, _state(cert, 1, (NONE,), usable)

    def release_e(self, cert: SimpfitCert) -> Iterable[object]:
        yield cert

    def store_c(self, cert: SimpfitCert,
                formula: PolarizedFormula) -> Iterable[tuple[object, object]]:
        if is_rel_literal(formula):
            yield NONE, _state(cert, 0, cert.pending, cert.usable)
        elif cert.pending:
            head, rest = cert.pending[0], cert.pending[1:]
            if isinstance(formula, NAtom):
                # negative literals can never be decided on: no token
                yield head, _state(cert, 0, rest, cert.usable)
            else:
                yield head, _state(cert, 0, rest, (head,) + cert.usable)

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
        if cert.flag == 1 and len(cert.pending) == 1:
            i = cert.pending[0]
            yield (_state(cert, 0, (Lind(i),), cert.usable),
                   _state(cert, 0, (Rind(i),), cert.usable))
        elif cert.flag == 0:
            yield cert, cert

    def all_c(self, cert: SimpfitCert) -> Iterable[Callable[[Term], object]]:
        if len(cert.pending) != 1:
            return
        i = cert.pending[0]

        def bind_eigen(eigen: Term) -> SimpfitCert:
            return SimpfitCert(0, (Lind(i),), cert.closures, cert.boxinfos,
                               ((i, eigen),) + cert.eigmap, cert.usable)

        yield bind_eigen

    def andpos_e(self, cert: SimpfitCert) -> Iterable[tuple[object, object]]:
        both = _state(cert, 0, cert.pending, cert.usable)
        yield both, both

    def some_e(self, cert: SimpfitCert) -> Iterable[tuple[Term, object]]:
        if len(cert.pending) != 1:
            return
        i = cert.pending[0]
        for key, eigen in cert.eigmap:
            for pos, info in enumerate(cert.boxinfos):
                if info.ex is i and info.univ is key:
                    # consume the instantiation but hand back a decide
                    # token, so the same diamond may fire again under a
                    # different boxinfo entry
                    yield eigen, SimpfitCert(
                        0, (Bind(i, key),), cert.closures,
                        _drop_at(cert.boxinfos, pos), cert.eigmap, (i,) + cert.usable)


SIMPFIT = SimpfitFpc()
SimpfitCert.fpc = SIMPFIT
