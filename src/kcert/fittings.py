"""Exact-replay certificates: a full decide tree plus an index algebra.

Storage indexes name subformula occurrences by the path that created
them: the entry formula is eind, the subformulas of a stored conjunction
or disjunction at I live at (lind I) and (rind I), the body of a
universal at I lives at (lind I), and the instantiated body of an
existential at I paired with the universal O it borrows its world from
lives at (bind I O).  Accessibility literals are all stored at none,
and only they are, so a literal stored at none closes any branch.

A decide tree records one decide per node: the index to decide on, an
auxiliary index (the closing complement for a leaf, the eigenvariable
donor for an existential), and the child decides.  Checking never has to
search: each clerk answers once or refuses, as every FPC's clerks do,
and each expert at most once: a decide names the tree node's index, and
an existential borrows its donor's newest eigenvariable.  So replay
never makes a choice point.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import NamedTuple

from .formulas import NAtom, PAtom, PolarizedFormula, REL, Term
from .kernel import Fpc


# ---------------------------------------------------------------------------
# indexes
#
# Indexes are hash-consed: eind and none are singletons, and lind, rind
# and bind look their arguments up in a weak-valued table per class, so
# two equal indexes are always the same object.  Equality and hashing
# are therefore identity, O(1) however deep the index.  A table entry
# goes away with the last index that uses it.


class Index:
    """Base of the immutable, hash-consed storage indexes."""

    __slots__ = ("__weakref__",)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    # copy.copy rebuilds through __reduce__, which interns, so it returns
    # the same object; deepcopy would first copy the arguments, one call
    # per level of the index
    def __deepcopy__(self, memo: dict) -> Index:
        return self

    def __repr__(self) -> str:
        return str(self)

    def __str__(self) -> str:
        # iterative, so printing never recurses on a deep index; a run
        # of lind/rind is written in one inner loop
        out: list[str] = []
        todo: list[Index | str] = [self]
        while todo:
            node = todo.pop()
            if type(node) is str:
                out.append(node)
                continue
            closers = 0
            while type(node) is Lind or type(node) is Rind:
                out.append("(lind " if type(node) is Lind else "(rind ")
                closers += 1
                node = node.sub
            if closers:
                todo.append(")" * closers)
            if type(node) is Bind:
                out.append("(bind ")
                todo += (")", node.right, " ", node.left)
            else:
                out.append("eind" if node is EIND else "none")
        return "".join(out)


class _Ref(weakref.ref):
    """A weak reference that remembers its intern-table key."""

    __slots__ = ("key",)


def _interned(cls: type) -> type:
    """Give an index class its weak-valued intern table and a register
    function that enters a new instance under its key."""
    table: dict[object, _Ref] = {}

    def forget(ref: _Ref) -> None:
        if table.get(ref.key) is ref:
            del table[ref.key]

    def register(key: object, obj: Index) -> Index:
        ref = table[key] = _Ref(obj, forget)
        ref.key = key
        return obj

    cls._table = table
    cls._register = staticmethod(register)
    return cls


class Eind(Index):
    __slots__ = ()

    def __new__(cls) -> Eind:
        return EIND

    def __reduce__(self) -> tuple:
        return Eind, ()


class NoIndex(Index):
    __slots__ = ()

    def __new__(cls) -> NoIndex:
        return NONE

    def __reduce__(self) -> tuple:
        return NoIndex, ()


class _Unary(Index):
    __slots__ = ("sub",)

    def __new__(cls, sub: Index) -> _Unary:
        ref = cls._table.get(sub)
        if ref is not None:
            found = ref()
            if found is not None:
                return found
        obj = object.__new__(cls)
        object.__setattr__(obj, "sub", sub)
        return cls._register(sub, obj)

    def __reduce__(self) -> tuple:
        return type(self), (self.sub,)


@_interned
class Lind(_Unary):
    __slots__ = ()


@_interned
class Rind(_Unary):
    __slots__ = ()


@_interned
class Bind(Index):
    __slots__ = ("left", "right")

    def __new__(cls, left: Index, right: Index) -> Bind:
        key = (left, right)
        ref = cls._table.get(key)
        if ref is not None:
            found = ref()
            if found is not None:
                return found
        obj = object.__new__(cls)
        object.__setattr__(obj, "left", left)
        object.__setattr__(obj, "right", right)
        return cls._register(key, obj)

    def __reduce__(self) -> tuple:
        return Bind, (self.left, self.right)


EIND = object.__new__(Eind)
NONE = object.__new__(NoIndex)


# ---------------------------------------------------------------------------
# decide trees

@dataclass(frozen=True, slots=True)
class DecTree:
    decide_on: Index
    aux: Index
    children: tuple[DecTree, ...] = ()


def child_kids(node, ctx) -> list:
    return [(child, ctx) for child in node.children]


# ---------------------------------------------------------------------------
# certificate state

class FitCert(NamedTuple):
    """Checker-side state: indexes waiting to be handed to stores, the
    decide (sub)tree still to replay, and the chain (universal,
    eigenvariable, rest) of the universals bound on the branch, newest
    first, or ().  Tuple-backed, so the FPC's answer at each step builds
    a plain tuple.  fpc, the FPC that reads this format, is a class
    attribute set once FITTINGS exists."""

    pending: tuple[Index, ...]
    tree: DecTree
    eigmap: tuple

    @staticmethod
    def load(tree: DecTree) -> FitCert:
        # seed one pending index so the entry formula is stored at eind
        return FitCert((EIND,), tree, ())


# a FitCert is built by tuple.__new__ itself, one C call, not through the
# Python-level __new__ that NamedTuple generates
_new = tuple.__new__


def newest_eigen(eigmap: tuple, universal: Index) -> Term | None:
    """The newest eigenvariable an eigmap chain binds universal to, or None."""
    while eigmap and eigmap[0] is not universal:
        eigmap = eigmap[2]
    return eigmap[1] if eigmap else None


def is_rel_literal(f: PolarizedFormula) -> bool:
    """Atom over the binary accessibility relation, either polarity."""
    return isinstance(f, (PAtom, NAtom)) and f.pred == REL and len(f.args) == 2


class FittingsFpc(Fpc):
    """Replay a decide tree, refusing every step the tree does not name.
    Each clerk answers bare, and each expert with a tuple of at most one
    alternative, which the kernel reads as it is."""

    def decide_e(self, cert: FitCert) -> tuple[tuple[object, object], ...]:
        # a translated entry is decided on with nothing pending
        pending, tree, eigmap = cert
        if pending:
            cert = _new(FitCert, ((), tree, eigmap))
        return ((tree.decide_on, cert),)

    def store_c(self, cert: FitCert, formula: PolarizedFormula) -> tuple[object, object] | None:
        if is_rel_literal(formula):
            return NONE, cert
        pending, tree, eigmap = cert
        if pending:
            return pending[0], _new(FitCert, (pending[1:], tree, eigmap))
        return None

    def initial_e(self, cert: FitCert, index: object) -> bool:
        return index is cert.tree.aux or index is NONE

    def orneg_c(self, cert: FitCert) -> FitCert | None:
        pending, tree, eigmap = cert
        if pending:
            return cert
        if tree.children:
            i = tree.decide_on
            return _new(FitCert, ((Lind(i), Rind(i)), tree.children[0], eigmap))
        return None

    def andneg_c(self, cert: FitCert) -> tuple[FitCert, FitCert] | None:
        _, tree, eigmap = cert
        if len(tree.children) >= 2:
            i = tree.decide_on
            left, right = tree.children[0], tree.children[1]
            return (_new(FitCert, ((Lind(i),), left, eigmap)),
                    _new(FitCert, ((Rind(i),), right, eigmap)))
        return None

    def all_c(self, cert: FitCert, eigen: Term) -> FitCert | None:
        _, tree, eigmap = cert
        if not tree.children:
            return None
        i = tree.decide_on
        return _new(FitCert, ((Lind(i),), tree.children[0], (i, eigen, eigmap)))

    def some_e(self, cert: FitCert) -> tuple[tuple[Term, object], ...]:
        _, tree, eigmap = cert
        eigen = newest_eigen(eigmap, tree.aux) if tree.children else None
        if eigen is None:
            return ()
        return ((eigen, _new(FitCert, ((Bind(tree.decide_on, tree.aux),), tree.children[0],
                                       eigmap))),)


FITTINGS = FittingsFpc()
FitCert.fpc = FITTINGS
