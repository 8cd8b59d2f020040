"""Shared test machinery.

Formula enumeration and random generation, certificate mutation, a
trace-shape checker, and an independent brute-force proof search used to
cross-examine the kernel on small instances.
"""

from __future__ import annotations

import dataclasses
import random
from functools import lru_cache
from typing import Iterator

from kcert.fittings import Bind, DecTree, FitCert, Index, Lind, Rind
from kcert.formulas import (
    And,
    AndNeg,
    AndPos,
    All,
    Box,
    DelayNeg,
    DelayPos,
    Dia,
    Eigen,
    Exists,
    ModalFormula,
    NAtom,
    NegAtom,
    Or,
    OrNeg,
    OrPos,
    PAtom,
    PolarizedFormula,
    PosAtom,
    W0,
    delay_if_negative,
    is_positive,
    open_binder,
    polarized_translation,
)
from kcert.kernel import Ev, Fpc, trace_paths
from kcert.simpfit import SimpfitCert
from kcert.tableau import KripkeModel, Prefix

ATOMS = ("p", "q")


# ---------------------------------------------------------------------------
# formula enumeration over {p, q}


def _leaves(atoms: tuple[str, ...]) -> tuple[ModalFormula, ...]:
    out: list[ModalFormula] = []
    for a in atoms:
        out.append(PosAtom(a))
        out.append(NegAtom(a))
    return tuple(out)


@lru_cache(maxsize=None)
def formulas_of_size(n: int) -> tuple[ModalFormula, ...]:
    """All NNF formulas over {p, q} with exactly n nodes."""
    if n < 1:
        return ()
    if n == 1:
        return _leaves(ATOMS)
    out: list[ModalFormula] = []
    for body in formulas_of_size(n - 1):
        out.append(Box(body))
        out.append(Dia(body))
    for k in range(1, n - 1):
        for left in formulas_of_size(k):
            for right in formulas_of_size(n - 1 - k):
                out.append(And(left, right))
                out.append(Or(left, right))
    return tuple(out)


@lru_cache(maxsize=None)
def formulas_of_connectives(c: int) -> tuple[ModalFormula, ...]:
    """All NNF formulas over {p, q} with exactly c connectives."""
    if c < 0:
        return ()
    if c == 0:
        return _leaves(ATOMS)
    out: list[ModalFormula] = []
    for body in formulas_of_connectives(c - 1):
        out.append(Box(body))
        out.append(Dia(body))
    for k in range(c):
        for left in formulas_of_connectives(k):
            for right in formulas_of_connectives(c - 1 - k):
                out.append(And(left, right))
                out.append(Or(left, right))
    return tuple(out)


def agreement_corpus() -> list[ModalFormula]:
    """The exhaustive sweep set: size <= 6 union connectives <= 3,
    deterministic order, no duplicates."""
    seen: dict[ModalFormula, None] = {}
    for n in range(1, 7):
        for f in formulas_of_size(n):
            seen.setdefault(f)
    for c in range(4):
        for f in formulas_of_connectives(c):
            seen.setdefault(f)
    return list(seen)


# ---------------------------------------------------------------------------
# seeded random formulas and models


def random_formula(rng: random.Random, max_size: int,
                   atoms: tuple[str, ...] = ("p", "q", "r")) -> ModalFormula:
    if max_size <= 1:
        name = rng.choice(atoms)
        return PosAtom(name) if rng.random() < 0.5 else NegAtom(name)
    shape = rng.randrange(6)
    if shape == 0:
        name = rng.choice(atoms)
        return PosAtom(name) if rng.random() < 0.5 else NegAtom(name)
    if shape == 1:
        return Box(random_formula(rng, max_size - 1, atoms))
    if shape == 2:
        return Dia(random_formula(rng, max_size - 1, atoms))
    budget = max_size - 1
    split = rng.randint(1, budget - 1) if budget > 1 else 1
    left = random_formula(rng, split, atoms)
    right = random_formula(rng, budget - split, atoms)
    return And(left, right) if shape < 5 else Or(left, right)


def random_model(rng: random.Random, max_worlds: int = 4,
                 atoms: tuple[str, ...] = ("p", "q", "r")) -> KripkeModel:
    """An arbitrary finite model: any relation shape, any valuation."""
    n = rng.randint(1, max_worlds)
    worlds: list[Prefix] = [(i,) for i in range(1, n + 1)]
    rel = frozenset((a, b) for a in worlds for b in worlds
                    if rng.random() < 0.4)
    val = {w: frozenset(a for a in atoms if rng.random() < 0.5)
           for w in worlds}
    return KripkeModel(frozenset(worlds), rel, val)


# ---------------------------------------------------------------------------
# certificate mutation


def _leaf_paths(tree: DecTree) -> list[tuple[int, ...]]:
    if not tree.children:
        return [()]
    out = []
    for i, kid in enumerate(tree.children):
        out.extend((i,) + p for p in _leaf_paths(kid))
    return out


def _replace_at(tree: DecTree, path: tuple[int, ...], node: DecTree) -> DecTree:
    if not path:
        return node
    head, rest = path[0], path[1:]
    kids = tuple(_replace_at(k, rest, node) if i == head else k
                 for i, k in enumerate(tree.children))
    return dataclasses.replace(tree, children=kids)


def _node_at(tree: DecTree, path: tuple[int, ...]) -> DecTree:
    for i in path:
        tree = tree.children[i]
    return tree


def leaf_aux_swaps(tree: DecTree) -> Iterator[DecTree]:
    """Every tree obtained by exchanging the aux indexes of two leaves."""
    paths = _leaf_paths(tree)
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            a, b = _node_at(tree, paths[i]), _node_at(tree, paths[j])
            if a.aux == b.aux:
                continue
            t = _replace_at(tree, paths[i], dataclasses.replace(a, aux=b.aux))
            t = _replace_at(t, paths[j], dataclasses.replace(b, aux=a.aux))
            yield t


def index_lr_flips(idx: Index) -> Iterator[Index]:
    """Every index obtained by flipping exactly one lind/rind constructor."""
    if isinstance(idx, Lind):
        yield Rind(idx.sub)
        for sub in index_lr_flips(idx.sub):
            yield Lind(sub)
    elif isinstance(idx, Rind):
        yield Lind(idx.sub)
        for sub in index_lr_flips(idx.sub):
            yield Rind(sub)
    elif isinstance(idx, Bind):
        for left in index_lr_flips(idx.left):
            yield Bind(left, idx.right)
        for right in index_lr_flips(idx.right):
            yield Bind(idx.left, right)


def _tree_positions(tree: DecTree) -> list[tuple[int, ...]]:
    out = [()]
    for i, kid in enumerate(tree.children):
        out.extend((i,) + p for p in _tree_positions(kid))
    return out


def dectree_lr_flips(tree: DecTree) -> Iterator[DecTree]:
    for path in _tree_positions(tree):
        node = _node_at(tree, path)
        for idx in index_lr_flips(node.decide_on):
            yield _replace_at(tree, path, dataclasses.replace(node, decide_on=idx))
        for idx in index_lr_flips(node.aux):
            yield _replace_at(tree, path, dataclasses.replace(node, aux=idx))


def fitcert_mutants(cert: FitCert) -> Iterator[tuple[str, FitCert]]:
    for tree in leaf_aux_swaps(cert.tree):
        yield "leaf-aux-swap", dataclasses.replace(cert, tree=tree)
    for tree in dectree_lr_flips(cert.tree):
        yield "lr-flip", dataclasses.replace(cert, tree=tree)


def simpfit_mutants(cert: SimpfitCert) -> Iterator[tuple[str, SimpfitCert]]:
    for i in range(len(cert.closures)):
        dropped = cert.closures[:i] + cert.closures[i + 1:]
        yield "drop-closure", dataclasses.replace(cert, closures=dropped)
    for i in range(len(cert.boxinfos)):
        dropped = cert.boxinfos[:i] + cert.boxinfos[i + 1:]
        yield "drop-boxinfo", dataclasses.replace(cert, boxinfos=dropped)
    for i, cl in enumerate(cert.closures):
        for idx in index_lr_flips(cl.left):
            cls = cert.closures[:i] + (dataclasses.replace(cl, left=idx),) + cert.closures[i + 1:]
            yield "lr-flip", dataclasses.replace(cert, closures=cls)
        for idx in index_lr_flips(cl.right):
            cls = cert.closures[:i] + (dataclasses.replace(cl, right=idx),) + cert.closures[i + 1:]
            yield "lr-flip", dataclasses.replace(cert, closures=cls)
    for i, bi in enumerate(cert.boxinfos):
        for idx in index_lr_flips(bi.ex):
            bis = cert.boxinfos[:i] + (dataclasses.replace(bi, ex=idx),) + cert.boxinfos[i + 1:]
            yield "lr-flip", dataclasses.replace(cert, boxinfos=bis)
        for idx in index_lr_flips(bi.univ):
            bis = cert.boxinfos[:i] + (dataclasses.replace(bi, univ=idx),) + cert.boxinfos[i + 1:]
            yield "lr-flip", dataclasses.replace(cert, boxinfos=bis)


def certificate_mutants(cert) -> Iterator[tuple[str, object]]:
    if isinstance(cert, FitCert):
        yield from fitcert_mutants(cert)
    else:
        yield from simpfit_mutants(cert)


# ---------------------------------------------------------------------------
# trace-shape checking


def bipole_violations(trace: tuple[Ev, ...]) -> list[str]:
    """Phase-discipline errors in an accepted trace, empty when clean.

    Checks, per root-to-leaf path: decide only outside a sync phase,
    release/init only inside one, async rules only outside, sync rules
    only inside, and nothing after the closing init.
    """
    out: list[str] = []
    for path in trace_paths(trace):
        sync = False
        closed = False
        for ev in path:
            if closed:
                out.append(f"event after closing rule: {ev}")
                break
            kind = ev.kind
            if kind == "decide":
                if sync:
                    out.append(f"decide inside a sync phase: {ev}")
                    break
                sync = True
            elif kind == "release":
                if not sync:
                    out.append("release outside a sync phase")
                    break
                sync = False
            elif kind == "init":
                if not sync:
                    out.append("init outside a sync phase")
                    break
                closed = True
            elif kind in ("store", "orneg", "andneg", "all"):
                if sync:
                    out.append(f"{kind} inside a sync phase")
                    break
            elif kind in ("andpos", "orpos", "some"):
                if not sync:
                    out.append(f"{kind} outside a sync phase")
                    break
            elif kind != "strip":
                out.append(f"unknown event kind: {kind}")
                break
        else:
            if not closed:
                out.append("path does not end in init")
    return out


# ---------------------------------------------------------------------------
# independent brute-force proof search
#
# A second, structurally different implementation of the same rule
# system: plain recursive try-everything search with a cache of already
# settled states.  Used to confirm that a kernel Reject really means no
# derivation exists for the certificate.


def entry_of(goal: ModalFormula) -> PolarizedFormula:
    return delay_if_negative(polarized_translation(goal, W0))


def brute_force_accepts(goal: ModalFormula, cert, fpc: Fpc) -> bool:
    memo: dict[object, bool] = {}

    def async_ok(wb, theta, cert, k) -> bool:
        key = ("a", wb, theta, cert, k)
        if key in memo:
            return memo[key]
        memo[key] = res = _async(wb, theta, cert, k)
        return res

    def _async(wb, theta, cert, k) -> bool:
        if not wb:
            for named, c2 in fpc.decide_e(cert):
                for idx, g in theta:
                    if idx == named and is_positive(g) and sync_ok(g, theta, c2, k):
                        return True
            return False
        f, rest = wb[0], wb[1:]
        if isinstance(f, OrNeg):
            return any(async_ok((f.left, f.right) + rest, theta, c2, k)
                       for c2 in fpc.orneg_c(cert))
        if isinstance(f, AndNeg):
            return any(async_ok((f.left,) + rest, theta, cl, k)
                       and async_ok((f.right,) + rest, theta, cr, k)
                       for cl, cr in fpc.andneg_c(cert))
        if isinstance(f, All):
            eig = Eigen(k)
            return any(async_ok((open_binder(f.body, eig),) + rest,
                                theta, cont(eig), k + 1)
                       for cont in fpc.all_c(cert))
        if isinstance(f, DelayNeg):
            return async_ok((f.body,) + rest, theta, cert, k)
        # positives and negated atoms are stored
        return any(async_ok(rest, theta + ((idx, f),), c2, k)
                   for idx, c2 in fpc.store_c(cert, f))

    def sync_ok(f, theta, cert, k) -> bool:
        key = ("s", f, theta, cert, k)
        if key in memo:
            return memo[key]
        memo[key] = res = _sync(f, theta, cert, k)
        return res

    def _sync(f, theta, cert, k) -> bool:
        if isinstance(f, AndPos):
            return any(sync_ok(f.left, theta, cl, k)
                       and sync_ok(f.right, theta, cr, k)
                       for cl, cr in fpc.andpos_e(cert))
        if isinstance(f, OrPos):
            return any(sync_ok(f.left if side == 1 else f.right, theta, c2, k)
                       for side, c2 in fpc.orpos_e(cert))
        if isinstance(f, Exists):
            return any(sync_ok(open_binder(f.body, t), theta, c2, k)
                       for t, c2 in fpc.some_e(cert))
        if isinstance(f, DelayPos):
            return sync_ok(f.body, theta, cert, k)
        if isinstance(f, PAtom):
            target = NAtom(f.pred, f.args)
            return any(g == target and fpc.initial_e(cert, idx)
                       for idx, g in theta)
        # focus on a negative: release
        return any(async_ok((f,), theta, c2, k)
                   for c2 in fpc.release_e(cert))

    return async_ok((entry_of(goal),), (), cert, 1)
