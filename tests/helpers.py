"""Shared test machinery.

Formula enumeration, the package's negation, connective count and
oracle search each on its own, the scalable families of
perfbench/families.py as formulas, random generation,
certificate mutation, a trace-shape checker, the first-order evaluator
and polarity stripping of the semantic bridge, a decide tree's node
count, and an independent brute-force proof search used to
cross-examine the kernel on small instances.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import random
import signal
import sys
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from kcert.firstorder import (
    FoAll,
    FoAnd,
    FoAtom,
    FoEx,
    FoFormula,
    FoImp,
    FoNeg,
    FoOr,
    format_formula,
)
from kcert.fittings import Bind, DecTree, EIND, FitCert, Index, Lind, NONE, Rind, child_kids
from kcert.formulas import (
    And,
    AndNeg,
    AndPos,
    All,
    Box,
    BVar,
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
    PAtom,
    PolarizedFormula,
    PosAtom,
    REL,
    Term,
    W0,
    body_kid,
    both_kids,
    delay_if_negative,
    fold,
    is_positive,
    no_kids,
    polarized_translation,
)
from kcert.kernel import Ev, Fpc
from kcert.problems import ProblemFile, parse_formula_text
from kcert.simpfit import BoxInfo, Closure, SimpfitCert
from kcert.tableau import (
    ClosedTableau,
    KripkeModel,
    Prefix,
    ROOT_WORLD,
    _negate,
    _satisfy,
    _tree_model,
    prove,
)

# the formula families are the benchmark's, perfbench/families.py
_PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if _PERFBENCH not in sys.path:
    sys.path.append(_PERFBENCH)

import families  # noqa: E402
from families import chain  # noqa: E402

ATOMS = ("p", "q")


# ---------------------------------------------------------------------------
# formula enumeration over {p, q}


def _leaves(atoms: tuple[str, ...]) -> tuple[ModalFormula, ...]:
    out: list[ModalFormula] = []
    for a in atoms:
        out.append(PosAtom(a))
        out.append(NegAtom(a))
    return tuple(out)


def modal_size(a: ModalFormula) -> int:
    """Number of syntax tree nodes; a literal counts as one node."""
    if isinstance(a, (PosAtom, NegAtom)):
        return 1
    if isinstance(a, (And, Or)):
        return 1 + modal_size(a.left) + modal_size(a.right)
    return 1 + modal_size(a.body)


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


@lru_cache(maxsize=None)
def family_proof(family, n: int) -> ClosedTableau:
    """The closed tableau of family(n), found once per session and at
    the default recursion limit: wide(64) takes about a second."""
    with recursion_limit(1000):
        return prove(family(n))


def agreement_corpus() -> list[ModalFormula]:
    """The exhaustive sweep set: size <= 6 union connectives <= 3,
    deterministic order, no duplicates.  Duplicates are found by printed
    text, which is one-to-one on formulas: the generated hash leaves out
    the class, so And/Or, Box/Dia and PosAtom/NegAtom over the same
    arguments collide, and a dict keyed by formula is slow."""
    seen: dict[str, ModalFormula] = {}
    for n in range(1, 7):
        for f in formulas_of_size(n):
            seen.setdefault(format_formula(f), f)
    for c in range(4):
        for f in formulas_of_connectives(c):
            seen.setdefault(format_formula(f), f)
    return list(seen.values())


@lru_cache(maxsize=None)
def corpus_proofs() -> tuple[tuple[ModalFormula, ClosedTableau], ...]:
    """The valid formulas of agreement_corpus(), in order, each with its
    closed tableau."""
    proofs = ((f, prove(f)) for f in agreement_corpus())
    return tuple((f, ct) for f, ct in proofs if isinstance(ct, ClosedTableau))


# ---------------------------------------------------------------------------
# the package's negation, connective count and oracle search, each on its
# own


def negate_nnf(a: ModalFormula) -> ModalFormula:
    """De Morgan negation, staying inside negation normal form."""
    return _negate(a)[0]


def connective_count(a: ModalFormula) -> int:
    return _negate(a)[1]


def find_countermodel(a: ModalFormula) -> KripkeModel | None:
    """The first tree model the oracle finds whose root falsifies a,
    verified, or None."""
    goal = negate_nnf(a)
    val = _satisfy([goal], ROOT_WORLD)
    return None if val is None else _tree_model(val, goal)


# ---------------------------------------------------------------------------
# scalable families, parsed from the benchmark's text (dia^n is n nested
# diamonds)


def taut(n: int) -> ModalFormula:
    """(a0 | ~a0) & ... & (a(n-1) | ~a(n-1))"""
    return parse_formula_text(families.taut(n))


def kchain(n: int) -> ModalFormula:
    """dia^n ~p | dia^n ~q | box^n (p & q)"""
    return parse_formula_text(families.kchain(n))


def wide(n: int) -> ModalFormula:
    """dia ~p0 | ... | dia ~p(n-1) | box (p0 & ... & p(n-1))"""
    return parse_formula_text(families.wide(n))


def kchain_bad(n: int) -> ModalFormula:
    """dia^n ~p | box^n (p & q), not valid"""
    return parse_formula_text(families.kchain_bad(n))


def wide_bad(n: int) -> ModalFormula:
    """dia ~p0 | ... | dia ~p(n-2) | box (p0 & ... & p(n-1)), not valid"""
    return parse_formula_text(families.wide_bad(n))


# hard families: the pigeonhole principle, purely propositional, with
# p{i}_{j} read as "pigeon i sits in hole j"


def _php_text(n: int, pigeons: int) -> str:
    # "one of the first pigeons is in no hole, or two of all n+1 share one
    # of n holes"
    nohole = chain("or", [chain("and", [f"(- p{i}_{j})" for j in range(n)])
                          for i in range(pigeons)])
    share = chain("or", [f"(and (+ p{i}_{j}) (+ p{k}_{j}))" for j in range(n)
                         for i in range(n + 1) for k in range(i + 1, n + 1)])
    return f"(or {nohole} {share})"


def php(n: int) -> ModalFormula:
    """Some pigeon of n+1 is in no hole, or two pigeons share one of n
    holes: valid, in negation normal form."""
    return parse_formula_text(_php_text(n, n + 1))


def box_php(n: int, d: int) -> ModalFormula:
    """box^d php(n), valid."""
    return parse_formula_text("(box " * d + _php_text(n, n + 1) + ")" * d)


def php_bad(n: int) -> ModalFormula:
    """php(n) without the last pigeon's "in no hole" disjunct, not valid:
    that pigeon flies, the other n take a hole each.  At n = 1 the
    disjunct is the literal (- p1_0).  For n >= 2 every literal of php(n)
    sits in a conjunction, and dropping it leaves a weaker conjunction,
    so a theorem still."""
    return parse_formula_text(_php_text(n, n))


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
        yield "leaf-aux-swap", cert._replace(tree=tree)
    for tree in dectree_lr_flips(cert.tree):
        yield "lr-flip", cert._replace(tree=tree)


def simpfit_mutants(cert: SimpfitCert) -> Iterator[tuple[str, SimpfitCert]]:
    # each mutant is built through load, so it gets its own relevant set
    for i in range(len(cert.closures)):
        dropped = cert.closures[:i] + cert.closures[i + 1:]
        yield "drop-closure", SimpfitCert.load(dropped, cert.boxinfos)
    for i in range(len(cert.boxinfos)):
        dropped = cert.boxinfos[:i] + cert.boxinfos[i + 1:]
        yield "drop-boxinfo", SimpfitCert.load(cert.closures, dropped)
    for i, cl in enumerate(cert.closures):
        for idx in index_lr_flips(cl.left):
            cls = cert.closures[:i] + (dataclasses.replace(cl, left=idx),) + cert.closures[i + 1:]
            yield "lr-flip", SimpfitCert.load(cls, cert.boxinfos)
        for idx in index_lr_flips(cl.right):
            cls = cert.closures[:i] + (dataclasses.replace(cl, right=idx),) + cert.closures[i + 1:]
            yield "lr-flip", SimpfitCert.load(cls, cert.boxinfos)
    for i, bi in enumerate(cert.boxinfos):
        for idx in index_lr_flips(bi.ex):
            bis = cert.boxinfos[:i] + (dataclasses.replace(bi, ex=idx),) + cert.boxinfos[i + 1:]
            yield "lr-flip", SimpfitCert.load(cert.closures, bis)
        for idx in index_lr_flips(bi.univ):
            bis = cert.boxinfos[:i] + (dataclasses.replace(bi, univ=idx),) + cert.boxinfos[i + 1:]
            yield "lr-flip", SimpfitCert.load(cert.closures, bis)


def literal_flips(a: ModalFormula) -> list[ModalFormula]:
    """Every formula obtained from a by negating one of its literals."""
    if isinstance(a, PosAtom):
        return [NegAtom(a.name)]
    if isinstance(a, NegAtom):
        return [PosAtom(a.name)]
    if isinstance(a, (And, Or)):
        return ([type(a)(left, a.right) for left in literal_flips(a.left)]
                + [type(a)(a.left, right) for right in literal_flips(a.right)])
    return [type(a)(body) for body in literal_flips(a.body)]


def certificate_mutants(cert) -> Iterator[tuple[str, object]]:
    if isinstance(cert, FitCert):
        yield from fitcert_mutants(cert)
    else:
        yield from simpfit_mutants(cert)


# ---------------------------------------------------------------------------
# trace-shape checking


_BRANCH_KINDS = ("andneg", "andpos")


def trace_paths(events: Sequence[Ev]) -> list[tuple[Ev, ...]]:
    """Split a flat accepted trace into its root-to-leaf paths.

    Two-premise rules emit an "L" marker, then the whole left subproof,
    then an "R" marker, then the right subproof, so the flat list is a
    preorder walk and the split is by matching markers.
    """
    evs = tuple(events)
    for i, ev in enumerate(evs):
        if ev.kind in _BRANCH_KINDS and ev.arg == "L":
            j = _matching_r(evs, i)
            prefix = evs[:i]
            out = [prefix + (evs[i],) + p for p in trace_paths(evs[i + 1:j])]
            out += [prefix + (evs[j],) + p for p in trace_paths(evs[j + 1:])]
            return out
    return [evs]


def _matching_r(evs: tuple[Ev, ...], i: int) -> int:
    depth = 0
    for j in range(i + 1, len(evs)):
        ev = evs[j]
        if ev.kind in _BRANCH_KINDS:
            if ev.arg == "L":
                depth += 1
            elif depth == 0:
                return j
            else:
                depth -= 1
    raise ValueError("unbalanced branch markers in trace")


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
            return any(async_ok((open_binder_reference(f.body, eig),) + rest,
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
            return sync_ok(f.left, theta, cert, k) and sync_ok(f.right, theta, cert, k)
        if isinstance(f, Exists):
            return any(sync_ok(open_binder_reference(f.body, t), theta, c2, k)
                       for t, c2 in fpc.some_e(cert))
        if isinstance(f, DelayPos):
            return sync_ok(f.body, theta, cert, k)
        if isinstance(f, PAtom):
            target = NAtom(f.pred, f.args)
            return any(g == target and fpc.initial_e(cert, idx)
                       for idx, g in theta)
        # focus on a negative: release
        return async_ok((f,), theta, cert, k)

    return async_ok((entry_of(goal),), (), cert, 1)


# ---------------------------------------------------------------------------
# first-order semantics, polarity stripping and decide tree size


def eval_fo(model: KripkeModel, f: FoFormula, env: Mapping[Term, Prefix]) -> bool:
    """Evaluate a first-order formula over a model's worlds.  env gives
    worlds for the free constants; quantifiers range over all worlds, in
    sorted order.  Conjunction, disjunction, implication and the
    quantifiers short-circuit, left to right: each stops at the first
    part that decides it, so the guard R(x, y) of a translated box skips
    the body at every world that is not a successor.  The evaluation runs
    on an explicit stack, so no formula is too deep to evaluate."""
    worlds = sorted(model.worlds)

    def world_of(t: Term, bound: tuple[Prefix, ...]) -> Prefix:
        if isinstance(t, BVar):
            if t.index >= len(bound):
                raise ValueError(f"unbound variable {t}")
            return bound[t.index]
        try:
            w = env[t]
        except KeyError:
            raise ValueError(f"no world assigned to {t}") from None
        if w not in model.worlds:
            raise ValueError(f"{t} assigned to {w}, which is not a world")
        return w

    def atom(f: FoAtom, bound: tuple[Prefix, ...]) -> bool:
        if f.pred == REL and len(f.args) == 2:
            return (world_of(f.args[0], bound), world_of(f.args[1], bound)) in model.rel
        if len(f.args) != 1:
            raise ValueError(f"unexpected atom arity: {f.pred}/{len(f.args)}")
        return f.pred in model.val[world_of(f.args[0], bound)]

    def width(f: FoFormula) -> int:
        if isinstance(f, (FoAll, FoEx)):
            return len(worlds)
        return 1 if isinstance(f, FoNeg) else 2

    def kid(f: FoFormula, bound: tuple[Prefix, ...], k: int) -> tuple:
        # the k-th part of f; the worlds bound so far, the nearest
        # binder's first
        if isinstance(f, (FoAll, FoEx)):
            return f.body, (worlds[k],) + bound
        if isinstance(f, FoNeg):
            return f.body, bound
        return (f.left if k == 0 else f.right), bound

    # each frame [node, bound, k] waits for the value of node's k-th part;
    # a => reads its left part negated, as (not left) or right
    frames: list = []
    node, bound = f, ()
    while True:
        while not isinstance(node, FoAtom) and width(node):
            frames.append([node, bound, 0])
            node, bound = kid(node, bound, 0)
        value = atom(node, bound) if isinstance(node, FoAtom) else isinstance(node, FoAll)
        while frames:
            node, bound, k = frame = frames[-1]
            if isinstance(node, FoNeg) or isinstance(node, FoImp) and k == 0:
                value = not value
            # an or, =>, or some stops at a true part, an and or all at a
            # false one; past its last part, a node's value is that part's
            if value == isinstance(node, (FoOr, FoImp, FoEx)) or k + 1 == width(node):
                frames.pop()
                continue
            frame[2] = k + 1
            node, bound = kid(node, bound, k + 1)
            break
        else:
            return value


_STRIP = {
    PAtom: (no_kids, lambda f, _, __: FoAtom(f.pred, f.args)),
    NAtom: (no_kids, lambda f, _, __: FoNeg(FoAtom(f.pred, f.args))),
    AndNeg: (both_kids, lambda f, _, v: FoAnd(*v)),
    AndPos: (both_kids, lambda f, _, v: FoAnd(*v)),
    OrNeg: (both_kids, lambda f, _, v: FoOr(*v)),
    All: (body_kid, lambda f, _, v: FoAll(*v)),
    Exists: (body_kid, lambda f, _, v: FoEx(*v)),
    DelayPos: (body_kid, lambda f, _, v: v[0]),
    DelayNeg: (body_kid, lambda f, _, v: v[0]),
}


def strip_polarities(f: PolarizedFormula) -> FoFormula:
    """Forget polarities and delays, keeping the classical content."""
    return fold(f, None, _STRIP, "polarized")


def node_count(tree: DecTree) -> int:
    return fold(tree, None, {DecTree: (child_kids, lambda t, _, v: 1 + sum(v))}, "decide tree")


def same_dectree(a: DecTree, b: DecTree) -> bool:
    """a == b on an explicit stack: the generated __eq__ recurses, so it
    fails on trees deeper than the recursion limit."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if (x.decide_on, x.aux, len(x.children)) != (y.decide_on, y.aux, len(y.children)):
            return False
        todo += zip(x.children, y.children)
    return True


# ---------------------------------------------------------------------------
# reference models


def open_binder_reference(body: PolarizedFormula, t: Term) -> PolarizedFormula:
    """Binder instantiation by substitution, rebuilding the whole body:
    the brute-force search opens quantifiers with it, independently of
    the kernel, which opens them by environment."""

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
        if isinstance(f, (AndNeg, OrNeg, AndPos)):
            return type(f)(go(f.left, depth), go(f.right, depth))
        if isinstance(f, (All, Exists)):
            return type(f)(go(f.body, depth + 1))
        return type(f)(go(f.body, depth))

    return go(body, 0)


def _holds(f: PolarizedFormula, size: int, facts: dict, consts: dict, env: tuple) -> bool:
    """Classical truth of a closed polarized formula in a finite model:
    domain range(size), facts[pred] the argument tuples pred holds of,
    consts[c] the element a constant denotes, env[k] that of BVar(k)."""
    cls = type(f)
    if cls is PAtom or cls is NAtom:
        args = tuple(env[t.index] if isinstance(t, BVar) else consts[t] for t in f.args)
        return (args in facts[f.pred]) == (cls is PAtom)
    if cls is AndNeg or cls is AndPos:
        return (_holds(f.left, size, facts, consts, env)
                and _holds(f.right, size, facts, consts, env))
    if cls is OrNeg:
        return (_holds(f.left, size, facts, consts, env)
                or _holds(f.right, size, facts, consts, env))
    if cls is All:
        return all(_holds(f.body, size, facts, consts, (d,) + env) for d in range(size))
    if cls is Exists:
        return any(_holds(f.body, size, facts, consts, (d,) + env) for d in range(size))
    return _holds(f.body, size, facts, consts, env)


def first_order_countermodel(entry: Sequence[PolarizedFormula], max_size: int = 3):
    """A model in which every formula of a closed entry is false, read
    classically, or None: brute force over domains of 1 to max_size
    elements, every interpretation of the entry's predicates, and every
    placement of its constants up to renaming.  A model is a triple
    (size, facts, consts), as _holds reads it."""
    arity: dict[str, int] = {}
    consts: list[Term] = []
    todo = list(entry)
    while todo:
        f = todo.pop()
        if isinstance(f, (PAtom, NAtom)):
            arity[f.pred] = len(f.args)
            consts += [t for t in f.args if not isinstance(t, BVar) and t not in consts]
        else:
            todo += [getattr(f, part) for part in ("left", "right", "body") if hasattr(f, part)]
    preds = sorted(arity)
    for size in range(1, max_size + 1):
        cells = {p: list(itertools.product(range(size), repeat=arity[p])) for p in preds}
        # each constant goes to an element already used or to the next one
        placements = [()]
        for _ in consts:
            placements = [p + (e,) for p in placements
                          for e in range(min(size, max(p, default=-1) + 2))]
        for placement in placements:
            where = dict(zip(consts, placement))
            for bits in itertools.product(*(range(2 ** len(cells[p])) for p in preds)):
                facts = {p: {c for i, c in enumerate(cells[p]) if b >> i & 1}
                         for p, b in zip(preds, bits)}
                if not any(_holds(f, size, facts, where, ()) for f in entry):
                    return size, facts, where
    return None


def distill_with_repeats(tree: DecTree) -> SimpfitCert:
    """The simpfit certificate of a decide tree as it was distilled before
    boxinfos were kept once: each boxinfo as often as it occurs.  Pinned
    step counts were recorded on these certificates."""
    closures: dict[Closure, None] = {}
    boxinfos: list[BoxInfo] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if not node.children:
            closures.setdefault(Closure(node.decide_on, node.aux))
        elif node.aux is not NONE:
            boxinfos.append(BoxInfo(node.decide_on, node.aux))
        stack.extend(reversed(node.children))
    return SimpfitCert.load(closures, boxinfos)


def wide_simpfitcert(n: int) -> SimpfitCert:
    """wide(n)'s SIMPFIT certificate as the prover emits it, built without
    proving wide(n), which takes seconds at n = 128: diamond k fires at
    the box's world, and its complement closes conjunct k."""
    def items(root: Index) -> list[Index]:
        # the indexes of an n-item chain nested to the left at root
        rights = []
        for _ in range(n - 1):
            rights.append(Rind(root))
            root = Lind(root)
        return [root, *reversed(rights)]

    box = Rind(EIND)
    dias, conjuncts = items(Lind(EIND)), items(Lind(box))
    return SimpfitCert.load([Closure(c, Bind(d, box)) for d, c in zip(dias, conjuncts)],
                            [BoxInfo(d, box) for d in dias])


def wide3_unpruned_dectree(root: Index = EIND) -> DecTree:
    """wide(3)'s decide tree as the prover emitted it before it dropped
    the steps a branch does not use, with wide(3) stored at root.  The
    box's body splits into its three conjuncts, and the branch of the
    k-th decides on the first k diamonds, each against the box, before it
    closes: so the boxinfos of the first two diamonds repeat."""
    diamonds, box = Lind(root), Rind(root)
    body = Lind(box)
    pair = Lind(body)
    dias = (Lind(Lind(diamonds)), Rind(Lind(diamonds)), Rind(diamonds))
    conjuncts = (Lind(pair), Rind(pair), Rind(body))
    branches = []
    for k in range(3):
        tree = DecTree(conjuncts[k], Bind(dias[k], box), ())
        for dia in reversed(dias[:k + 1]):
            tree = DecTree(dia, box, (tree,))
        branches.append(tree)
    tree = DecTree(body, NONE, (DecTree(pair, NONE, tuple(branches[:2])), branches[2]))
    for index in (box, Lind(diamonds), diamonds, root):
        tree = DecTree(index, NONE, (tree,))
    return tree


# an index table whose i{k+1} is (bind i{k} i{k}): i200 written out
# would have 2^200 nodes
DOUBLING_TABLE = " ".join(["(lind eind)"] + [f"(bind i{k} i{k})" for k in range(200)])


def format_problem_inline(pf: ProblemFile) -> str:
    """A problem file as it was printed before the index table: every
    index written out in full at each use, and each decide tree node
    indented by its depth.  The emission pin was recorded on this text."""
    def block(tag: str, items: list[str], pad: str) -> list[str]:
        if not items:
            return [f"{pad}({tag})"]
        lines = [f"{pad}({tag}", *(f"{pad}  {item}" for item in items)]
        lines[-1] += ")"
        return lines

    cert = pf.certificate
    if isinstance(cert, FitCert):
        out = ["  (fittings\n"]
        stack: list = [(cert.tree, 2)]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            node, depth = item
            out.append(f"{'  ' * depth}(dt {node.decide_on} {node.aux} (")
            stack.append("))")
            for child in reversed(node.children):
                stack += ((child, depth + 1), "\n")
        body = "".join(out)
    else:
        closures = [f"(cl {c.left} {c.right})" for c in cert.closures]
        boxinfos = [f"(bi {b.ex} {b.univ})" for b in cert.boxinfos]
        lines = ["  (simpfit", *block("closures", closures, "    "),
                 *block("boxinfos", boxinfos, "    ")]
        body = "\n".join(lines)
    return f'(problem "{pf.name}"\n  {format_formula(pf.theorem)}\n{body}))\n'


@contextlib.contextmanager
def recursion_limit(limit: int) -> Iterator[None]:
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


class TimeLimitExceeded(Exception):
    """Raised by time_limit; nothing in kcert catches it."""


@contextlib.contextmanager
def time_limit(seconds: float) -> Iterator[None]:
    """Stop the block, rather than let it run on, once seconds have passed."""
    def expire(signum, frame):
        raise TimeLimitExceeded(f"still running after {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
