"""The kernel is sound whatever the FPC answers: clerks and experts only
guide it, and its rules alone accept.  A hostile FPC draws every answer
from hypothesis, and an accepted check must still be a proof."""

from typing import Sequence

from hypothesis import given, settings, strategies as st

from kcert.formulas import (
    W0, All, And, AndNeg, AndPos, BVar, Box, DelayNeg, DelayPos, Dia, Eigen, Exists, NAtom,
    NegAtom, Or, OrNeg, PAtom, PosAtom, WorldConst)
from kcert.kernel import Fpc, StepBudgetExceeded, check, check_polarized
from kcert.tableau import (
    bounded_validity_oracle, connective_count, emit_fitcert, emit_simpfitcert, negate_nnf, prove)
from helpers import corpus_proofs, first_order_countermodel, kchain, taut, wide
from test_kernel import Rigged


# witnesses that are no term: the some rule must fail on each
FOREIGN = ("e1", BVar(0), Eigen(True), Eigen("1"), Rigged())


# a choice among options, by position, and a set of indexes by bitmask:
# -1, all bits set, names every index handed out
_CHOICE = st.integers(0, 255)
_MASK = st.one_of(st.just(-1), st.integers(0, 2**32 - 1))


class Hostile(Fpc):
    """Every answer drawn by hypothesis.  A store hands out any index,
    0, 1, ..., new or already handed out; a decide names all of those or
    any subset; a witness is W0, an eigenvariable introduced so far, a
    fresh one, another constant or no term at all; init says yes or no.
    A rule gets 0 to 2 alternatives, so the kernel backtracks too.  The
    answers lean to yes, so that checks are accepted often.  Once its
    answers are spent it refuses everything, so a check ends."""

    def __init__(self, data, answers: int = 100):
        self.data = data
        self.answers = answers
        self.indexes = 0
        self.eigens: list[Eigen] = []

    def draw(self, strategy, refusal):
        if self.answers == 0:
            return refusal
        self.answers -= 1
        return self.data.draw(strategy)

    def pick(self, options: Sequence, refusal):
        return options[self.draw(_CHOICE, 0) % len(options)] if self.answers else refusal

    def count(self) -> int:
        return self.pick((1, 2, 2, 0), 0)

    def decide_e(self, cert):
        mask = self.draw(_MASK, 0)
        return [(index, cert) for index in range(self.indexes) if mask >> index & 1]

    def store_c(self, cert, formula):
        out = []
        for _ in range(self.count()):
            index = self.pick(range(self.indexes + 1), 0)
            self.indexes = max(self.indexes, index + 1)
            out.append((index, cert))
        return out

    def initial_e(self, cert, index):
        return self.pick((True, True, True, False), False)

    def andneg_c(self, cert):
        return [(cert, cert)] * self.count()

    def orneg_c(self, cert):
        return [cert] * self.count()

    def all_c(self, cert):
        return [lambda eigen: self.eigens.append(eigen) or cert] * self.count()

    def some_e(self, cert):
        # the next two eigenvariables an all will introduce are fresh
        fresh = (Eigen(len(self.eigens) + 1), Eigen(len(self.eigens) + 2))
        witnesses = (W0, WorldConst("c"), *fresh, *FOREIGN, *self.eigens)
        return [(self.pick(witnesses, W0), cert) for _ in range(self.count())]


def _accepted(run, *args) -> bool:
    try:
        return run(*args, max_steps=2_000, trace=False).accepted
    except StepBudgetExceeded:
        return False


_LITERALS = st.builds(lambda cls, name: cls(name), st.sampled_from((PosAtom, NegAtom)),
                      st.sampled_from("pq"))
_MODAL = st.recursive(_LITERALS, lambda sub: st.one_of(
    st.builds(And, sub, sub), st.builds(Or, sub, sub), st.builds(Box, sub), st.builds(Dia, sub)),
    max_leaves=5)
# modal formulas within the oracle's cap, and as many valid ones: f | ~f
_GOALS = st.one_of(
    _MODAL, _MODAL.filter(lambda f: connective_count(f) <= 3).map(lambda f: Or(f, negate_nnf(f)))
).filter(lambda f: connective_count(f) <= 8)


def _terms(depth: int):
    # a term in scope under depth binders: a bound variable, where there
    # is one, at even odds, else a constant: w0, c, e1 or e2, where e1
    # is also written Eigen(True)
    constants = st.sampled_from((W0, WorldConst("c"), Eigen(1), Eigen(True), Eigen(2)))
    return st.one_of(st.builds(BVar, st.integers(0, depth - 1)), constants) if depth else constants


@st.composite
def _polarized(draw, preds: tuple, depth: int = 0, size: int = 4):
    """A closed polarized formula of at most size nodes, whose atoms are
    over preds, (name, arity) pairs, and whose terms are its bound
    variables and the constants of _terms."""
    classes = (All, Exists, DelayPos, DelayNeg) + ((AndNeg, OrNeg, AndPos) if size > 2 else ())
    if size == 1 or draw(st.integers(0, 3)) == 0:
        pred, arity = draw(st.sampled_from(preds))
        atom = draw(st.sampled_from((PAtom, NAtom)))
        return atom(pred, tuple(draw(_terms(depth)) for _ in range(arity)))
    cls = draw(st.sampled_from(classes))
    if cls in (All, Exists):
        return cls(draw(_polarized(preds, depth + 1, size - 1)))
    if cls in (DelayPos, DelayNeg):
        return cls(draw(_polarized(preds, depth, size - 1)))
    left = draw(st.integers(1, size - 2))
    right = size - 1 - left
    return cls(draw(_polarized(preds, depth, left)), draw(_polarized(preds, depth, right)))


# each class's classical dual: an entry of f and its dual is valid
_DUAL = {PAtom: NAtom, NAtom: PAtom, AndNeg: OrNeg, AndPos: OrNeg, OrNeg: AndNeg, All: Exists,
         Exists: All, DelayPos: DelayNeg, DelayNeg: DelayPos}
_FLIP = {All: Exists, Exists: All}


def _sites(f, args: bool = True) -> int:
    # the places _near_dual may change: each quantifier and, with args,
    # each atom argument
    if isinstance(f, (PAtom, NAtom)):
        return len(f.args) if args else 0
    if isinstance(f, (AndNeg, OrNeg, AndPos)):
        return _sites(f.left, args) + _sites(f.right, args)
    return (type(f) in _FLIP) + _sites(f.body, args)


@st.composite
def _near_dual(draw, f):
    """The dual of f, which with f makes a valid entry, with one place
    changed: a quantifier flipped, or an atom argument replaced by a
    drawn term in scope.  With f, an entry that is nearly valid, and
    mostly not."""
    left = [draw(st.integers(0, _sites(f) - 1))]  # places to pass before the change

    def go(f, depth):
        cls = _DUAL[type(f)]
        if cls in (PAtom, NAtom):
            args = list(f.args)
            for i in range(len(args)):
                if left[0] == 0:
                    args[i] = draw(_terms(depth))
                left[0] -= 1
            return cls(f.pred, tuple(args))
        if cls in (AndNeg, OrNeg):
            return cls(go(f.left, depth), go(f.right, depth))
        if cls in _FLIP:
            left[0] -= 1
            return (_FLIP[cls] if left[0] == -1 else cls)(go(f.body, depth + 1))
        return cls(go(f.body, depth))

    return go(f, 0)


@st.composite
def _named_dual(draw, f):
    """The dual of f with the variable of one quantifier replaced by e1,
    written Eigen(1) or Eigen(True), its binder left vacuous.  With f,
    an entry that is mostly not valid, but that a kernel opening a
    universal of f at e1 as fresh would close."""
    left = [draw(st.integers(0, max(_sites(f, args=False) - 1, 0)))]  # quantifiers to pass
    named = draw(st.sampled_from((Eigen(1), Eigen(True))))

    def go(f, depth, binder):
        # binder: the depth just inside the chosen quantifier, once passed
        cls = _DUAL[type(f)]
        if cls in (PAtom, NAtom):
            return cls(f.pred, tuple(named if isinstance(t, BVar) and binder is not None
                                     and t.index == depth - binder else t for t in f.args))
        if cls in (AndNeg, OrNeg):
            return cls(go(f.left, depth, binder), go(f.right, depth, binder))
        if cls in _FLIP:
            left[0] -= 1
            return cls(go(f.body, depth + 1, depth + 1 if left[0] == -1 else binder))
        return cls(go(f.body, depth, binder))

    return go(f, 0, None)


# an entry's predicates: a unary p, a binary r, or both; with one, its
# atoms clash often
_PREDS = st.sampled_from(((("p", 1),), (("r", 2),), (("p", 1), ("r", 2))))
# random entries, and twice as many that are nearly valid: a formula
# beside its dual with one change, or beside its dual around e1
_ENTRIES = _PREDS.flatmap(lambda preds: st.one_of(
    st.lists(_polarized(preds), min_size=1, max_size=2).map(tuple),
    _polarized(preds).flatmap(lambda f: _near_dual(f).map(lambda g: (f, g))),
    _polarized(preds).flatmap(lambda f: _named_dual(f).map(lambda g: (f, g)))))


class TestHostileFpc:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_GOALS, st.data())
    def test_an_accepted_modal_theorem_is_valid(self, goal, data):
        if _accepted(check, goal, None, Hostile(data)):
            assert bounded_validity_oracle(goal)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_ENTRIES, st.data())
    def test_an_accepted_entry_has_no_countermodel_of_up_to_3_elements(self, entry, data):
        if _accepted(check_polarized, entry, None, Hostile(data)):
            assert first_order_countermodel(entry) is None


# malformed versions of an answer made of pairs: an index that cannot be
# hashed, pairs of the wrong length, a pair that is no sequence, and an
# answer that is no iterable
MALFORMED = {
    "unhashable": lambda alts: [([first], *rest) for first, *rest in alts],
    "single": lambda alts: [alt[:1] for alt in alts],
    "triple": lambda alts: [alt + alt[-1:] for alt in alts],
    "no-pair": lambda alts: [None for _ in alts],
    "no-answer": lambda alts: None,
}
# the answers made of pairs that hold no index: a witness that is no
# term fails its rule, which a search may then get round (TestWitnesses)
_NO_INDEX = ("andneg_c", "some_e")


class Corrupting(Fpc):
    """Answers as inner does, except that its k-th answer made of pairs,
    from decide_e, store_c, andneg_c or some_e, is malformed as how
    says.  asked lists the predicate of each such answer."""

    def __init__(self, inner: Fpc, k: int = -1, how: str = ""):
        self.inner, self.k, self.how = inner, k, how
        self.asked: list[str] = []

    def corrupt(self, name: str, alts):
        self.asked.append(name)
        alts = tuple(alts)
        return MALFORMED[self.how](alts) if len(self.asked) - 1 == self.k else alts

    def decide_e(self, cert):
        return self.corrupt("decide_e", self.inner.decide_e(cert))

    def store_c(self, cert, formula):
        return self.corrupt("store_c", self.inner.store_c(cert, formula))

    def andneg_c(self, cert):
        return self.corrupt("andneg_c", self.inner.andneg_c(cert))

    def some_e(self, cert):
        return self.corrupt("some_e", self.inner.some_e(cert))

    def initial_e(self, cert, index):
        return self.inner.initial_e(cert, index)

    def orneg_c(self, cert):
        return self.inner.orneg_c(cert)

    def all_c(self, cert):
        return self.inner.all_c(cert)


class TestMalformedAnswers:
    """A malformed answer raises or rejects, never accepts: each
    malformation in turn, at each answer made of pairs, in the checks of
    both certificates of every thirtieth valid corpus formula and of three
    family members."""

    def test_a_malformed_answer_raises_or_rejects(self):
        theorems = corpus_proofs()[::30] + tuple(
            (goal, prove(goal)) for goal in (taut(2), kchain(2), wide(2)))
        corrupted = 0
        for goal, ct in theorems:
            for cert in (emit_fitcert(ct, goal), emit_simpfitcert(ct, goal)):
                clean = Corrupting(cert.fpc)
                assert check(goal, cert, clean, trace=False).accepted
                for k, name in enumerate(clean.asked):
                    for how in MALFORMED:
                        if how == "unhashable" and name in _NO_INDEX:
                            continue
                        try:
                            accepted = check(goal, cert, Corrupting(cert.fpc, k, how),
                                             trace=False).accepted
                        except (TypeError, ValueError):
                            accepted = False
                        assert not accepted, (goal, cert, k, name, how)
                        corrupted += 1
        assert corrupted > 1000
