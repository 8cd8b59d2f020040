"""Certificate-driven checker for focused classical first-order proofs.

The checker walks a two-phase focused sequent calculus.  The asynchronous
phase decomposes negative connectives and stores everything else; once the
workbench is empty it decides on a stored positive formula and enters the
synchronous phase, which decomposes the focus until it closes on a literal
or releases a negative formula back to the asynchronous phase.

The kernel itself makes no choices.  At every rule it consults a
certificate through a small set of clerk predicates (asynchronous side)
and expert predicates (synchronous side); the certificate is threaded
through, and a rule is available only when the corresponding predicate
yields a continuation.  Where the predicates allow several continuations
the kernel backtracks over them depth-first, so an accepted run is a
proof under exactly the guidance the certificate supplies.

Storage indexes are opaque to the kernel: they are whatever hashable
values the certificate's store clerk hands out.  At a decide the
certificate names the index to decide on (decideE in Chihani, Miller and
Renaud, "A semantic framework for proof evidence", JAR 2017), and the
kernel looks the stored entries at that index up in a map kept beside
storage, so no decide scans storage or polls the certificate once per
stored entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .formulas import (
    All,
    AndNeg,
    AndPos,
    DelayNeg,
    DelayPos,
    Eigen,
    Exists,
    FalseNeg,
    ModalFormula,
    NAtom,
    OrNeg,
    OrPos,
    PAtom,
    PolarizedFormula,
    Term,
    TruePos,
    W0,
    delay_if_negative,
    is_positive,
    negate_polarized,
    open_binder,
    polarized_translation,
)


class StepBudgetExceeded(RuntimeError):
    """Raised when a check exceeds an explicit max_steps bound."""


# ---------------------------------------------------------------------------
# trace events

@dataclass(frozen=True)
class Ev:
    """One checker step.  kind is the rule name; arg carries the storage
    index (decide/store/init), the witness term (all/some), the branch
    marker "L"/"R" (andneg/andpos/cut), or the side 1/2 (orpos)."""

    kind: str
    arg: object = None

    def __str__(self) -> str:
        if self.arg is None:
            return self.kind
        return f"{self.kind} {self.arg}"


def trace_lines(events: Sequence[Ev]) -> list[str]:
    return [str(ev) for ev in events]


_BRANCH_KINDS = ("andneg", "andpos", "cut")


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


# ---------------------------------------------------------------------------
# certificate interface

class Fpc:
    """Clerk and expert predicates, all refusing by default.

    A certificate format subclasses this and overrides the predicates it
    wants to define; leaving one alone means the corresponding kernel
    rule is never available under that format.  Predicates return
    iterables of continuations (or, for initial_e and true_e, a plain
    truth value) and may yield several to make the kernel backtrack.

    Indexes must be hashable.  decide_e names them: it yields pairs
    (index, continuation), and the kernel decides on each stored positive
    entry at a named index.  An index may be named more than once; naming
    one that holds nothing positive is harmless.
    """

    # order of the decide alternatives by the storage position of their
    # entries: oldest entry first by default, newest first when set
    decide_newest_first = False

    def decide_e(self, cert: object) -> Iterable[tuple[object, object]]:
        return ()

    def release_e(self, cert: object) -> Iterable[object]:
        return ()

    def store_c(self, cert: object, formula: PolarizedFormula) -> Iterable[tuple[object, object]]:
        return ()

    def initial_e(self, cert: object, index: object) -> bool:
        return False

    def cut_e(self, cert: object) -> Iterable[tuple[PolarizedFormula, object, object]]:
        return ()

    def true_e(self, cert: object) -> bool:
        return False

    def andneg_c(self, cert: object) -> Iterable[tuple[object, object]]:
        return ()

    def orneg_c(self, cert: object) -> Iterable[object]:
        return ()

    def all_c(self, cert: object) -> Iterable[Callable[[Term], object]]:
        return ()

    def andpos_e(self, cert: object) -> Iterable[tuple[object, object]]:
        return ()

    def orpos_e(self, cert: object) -> Iterable[tuple[int, object]]:
        return ()

    def some_e(self, cert: object) -> Iterable[tuple[Term, object]]:
        return ()


@dataclass(frozen=True)
class CheckResult:
    accepted: bool
    # full trace of the accepting run, or the deepest prefix reached
    # before a reject
    trace: tuple[Ev, ...]
    steps: int
    choice_points: int

    def __bool__(self) -> bool:
        return self.accepted


# ---------------------------------------------------------------------------
# the checker


class _Run:
    """One check.  Storage is kept in two maps beside the recursion, each
    entry pushed by its store rule and popped when that rule's premise
    returns, so a branch sees exactly the entries stored on its path:
    positive formulas by index with their storage position (for decide),
    and negative atoms by formula with their indexes (for init)."""

    def __init__(self, fpc: Fpc, max_steps: int | None):
        self.fpc = fpc
        self.max_steps = max_steps
        self.events: list[Ev] = []
        # the deepest trace prefix reached: events[:deepest_len] while
        # the live trace still holds it, else the snapshot in deepest
        self.deepest: tuple[Ev, ...] = ()
        self.deepest_len = 0
        self.deepest_live = False
        self.steps = 0
        self.choice_points = 0
        self.next_eigen = 1
        self.stored = 0
        self.positive: dict[object, list[tuple[int, PolarizedFormula]]] = {}
        self.negative: dict[PolarizedFormula, list[object]] = {}

    def tick(self) -> None:
        self.steps += 1
        if self.max_steps is not None and self.steps > self.max_steps:
            raise StepBudgetExceeded(f"gave up after {self.max_steps} steps")

    def emit(self, ev: Ev) -> None:
        self.events.append(ev)
        if len(self.events) > self.deepest_len:
            self.deepest_len = len(self.events)
            self.deepest_live = True

    def rollback(self, mark: int) -> None:
        """Cut the trace back to mark, first saving the deepest prefix if
        the cut would destroy it."""
        if self.deepest_live and mark < self.deepest_len:
            self.deepest = tuple(self.events[:self.deepest_len])
            self.deepest_live = False
        del self.events[mark:]

    def deepest_trace(self) -> tuple[Ev, ...]:
        if self.deepest_live:
            return tuple(self.events[:self.deepest_len])
        return self.deepest

    def attempt(self, alts: Sequence[object], run_one: Callable[[object], bool]) -> bool:
        """Backtracking point: try continuations in order, rolling the
        trace back between attempts."""
        if len(alts) > 1:
            self.choice_points += len(alts) - 1
        for alt in alts:
            mark = len(self.events)
            if run_one(alt):
                return True
            self.rollback(mark)
        return False

    # asynchronous phase: decompose the workbench head, or decide

    def asynchronous(self, cert: object, gamma: tuple[PolarizedFormula, ...]) -> bool:
        self.tick()
        if not gamma:
            return self._decide_or_cut(cert)
        f, rest = gamma[0], gamma[1:]

        if isinstance(f, OrNeg):
            def or_step(c2: object) -> bool:
                self.emit(Ev("orneg"))
                return self.asynchronous(c2, (f.left, f.right) + rest)
            return self.attempt(list(self.fpc.orneg_c(cert)), or_step)

        if isinstance(f, AndNeg):
            def and_step(pair: object) -> bool:
                c_left, c_right = pair
                self.emit(Ev("andneg", "L"))
                if not self.asynchronous(c_left, (f.left,) + rest):
                    return False
                self.emit(Ev("andneg", "R"))
                return self.asynchronous(c_right, (f.right,) + rest)
            return self.attempt(list(self.fpc.andneg_c(cert)), and_step)

        if isinstance(f, All):
            def all_step(mk: object) -> bool:
                eigen = Eigen(self.next_eigen)
                self.next_eigen += 1
                self.emit(Ev("all", eigen))
                return self.asynchronous(mk(eigen), (open_binder(f.body, eigen),) + rest)
            return self.attempt(list(self.fpc.all_c(cert)), all_step)

        if isinstance(f, DelayNeg):
            self.emit(Ev("strip"))
            return self.asynchronous(cert, (f.body,) + rest)

        if isinstance(f, FalseNeg):
            return False

        # everything else is storable: positives and negative literals
        positive = is_positive(f)
        if not positive and not isinstance(f, NAtom):
            return False

        def store_step(pair: object) -> bool:
            index, c2 = pair
            self.emit(Ev("store", index))
            if positive:
                bucket = self.positive.setdefault(index, [])
                bucket.append((self.stored, f))
            else:
                bucket = self.negative.setdefault(f, [])
                bucket.append(index)
            self.stored += 1
            ok = self.asynchronous(c2, rest)
            self.stored -= 1
            bucket.pop()
            return ok
        return self.attempt(list(self.fpc.store_c(cert, f)), store_step)

    def _decide_or_cut(self, cert: object) -> bool:
        # the certificate names indexes; each stored positive entry at a
        # named index is one alternative, taken in storage order (newest
        # first if the format asks) and, within one entry, in the order
        # the names came
        alts: list[tuple] = []
        for index, c2 in self.fpc.decide_e(cert):
            for position, f in self.positive.get(index, ()):
                alts.append((position, index, f, c2))
        # a stable sort, also when reversed, so one entry's alternatives
        # keep the order their names came in
        alts.sort(key=itemgetter(0), reverse=self.fpc.decide_newest_first)
        for formula, c_left, c_right in self.fpc.cut_e(cert):
            alts.append((None, formula, c_left, c_right))

        def run_one(alt: tuple) -> bool:
            if alt[0] is not None:
                _, index, f, c2 = alt
                self.emit(Ev("decide", index))
                return self.synchronous(c2, f)
            _, formula, c_left, c_right = alt
            self.emit(Ev("cut", "L"))
            if not self.asynchronous(c_left, (formula,)):
                return False
            self.emit(Ev("cut", "R"))
            return self.asynchronous(c_right, (negate_polarized(formula),))

        return self.attempt(alts, run_one)

    # synchronous phase: decompose the focus

    def synchronous(self, cert: object, focus: PolarizedFormula) -> bool:
        self.tick()

        if isinstance(focus, AndPos):
            def and_step(pair: object) -> bool:
                c_left, c_right = pair
                self.emit(Ev("andpos", "L"))
                if not self.synchronous(c_left, focus.left):
                    return False
                self.emit(Ev("andpos", "R"))
                return self.synchronous(c_right, focus.right)
            return self.attempt(list(self.fpc.andpos_e(cert)), and_step)

        if isinstance(focus, OrPos):
            def or_step(pair: object) -> bool:
                side, c2 = pair
                self.emit(Ev("orpos", side))
                sub = focus.left if side == 1 else focus.right
                return self.synchronous(c2, sub)
            return self.attempt(list(self.fpc.orpos_e(cert)), or_step)

        if isinstance(focus, Exists):
            def some_step(pair: object) -> bool:
                witness, c2 = pair
                self.emit(Ev("some", witness))
                return self.synchronous(c2, open_binder(focus.body, witness))
            return self.attempt(list(self.fpc.some_e(cert)), some_step)

        if isinstance(focus, TruePos):
            if self.fpc.true_e(cert):
                self.emit(Ev("true"))
                return True
            return False

        if isinstance(focus, DelayPos):
            self.emit(Ev("strip"))
            return self.synchronous(cert, focus.body)

        if isinstance(focus, PAtom):
            complement = NAtom(focus.pred, focus.args)
            sanctioned = [index for index in self.negative.get(complement, ())
                          if self.fpc.initial_e(cert, index)]
            if len(sanctioned) > 1:
                self.choice_points += len(sanctioned) - 1
            if sanctioned:
                self.emit(Ev("init", sanctioned[0]))
                return True
            return False

        # negative focus: hand it back to the asynchronous phase
        def release_step(c2: object) -> bool:
            self.emit(Ev("release"))
            return self.asynchronous(c2, (focus,))
        return self.attempt(list(self.fpc.release_e(cert)), release_step)


def check_polarized(entry: Sequence[PolarizedFormula], cert: object, fpc: Fpc,
                    max_steps: int | None = None) -> CheckResult:
    """Check a certificate against an initial workbench of polarized
    formulas.  Storage starts empty."""
    run = _Run(fpc, max_steps)
    accepted = run.asynchronous(cert, tuple(entry))
    trace = tuple(run.events) if accepted else run.deepest_trace()
    return CheckResult(accepted, trace, run.steps, run.choice_points)


def check(goal: ModalFormula, cert: object, fpc: Fpc,
          max_steps: int | None = None) -> CheckResult:
    """Check a certificate for a modal theorem: the entry workbench is
    the goal's polarized translation at the initial world, delayed into
    storable shape."""
    entry = delay_if_negative(polarized_translation(goal, W0))
    return check_polarized((entry,), cert, fpc, max_steps)
