"""Certificate-driven checker for focused classical first-order proofs.

The checker walks a two-phase focused sequent calculus: the fragment of
LKF (Liang and Miller, TCS 2009) that the polarized translation writes,
with literals, AndNeg, OrNeg, All, AndPos, Exists and the two delays.  The
asynchronous phase decomposes negatives and stores everything else; once
the workbench is empty it decides on a stored positive formula and enters
the synchronous phase, which decomposes the focus until it closes on a
literal or releases a negative formula back to the asynchronous phase.

The kernel makes no choices.  At each rule with a choice to make it asks
a certificate: a clerk (asynchronous phase) answers once, threading the
certificate on, or refuses; an expert (synchronous phase) yields any
number of continuations, which the kernel tries in order, depth-first.
An accepted run is a proof under exactly the certificate's guidance.

The search is one loop over a goal stack, not recursion, so proof height
is bounded by memory and the step budget.  A decide or some with several
alternatives leaves a choice point, and a cut goal under its premise
drops it once the premise has succeeded: a later failure never re-enters a
premise that closed.  A traced check records each step, and a reject the
deepest trace prefix a failure reached; an untraced one builds no event.

Storage indexes are opaque to the kernel: whatever hashable values the
store clerk hands out.  A positive index holds one live entry, the last
stored there on the branch.  At a decide the certificate names the
indexes to try, in order (decideE in Chihani, Miller and Renaud, "A
semantic framework for proof evidence", JAR 2017): no decide scans storage.

Binders are opened by environment, not by substitution (Abadi et al.,
"Explicit substitutions", JFP 1991), so a check builds no formula: an
item (workbench, stored or focus) is a pair (formula, env), env a cons
chain (term, rest) or None, BVar(k) the term k links down.  all and some
push one cell; an atom's arguments are resolved only where it is keyed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .formulas import (All, AndNeg, AndPos, BVar, DelayNeg, DelayPos, Eigen, Exists,
                       ModalFormula, NAtom, OrNeg, PAtom, PolarizedFormula, Term, W0,
                       WorldConst, delay_if_negative, is_positive, polarized_translation)


# the step budget of every check that names none: over four hundred
# times the largest check in the tests and the benchmark
DEFAULT_MAX_STEPS = 10_000_000


class StepBudgetExceeded(RuntimeError):
    """Raised when a check exceeds its max_steps bound."""


# ---------------------------------------------------------------------------
# trace events

class Ev(NamedTuple):
    """One checker step.  kind is the rule name; arg carries the storage
    index (decide/store/init), the eigenvariable or witness (all/some),
    or the branch marker "L"/"R" (andneg/andpos).  The events without a
    payload of the run are the shared constants below, built once."""

    kind: str
    arg: object = None

    def __str__(self) -> str:
        return self.kind if self.arg is None else f"{self.kind} {self.arg}"


ORNEG, STRIP, RELEASE = Ev("orneg"), Ev("strip"), Ev("release")
ANDNEG_L, ANDNEG_R = Ev("andneg", "L"), Ev("andneg", "R")
ANDPOS_L, ANDPOS_R = Ev("andpos", "L"), Ev("andpos", "R")


# ---------------------------------------------------------------------------
# certificate interface

class Fpc:
    """Clerk and expert predicates, one per kernel rule that consults the
    certificate, all refusing by default: the four clerks store_c,
    orneg_c, andneg_c and all_c of the asynchronous phase and the three
    experts decide_e, initial_e and some_e of the synchronous one.  The
    experts choose; the clerks keep the books of the invertible phase.
    Release and positive conjunction ask nothing: both premises of a
    conjunction, and the released formula, get the certificate as it is.

    A certificate format subclasses this and overrides the predicates it
    wants; a rule whose predicate is left alone is never available.  A
    clerk returns one answer, or None to refuse: store_c a pair (index,
    continuation), andneg_c a pair (left, right), orneg_c a continuation,
    and all_c, given the eigenvariable it would open, a continuation.
    decide_e and some_e return iterables of alternatives, and may yield
    several to make the kernel backtrack; initial_e a truth value.  The
    kernel only threads the certificates an FPC's own predicates return,
    so a predicate may assume its format's certificate type as long as
    the check starts from one.

    Indexes must be hashable.  decide_e names them: it yields pairs
    (index, continuation), and the kernel decides, in the order named,
    on each named index that holds a positive entry, taking the entry
    stored there last on the branch.  init closes on the first stored
    complement, oldest first, that initial_e sanctions.

    store_c sees the formula as the translation wrote it, its bound
    variables unresolved: its class, predicate and arity are meaningful,
    its arguments are not.  A witness some_e names must be an Eigen
    numbered by an int, or a WorldConst; the rule fails on any other.
    """

    def decide_e(self, cert: object) -> Iterable[tuple[object, object]]:
        return ()

    def store_c(self, cert: object, formula: PolarizedFormula) -> tuple[object, object] | None:
        return None

    def initial_e(self, cert: object, index: object) -> bool:
        return False

    def andneg_c(self, cert: object) -> tuple[object, object] | None:
        return None

    def orneg_c(self, cert: object) -> object | None:
        return None

    def all_c(self, cert: object, eigen: Eigen) -> object | None:
        return None

    def some_e(self, cert: object) -> Iterable[tuple[Term, object]]:
        return ()


@dataclass(frozen=True)
class CheckResult:
    accepted: bool
    # the accepting run's whole trace, a reject's deepest prefix, or ()
    trace: tuple[Ev, ...]
    steps: int
    choice_points: int

    def __bool__(self) -> bool:
        return self.accepted


# ---------------------------------------------------------------------------
# the checker
#
# A goal is a cons cell (tag, a, b, next), next the rest of the stack:
# prove an asynchronous sequent (a = certificate, b = workbench, a tuple of
# items) or a synchronous one (a = certificate, b = focus item), an item
# being a pair (formula, env); begin a right premise, undoing storage to
# trail height a and, if traced, emitting its branch marker b; or cut the
# choice stack back to height a.

_ASYNC, _SYNC, _RIGHT, _CUT = range(4)
_FAIL = object()  # a rule with no continuation: backtrack


def _resolve(args: tuple[Term, ...], env: tuple | None) -> tuple[Term, ...]:
    """An atom's arguments under env.  A variable past its end, bound
    outside an open entry, keeps what substitution would leave of it."""
    out = []
    for t in args:
        if isinstance(t, BVar):
            k, link = t.index, env
            while k and link is not None:
                k, link = k - 1, link[1]
            t = BVar(k) if link is None else link[0]
        out.append(t)
    return tuple(out)


class _Run:
    """One check.  Storage is two maps: positive items by index, the
    last one live (for decide), and negative atoms' indexes by predicate
    and resolved arguments (for init).  A store pushes an entry and logs
    its bucket on the trail; undo pops logged buckets down to a height,
    a right premise's at its rule or a choice point's on backtracking.
    Nothing popped is ever put back, as no undo goes below a live choice
    point's height: a right premise inside its premise marks a height at
    least its own, and one under its cut runs only once the cut has
    dropped it."""

    def __init__(self, fpc: Fpc, max_steps: int, trace: bool):
        self.fpc = fpc
        self.max_steps = max_steps
        self.trace = trace
        self.events: list[Ev] = []
        # the longest trace a failure has met: the deepest prefix reached
        self.deepest: tuple[Ev, ...] = ()
        self.steps = 0
        self.choice_points = 0
        self.next_eigen = 1
        self.positive: dict[object, list[tuple]] = {}
        self.negative: dict[tuple, list[object]] = {}
        # choice points: (step, its context, untried alternatives last first,
        # then the goals, trace length and trail height to restore)
        self.choices: list[tuple] = []
        self.trail: list[list] = []  # the bucket of each live store, oldest first

    def run(self, cert: object, gamma: tuple) -> bool:
        goals = (_ASYNC, cert, gamma, None)
        phases = (self.asynchronous, self.synchronous)  # by tag
        while goals is not None:
            tag, a, b, goals = goals
            if tag <= _SYNC:
                self.steps += 1
                if self.steps > self.max_steps:
                    raise StepBudgetExceeded(f"gave up after {self.max_steps} steps")
                goals = phases[tag](a, b, goals)
            elif tag == _RIGHT:
                self.undo(a)
                if self.trace:
                    self.events.append(b)
            else:
                del self.choices[a:]
            # an alternative resumed by backtracking may fail at once too
            while goals is _FAIL:
                if len(self.events) > len(self.deepest):
                    self.deepest = tuple(self.events)
                if not self.choices:
                    return False
                goals = self.backtrack()
        return True

    def branch(self, alts: Sequence, step: Callable, ctx: object, goals: tuple | None) -> object:
        """Apply a rule: run its step, a method given the rule's context,
        on the first alternative, and keep the others in a choice point
        that a cut goal under the premise drops once it has succeeded."""
        if not alts:
            return _FAIL
        if len(alts) > 1:
            self.choice_points += len(alts) - 1
            goals = (_CUT, len(self.choices), None, goals)
            self.choices.append((step, ctx, list(alts[:0:-1]), goals, len(self.events),
                                 len(self.trail)))
        return step(ctx, alts[0], goals)

    def backtrack(self) -> object:
        """Resume the newest choice point with its next alternative."""
        step, ctx, untried, goals, mark, height = self.choices[-1]
        alt = untried.pop()
        if not untried:
            self.choices.pop()
        self.undo(height)
        del self.events[mark:]
        return step(ctx, alt, goals)

    def undo(self, height: int) -> None:
        """Take storage back to the trail at height."""
        while len(self.trail) > height:
            self.trail.pop().pop()

    # asynchronous phase: decompose the workbench, or decide

    def asynchronous(self, cert: object, gamma: tuple, goals: tuple | None) -> object:
        if not gamma:
            return self._decide(cert, goals)
        (f, env), rest = gamma[0], gamma[1:]
        if isinstance(f, OrNeg):
            if (c2 := self.fpc.orneg_c(cert)) is None:
                return _FAIL
            if self.trace:
                self.events.append(ORNEG)
            return (_ASYNC, c2, ((f.left, env), (f.right, env)) + rest, goals)
        if isinstance(f, AndNeg):
            if (pair := self.fpc.andneg_c(cert)) is None:
                return _FAIL
            c_left, c_right = pair
            right = (_ASYNC, c_right, ((f.right, env),) + rest, goals)
            if self.trace:
                self.events.append(ANDNEG_L)
            return (_ASYNC, c_left, ((f.left, env),) + rest,
                    (_RIGHT, len(self.trail), ANDNEG_R, right))
        if isinstance(f, All):
            eigen = Eigen(self.next_eigen)
            if (c2 := self.fpc.all_c(cert, eigen)) is None:
                return _FAIL
            self.next_eigen += 1
            if self.trace:
                self.events.append(Ev("all", eigen))
            return (_ASYNC, c2, ((f.body, (eigen, env)),) + rest, goals)
        if isinstance(f, DelayNeg):
            if self.trace:
                self.events.append(STRIP)
            return (_ASYNC, cert, ((f.body, env),) + rest, goals)
        # everything else is storable: positives and negative literals
        if not is_positive(f) and not isinstance(f, NAtom):
            return _FAIL
        if (pair := self.fpc.store_c(cert, f)) is None:
            return _FAIL
        index, c2 = pair
        if self.trace:
            self.events.append(Ev("store", index))
        if isinstance(f, NAtom):
            hash(index)  # where nothing keys on an index, it must still be hashable
            bucket = self.negative.setdefault((f.pred, _resolve(f.args, env)), [])
            bucket.append(index)
        else:
            bucket = self.positive.setdefault(index, [])
            bucket.append(gamma[0])
        self.trail.append(bucket)
        return (_ASYNC, c2, rest, goals)

    def _decide(self, cert: object, goals: tuple | None) -> object:
        # one alternative per named index that holds an entry, its live one
        alts = [(index, bucket[-1], c2) for index, c2 in self.fpc.decide_e(cert)
                if (bucket := self.positive.get(index))]
        return self.branch(alts, self.decide_step, None, goals)

    def decide_step(self, _: None, alt: tuple, goals: tuple | None) -> tuple:
        index, item, c2 = alt
        if self.trace:
            self.events.append(Ev("decide", index))
        return (_SYNC, c2, item, goals)

    # synchronous phase: decompose the focus

    def synchronous(self, cert: object, item: tuple, goals: tuple | None) -> object:
        focus, env = item
        if isinstance(focus, AndPos):
            right = (_SYNC, cert, (focus.right, env), goals)
            if self.trace:
                self.events.append(ANDPOS_L)
            return (_SYNC, cert, (focus.left, env), (_RIGHT, len(self.trail), ANDPOS_R, right))
        if isinstance(focus, Exists):
            return self.branch(tuple(self.fpc.some_e(cert)), self.some_step, item, goals)
        if isinstance(focus, DelayPos):
            if self.trace:
                self.events.append(STRIP)
            return (_SYNC, cert, (focus.body, env), goals)
        if isinstance(focus, PAtom):
            for index in self.negative.get((focus.pred, _resolve(focus.args, env)), ()):
                if self.fpc.initial_e(cert, index):
                    if self.trace:
                        self.events.append(Ev("init", index))
                    return goals
            return _FAIL
        # negative focus: hand it back to the asynchronous phase
        if self.trace:
            self.events.append(RELEASE)
        return (_ASYNC, cert, (item,), goals)

    def some_step(self, item: tuple, pair: object, goals: tuple | None) -> object:
        # no later all may introduce the witness's eigenvariable as fresh
        (focus, env), (witness, c2) = item, pair
        if type(witness) is Eigen and type(witness.id) is int:
            self.next_eigen = max(self.next_eigen, witness.id + 1)
        elif type(witness) is not WorldConst:
            return _FAIL
        if self.trace:
            self.events.append(Ev("some", witness))
        return (_SYNC, c2, (focus.body, (witness, env)), goals)


def _verdict(run: _Run, cert: object, entry: Sequence[PolarizedFormula]) -> CheckResult:
    accepted = run.run(cert, tuple((f, None) for f in entry))
    trace = tuple(run.events) if accepted else run.deepest
    return CheckResult(accepted, trace, run.steps, run.choice_points)


def check_polarized(entry: Sequence[PolarizedFormula], cert: object, fpc: Fpc,
                    max_steps: int = DEFAULT_MAX_STEPS, trace: bool = True) -> CheckResult:
    """Check a certificate against an initial workbench of polarized
    formulas, each in an empty environment.  Storage starts empty.  With
    trace false nothing is recorded: the result's trace is (), and its
    verdict, steps and choice points are those of a traced check.  An
    Eigen numbered by an int in the entry is a constant: the kernel
    numbers its own eigenvariables past every such one."""
    run = _Run(fpc, max_steps, trace)
    todo = list(entry)
    while todo:
        f = todo.pop()
        todo += [getattr(f, part) for part in ("left", "right", "body") if hasattr(f, part)]
        for t in getattr(f, "args", ()):
            if type(t) is Eigen and isinstance(t.id, int):  # Eigen(True) == Eigen(1)
                run.next_eigen = max(run.next_eigen, t.id + 1)
    return _verdict(run, cert, entry)


def check(goal: ModalFormula, cert: object, fpc: Fpc | None = None,
          max_steps: int = DEFAULT_MAX_STEPS, trace: bool = True) -> CheckResult:
    """Check a certificate for a modal theorem: the entry is the goal's
    polarized translation at the initial world, delayed into storable
    shape, and names no Eigen.  The certificate is read by its own FPC,
    cert.fpc, unless fpc is given; trace is as for check_polarized."""
    fpc = cert.fpc if fpc is None else fpc
    entry = delay_if_negative(polarized_translation(goal, W0))
    return _verdict(_Run(fpc, max_steps, trace), cert, (entry,))
