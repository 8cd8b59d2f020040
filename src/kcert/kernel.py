"""Certificate-driven checker for focused classical first-order proofs.

The checker walks a two-phase focused sequent calculus: the fragment of
LKF (Liang and Miller, TCS 2009) that the polarized translation writes,
with literals, AndNeg, OrNeg, All, AndPos, Exists and the two delays.  The
asynchronous phase decomposes negatives and stores everything else; once
the workbench is empty it decides on a stored positive formula and enters
the synchronous phase, which decomposes the focus until it closes on a
literal or releases a negative formula back to the asynchronous phase.

The kernel itself makes no choices.  At every rule with a choice to
make it consults a certificate through a small set of clerk predicates
(asynchronous side) and expert predicates (synchronous side); the
certificate is threaded through, and such a rule is available only when
its predicate yields a continuation.  Where the predicates allow several
continuations the kernel backtracks over them depth-first, so an accepted
run is a proof under exactly the guidance the certificate supplies.

The search is one loop over a goal stack, not recursion, so proof height
is bounded by memory and the step budget.  A rule with several
continuations leaves a choice point, undone through a trail on
backtracking, and a cut goal under its premise drops it once the premise
has succeeded: a later failure never re-enters a premise that closed.
A traced check records each step, and a reject reports the deepest
trace prefix a failure reached; an untraced check builds no event.

Storage indexes are opaque to the kernel: they are whatever hashable
values the certificate's store clerk hands out.  At a decide the
certificate names the index to decide on (decideE in Chihani, Miller and
Renaud, "A semantic framework for proof evidence", JAR 2017), and the
kernel looks the stored entries at that index up in a map kept beside
storage, so no decide scans storage or polls the certificate per entry.

Binders are opened by environment, not by substitution (Abadi et al.,
"Explicit substitutions", JFP 1991): each workbench item, stored
positive entry and focus is a pair (formula, env), env a tuple of closed
terms with env[k] what BVar(k) stands for.  The all and some rules push
their eigenvariable or witness onto env, and an atom's arguments are
resolved only where the kernel keys it, so a check builds no formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
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
    experts choose; the clerks name storage.  Release and positive
    conjunction ask nothing: both premises of a conjunction, and the
    released formula, get the certificate as it is.

    A certificate format subclasses this and overrides the predicates it
    wants to define; leaving one alone means the corresponding kernel
    rule is never available under that format.  Predicates return
    iterables of continuations (or, for initial_e, a plain truth value)
    and may yield several to make the kernel backtrack.  The kernel reads
    each answer once into a tuple, so a tuple answer costs nothing.  It only
    threads the certificates an FPC's own predicates return, so a
    predicate may assume its format's certificate type as long as the
    check starts from one.

    Indexes must be hashable.  decide_e names them: it yields pairs
    (index, continuation), and the kernel decides on each stored positive
    entry at a named index, newest entry first.  An index may be named
    more than once; naming one that holds nothing positive is harmless.

    store_c sees the formula as the translation wrote it, its bound
    variables unresolved: its class, predicate and arity are meaningful,
    its arguments are not.  A witness some_e names must be an Eigen
    numbered by an int, or a WorldConst; the rule fails on any other.
    """

    def decide_e(self, cert: object) -> Iterable[tuple[object, object]]:
        return ()

    def store_c(self, cert: object, formula: PolarizedFormula) -> Iterable[tuple[object, object]]:
        return ()

    def initial_e(self, cert: object, index: object) -> bool:
        return False

    def andneg_c(self, cert: object) -> Iterable[tuple[object, object]]:
        return ()

    def orneg_c(self, cert: object) -> Iterable[object]:
        return ()

    def all_c(self, cert: object) -> Iterable[Callable[[Term], object]]:
        return ()

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
# A goal is a cons cell (tag, a, b, next): prove an asynchronous sequent
# (a = certificate, b = workbench, a tuple of items) or a synchronous one
# (a = certificate, b = focus item), an item being a pair (formula, env);
# emit the branch marker a (traced runs only), pop the storage bucket a,
# or cut the choice stack back to height a.  next is the rest of the stack.

_ASYNC, _SYNC, _EMIT, _POP, _CUT = range(5)
_FAIL = object()    # a rule with no continuation: backtrack
_PUSHED = object()  # trail entry: the bucket was pushed onto


def _resolve(args: tuple[Term, ...], env: tuple[Term, ...]) -> tuple[Term, ...]:
    """An atom's arguments under env.  A variable past its end is bound
    outside the entry, and keeps what substitution would leave of it:
    check_polarized takes open entries, and refusing them would need a
    closedness check longer than this one conditional."""
    n = len(env)
    return tuple((env[t.index] if t.index < n else BVar(t.index - n))
                 if isinstance(t, BVar) else t for t in args)


class _Run:
    """One check.  Storage is two maps: positive items by index with
    the step that stored them (for decide), negative atoms by predicate
    and resolved arguments with their indexes (for init).  A store
    pushes an entry and a pop goal under its premise takes it off, so a
    branch sees the entries of its path; while a choice point is live
    both go on the trail."""

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
        self.positive: dict[object, list[tuple[int, tuple]]] = {}
        self.negative: dict[tuple, list[object]] = {}
        # choice points: (step, its context, untried alternatives last first,
        # then the goals, trace length or None and trail length to restore)
        self.choices: list[tuple] = []
        self.trail: list[tuple[list, object]] = []

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
            elif tag == _EMIT:
                self.events.append(a)
            elif tag == _POP:
                item = a.pop()
                if self.choices:
                    self.trail.append((a, item))
            else:
                del self.choices[a:]
                if not self.choices:
                    self.trail.clear()
            # an alternative resumed by backtracking may fail at once too
            while goals is _FAIL:
                if self.trace and len(self.events) > len(self.deepest):
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
            mark = len(self.events) if self.trace else None
            self.choices.append((step, ctx, list(alts[:0:-1]), goals, mark, len(self.trail)))
        return step(ctx, alts[0], goals)

    def backtrack(self) -> object:
        """Resume the newest choice point with its next alternative."""
        step, ctx, untried, goals, mark, trail_len = self.choices[-1]
        alt = untried.pop()
        if not untried:
            self.choices.pop()
        while len(self.trail) > trail_len:
            bucket, item = self.trail.pop()
            if item is _PUSHED:
                bucket.pop()
            else:
                bucket.append(item)
        if self.trace:
            del self.events[mark:]
        return step(ctx, alt, goals)

    # asynchronous phase: decompose the workbench, a step's context, or decide

    def asynchronous(self, cert: object, gamma: tuple, goals: tuple | None) -> object:
        if not gamma:
            return self._decide(cert, goals)
        f = gamma[0][0]
        if isinstance(f, OrNeg):
            return self.branch(tuple(self.fpc.orneg_c(cert)), self.or_step, gamma, goals)
        if isinstance(f, AndNeg):
            return self.branch(tuple(self.fpc.andneg_c(cert)), self.and_step, gamma, goals)
        if isinstance(f, All):
            return self.branch(tuple(self.fpc.all_c(cert)), self.all_step, gamma, goals)
        if isinstance(f, DelayNeg):
            if self.trace:
                self.events.append(STRIP)
            return (_ASYNC, cert, ((f.body, gamma[0][1]),) + gamma[1:], goals)
        # everything else is storable: positives and negative literals
        if not is_positive(f) and not isinstance(f, NAtom):
            return _FAIL
        return self.branch(tuple(self.fpc.store_c(cert, f)), self.store_step, gamma, goals)

    def or_step(self, gamma: tuple, c2: object, goals: tuple | None) -> tuple:
        (f, env), rest = gamma[0], gamma[1:]
        if self.trace:
            self.events.append(ORNEG)
        return (_ASYNC, c2, ((f.left, env), (f.right, env)) + rest, goals)

    def and_step(self, gamma: tuple, pair: object, goals: tuple | None) -> tuple:
        (f, env), rest, (c_left, c_right) = gamma[0], gamma[1:], pair
        right = (_ASYNC, c_right, ((f.right, env),) + rest, goals)
        if self.trace:
            self.events.append(ANDNEG_L)
            right = (_EMIT, ANDNEG_R, None, right)
        return (_ASYNC, c_left, ((f.left, env),) + rest, right)

    def all_step(self, gamma: tuple, mk: object, goals: tuple | None) -> tuple:
        (f, env), rest = gamma[0], gamma[1:]
        eigen = Eigen(self.next_eigen)
        self.next_eigen += 1
        if self.trace:
            self.events.append(Ev("all", eigen))
        return (_ASYNC, mk(eigen), ((f.body, (eigen,) + env),) + rest, goals)

    def store_step(self, gamma: tuple, pair: object, goals: tuple | None) -> tuple:
        (index, c2), (f, env) = pair, gamma[0]
        if self.trace:
            self.events.append(Ev("store", index))
        if isinstance(f, NAtom):
            hash(index)  # where nothing keys on an index, it must still be hashable
            bucket = self.negative.setdefault((f.pred, _resolve(f.args, env)), [])
            bucket.append(index)
        else:
            # the step count orders the entries of a branch by age
            bucket = self.positive.setdefault(index, [])
            bucket.append((self.steps, gamma[0]))
        if self.choices:
            self.trail.append((bucket, _PUSHED))
        return (_ASYNC, c2, gamma[1:], (_POP, bucket, None, goals))

    def _decide(self, cert: object, goals: tuple | None) -> object:
        # one alternative per stored positive entry at a named index, newest
        # first; the stable sort keeps one entry's names in their order
        alts: list[tuple] = []
        for index, c2 in self.fpc.decide_e(cert):
            for position, item in self.positive.get(index, ()):
                alts.append((position, index, item, c2))
        alts.sort(key=itemgetter(0), reverse=True)
        return self.branch(alts, self.decide_step, None, goals)

    def decide_step(self, _: None, alt: tuple, goals: tuple | None) -> tuple:
        _, index, item, c2 = alt
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
                right = (_EMIT, ANDPOS_R, None, right)
            return (_SYNC, cert, (focus.left, env), right)
        if isinstance(focus, Exists):
            return self.branch(tuple(self.fpc.some_e(cert)), self.some_step, item, goals)
        if isinstance(focus, DelayPos):
            if self.trace:
                self.events.append(STRIP)
            return (_SYNC, cert, (focus.body, env), goals)
        if isinstance(focus, PAtom):
            key = (focus.pred, _resolve(focus.args, env))
            sanctioned = [index for index in self.negative.get(key, ())
                          if self.fpc.initial_e(cert, index)]
            if not sanctioned:
                return _FAIL
            self.choice_points += len(sanctioned) - 1
            if self.trace:
                self.events.append(Ev("init", sanctioned[0]))
            return goals
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
        return (_SYNC, c2, (focus.body, (witness,) + env), goals)


def _verdict(run: _Run, cert: object, entry: Sequence[PolarizedFormula]) -> CheckResult:
    accepted = run.run(cert, tuple((f, ()) for f in entry))
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
