"""Per-layer timing from outside the package.

`Direct` runs an input's command the way `kcert.cli` does, but calls
each layer's public function itself, so a `Tracer` can put a span around
every call: parse, translate, prove, emit, check and print.  Spans stay
in memory; `layer_metrics` turns the spans and counts of several passes
into per-layer self times and counts.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace
from typing import Callable

from workloads import Input

# every kcert module a crash can be attributed to; anything else is "other"
MODULES = ("cli", "examples", "fittings", "formulas", "kernel", "problems",
           "simpfit", "tableau")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    input: str
    # a second, finer metric the span also counts toward, known only
    # once the call returns (accept or reject, prove or saturate)
    tag: str = ""


class Tracer:
    def __init__(self, on: bool):
        self.on = on
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def call(self, name: str, input_id: str, fn: Callable, *args):
        if not self.on:
            return fn(*args)
        span = Span(len(self.spans), name, 0.0, 0.0,
                    self._stack[-1] if self._stack else None, input_id)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = perf_counter()
        try:
            return fn(*args)
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def tag_last(self, tag: str) -> None:
        if self.on:
            self.spans[-1].tag = tag


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover.
    Children of one span run one after another, never overlapping."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def _entry(k, theorem):
    # the kernel's entry workbench, built exactly as kcert.kernel.check does
    return k.delay_if_negative(k.polarized_translation(theorem, k.W0))


def _translation_text(k, formula) -> str:
    return (f"st: {k.render_fo(k.standard_translation(formula, k.W0))}\n"
            f"tr: {k.render_polarized(k.polarized_translation(formula, k.W0))}\n")


def tableau_counts(k, outcome) -> dict[str, int]:
    """Size of a returned tableau: expansion steps, worlds and box
    propagations, or the entries and worlds of an open branch."""
    if isinstance(outcome, k.OpenBranch):
        return {"tableau.steps": len(outcome.entries),
                "tableau.worlds": len(outcome.model.worlds)}
    counts = {"tableau.steps": 0, "tableau.worlds": 1, "tableau.box_props": 0}
    stack = [outcome.step]
    while stack:
        step = stack.pop()
        counts["tableau.steps"] += 1
        counts["tableau.worlds"] += step.rule == "diaF"
        counts["tableau.box_props"] += step.rule == "boxF"
        stack.extend(step.children)
    return counts


def dectree_nodes(tree) -> int:
    n, stack = 0, [tree]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.children)
    return n


class Direct:
    """Run inputs by calling the layers in the CLI's order.  `run`
    returns the exit code the CLI would give and the input's counts."""

    def __init__(self, kc: SimpleNamespace, tracer: Tracer):
        self.k = kc.k
        self.tr = tracer

    def run(self, inp: Input) -> tuple[int, dict[str, int]]:
        counts: dict[str, int] = {}
        code = self.tr.call("input", inp.id, getattr(self, "_" + inp.command),
                            inp, counts)
        return code, counts

    def _kernel(self, iid: str, fmt: str, theorem, cert, counts) -> bool:
        k, tr = self.k, self.tr
        entry = tr.call("formulas.translate", iid, _entry, k, theorem)
        fpc = k.FITTINGS if fmt == "fittings" else k.SIMPFIT
        result = tr.call(f"kernel.{fmt}.check", iid, k.check_polarized,
                         (entry,), cert, fpc)
        verdict = "accept" if result.accepted else "reject"
        tr.tag_last(f"kernel.{fmt}.{verdict}")
        counts[f"kernel.{fmt}.steps"] = result.steps
        counts[f"kernel.{fmt}.choice_points"] = result.choice_points
        if result.accepted:
            counts[f"kernel.{fmt}.accepted_steps"] = result.steps
            counts[f"kernel.{fmt}.trace_len"] = len(result.trace)
        return result.accepted

    def _check(self, inp: Input, counts) -> int:
        k = self.k
        with open(inp.argv[1], encoding="utf-8") as handle:
            text = handle.read()
        counts["problems.in_bytes"] = len(text)
        pf = self.tr.call("problems.parse", inp.id, k.parse_problem, text)
        fmt = "fittings" if isinstance(pf.certificate, k.FitCert) else "simpfit"
        return 0 if self._kernel(inp.id, fmt, pf.theorem, pf.certificate, counts) else 1

    def _prove(self, inp: Input, counts) -> int:
        k, tr, iid = self.k, self.tr, inp.id
        text = inp.argv[1]
        counts["problems.in_bytes"] = len(text)
        theorem = tr.call("problems.parse", iid, k.parse_formula_text, text)
        outcome = tr.call("tableau.search", iid, k.prove, theorem)
        counts.update(tableau_counts(k, outcome))
        if isinstance(outcome, k.OpenBranch):
            tr.tag_last("tableau.saturate")
            k.format_model(outcome.model)
            return 1
        tr.tag_last("tableau.prove")
        emit = k.emit_fitcert if inp.fmt == "fittings" else k.emit_simpfitcert
        cert = tr.call(f"tableau.emit_{inp.fmt}", iid, emit, outcome, theorem)
        if inp.fmt == "fittings":
            counts["tableau.dectree_nodes"] = dectree_nodes(cert.tree)
        else:
            counts["tableau.closures"] = len(cert.closures)
            counts["tableau.boxinfos"] = len(cert.boxinfos)
        if not self._kernel(iid, inp.fmt, theorem, cert, counts):
            return 2
        out = tr.call("problems.format", iid, k.format_problem,
                      k.ProblemFile("emitted", theorem, cert))
        counts["problems.out_bytes"] = len(out)
        return 0

    def _translate(self, inp: Input, counts) -> int:
        k, tr, iid = self.k, self.tr, inp.id
        text = inp.argv[1]
        counts["problems.in_bytes"] = len(text)
        formula = tr.call("problems.parse", iid, k.parse_formula_text, text)
        out = tr.call("formulas.translate", iid, _translation_text, k, formula)
        return 0 if out == inp.expect else 2


# ---------------------------------------------------------------------------
# per-layer metrics


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str


TIMES = ("problems.parse", "problems.format", "formulas.translate",
         "kernel.fittings.check", "kernel.fittings.accept", "kernel.fittings.reject",
         "kernel.simpfit.check", "kernel.simpfit.accept", "kernel.simpfit.reject",
         "tableau.prove", "tableau.saturate",
         "tableau.emit_fittings", "tableau.emit_simpfit")

COUNTS = (("problems.in_bytes", "bytes"), ("problems.out_bytes", "bytes"),
          ("kernel.fittings.steps", "count"), ("kernel.fittings.choice_points", "count"),
          ("kernel.simpfit.steps", "count"), ("kernel.simpfit.choice_points", "count"),
          ("tableau.steps", "count"), ("tableau.worlds", "count"),
          ("tableau.box_props", "count"), ("tableau.dectree_nodes", "count"),
          ("tableau.closures", "count"), ("tableau.boxinfos", "count"))

PER_LAYER = (
    [Metric(f"{t}_s", "s") for t in TIMES]
    + [Metric(name, unit) for name, unit in COUNTS]
    + [Metric("kernel.fittings.us_per_step", "us"),
       Metric("kernel.fittings.step_growth", "ratio"),
       Metric("kernel.simpfit.useful_ratio", "ratio"),
       Metric("tableau.us_per_step", "us"),
       Metric("cli.overhead_s", "s"),
       Metric("trace.overhead_s", "s")]
    + [Metric(f"limits.crash.{m}", "count") for m in MODULES + ("other",)])


def pass_layer_times(spans: list[Span], factors: dict[str, float], timed: set[str],
                     ) -> tuple[dict[str, float], dict[str, float], float]:
    """Self time per layer over one pass, per input and layer, and the
    total over all layers (the harness's own "input" spans excluded),
    in reference seconds: factors scales each input's spans.  Only the
    inputs in `timed` count, as they do for the end-to-end times."""
    per_layer: dict[str, float] = defaultdict(float)
    per_input: dict[str, float] = defaultdict(float)
    total = 0.0
    for span, own in zip(spans, self_times(spans)):
        if span.input not in timed:
            continue
        own *= factors[span.input]
        if span.name != "input":
            total += own
        for name in (span.name, span.tag):
            if name:
                per_layer[name] += own
                per_input[f"{span.input}|{name}"] += own
    return per_layer, per_input, total


def layer_metrics(inputs: list[Input], traced: list, cli_walls: list[float],
                  direct_walls: list[float], traced_walls: list[float],
                  crashes: dict[str, int]) -> dict[str, float]:
    """Medians over the traced passes; counts repeat exactly from pass to
    pass, so they come from the last one.  crashes maps module to crashes
    in one CLI pass."""
    timed = {inp.id for inp in inputs if inp.timed}
    per_pass = [pass_layer_times(p.spans, p.factors, timed) for p in traced]
    counts = {iid: c for iid, c in traced[-1].counts.items() if iid in timed}

    def med(key: str, i: int = 0) -> float:
        return statistics.median(p[i].get(key, 0.0) for p in per_pass)

    out: dict[str, float] = {f"{t}_s": med(t) for t in TIMES}
    totals: dict[str, int] = defaultdict(int)
    for c in counts.values():
        for key, value in c.items():
            totals[key] += value
    for name, _ in COUNTS:
        out[name] = totals[name]

    fit_steps = totals["kernel.fittings.steps"]
    out["kernel.fittings.us_per_step"] = (
        out["kernel.fittings.check_s"] * 1e6 / fit_steps if fit_steps else 0.0)
    out["kernel.fittings.step_growth"] = _taut_growth(inputs, counts, med)
    accepted = totals["kernel.simpfit.accepted_steps"]
    out["kernel.simpfit.useful_ratio"] = (
        totals["kernel.simpfit.trace_len"] / accepted if accepted else 0.0)
    tab_steps = totals["tableau.steps"]
    out["tableau.us_per_step"] = (
        (out["tableau.prove_s"] + out["tableau.saturate_s"]) * 1e6 / tab_steps
        if tab_steps else 0.0)
    out["cli.overhead_s"] = (statistics.median(cli_walls)
                             - statistics.median(p[2] for p in per_pass))
    out["trace.overhead_s"] = (statistics.median(traced_walls)
                               - statistics.median(direct_walls))
    for m in MODULES + ("other",):
        out[f"limits.crash.{m}"] = crashes.get(m, 0)
    return out


def _taut_growth(inputs: list[Input], counts, med) -> float:
    """Microseconds per fittings kernel step on the largest accepted taut
    over the smallest; 0 when fewer than two sizes were checked."""
    rates = {}
    for inp in inputs:
        c = counts.get(inp.id, {})
        steps = c.get("kernel.fittings.accepted_steps")
        if inp.family == "taut" and steps:
            rates[inp.n] = med(f"{inp.id}|kernel.fittings.check", 1) * 1e6 / steps
    if len(rates) < 2:
        return 0.0
    return rates[max(rates)] / rates[min(rates)]
