"""Benchmark for kcert: the CLI end to end, and each layer from outside.

Run from the repository root:

    python3 perfbench/run.py --workload check-fittings --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): check-fittings, check-simpfit, prove, limits.

Every timed pass calls `kcert.cli.main(argv)` in-process for each input,
with stdout captured, and compares exit code and output with the answer
key.  check-fittings, check-simpfit and prove run in a worker thread
with a raised recursion limit and a large stack; limits runs on the main
thread at the interpreter's default recursion limit, so RecursionError
crashes show as failed operations.

--trace 0 prints the end-to-end metrics; --trace 1 runs the layers
directly under a tracer and prints per-layer self times and counts.
The last stdout line is one JSON object: correct, attempted, failed,
metrics.  Per-input rows, the environment and (traced) the spans are
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import threading
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import workloads
from layers import MODULES, PER_LAYER, Direct, Tracer, layer_metrics
from speed import REFERENCE_S, Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# settings of the worker thread that runs the timed workloads; without
# them the seed code crashes on the larger family members
RECURSION_LIMIT = 100_000
STACK_BYTES = 512 * 1024 * 1024

SETUP_REPS = 3      # set-up runs per process; setup_s is their median
MIN_PASSES = 3      # timed passes per run, however long they take

END_TO_END = (("wall_s", "s"), ("slowest_s", "s"), ("correct_ratio", "ratio"),
              ("decided_ratio", "ratio"), ("contract_ratio", "ratio"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))


@dataclass
class Outcome:
    """One invocation: exit code, or the innermost kcert module of the
    exception that escaped; raw and reference seconds; verdict."""

    code: int | None
    crash: str | None
    raw: float
    correct: bool
    seconds: float = 0.0

    @property
    def decided(self) -> bool:
        return self.crash is None and self.code in (0, 1)

    @property
    def contract(self) -> bool:
        return self.crash is None and self.code in (0, 1, 2)


@dataclass
class Pass:
    """One pass over all inputs.  Direct passes also carry per-input
    counts, and traced ones their spans."""

    outcomes: list[Outcome]
    factors: dict[str, float]
    counts: dict[str, dict[str, int]] = field(default_factory=dict)
    spans: list = field(default_factory=list)

    def wall(self, inputs) -> float:
        return sum(o.seconds for inp, o in zip(inputs, self.outcomes) if inp.timed)


def crash_module(exc: BaseException) -> str:
    kcert_dir = str(SRC / "kcert")
    for frame in reversed(traceback.extract_tb(exc.__traceback__)):
        if frame.filename.startswith(kcert_dir):
            stem = Path(frame.filename).stem
            return stem if stem in MODULES else "other"
    return "other"


def run_cli(main, inp) -> Outcome:
    out = io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(list(inp.argv))
    except Exception as exc:  # the CLI must not raise; record where it did
        return Outcome(None, crash_module(exc), perf_counter() - start, False)
    raw = perf_counter() - start
    return Outcome(code, None, raw,
                   code == inp.code and out.getvalue().startswith(inp.expect))


# ---------------------------------------------------------------------------
# set-up


def fresh_import() -> SimpleNamespace:
    """Import kcert and the test helpers anew, so each set-up pays for it."""
    for name in list(sys.modules):
        if name == "kcert" or name.startswith("kcert.") or name == "helpers":
            del sys.modules[name]
    return SimpleNamespace(k=importlib.import_module("kcert"),
                           cli=importlib.import_module("kcert.cli"),
                           helpers=importlib.import_module("helpers"))


def setup(workload: str, seed: int, quick: bool, workdir: Path):
    kc = fresh_import()
    input_set = workloads.InputSet(kc, workdir, random.Random(seed))
    workloads.WORKLOADS[workload](input_set, quick)
    return kc, input_set.inputs


def in_worker(fn, *args):
    """Run fn in a thread with the raised recursion limit and stack."""
    box: dict = {}

    def target() -> None:
        try:
            box["value"] = fn(*args)
        except BaseException as exc:  # handed to the caller, re-raised below
            box["error"] = exc

    default = sys.getrecursionlimit()
    sys.setrecursionlimit(RECURSION_LIMIT)
    threading.stack_size(STACK_BYTES)
    try:
        worker = threading.Thread(target=target, name="kcert-bench")
        worker.start()
        worker.join()
    finally:
        threading.stack_size(0)
        sys.setrecursionlimit(default)
    if "error" in box:
        raise box["error"]
    return box["value"]


# ---------------------------------------------------------------------------
# measurement


def timed_pass(inputs, speed: Speed, run_one) -> Pass:
    """Run every input once, reading the reference loop between inputs,
    and scale each input's time to reference seconds."""
    gc.collect()
    spans, outcomes = [], []
    for inp in inputs:
        speed.due()
        start = perf_counter()
        outcomes.append(run_one(inp))
        spans.append((start, perf_counter()))
    speed.read()
    factors = {}
    for inp, span, outcome in zip(inputs, spans, outcomes):
        factors[inp.id] = speed.factor(*span)
        outcome.seconds = outcome.raw * factors[inp.id]
    return Pass(outcomes, factors)


def cli_pass(kc, inputs, speed: Speed) -> Pass:
    return timed_pass(inputs, speed, lambda inp: run_cli(kc.cli.main, inp))


def direct_pass(kc, inputs, speed: Speed, traced: bool) -> Pass:
    """One pass that calls the layers directly, under a tracer that is
    either on or off."""
    tracer = Tracer(traced)
    direct = Direct(kc, tracer)
    counts: dict[str, dict[str, int]] = {}

    def run_one(inp) -> Outcome:
        start = perf_counter()
        try:
            code, counts[inp.id] = direct.run(inp)
        except Exception as exc:  # the same boundary as run_cli
            counts[inp.id] = {}
            return Outcome(None, crash_module(exc), perf_counter() - start, False)
        return Outcome(code, None, perf_counter() - start, code == inp.code)

    done = timed_pass(inputs, speed, run_one)
    done.counts, done.spans = counts, tracer.spans
    return done


def repeat_within(seconds: float, at_least: int):
    """Yield for each repetition: at least `at_least` times, then while
    one more repetition, as long as the last, still ends within
    `seconds` of the start."""
    start = last = perf_counter()
    count = 0
    while True:
        now = perf_counter()
        if count >= at_least and now + (now - last) - start > seconds:
            return
        last = now
        count += 1
        yield count


def measure(kc, inputs, seconds: float, min_passes: int) -> tuple[Pass, list[Pass]]:
    """Untraced: one direct pass for counts (and warm-up), then CLI
    passes until `seconds` have gone by."""
    speed = Speed()
    warm = direct_pass(kc, inputs, speed, traced=False)
    passes: list[Pass] = []
    for _ in repeat_within(seconds, min_passes):
        passes.append(cli_pass(kc, inputs, speed))
    return warm, passes


def measure_traced(kc, inputs, seconds: float, min_rounds: int) -> list[tuple[Pass, Pass, Pass]]:
    """Rounds of three passes: CLI, direct untraced, direct traced."""
    speed = Speed()
    rounds = []
    for _ in repeat_within(seconds, min_rounds):
        rounds.append((cli_pass(kc, inputs, speed),
                       direct_pass(kc, inputs, speed, traced=False),
                       direct_pass(kc, inputs, speed, traced=True)))
    return rounds


# ---------------------------------------------------------------------------
# reporting


def ratios(passes: list[Pass]) -> dict[str, float]:
    runs = [o for p in passes for o in p.outcomes]
    return {"correct_ratio": sum(o.correct for o in runs) / len(runs),
            "decided_ratio": sum(o.decided for o in runs) / len(runs),
            "contract_ratio": sum(o.contract for o in runs) / len(runs)}


def wrong_inputs(inputs, passes: list[Pass], timed_threads: bool) -> list[str]:
    """Inputs that make the run incorrect.  A timed workload must give
    every verdict, and the right one.  On limits, crashes are failed
    operations, but a verdict that was given must be right."""
    return sorted({inp.id for p in passes for inp, o in zip(inputs, p.outcomes)
                   if not o.correct and (timed_threads or o.decided)})


def rows(inputs, counts, passes: list[Pass]) -> list[dict]:
    out = []
    for i, inp in enumerate(inputs):
        first = passes[0].outcomes[i]
        c = counts.get(inp.id, {})
        out.append({
            "id": inp.id, "family": inp.family, "n": inp.n, "format": inp.fmt,
            "command": inp.command, "timed": inp.timed, "expected": inp.code,
            "verdict": first.code if first.crash is None else f"crash:{first.crash}",
            "correct": first.correct,
            "seconds": statistics.median(p.outcomes[i].seconds for p in passes),
            "samples_s": [p.outcomes[i].seconds for p in passes],
            "raw_samples_s": [p.outcomes[i].raw for p in passes],
            "steps": sum(v for k, v in c.items()
                         if k.startswith("kernel.") and k.endswith(".steps")),
            "choice_points": sum(v for k, v in c.items() if k.endswith(".choice_points")),
            "tableau_steps": c.get("tableau.steps", 0),
            "bytes": c.get("problems.in_bytes", 0) + c.get("problems.out_bytes", 0),
        })
    return out


def environment(args, timed_threads: bool) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread": "worker" if timed_threads else "main",
        "recursion_limit": RECURSION_LIMIT if timed_threads else sys.getrecursionlimit(),
        "stack_bytes": (STACK_BYTES if timed_threads
                        else resource.getrlimit(resource.RLIMIT_STACK)[0]),
        "reference_s": REFERENCE_S,
        "workload": args.workload, "seed": args.seed, "corpus_seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "quick": args.quick,
    }


def untraced_result(inputs, warm: Pass, passes: list[Pass], setup_s: float,
                    correct: bool) -> tuple[dict, dict]:
    walls = [p.wall(inputs) for p in passes]
    report = {"rows": rows(inputs, warm.counts, passes), "pass_walls_s": walls}
    metrics = ratios(passes)
    # no time is reported for a run that got a verdict wrong
    if correct:
        # one pass, as the sum of each input's median over the passes,
        # which is steadier than the median of the pass totals
        medians = [statistics.median(p.outcomes[i].seconds for p in passes)
                   for i, inp in enumerate(inputs) if inp.timed]
        metrics["wall_s"] = sum(medians)
        metrics["slowest_s"] = max(medians)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["setup_s"] = setup_s
    units = dict(END_TO_END)
    return {name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()}, report


def traced_result(inputs, rounds: list[tuple[Pass, Pass, Pass]]) -> tuple[dict, dict]:
    cli, plain, traced = (list(p) for p in zip(*rounds))
    crashes: dict[str, int] = {}
    for o in cli[-1].outcomes:
        if o.crash:
            crashes[o.crash] = crashes.get(o.crash, 0) + 1
    metrics = layer_metrics(
        inputs, traced, cli_walls=[p.wall(inputs) for p in cli],
        direct_walls=[p.wall(inputs) for p in plain],
        traced_walls=[p.wall(inputs) for p in traced], crashes=crashes)
    spans = [[s.id, s.name, s.tag, s.start, s.end, s.parent, s.input]
             for s in traced[-1].spans]
    report = {"rows": rows(inputs, traced[-1].counts, cli), "per_layer": metrics,
              "span_columns": ["id", "name", "tag", "start", "end", "parent", "input"],
              "spans": spans}
    return {m.name: {"value": metrics[m.name], "unit": m.unit}
            for m in PER_LAYER}, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one tiny input, one set-up, one pass (smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "kcert" / "__init__.py").is_file():
        print(f"error: no kcert package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]

    timed_threads = args.workload not in workloads.DEFAULT_LIMITS
    run = in_worker if timed_threads else (lambda fn, *a: fn(*a))
    reps = 1 if args.quick or args.trace else SETUP_REPS
    min_passes = 1 if args.quick else MIN_PASSES
    seconds = 0 if args.quick else args.seconds
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        speed = Speed()
        setup_times = []
        for _ in range(reps):
            speed.read()
            start = perf_counter()
            kc, inputs = in_worker(setup, args.workload, args.seed, args.quick, workdir)
            end = perf_counter()
            speed.read()
            setup_times.append((end - start) * speed.factor(start, end))
        inputs = random.Random(args.seed).sample(inputs, len(inputs))
        # keep the harness's own objects out of the collector's way, so
        # the passes pay for garbage collection as a fresh CLI would
        gc.collect()
        gc.freeze()
        if args.trace:
            rounds = run(measure_traced, kc, inputs, seconds, min(2, min_passes))
            passes = [p for r in rounds for p in r]
        else:
            warm, cli = run(measure, kc, inputs, seconds, min_passes)
            passes = [warm] + cli
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wrong = wrong_inputs(inputs, passes, timed_threads)
    if wrong:
        print("error: wrong or missing verdicts: " + ", ".join(wrong), file=sys.stderr)
    if args.trace:
        metrics, report = traced_result(inputs, rounds)
    else:
        metrics, report = untraced_result(inputs, warm, cli,
                                          statistics.median(setup_times), not wrong)
        passes = cli  # the warm-up pass is not counted
    result = {"correct": not wrong,
              "attempted": sum(len(p.outcomes) for p in passes),
              "failed": sum(not o.decided for p in passes for o in p.outcomes),
              "metrics": metrics}
    report["env"] = environment(args, timed_threads)
    report["setup_runs_s"] = setup_times
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"report: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
