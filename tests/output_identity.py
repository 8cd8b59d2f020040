"""Compare what `kcert prove` and `kcert oracle` print in two checkouts of
this repository.

    python3 tests/output_identity.py OLD NEW

OLD and NEW are each a directory holding `src/kcert`, or a git revision
of this repository, which is exported to a temporary directory with
`git archive`.  The inputs are the agreement corpus of tests/helpers.py;
taut, kchain, wide, kchain_bad and wide_bad at n = 1..6, 8, 12, 16, 24
and 32; php, php_bad and box_php(n, 2) at n = 1 and 2; the prove
benchmark's families at its sizes, taut(128), kchain(64) and
kchain_bad(64) and (128); the deep chains of the limits benchmark,
box_taut at d = 32 and 250 and box_atom at d = 150 and 400, from
perfbench/families.py; and
three formulas whose prover makes a world's child after a cousin of
that child, so that the order of world numbers and the order of
prefixes disagree.  They are built once, from this file's own checkout,
and written out as formula text, so both sides read the same inputs.

For each input and each format, fittings and simpfit, a record holds
the sha256 of `kcert prove FORMULA --emit FORMAT`'s stdout and its exit
code.  When a certificate is emitted, it also holds the verdict, steps
and choice points of checking that certificate, untraced.  One more
record per input holds the sha256 of `kcert oracle FORMULA`'s stdout
and its exit code; an input over the oracle's cap exits 2 at once.  Each
checkout is recorded by one subprocess that imports kcert from that
checkout only and calls `kcert.cli.main` in process, at the default
recursion limit.  The two subprocesses run one after the other, in
about 15-25 s together.  The script prints every input whose records
differ and exits 1 if there is one, else 0.  Pytest does not collect
this file.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
FORMATS = ("fittings", "simpfit")
SIZES = (1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 32)
# in the refuted negation of each, a box at the root leaves a diamond at
# world 1.1 only after world 1.2's own diamond has made 1.2.1, so 1.1.1 is
# numbered after its cousin; a box at both 1.1 and 1.2 then reaches the
# two on a tie in origin, where the prover must take 1.1.1 first
OUT_OF_ORDER = (
    "(or (or (dia (box (+ p))) (box (+ p))) (or (box (box (+ p))) (dia (dia (- p)))))",
    "(or (or (or (dia (box (- p))) (or (box (+ p)) (box (box (+ p))))) (dia (dia (dia (- q)))))"
    " (dia (dia (box (+ q)))))",
    "(or (or (or (or (dia (dia (+ q))) (box (- p))) (dia (box (- p)))) (box (box (+ p))))"
    " (dia (dia (- q))))",
)


def inputs() -> list[str]:
    """The formula text of every input, in a fixed order."""
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE), str(HERE.parent / "perfbench")]
    from families import box_atom, box_taut
    from kcert.firstorder import format_formula
    from helpers import (agreement_corpus, box_php, kchain, kchain_bad, php, php_bad, taut,
                         wide, wide_bad)

    formulas = agreement_corpus()
    for family in (taut, kchain, wide, kchain_bad, wide_bad):
        formulas += [family(n) for n in SIZES]
    for n in (1, 2):
        formulas += [php(n), php_bad(n), box_php(n, 2)]
    formulas += [taut(128), kchain(64), kchain_bad(64), kchain_bad(128)]
    texts = [format_formula(f) for f in formulas]
    texts += [box_taut(d) for d in (32, 250)] + [box_atom(d) for d in (150, 400)]
    return texts + list(OUT_OF_ORDER)


def record(inputs_path: str, out_path: str) -> None:
    """Run every input through the kcert on sys.path; one JSON line each."""
    import kcert
    from kcert.cli import main
    from kcert.kernel import check
    from kcert.problems import parse_problem

    assert Path(kcert.__file__).resolve().parents[1] == Path(os.environ["PYTHONPATH"]).resolve()

    with open(inputs_path, encoding="utf-8") as src, open(out_path, "w", encoding="utf-8") as out:
        for text in src.read().splitlines():
            row = []
            for fmt in FORMATS:
                stdout = io.StringIO()
                with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                    code = main(["prove", text, "--emit", fmt])
                printed = stdout.getvalue()
                checked = None
                if code == 0:
                    problem = parse_problem(printed)
                    r = check(problem.theorem, problem.certificate, trace=False)
                    checked = [r.accepted, r.steps, r.choice_points]
                row.append([hashlib.sha256(printed.encode()).hexdigest(), code, checked])
            stdout = io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                code = main(["oracle", text])
            row.append([hashlib.sha256(stdout.getvalue().encode()).hexdigest(), code])
            out.write(json.dumps(row) + "\n")


def run_checkout(checkout: Path, inputs_path: str, out_path: str) -> float:
    """Record one checkout in a subprocess; return its seconds."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, __file__, "--record", inputs_path, out_path],
                   env=env, check=True)
    return time.perf_counter() - start


def export(spec: str, target: Path) -> Path:
    """A checkout directory for spec: spec itself, or a git revision
    exported to target."""
    if (Path(spec) / "src" / "kcert").is_dir():
        return Path(spec)
    target.mkdir()
    archive = subprocess.run(["git", "-C", str(HERE.parent), "archive", spec],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)
    return target


def compare(old: str, new: str) -> int:
    texts = inputs()
    with tempfile.TemporaryDirectory() as scratch:
        inputs_path = os.path.join(scratch, "inputs.txt")
        Path(inputs_path).write_text("".join(t + "\n" for t in texts), encoding="utf-8")
        rows = []
        for side, spec in (("old", old), ("new", new)):
            out_path = os.path.join(scratch, side + ".jsonl")
            seconds = run_checkout(export(spec, Path(scratch) / side), inputs_path, out_path)
            print(f"{side} {spec}: {seconds:.1f} s")
            rows.append(Path(out_path).read_text(encoding="utf-8").splitlines())
    differ = 0
    for text, a, b in zip(texts, *rows):
        if a != b:
            differ += 1
            print(f"differs: {text}\n  old {a}\n  new {b}")
    proved = sum(json.loads(row)[0][1] == 0 for row in rows[1])
    print(f"{len(texts)} inputs, {2 * len(texts)} prove runs, {proved} proved at new, "
          f"{len(texts)} oracle runs; {differ} differ")
    return 1 if differ or len(rows[0]) != len(rows[1]) else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--record"]:
        record(*sys.argv[2:])
    elif len(sys.argv) == 3:
        sys.exit(compare(*sys.argv[1:]))
    else:
        sys.exit(__doc__)
