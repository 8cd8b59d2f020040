"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py

Checks the answer key against independent references at sizes they can
handle (the semantic oracle, the brute-force proof search of the test
helpers), and runs every workload in quick mode to see that each metric
in BENCHMARK.json is printed with its unit.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import families  # noqa: E402
from helpers import brute_force_accepts, certificate_mutants  # noqa: E402
from kcert import (  # noqa: E402
    FITTINGS,
    SIMPFIT,
    ProblemFile,
    bounded_validity_oracle,
    emit_fitcert,
    emit_simpfitcert,
    format_formula,
    format_problem,
    parse_formula_text,
    parse_problem,
    prove,
)
from kcert.cli import main as cli_main  # noqa: E402

# sizes whose formulas stay within the oracle's 8-connective cap
ORACLE_SIZES = {
    "taut": (1, 2, 3, 4),
    "kchain": (1,),
    "wide": (1, 2),
    "kchain_bad": (1, 2, 3),
    "wide_bad": (1, 2, 3),
    "box_taut": (1, 4, 7),
    "box_atom": (1, 4, 8),
}


@pytest.mark.parametrize("family", sorted(ORACLE_SIZES))
def test_family_verdict_matches_oracle(family):
    for n in ORACLE_SIZES[family]:
        formula = parse_formula_text(families.FAMILIES[family](n))
        assert bounded_validity_oracle(formula) == families.VALID[family], (family, n)


@pytest.mark.parametrize("family", sorted(families.FAMILIES))
def test_family_text_is_canonical(family):
    # the prove answer key expects the theorem echoed back verbatim
    for n in (1, 2, 5):
        text = families.FAMILIES[family](n)
        assert format_formula(parse_formula_text(text)) == text


def test_translate_output_matches_cli():
    for d in (1, 2, 3, 6):
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli_main(["translate", families.box_atom(d)]) == 0
        assert out.getvalue() == families.translate_output(d)


def _emitted(family, n, emit):
    theorem = parse_formula_text(families.FAMILIES[family](n))
    return theorem, emit(prove(theorem), theorem)


@pytest.mark.parametrize("family,n", [("taut", 2), ("taut", 4), ("kchain", 1), ("wide", 2)])
def test_leaf_corruption_is_rejected(family, n):
    theorem, cert = _emitted(family, n, emit_fitcert)
    text = format_problem(ProblemFile("x", theorem, cert))
    for choice in range(3):
        bad = families.corrupt_late_leaf(text, choice)
        assert bad != text
        pf = parse_problem(bad)
        assert not brute_force_accepts(pf.theorem, pf.certificate, FITTINGS)


@pytest.mark.parametrize("family,n", [("kchain", 1), ("wide", 2)])
def test_drop_closure_mutants_are_rejected(family, n):
    theorem, cert = _emitted(family, n, emit_simpfitcert)
    mutants = [m for label, m in certificate_mutants(cert) if label == "drop-closure"]
    assert mutants
    for mutant in mutants:
        assert not brute_force_accepts(theorem, mutant, SIMPFIT)


def test_last_boxinfo_of_wide3_is_needed():
    theorem, cert = _emitted("wide", 3, emit_simpfitcert)
    mutant = [m for label, m in certificate_mutants(cert) if label == "drop-boxinfo"][-1]
    assert not brute_force_accepts(theorem, mutant, SIMPFIT)


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", [w["name"] for w in _benchmark()["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_mode_prints_every_metric(workload, trace):
    bench = _benchmark()
    proc = subprocess.run(
        [sys.executable, *bench["command"][1:], "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
