"""The package as a whole: kcert.__all__ is the public API the README
lists, only the functions allowed below call themselves, and the kernel
has just the connectives and rules that the translation needs."""

import ast
import re
from pathlib import Path

import kcert
from kcert.formulas import PolarizedFormula, W0, delay_if_negative, polarized_translation
from kcert.kernel import check
from kcert.tableau import emit_fitcert, prove
from helpers import agreement_corpus, kchain

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# every function in src/kcert that calls itself by name, with the reason
# it may still recurse; anything else walks a formula or a tree with an
# explicit stack, so no input is too deep for it
RECURSIVE = {
    "tableau._tree_models.satisfy": "the oracle is capped at 8 connectives",
    "tableau._tree_models.satisfy.build": "the oracle is capped at 8 connectives",
    "tableau._assemble.place": "the oracle is capped at 8 connectives",
}


def test_all_resolves_and_matches_the_readme():
    for name in kcert.__all__:
        assert getattr(kcert, name) is not None, name
    section = README.read_text(encoding="utf-8").split("### Public API", 1)[1]
    bullets = section[section.index("\n- "):].split("\n#", 1)[0]
    listed = re.findall(r"`([^`]+)`", bullets)
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(kcert.__all__)


def _calls_itself(fn: ast.FunctionDef) -> bool:
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if isinstance(callee, ast.Name) and callee.id == fn.name:
            return True
        if (isinstance(callee, ast.Attribute) and callee.attr == fn.name
                and isinstance(callee.value, ast.Name) and callee.value.id in ("self", "cls")):
            return True
    return False


def test_only_the_allowed_functions_recurse():
    found = []
    todo = [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted((ROOT / "src" / "kcert").glob("*.py"))]
    while todo:
        name, node = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = f"{name}.{child.name}"
                if not isinstance(child, ast.ClassDef) and _calls_itself(child):
                    found.append(qualname)
                todo.append((qualname, child))
            else:
                todo.append((name, child))
    assert sorted(found) == sorted(RECURSIVE)


def test_the_kernel_has_only_what_the_translation_writes():
    written = set()
    for f in agreement_corpus():
        todo = [delay_if_negative(polarized_translation(f, W0))]
        while todo:
            node = todo.pop()
            written.add(type(node))
            todo += [getattr(node, part) for part in ("left", "right", "body")
                     if hasattr(node, part)]
    assert set(PolarizedFormula.__args__) == written
    # every rule the kernel can report shows in one accepted proof
    source = (ROOT / "src" / "kcert" / "kernel.py").read_text(encoding="utf-8")
    kinds = {node.args[0].value for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "Ev"}
    goal = kchain(1)
    result = check(goal, emit_fitcert(prove(goal), goal))
    assert result.accepted
    assert {ev.kind for ev in result.trace} == kinds
    assert len(kinds) == 10
