"""The package as a whole: kcert.__all__ is the public API the README
lists, and the README's library example runs; every other name src/kcert
defines is reached from that API or from the kcert command, so code only
the tests use lives in tests/; only the functions allowed below call
themselves, the kernel imports only the trusted syntax, and the kernel
has just the connectives and rules that the translation needs."""

import ast
import re
from pathlib import Path

import kcert
from kcert.fittings import FITTINGS
from kcert.formulas import PolarizedFormula, W0, delay_if_negative, polarized_translation
from kcert.kernel import Fpc, check
from kcert.simpfit import SIMPFIT
from kcert.tableau import emit_fitcert, emit_simpfitcert, prove
from examples import (
    EXAMPLE1_THEOREM,
    EXAMPLE2_THEOREM,
    TAUT_THEOREM,
    ftab1_cert,
    ftab2_cert,
    sftab1_cert,
    sftab2_cert,
    taut_cert,
)
from helpers import agreement_corpus, kchain, wide

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


def test_the_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    exec(code, scope)  # the example asserts its own result
    assert scope["result"].accepted


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


# the code a sceptic reads: the kernel and the import closure it trusts
TRUSTED = {"kernel", "formulas"}
TRUSTED_MAX_LINES = 655


def _kcert_imports(tree: ast.Module) -> list[tuple[str, str | None]]:
    """(module, name) for each name a module imports from kcert, name None
    where it imports a whole module; the package itself is __init__."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("kcert")):
            module = (node.module or "").removeprefix("kcert").lstrip(".")
            out += [(module, a.name) if module else (a.name, None) for a in node.names]
        elif isinstance(node, ast.Import):
            out += [(a.name.removeprefix("kcert").lstrip(".") or "__init__", None)
                    for a in node.names if a.name.split(".")[0] == "kcert"]
    return out


def _defines(node: ast.stmt) -> set[str]:
    """The names a top-level statement defines, or sets an attribute of."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)}
    return set()


def _defined(tree: ast.Module) -> set[str]:
    return set().union(*map(_defines, tree.body))


def test_the_trusted_base_is_the_kernel_and_formulas():
    src = ROOT / "src" / "kcert"
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in src.glob("*.py")}
    closure, todo = set(), ["kernel"]
    while todo:
        name = todo.pop()
        if name not in closure:
            closure.add(name)
            todo += [module for module, _ in _kcert_imports(trees[name])]
    assert closure == TRUSTED
    assert _kcert_imports(trees["formulas"]) == []
    # each name is imported from the module that defines it, so no
    # module re-exports another's and no name is defined twice
    others = [*(ROOT / "tests").glob("*.py"), ROOT / "fixtures" / "make_fixtures.py"]
    for tree in [*trees.values(), *(ast.parse(p.read_text(encoding="utf-8")) for p in others)]:
        for module, name in _kcert_imports(tree):
            if name is not None:
                assert name in _defined(trees[module]), (module, name)
    owners = [name for tree in trees.values() for name in _defined(tree)]
    assert len(owners) == len(set(owners))
    lines = sum(len((src / f"{name}.py").read_text(encoding="utf-8").splitlines())
                for name in TRUSTED)
    assert lines <= TRUSTED_MAX_LINES
    stated = re.search(r"The trusted base is `kernel.py` and `formulas.py`, ([\d,]+) lines",
                       README.read_text(encoding="utf-8"))
    assert stated and int(stated[1].replace(",", "")) == lines


def test_every_package_name_is_reached_from_the_api_or_a_command():
    # a name is reached if it is public, is the function of a console
    # script, is used by module code that runs on import, or is used by
    # the definition of a reached name; matching is by name alone, so a
    # use counts wherever the name is spelled
    uses: dict[str, set[str]] = {}
    todo = list(kcert.__all__)
    scripts = (ROOT / "pyproject.toml").read_text(encoding="utf-8").split("[project.scripts]")[1]
    todo += re.findall(r'= "kcert[\w.]*:(\w+)"', scripts.split("\n[")[0])
    for path in (ROOT / "src" / "kcert").glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            used = [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                    if isinstance(n, (ast.Name, ast.Attribute))]
            names = _defines(node)
            for name in names:
                uses.setdefault(name, set()).update(used)
            if not names:
                todo += used
    reached = set()
    while todo:
        name = todo.pop()
        if name in uses and name not in reached:
            reached.add(name)
            todo += uses[name]
    unreached = sorted(set(uses) - reached - {"__all__"})
    assert not unreached, f"no API name or command reaches {unreached}"


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


# the experts choose, the clerks name storage; the kernel asks nothing else
PREDICATES = {"decide_e", "initial_e", "some_e", "store_c", "orneg_c", "andneg_c", "all_c"}


def _predicates(cls: type) -> set[str]:
    return {name for name, value in vars(cls).items()
            if callable(value) and not name.startswith("_")}


class _Recorder(Fpc):
    """Delegates to an FPC, and records which predicates were called and
    which returned a continuation other than the certificate given."""

    def __init__(self, inner: Fpc):
        self.inner = inner
        self.called: set[str] = set()
        self.moved: set[str] = set()

    def _see(self, name, cert, alts, conts):
        self.called.add(name)
        alts = list(alts)
        if any(c != cert for alt in alts for c in conts(alt)):
            self.moved.add(name)
        return alts

    def decide_e(self, cert):
        return self._see("decide_e", cert, self.inner.decide_e(cert), lambda alt: alt[1:])

    def store_c(self, cert, formula):
        return self._see("store_c", cert, self.inner.store_c(cert, formula), lambda alt: alt[1:])

    def initial_e(self, cert, index):
        self.called.add("initial_e")
        return self.inner.initial_e(cert, index)

    def orneg_c(self, cert):
        return self._see("orneg_c", cert, self.inner.orneg_c(cert), lambda alt: (alt,))

    def andneg_c(self, cert):
        return self._see("andneg_c", cert, self.inner.andneg_c(cert), lambda alt: alt)

    def all_c(self, cert):
        self.called.add("all_c")

        # the continuation is made only once the kernel mints the eigenvariable
        def opened(mk):
            return lambda eigen: self._see("all_c", cert, [mk(eigen)], lambda alt: (alt,))[0]
        return [opened(mk) for mk in self.inner.all_c(cert)]

    def some_e(self, cert):
        return self._see("some_e", cert, self.inner.some_e(cert), lambda alt: alt[1:])


def test_the_fpcs_answer_only_the_seven_predicates():
    assert _predicates(Fpc) == PREDICATES
    assert _predicates(type(FITTINGS)) == _predicates(type(SIMPFIT)) == PREDICATES


def test_every_predicate_is_asked_and_all_but_initial_move_the_certificate():
    runs = [(EXAMPLE1_THEOREM, ftab1_cert()), (EXAMPLE2_THEOREM, ftab2_cert()),
            (TAUT_THEOREM, taut_cert()), (EXAMPLE1_THEOREM, sftab1_cert()),
            (EXAMPLE2_THEOREM, sftab2_cert())]
    for goal in (kchain(1), wide(2)):
        ct = prove(goal)
        runs += [(goal, emit_fitcert(ct, goal)), (goal, emit_simpfitcert(ct, goal))]
    recorders = {FITTINGS: _Recorder(FITTINGS), SIMPFIT: _Recorder(SIMPFIT)}
    for goal, cert in runs:
        assert check(goal, cert, recorders[cert.fpc]).accepted
    # FITTINGS hands a decide the certificate it already holds, so the
    # formats are counted together
    assert set.union(*(r.called for r in recorders.values())) == PREDICATES
    assert set.union(*(r.moved for r in recorders.values())) == PREDICATES - {"initial_e"}
