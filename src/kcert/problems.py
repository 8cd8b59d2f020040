"""Problem files: a parenthesized prefix format for a named theorem plus
its certificate, with a canonical printer such that parse then print is
the identity on canonical text.

    problem     := (problem "name" formula certificate)
    formula     := (+ sym) | (- sym) | (and f f) | (or f f)
                 | (box f) | (dia f)
    certificate := (fittings dectree)
                 | (simpfit (closures cl*) (boxinfos bi*))
    dectree     := (dt index index (dectree*))
    cl          := (cl index index)        bi := (bi index index)
    index       := eind | none | (lind i) | (rind i) | (bind i j)

Whitespace is free-form and ; starts a comment running to end of line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .fittings import Bind, DecTree, EIND, FitCert, Index, Lind, NONE, Rind
from .formulas import And, Box, Dia, ModalFormula, NegAtom, Or, PosAtom
from .simpfit import BoxInfo, Closure, SimpfitCert

Certificate = FitCert | SimpfitCert


@dataclass(frozen=True)
class ProblemFile:
    name: str
    theorem: ModalFormula
    certificate: Certificate


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# scanner
#
# One compiled pattern splits the whole text: each match skips blanks and
# comments, then captures a token, a stray character, or the empty string
# at the end.  Tokens stay plain strings; a quoted string keeps its
# quotes, so it can never be mistaken for a word or a parenthesis.  Line
# and column are worked out from the offset only when an error is raised.

_TOKEN = re.compile(r'[ \t\r\n]*(?:;[^\n]*[ \t\r\n]*)*'
                    r'([()+\-]|\w+|"[^"\n]*"|[^ \t\r\n;]|\Z)')


def _is_stray(tok: str) -> bool:
    return len(tok) == 1 and tok not in "()+-_" and not tok.isalnum()


def _is_string(tok: str) -> bool:
    return tok[:1] == '"'


def _text(tok: str) -> str:
    """A token as error messages quote it: strings without their quotes."""
    return tok[1:-1] if _is_string(tok) else tok


def _line_col(text: str, offset: int) -> tuple[int, int]:
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


# ---------------------------------------------------------------------------
# recursive-descent parser; indexes and dectrees use an explicit stack

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[str] = _TOKEN.findall(text)
        while self.toks and not self.toks[-1]:
            self.toks.pop()  # the empty matches at the end of the text
        self.pos = 0
        stray = [tok for tok in set(self.toks) if _is_stray(tok)]
        if stray:
            self.pos = min(self.toks.index(tok) for tok in stray)
            raise self._stray_error()

    def _offset(self, pos: int) -> int:
        for k, match in enumerate(_TOKEN.finditer(self.text)):
            if k == pos:
                return match.start(1)
        raise IndexError(pos)

    def _stray_error(self) -> ParseError:
        start = self._offset(self.pos)
        ch = self.text[start]
        close = self.text.find('"', start + 1)
        newline = self.text.find("\n", start + 1)
        if ch != '"':
            message = f"unexpected character {ch!r}"
        elif newline != -1 and (close == -1 or newline < close):
            message = "newline in string"
        else:
            message = "unterminated string"
        return ParseError(message, *_line_col(self.text, start))

    def error(self, message: str) -> ParseError:
        if self.pos < len(self.toks):
            return ParseError(message, *_line_col(self.text, self._offset(self.pos)))
        return ParseError(message + " (at end of input)", self.text.count("\n") + 1, 1)

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def at_open(self) -> bool:
        return self.peek() == "("

    def next(self, expect: str | None = None) -> str:
        t = self.peek()
        if t is None:
            raise self.error(f"expected {expect or 'more input'}")
        if expect is not None and t != expect:
            raise self.error(f"expected {expect!r}, found {_text(t)!r}")
        self.pos += 1
        return t

    def word(self, what: str) -> str:
        t = self.peek()
        if t is None or _is_string(t) or t in ("(", ")"):
            raise self.error(f"expected {what}")
        self.pos += 1
        return t

    def problem(self) -> ProblemFile:
        self.next("(")
        self.next("problem")
        name = self.peek()
        if name is None or not _is_string(name):
            raise self.error("expected a quoted problem name")
        self.pos += 1
        theorem = self.formula()
        cert = self.certificate()
        self.next(")")
        self.finish()
        return ProblemFile(_text(name), theorem, cert)

    def finish(self) -> None:
        if self.peek() is not None:
            raise self.error("trailing input after the closing parenthesis")

    def formula(self) -> ModalFormula:
        self.next("(")
        head = self.word("a connective: + - and or box dia")
        if head in ("+", "-"):
            sym = self.word("an atom name")
            out: ModalFormula = PosAtom(sym) if head == "+" else NegAtom(sym)
        elif head == "and":
            out = And(self.formula(), self.formula())
        elif head == "or":
            out = Or(self.formula(), self.formula())
        elif head == "box":
            out = Box(self.formula())
        elif head == "dia":
            out = Dia(self.formula())
        else:
            self.pos -= 1
            raise self.error(f"unknown connective {head!r}")
        self.next(")")
        return out

    def certificate(self) -> Certificate:
        self.next("(")
        head = self.word("a certificate kind: fittings or simpfit")
        if head == "fittings":
            tree = self.dectree()
            self.next(")")
            return FitCert.load(tree)
        if head == "simpfit":
            self.next("(")
            self.next("closures")
            closures = []
            while self.at_open():
                closures.append(self.pair("cl"))
            self.next(")")
            self.next("(")
            self.next("boxinfos")
            boxinfos = []
            while self.at_open():
                boxinfos.append(self.pair("bi"))
            self.next(")")
            self.next(")")
            return SimpfitCert.load(
                tuple(Closure(a, b) for a, b in closures),
                tuple(BoxInfo(a, b) for a, b in boxinfos))
        self.pos -= 1
        raise self.error(f"unknown certificate kind {head!r}")

    def pair(self, tag: str) -> tuple[Index, Index]:
        self.next("(")
        self.next(tag)
        a = self.index()
        b = self.index()
        self.next(")")
        return a, b

    def dectree(self) -> DecTree:
        # each open node: its decide index, its aux, the children so far
        open_nodes: list[tuple[Index, Index, list[DecTree]]] = []
        while True:
            self.next("(")
            self.next("dt")
            decide_on = self.index()
            aux = self.index()
            self.next("(")
            open_nodes.append((decide_on, aux, []))
            while not self.at_open():
                self.next(")")
                self.next(")")
                decide_on, aux, children = open_nodes.pop()
                node = DecTree(decide_on, aux, tuple(children))
                if not open_nodes:
                    return node
                open_nodes[-1][2].append(node)

    def index(self) -> Index:
        toks, pos, n = self.toks, self.pos, len(self.toks)
        # each open constructor: its class, then the arguments read so far
        open_ctors: list[list] = []
        while True:
            t = toks[pos] if pos < n else None
            if t == "eind":
                value: Index = EIND
                pos += 1
            elif t == "none":
                value = NONE
                pos += 1
            elif t == "(" and pos + 1 < n and toks[pos + 1] in _INDEX_CTORS:
                open_ctors.append([_INDEX_CTORS[toks[pos + 1]]])
                pos += 2
                continue
            else:
                self.pos = pos
                if t is None:
                    raise self.error("expected an index")
                self.next("(")
                head = self.word("an index constructor: lind rind bind")
                self.pos -= 1
                raise self.error(f"unknown index constructor {head!r}")
            # the value completes the innermost constructor, which may
            # complete the next one out, and so on
            while open_ctors:
                ctor = open_ctors[-1]
                ctor.append(value)
                if ctor[0] is Bind and len(ctor) == 2:
                    break
                if pos >= n or toks[pos] != ")":
                    self.pos = pos
                    self.next(")")
                pos += 1
                open_ctors.pop()
                value = ctor[0](*ctor[1:])
            else:
                self.pos = pos
                return value


_INDEX_CTORS = {"lind": Lind, "rind": Rind, "bind": Bind}


def parse_problem(text: str) -> ProblemFile:
    return _Parser(text).problem()


def parse_formula_text(text: str) -> ModalFormula:
    p = _Parser(text)
    out = p.formula()
    p.finish()
    return out


# ---------------------------------------------------------------------------
# canonical printers

def format_formula(a: ModalFormula) -> str:
    if isinstance(a, PosAtom):
        return f"(+ {a.name})"
    if isinstance(a, NegAtom):
        return f"(- {a.name})"
    if isinstance(a, And):
        return f"(and {format_formula(a.left)} {format_formula(a.right)})"
    if isinstance(a, Or):
        return f"(or {format_formula(a.left)} {format_formula(a.right)})"
    if isinstance(a, Box):
        return f"(box {format_formula(a.body)})"
    if isinstance(a, Dia):
        return f"(dia {format_formula(a.body)})"
    raise TypeError(f"not a modal formula: {a!r}")


def format_dectree(tree: DecTree, indent: int = 0) -> str:
    pad = "  " * indent
    head = f"{pad}(dt {tree.decide_on} {tree.aux}"
    if not tree.children:
        return head + " ())"
    kids = "\n".join(format_dectree(child, indent + 1) for child in tree.children)
    return f"{head} (\n{kids}))"


def _block(tag: str, items: tuple, indent: int) -> list[str]:
    pad = "  " * indent
    if not items:
        return [f"{pad}({tag})"]
    lines = [f"{pad}({tag}"]
    lines.extend(f"{pad}  {item}" for item in items)
    lines[-1] += ")"
    return lines


def format_certificate(cert: Certificate, indent: int = 0) -> str:
    pad = "  " * indent
    match cert:
        case FitCert():
            return f"{pad}(fittings\n{format_dectree(cert.tree, indent + 1)})"
        case SimpfitCert():
            lines = [f"{pad}(simpfit"]
            lines += _block("closures", cert.closures, indent + 1)
            lines += _block("boxinfos", cert.boxinfos, indent + 1)
            lines[-1] += ")"
            return "\n".join(lines)
    raise TypeError(f"not a certificate: {cert!r}")


def format_problem(pf: ProblemFile) -> str:
    if '"' in pf.name or "\n" in pf.name:
        raise ValueError("problem names cannot contain quotes or newlines")
    return (f'(problem "{pf.name}"\n'
            f"  {format_formula(pf.theorem)}\n"
            f"{format_certificate(pf.certificate, 1)})\n")
