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
from .formulas import And, Box, Dia, ModalFormula, NegAtom, Or, PosAtom, format_formula
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
# _TOKEN defines the tokens: each match skips blanks and comments, then
# captures a token, a stray character, or the empty string at the end.
# Tokens stay plain strings; a quoted string keeps its quotes, so it can
# never be mistaken for a word or a parenthesis.  One match per token is
# slow on large files, so _split gives the same tokens with str.split,
# and _TOKEN only locates errors: line and column are worked out from the
# offset only when an error is raised.

_TOKEN = re.compile(r'[ \t\r\n]*(?:;[^\n]*[ \t\r\n]*)*'
                    r'([()+\-]|\w+|"[^"\n]*"|[^ \t\r\n;]|\Z)')
_STRING_OR_COMMENT = re.compile(r'("[^"\n]*"|;[^\n]*)')
_NOT_PLAIN = re.compile(r'[^\w \t\r\n()+\-]')


def _split(text: str) -> list[str] | None:
    """The tokens of text, or None when it holds a stray character.
    Between strings and comments, text of word characters, blanks and
    ()+- splits on blanks once ()+- are padded with them."""
    toks: list[str] = []
    for k, part in enumerate(_STRING_OR_COMMENT.split(text)):
        if k % 2:
            if part[0] == '"':
                toks.append(part)
        elif _NOT_PLAIN.search(part):
            return None
        else:
            for ch in "()+-":
                part = part.replace(ch, f" {ch} ")
            toks += part.split()
    return toks


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
# parser; formulas, indexes and dectrees are read with explicit stacks

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        # every index built in this parse, by constructor and arguments.
        # The intern tables give the same objects; this map only saves
        # their __new__ call and weakref lookup per repeat, and as the
        # printer writes each subindex in full, most indexes are repeats
        self.indexes: dict[tuple, Index] = {}
        toks = _split(text)
        if toks is None:
            toks = _TOKEN.findall(text)
            self.pos = next(k for k, tok in enumerate(toks) if _is_stray(tok))
            raise self._stray_error()
        self.toks = toks

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
        # each open connective: its class and arity, then the subformulas
        # read so far
        open_nodes: list[list] = []
        while True:
            self.next("(")
            head = self.word("a connective: + - and or box dia")
            if head in _CONNECTIVES:
                open_nodes.append(list(_CONNECTIVES[head]))
                continue
            if head not in ("+", "-"):
                self.pos -= 1
                raise self.error(f"unknown connective {head!r}")
            sym = self.word("an atom name")
            value: ModalFormula = PosAtom(sym) if head == "+" else NegAtom(sym)
            self.next(")")
            # the value completes the innermost connective, which may
            # complete the next one out, and so on
            while open_nodes:
                node = open_nodes[-1]
                node.append(value)
                if len(node) < 2 + node[1]:
                    break
                open_nodes.pop()
                value = node[0](*node[2:])
                self.next(")")
            else:
                return value

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
        toks, pos, n, built = self.toks, self.pos, len(self.toks), self.indexes
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
                key = tuple(ctor)
                value = built.get(key)
                if value is None:
                    value = built[key] = ctor[0](*ctor[1:])
            else:
                self.pos = pos
                return value


_CONNECTIVES = {"and": (And, 2), "or": (Or, 2), "box": (Box, 1), "dia": (Dia, 1)}
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

def format_dectree(tree: DecTree, indent: int = 0) -> str:
    # one loop over an explicit stack of (node, indent) pairs and of the
    # text still to print after them, so no tree is too tall to print
    out: list[str] = []
    stack: list = [(tree, indent)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, depth = item
        out.append(f"{'  ' * depth}(dt {node.decide_on} {node.aux} (")
        stack.append("))")
        for child in reversed(node.children):
            stack.append((child, depth + 1))
            stack.append("\n")
    return "".join(out)


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
