"""Problem files: a parenthesized prefix format for a named theorem plus
its certificate, with a canonical printer such that parse then print is
the identity on canonical text.

    problem     := (problem "name" formula certificate)
    formula     := (+ sym) | (- sym) | (and f f) | (or f f)
                 | (box f) | (dia f)
    certificate := (fittings table? dectree)
                 | (simpfit table? (closures cl*) (boxinfos bi*))
    table       := (indexes entry*)
    entry       := (lind i) | (rind i) | (bind i j)
    dectree     := (dt index index (dectree*))
    cl          := (cl index index)        bi := (bi index index)
    index       := eind | none | i<k> | (lind i) | (rind i) | (bind i j)

The table is a numbered dictionary of shared indexes, as in the
OpenTheory article format (Hurd, NFM 2011): i<k> names its k-th entry,
counted from 0, and an entry may name only entries before it.  The
printer writes each distinct lind, rind and bind index once, children
before parents, and every index after the table by name, so a file
grows with the tree and the distinct indexes, not with their depth.
Inline indexes stay legal everywhere.

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
        # the index each bare word names: eind, none and, once a table
        # is read, i<k> for its entries so far
        self.names: dict[str, Index] = {"eind": EIND, "none": NONE}
        self.has_table = False
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
            self.table()
            tree = self.dectree()
            self.next(")")
            return FitCert.load(tree)
        if head == "simpfit":
            self.table()
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

    def table(self) -> None:
        """Read an index table if one comes next, naming entry k i<k>."""
        if self.toks[self.pos:self.pos + 2] != ["(", "indexes"]:
            return
        self.pos += 2
        self.has_table = True
        k = 0
        while self.peek() != ")":
            start = self.pos
            self.pos += self.at_open()
            if self.pos == start or self.peek() not in _INDEX_CTORS:
                raise self.error("expected an index table entry: (lind i), (rind i) or (bind i j)")
            self.pos = start
            self.names[f"i{k}"] = self.index()
            k += 1
        self.pos += 1

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
        toks, pos, n, names = self.toks, self.pos, len(self.toks), self.names
        # each open constructor: its class, then the arguments read so far
        open_ctors: list[list] = []
        while True:
            t = toks[pos] if pos < n else None
            value = names.get(t)
            if value is not None:
                pos += 1
            elif t == "(" and pos + 1 < n and toks[pos + 1] in _INDEX_CTORS:
                open_ctors.append([_INDEX_CTORS[toks[pos + 1]]])
                pos += 2
                continue
            else:
                self.pos = pos
                if t is None:
                    raise self.error("expected an index")
                if _REFERENCE.fullmatch(t):
                    raise self.error(f"undefined index reference {t!r}" if self.has_table
                                     else f"index reference {t!r} without an index table")
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


_CONNECTIVES = {"and": (And, 2), "or": (Or, 2), "box": (Box, 1), "dia": (Dia, 1)}
_INDEX_CTORS = {"lind": Lind, "rind": Rind, "bind": Bind}
_REFERENCE = re.compile(r"i[0-9]+")


def parse_problem(text: str) -> ProblemFile:
    return _Parser(text).problem()


def parse_formula_text(text: str) -> ModalFormula:
    p = _Parser(text)
    out = p.formula()
    p.finish()
    return out


# ---------------------------------------------------------------------------
# canonical printers

class _Names:
    """The names of the indexes a certificate prints: eind and none by
    themselves, and each distinct lind, rind or bind i<k>, numbered on
    first use, its arguments first, with its table entry.  Indexes are
    hash-consed, so one identity-keyed dict lookup finds a repeat."""

    def __init__(self) -> None:
        self.names: dict[Index, str] = {EIND: "eind", NONE: "none"}
        self.entries: list[str] = []

    def __call__(self, index: Index) -> str:
        names = self.names
        found = names.get(index)
        if found is not None:
            return found
        # an explicit stack, so no index is too deep to number
        todo = [index]
        while todo:
            node = todo[-1]
            args = (node.left, node.right) if type(node) is Bind else (node.sub,)
            new = [arg for arg in args if arg not in names]
            if new:
                todo += reversed(new)
                continue
            todo.pop()
            if node not in names:
                names[node] = f"i{len(self.entries)}"
                self.entries.append(
                    f"({_CTOR_NAMES[type(node)]} {' '.join(names[arg] for arg in args)})")
        return names[index]


_CTOR_NAMES = {ctor: name for name, ctor in _INDEX_CTORS.items()}


def _format_dectree(tree: DecTree, name: _Names, pad: str) -> str:
    # one loop over an explicit stack of nodes and of the text still to
    # print after them, so no tree is too tall to print
    out: list[str] = []
    stack: list = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
            continue
        out.append(f"{pad}(dt {name(node.decide_on)} {name(node.aux)} (")
        stack.append("))")
        for child in reversed(node.children):
            stack.append(child)
            stack.append("\n")
    return "".join(out)


def _block(tag: str, items: list[str], indent: int) -> list[str]:
    pad = "  " * indent
    if not items:
        return [f"{pad}({tag})"]
    lines = [f"{pad}({tag}"]
    lines.extend(f"{pad}  {item}" for item in items)
    lines[-1] += ")"
    return lines


def format_certificate(cert: Certificate, indent: int = 0) -> str:
    pad = "  " * indent
    name = _Names()
    match cert:
        case FitCert():
            body = [_format_dectree(cert.tree, name, pad + "  ")]
            head = "fittings"
        case SimpfitCert():
            body = _block("closures", [f"(cl {name(c.left)} {name(c.right)})"
                                       for c in cert.closures], indent + 1)
            body += _block("boxinfos", [f"(bi {name(b.ex)} {name(b.univ)})"
                                        for b in cert.boxinfos], indent + 1)
            head = "simpfit"
        case _:
            raise TypeError(f"not a certificate: {cert!r}")
    lines = [f"{pad}({head}", *_block("indexes", name.entries, indent + 1), *body]
    lines[-1] += ")"
    return "\n".join(lines)


def format_problem(pf: ProblemFile) -> str:
    if '"' in pf.name or "\n" in pf.name:
        raise ValueError("problem names cannot contain quotes or newlines")
    return (f'(problem "{pf.name}"\n'
            f"  {format_formula(pf.theorem)}\n"
            f"{format_certificate(pf.certificate, 1)})\n")
