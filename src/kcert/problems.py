"""Problem files: a parenthesized prefix format for a named theorem plus
its certificate, with a canonical printer such that parse then print is
the identity on canonical text.

    problem     := (problem "name" formula certificate)
    formula     := (+ sym) | (- sym) | (and f f) | (or f f)
                 | (box f) | (dia f)
    sym         := a word, or + or -: (+ and) is the atom named and
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

A word is a run of letters, digits and _.  Whitespace is free-form and
; starts a comment running to end of line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from .firstorder import format_formula
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
# Strings and comments are cut out first.  The plain pieces between
# them may hold only word characters, blanks and ()+-, and split on
# blanks once ()+- are padded with them.  A string token keeps its
# quotes, so it is never mistaken for a word or a parenthesis.  Offsets
# are worked out only for an error, by walking the same pieces.

_STRING_OR_COMMENT = re.compile(r'("[^"\n]*"|;[^\n]*)')
_NOT_PLAIN = re.compile(r'[^\w \t\r\n()+\-]')


def _pieces(text: str) -> Iterator[tuple[int, str, bool]]:
    """The strings, the comments and the plain text between them, in
    order, each with its offset and whether it is plain."""
    start = 0
    for k, piece in enumerate(_STRING_OR_COMMENT.split(text)):
        yield start, piece, k % 2 == 0
        start += len(piece)


def _tokens(piece: str, plain: bool) -> list[str]:
    if not plain:
        return [piece] if piece[0] == '"' else []
    for ch in "()+-":
        piece = piece.replace(ch, f" {ch} ")
    return piece.split()


def _split(text: str) -> list[str]:
    """The tokens of text; a stray character raises ParseError."""
    toks: list[str] = []
    for start, piece, plain in _pieces(text):
        stray = _NOT_PLAIN.search(piece) if plain else None
        if stray:
            start += stray.start()
            ch = text[start]
            message = f"unexpected character {ch!r}"
            if ch == '"':
                # a quote is stray when no closing quote follows it on its line
                message = "newline in string" if "\n" in text[start:] else "unterminated string"
            raise ParseError(message, *_line_col(text, start))
        toks += _tokens(piece, plain)
    return toks


def _offset(text: str, k: int) -> int:
    """Where token k of text starts.  Only blanks separate the tokens of
    a piece, so each one is the next str.find of its text."""
    for start, piece, plain in _pieces(text):
        for tok in _tokens(piece, plain):
            start = text.find(tok, start)
            if not k:
                return start
            k -= 1
            start += len(tok)
    raise IndexError(k)


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
        self.toks = _split(text)
        self.pos = 0
        # the index each bare word names: eind, none and, once a table
        # is read, i<k> for its entries so far
        self.names: dict[str, Index] = {"eind": EIND, "none": NONE}
        self.has_table = False

    def error(self, message: str) -> ParseError:
        if self.pos < len(self.toks):
            return ParseError(message, *_line_col(self.text, _offset(self.text, self.pos)))
        return ParseError(message + " (at end of input)", self.text.count("\n") + 1, 1)

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

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
            closures = self.block("closures", "cl", Closure)
            boxinfos = self.block("boxinfos", "bi", BoxInfo)
            self.next(")")
            return SimpfitCert.load(closures, boxinfos)
        self.pos -= 1
        raise self.error(f"unknown certificate kind {head!r}")

    # the table, the blocks and the decide tree compare tokens through
    # locals; what pair and dectree do not expect, an error included, is
    # read again through next and index, so each message stays the same

    def table(self) -> None:
        """Read an index table if one comes next, naming entry k i<k>.  An
        entry whose arguments are names, as the printer writes it, is read
        in place; any other through read."""
        toks, names, n = self.toks, self.names, len(self.toks)
        if toks[self.pos:self.pos + 2] != ["(", "indexes"]:
            return
        pos = self.pos + 2
        self.has_table = True
        k = 0
        while (t := toks[pos] if pos < n else None) != ")":
            ctor = _INDEX_CTORS.get(toks[pos + 1]) if t == "(" and pos + 1 < n else None
            if ctor is None:
                self.pos = pos + (t == "(")
                raise self.error("expected an index table entry: (lind i), (rind i) or (bind i j)")
            # the arguments stand from pos + 2 to just before the closer;
            # for lind and rind the first is the last
            cls, arity = ctor
            end = pos + 2 + arity
            i = names.get(toks[pos + 2]) if end < n and toks[end] == ")" else None
            j = names.get(toks[end - 1]) if i is not None else None
            if j is not None:
                names[f"i{k}"] = cls(i) if arity == 1 else cls(i, j)
                pos = end + 1
            else:
                self.pos = pos
                names[f"i{k}"] = self.read(_INDEX_CTORS, names)
                pos = self.pos
            k += 1
        self.pos = pos + 1

    def pair(self, tag: str, close: str) -> tuple[Index, Index]:
        """Read (tag i j followed by close, giving i and j.  Both named, as
        the printer writes them, are looked up in place."""
        toks, names, pos = self.toks, self.names, self.pos
        group = toks[pos:pos + 5]
        if len(group) == 5 and group[0] == "(" and group[1] == tag and group[4] == close:
            i, j = names.get(group[2]), names.get(group[3])
            if i is not None and j is not None:
                self.pos = pos + 5
                return i, j
        self.next("(")
        self.next(tag)
        i, j = self.index(), self.index()
        self.next(close)
        return i, j

    def block(self, name: str, tag: str, cls: type) -> tuple:
        """Read (name (tag i j)*) as a tuple of cls(i, j)."""
        self.next("(")
        self.next(name)
        items = []
        while self.peek() == "(":
            items.append(cls(*self.pair(tag, ")")))
        self.next(")")
        return tuple(items)

    def dectree(self) -> DecTree:
        toks, n = self.toks, len(self.toks)
        # each open node: its decide index, its aux, the children so far
        open_nodes: list[tuple[Index, Index, list[DecTree]]] = []
        while True:
            open_nodes.append((*self.pair("dt", "("), []))
            pos = self.pos
            while pos >= n or toks[pos] != "(":
                if toks[pos:pos + 2] != [")", ")"]:
                    self.pos = pos
                    self.next(")")
                    self.next(")")
                pos += 2
                decide_on, aux, children = open_nodes.pop()
                node = DecTree(decide_on, aux, tuple(children))
                if not open_nodes:
                    self.pos = pos
                    return node
                open_nodes[-1][2].append(node)
            self.pos = pos

    def formula(self) -> ModalFormula:
        return self.read(_CONNECTIVES, {})

    def index(self) -> Index:
        return self.read(_INDEX_CTORS, self.names)

    def read(self, ctors: dict[str, tuple[type, int]], names: dict[str, object]):
        """Read one formula or index.  ctors gives each constructor word
        its class and arity, names each bare word its value.  An arity-0
        constructor is an atom: its one argument is a word."""
        toks, pos, n = self.toks, self.pos, len(self.toks)
        # each open constructor: its class, its arity, the arguments so far
        open_ctors: list[list] = []
        while True:
            t = toks[pos] if pos < n else None
            value = names.get(t)
            if value is not None:
                pos += 1
            else:
                ctor = ctors.get(toks[pos + 1]) if t == "(" and pos + 1 < n else None
                if ctor is None:
                    self.pos = pos
                    raise self.bad_start(ctors)
                pos += 2
                if ctor[1]:
                    open_ctors.append(list(ctor))
                    continue
                # the atom's name, read in place as word would read it
                value = toks[pos] if pos < n else None
                if value is None or value in ("(", ")") or _is_string(value):
                    self.pos = pos
                    raise self.error("expected an atom name")
                pos += 1
                open_ctors.append([ctor[0], 1])
            # the value completes the innermost constructor, which may
            # complete the next one out, and so on
            while open_ctors:
                ctor = open_ctors[-1]
                ctor.append(value)
                if len(ctor) < 2 + ctor[1]:
                    break
                if pos >= n or toks[pos] != ")":
                    self.pos = pos
                    self.next(")")
                pos += 1
                open_ctors.pop()
                value = ctor[0](*ctor[2:])
            else:
                self.pos = pos
                return value

    def bad_start(self, ctors: dict[str, tuple[type, int]]) -> ParseError:
        """The error for a token that starts no formula or index."""
        t = self.peek()
        index = ctors is _INDEX_CTORS
        if index and t is None:
            return self.error("expected an index")
        if index and _REFERENCE.fullmatch(t):
            return self.error(f"undefined index reference {t!r}" if self.has_table
                              else f"index reference {t!r} without an index table")
        kind = "index constructor" if index else "connective"
        self.next("(")
        head = self.word(f"{'an' if index else 'a'} {kind}: {' '.join(ctors)}")
        self.pos -= 1
        return self.error(f"unknown {kind} {head!r}")


_CONNECTIVES = {"+": (PosAtom, 0), "-": (NegAtom, 0), "and": (And, 2), "or": (Or, 2),
                "box": (Box, 1), "dia": (Dia, 1)}
_INDEX_CTORS = {"lind": (Lind, 1), "rind": (Rind, 1), "bind": (Bind, 2)}
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


_CTOR_NAMES = {ctor: name for name, (ctor, _) in _INDEX_CTORS.items()}


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
