"""Scalable formula families, written directly as problem-file text.

Every generator concatenates strings in a loop, so generating an input
never recurses, whatever its size.  Binary connectives over a list nest
to the left: items [a, b, c] become (op (op a b) c).

`dia^n` below means n nested diamonds.

- taut(n)       the conjunction of the n excluded middles (a_i | ~a_i)
- kchain(n)     dia^n ~p | dia^n ~q | box^n (p & q)
- wide(n)       dia ~p_0 | ... | dia ~p_{n-1} | box (p_0 & ... & p_{n-1})
- kchain_bad(n) dia^n ~p | box^n (p & q)                         (invalid)
- wide_bad(n)   dia ~p_0 | ... | dia ~p_{n-2} | box (p_0 & ... & p_{n-1})
                                                                 (invalid)
- box_taut(d)   box^d (p | ~p)
- box_atom(d)   box^d p                                          (invalid)
"""

from __future__ import annotations


def nest(op: str, n: int, inner: str) -> str:
    return f"({op} " * n + inner + ")" * n


def chain(op: str, items: list[str]) -> str:
    out = items[0]
    for item in items[1:]:
        out = f"({op} {out} {item})"
    return out


def taut(n: int) -> str:
    return chain("and", [f"(or (+ a{i}) (- a{i}))" for i in range(n)])


def kchain(n: int) -> str:
    return chain("or", [nest("dia", n, "(- p)"), nest("dia", n, "(- q)"),
                        nest("box", n, "(and (+ p) (+ q))")])


def _all_p(n: int) -> str:
    return "(box " + chain("and", [f"(+ p{i})" for i in range(n)]) + ")"


def wide(n: int) -> str:
    return chain("or", [f"(dia (- p{i}))" for i in range(n)] + [_all_p(n)])


def kchain_bad(n: int) -> str:
    return chain("or", [nest("dia", n, "(- p)"), nest("box", n, "(and (+ p) (+ q))")])


def wide_bad(n: int) -> str:
    return chain("or", [f"(dia (- p{i}))" for i in range(n - 1)] + [_all_p(n)])


def box_taut(d: int) -> str:
    return nest("box", d, "(or (+ p) (- p))")


def box_atom(d: int) -> str:
    return nest("box", d, "(+ p)")


FAMILIES = {
    "taut": taut,
    "kchain": kchain,
    "wide": wide,
    "kchain_bad": kchain_bad,
    "wide_bad": wide_bad,
    "box_taut": box_taut,
    "box_atom": box_atom,
}

# K-validity of every member of each family, by construction
VALID = {
    "taut": True,
    "kchain": True,
    "wide": True,
    "kchain_bad": False,
    "wide_bad": False,
    "box_taut": True,
    "box_atom": False,
}


def translate_output(d: int) -> str:
    """What `kcert translate` prints for box_atom(d), written out level
    by level: the relational translation, then the polarized one."""
    st, tr = [], []
    for k in range(1, d + 1):
        here = "w0" if k == 1 else f"y{k - 1}"
        st.append(f"(all y{k}. (R({here},y{k}) => ")
        # the body of an inner box is a negative universal, so it is
        # delayed; the innermost body is the positive atom itself
        tr.append(f"(all y{k}. (~R({here},y{k}) |- " + ("d+(" if k < d else ""))
    atom = f"p(y{d})"
    return (f"st: {''.join(st)}{atom}{'))' * d}\n"
            f"tr: {''.join(tr)}{atom}{')' * (3 * d - 1)}\n")


def corrupt_late_leaf(problem_text: str, choice: int) -> str:
    """Set one leaf's closing index to `none` in a canonical fittings
    problem file.  The leaf is taken from the last eighth of the leaves
    in file order, `choice` picking among them, so the kernel replays
    most of the proof before it must reject."""
    lines = problem_text.split("\n")
    leaves = [i for i, line in enumerate(lines)
              if line.lstrip().startswith("(dt ") and " ())" in line
              and _leaf_aux(line)[1] != "none"]
    if not leaves:
        raise ValueError("no leaf with a closing index to corrupt")
    late = leaves[len(leaves) - max(1, len(leaves) // 8):]
    i = late[choice % len(late)]
    (start, end), _ = _leaf_aux(lines[i])
    lines[i] = lines[i][:start] + "none" + lines[i][end:]
    return "\n".join(lines)


def _leaf_aux(line: str) -> tuple[tuple[int, int], str]:
    """Span and text of the aux index in a printed leaf `(dt D A ())`."""
    pos = line.index("(dt ") + 4
    pos = _skip_index(line, pos) + 1
    end = _skip_index(line, pos)
    return (pos, end), line[pos:end]


def _skip_index(line: str, pos: int) -> int:
    """End of the index starting at pos: a bare word or a balanced group."""
    if line[pos] != "(":
        while line[pos].isalnum():
            pos += 1
        return pos
    depth = 0
    while True:
        if line[pos] == "(":
            depth += 1
        elif line[pos] == ")":
            depth -= 1
            if depth == 0:
                return pos + 1
        pos += 1
