"""Modal propositional formulas: AST, text syntax, and substitution.

Grammar (ASCII, lowest precedence first; unicode aliases accepted on input):

    formula := or ("->" formula)?          -> is right-associative
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "~" unary | "[]" unary | IDENT | "(" formula ")"
    IDENT   := [A-Za-z_][A-Za-z0-9_]*

Aliases: ``¬`` for ``~``, ``∧`` for ``&``, ``∨`` for ``|``, ``→`` for ``->``,
``□`` for ``[]``.  ``render`` emits the canonical minimal-parenthesis ASCII
form and round-trips through ``parse``.

``compile_formula`` is the one walk over a formula that the semantics uses:
it lists the unique subformulas in post order.  ``interpret`` runs that list
with scalar lattice values, the reference semantics of both ``kripke.evaluate``
and ``lattice.propositional_value``; ``variables`` and ``modal_depth`` read
the same list.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FormulaSyntaxError


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Imp:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Box:
    child: "Formula"


Formula = Var | Not | And | Or | Imp | Box


VAR, NOT, AND, OR, IMP, BOX = range(6)
_KIND = {Var: VAR, Not: NOT, And: AND, Or: OR, Imp: IMP, Box: BOX}

_last_compiled: tuple[Formula, tuple[tuple, ...]] | None = None


def compile_formula(f: Formula) -> tuple[tuple, ...]:
    """The unique subformulas of f in post order, root last, as nodes
    (kind, a, b): a and b are the node ids of the children, or a is the
    name of a variable.  Walks f iteratively.  The result of the previous
    call is returned again while the formula object is the same; the entry
    holds that object, so its id cannot be reused by a new one."""
    global _last_compiled
    if _last_compiled is not None and _last_compiled[0] is f:
        return _last_compiled[1]
    nodes: list[tuple] = []
    node_id: dict[tuple, int] = {}
    done: dict[int, int] = {}  # id of a subformula object -> its node id
    stack = [f]
    while stack:
        g = stack[-1]
        if id(g) in done:
            stack.pop()
            continue
        if isinstance(g, Var):
            node = (VAR, g.name, None)
        else:
            children = (g.child,) if isinstance(g, (Not, Box)) else (g.left, g.right)
            pending = [c for c in children if id(c) not in done]
            if pending:
                stack.extend(reversed(pending))
                continue
            ids = [done[id(c)] for c in children]
            node = (_KIND[type(g)], ids[0], ids[1] if len(ids) == 2 else None)
        stack.pop()
        if node not in node_id:
            node_id[node] = len(nodes)
            nodes.append(node)
        done[id(g)] = node_id[node]
    compiled = tuple(nodes)
    _last_compiled = (f, compiled)
    return compiled


def interpret(nodes, world: int, value_of, successors, lattice) -> int:
    """Value at a world of a compiled formula over a lattice (meet, join,
    negation and implication tables): the scalar semantics.

    value_of(w, name) gives a variable's value at a world and successors(w)
    the worlds whose meet a box at w takes.  A top-down pass records the
    worlds at which each node is needed: the root at the given world, the
    child of a box at the successors of the box's worlds, the children of a
    connective at the connective's worlds.  A bottom-up pass then computes
    each node at its worlds in ascending order, so only the worlds the
    formula reaches are visited, and a missing value or operation is
    reported only where it is needed.
    """
    needed: list[set[int]] = [set() for _ in nodes]
    needed[-1].add(world)
    for i in range(len(nodes) - 1, -1, -1):
        kind, a, b = nodes[i]
        worlds = needed[i]
        if kind == VAR or not worlds:
            continue
        if kind == BOX:
            for w in worlds:
                needed[a].update(successors(w))
        else:
            needed[a] |= worlds
            if b is not None:
                needed[b] |= worlds
    meet, join, top = lattice.meet_table, lattice.join_table, lattice.top
    values: dict[tuple[int, int], int] = {}  # (node id, world) -> value
    for i, (kind, a, b) in enumerate(nodes):
        for w in sorted(needed[i]):
            if kind == VAR:
                value = value_of(w, a)
            elif kind == NOT:
                value = lattice.negate(values[a, w])
            elif kind == AND:
                value = meet[values[a, w]][values[b, w]]
            elif kind == OR:
                value = join[values[a, w]][values[b, w]]
            elif kind == IMP:
                value = lattice.implies(values[a, w], values[b, w])
            else:
                value = top
                for w2 in successors(w):
                    value = meet[value][values[a, w2]]
            values[i, w] = value
    return values[len(nodes) - 1, world]


def variables(f: Formula) -> frozenset[str]:
    """Set of variable names occurring in f."""
    return frozenset(a for kind, a, _ in compile_formula(f) if kind == VAR)


def modal_depth(f: Formula) -> int:
    depth: list[int] = []
    for kind, a, b in compile_formula(f):
        if kind == VAR:
            depth.append(0)
        elif kind in (NOT, BOX):
            depth.append(depth[a] + (kind == BOX))
        else:
            depth.append(max(depth[a], depth[b]))
    return depth[-1]


def is_modal_free(f: Formula) -> bool:
    return modal_depth(f) == 0


def substitute(f: Formula, mapping: dict[str, Formula]) -> Formula:
    """Simultaneous replacement of mapped variables; unmapped ones unchanged."""
    if isinstance(f, Var):
        return mapping.get(f.name, f)
    if isinstance(f, Not):
        return Not(substitute(f.child, mapping))
    if isinstance(f, Box):
        return Box(substitute(f.child, mapping))
    return type(f)(substitute(f.left, mapping), substitute(f.right, mapping))


# ---------------------------------------------------------------------------
# Parsing

_ALIASES = {"¬": "~", "∧": "&", "∨": "|", "→": "->", "□": "[]"}
_UNARY_START = ("identifier", "'('", "'~'", "'[]'")


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c in _ALIASES:
            alias = _ALIASES[c]
            kind = {"~": "NOT", "&": "AND", "|": "OR", "->": "IMP", "[]": "BOX"}[alias]
            tokens.append(_Token(kind, c, i))
            i += 1
            continue
        if c == "~":
            tokens.append(_Token("NOT", c, i))
            i += 1
        elif c == "&":
            tokens.append(_Token("AND", c, i))
            i += 1
        elif c == "|":
            tokens.append(_Token("OR", c, i))
            i += 1
        elif c == "-":
            if i + 1 < n and text[i + 1] == ">":
                tokens.append(_Token("IMP", "->", i))
                i += 2
            else:
                raise FormulaSyntaxError(_byte_offset(text, i + 1), {"'>'"}, repr(text[i + 1 : i + 2] or "end of input"))
        elif c == "[":
            if i + 1 < n and text[i + 1] == "]":
                tokens.append(_Token("BOX", "[]", i))
                i += 2
            else:
                raise FormulaSyntaxError(_byte_offset(text, i + 1), {"']'"}, repr(text[i + 1 : i + 2] or "end of input"))
        elif c == "(":
            tokens.append(_Token("LPAREN", c, i))
            i += 1
        elif c == ")":
            tokens.append(_Token("RPAREN", c, i))
            i += 1
        elif c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], i))
            i = j
        else:
            raise FormulaSyntaxError(_byte_offset(text, i), _UNARY_START, repr(c))
    tokens.append(_Token("EOF", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected):
        tok = self.peek()
        found = "end of input" if tok.kind == "EOF" else repr(tok.text)
        raise FormulaSyntaxError(_byte_offset(self.text, tok.pos), expected, found)

    def formula(self) -> Formula:
        left = self.or_level()
        if self.peek().kind == "IMP":
            self.advance()
            return Imp(left, self.formula())
        return left

    def or_level(self) -> Formula:
        node = self.and_level()
        while self.peek().kind == "OR":
            self.advance()
            node = Or(node, self.and_level())
        return node

    def and_level(self) -> Formula:
        node = self.unary()
        while self.peek().kind == "AND":
            self.advance()
            node = And(node, self.unary())
        return node

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "NOT":
            self.advance()
            return Not(self.unary())
        if tok.kind == "BOX":
            self.advance()
            return Box(self.unary())
        if tok.kind == "IDENT":
            self.advance()
            return Var(tok.text)
        if tok.kind == "LPAREN":
            self.advance()
            node = self.formula()
            if self.peek().kind != "RPAREN":
                self.fail({"')'", "'&'", "'|'", "'->'"})
            self.advance()
            return node
        self.fail(_UNARY_START)


def parse(text: str) -> Formula:
    """Parse formula text, raising FormulaSyntaxError with a byte offset."""
    p = _Parser(text)
    node = p.formula()
    if p.peek().kind != "EOF":
        p.fail({"end of input", "'&'", "'|'", "'->'"})
    return node


# ---------------------------------------------------------------------------
# Rendering

_IMP_LEVEL, _OR_LEVEL, _AND_LEVEL, _UNARY_LEVEL = 1, 2, 3, 4


def render(f: Formula) -> str:
    """Canonical minimal-parenthesis form; parse(render(f)) == f."""
    return _render(f, 0)


def _render(f: Formula, min_level: int) -> str:
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Not):
        return "~" + _render(f.child, _UNARY_LEVEL)
    if isinstance(f, Box):
        return "[]" + _render(f.child, _UNARY_LEVEL)
    if isinstance(f, And):
        text = _render(f.left, _AND_LEVEL) + " & " + _render(f.right, _AND_LEVEL + 1)
        level = _AND_LEVEL
    elif isinstance(f, Or):
        text = _render(f.left, _OR_LEVEL) + " | " + _render(f.right, _OR_LEVEL + 1)
        level = _OR_LEVEL
    else:
        text = _render(f.left, _IMP_LEVEL + 1) + " -> " + _render(f.right, _IMP_LEVEL)
        level = _IMP_LEVEL
    if level < min_level:
        return "(" + text + ")"
    return text
