"""Modal propositional formulas: AST, text syntax, and rewrites.

Grammar (ASCII, lowest precedence first; unicode aliases accepted on input):

    formula := or ("->" formula)?          -> is right-associative
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "~" unary | "[]" unary | IDENT | "(" formula ")"
    IDENT   := [A-Za-z_][A-Za-z0-9_]*

Aliases: ``¬`` for ``~``, ``∧`` for ``&``, ``∨`` for ``|``, ``→`` for ``->``,
``□`` for ``[]``.  ``render`` emits the canonical minimal-parenthesis ASCII
form and round-trips through ``parse``.  The parser reads chains of ``->``
and runs of ``~`` and ``[]`` in loops; it recurses only into parentheses,
and rejects them nested deeper than ``MAX_PAREN_DEPTH``.

``compile_formula`` is the one walk over a formula that the semantics uses:
it lists the unique subformulas in post order.  ``interpret`` runs that list
with scalar lattice values, the reference semantics of ``kripke.evaluate``:
one node at a time, each filling a column of values over the worlds at
which it is needed, read from its children's columns with the node's table,
from ``Lattice.operation``, picked once.  The vectorized semantics, ``kripke._Plan.node_values``, runs the same
list.  ``variables`` and ``modal_depth`` read it too, and ``needed_worlds``
finds the worlds at which each node is needed: for ``interpret``, for
``kripke.frame_root_values``, and, at a world without successors, the nodes
above the boxes that the search's closure evaluates.
"""

from __future__ import annotations

from .errors import FormulaSyntaxError
from .record import Record


class _Node(Record):
    """Equality, hashing and repr of the formula classes, none of which
    recurses, so that a formula as deep as ``parse`` accepts (a run of 5,000
    ``~``) compares, hashes and prints.  Equality and hash agree with those
    of ``Record``: nodes are equal when their fields are, and the hash of a
    node is the hash of the tuple of its fields."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        pending, seen = [(self, other)], set()
        while pending:
            a, b = pending.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            if type(a) is not type(b) or isinstance(a, Var) and a.name != b.name:
                return False
            seen.add((id(a), id(b)))
            if not isinstance(a, Var):
                pending.extend(zip(_children(a), _children(b)))
        return True

    def __hash__(self):
        return _fold(
            self,
            lambda v: hash((v.name,)),
            lambda g, hashes: hash(tuple(_Hash(h) for h in hashes)),
        )

    def __repr__(self):
        return f"parse({render(self)!r})"


class _Hash:
    """Stands in a tuple for an object whose hash is already known."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __hash__(self):
        return self.value


class Var(_Node):
    name: str

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class _Unary(_Node):
    child: Formula

    def __init__(self, child: Formula):
        object.__setattr__(self, "child", child)


class _Binary(_Node):
    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Not(_Unary):
    pass


class And(_Binary):
    pass


class Or(_Binary):
    pass


class Imp(_Binary):
    pass


class Box(_Unary):
    pass


Formula = Var | Not | And | Or | Imp | Box


VAR, NOT, AND, OR, IMP, BOX = range(6)
_KIND = {Var: VAR, Not: NOT, And: AND, Or: OR, Imp: IMP, Box: BOX}


def _children(g: Formula) -> tuple[Formula, ...]:
    return (g.child,) if isinstance(g, (Not, Box)) else (g.left, g.right)


def _fold(f: Formula, on_var, on_node):
    """on_var(v) for a variable, on_node(g, the results of g's children)
    for any other subformula, the root's result returned.  Walks f
    iteratively, left child first, each distinct subformula object once."""
    done: dict[int, object] = {}  # id of a subformula object -> its result
    stack = [f]
    while stack:
        g = stack[-1]
        if id(g) in done:
            stack.pop()
            continue
        if isinstance(g, Var):
            done[id(g)] = on_var(g)
            continue
        children = _children(g)
        pending = [c for c in children if id(c) not in done]
        if pending:
            stack.extend(reversed(pending))
            continue
        done[id(g)] = on_node(g, [done[id(c)] for c in children])
    return done[id(f)]


_last_compiled: tuple[Formula, tuple[tuple, ...]] | None = None


def compile_formula(f: Formula) -> tuple[tuple, ...]:
    """The unique subformulas of f in post order, root last, as nodes
    (kind, a, b): a and b are the node ids of the children, or a is the
    name of a variable.  The result of the previous call is returned again
    while the formula object is the same; the entry holds that object, so
    its id cannot be reused by a new one."""
    global _last_compiled
    if _last_compiled is not None and _last_compiled[0] is f:
        return _last_compiled[1]
    nodes: list[tuple] = []
    node_id: dict[tuple, int] = {}

    def add(node: tuple) -> int:
        if node not in node_id:
            node_id[node] = len(nodes)
            nodes.append(node)
        return node_id[node]

    _fold(
        f,
        lambda v: add((VAR, v.name, None)),
        lambda g, ids: add((_KIND[type(g)], ids[0], ids[1] if len(ids) == 2 else None)),
    )
    compiled = tuple(nodes)
    _last_compiled = (f, compiled)
    return compiled


def needed_worlds(nodes, roots, successors) -> list[set[int]]:
    """Per node of a compiled formula, the worlds at which computing the
    root at the given worlds needs its value: the root at those worlds, the
    child of a box at the successors of the box's worlds, the children of a
    connective at the connective's worlds.  One top-down pass."""
    needed: list[set[int]] = [set() for _ in nodes]
    needed[-1].update(roots)
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
    return needed


def interpret(nodes, world: int, valuation, unbound, successors, lattice) -> int:
    """Value at a world of a compiled formula over a lattice, whose
    ``operation`` gives each connective's table: the scalar semantics.

    valuation maps (world, variable name) to a value, and unbound(w, name)
    gives the exception to raise for the first pair the formula needs that
    it lacks.  successors(w) gives the worlds whose meet a box at w takes,
    fetched once per world.  ``needed_worlds`` records the worlds at which
    each node is needed; then each node in turn, bottom-up, fills its
    column, a dict from those worlds, in ascending order, to its values,
    from its children's columns with the node's table picked once.  So only
    the worlds the formula reaches are visited, the valuation is read pair
    by pair in node post order, worlds ascending, a missing value is
    reported at the first needed pair, and a missing operation only where a
    node that uses it is needed.
    """
    fetched: dict[int, tuple[int, ...]] = {}  # box world -> its successors

    def fetch(w: int) -> tuple[int, ...]:
        if w not in fetched:
            fetched[w] = successors(w)
        return fetched[w]

    needed = needed_worlds(nodes, (world,), fetch)
    meet, top = lattice.meet_table, lattice.top
    columns: list[dict[int, int]] = []  # per node: needed world -> value
    for i, (kind, a, b) in enumerate(nodes):
        worlds = sorted(needed[i])
        if not worlds:
            column = {}
        elif kind == VAR:
            try:
                column = {w: valuation[w, a] for w in worlds}
            except KeyError:
                missing = next(w for w in worlds if (w, a) not in valuation)
                raise unbound(missing, a) from None
        elif kind == BOX:
            x, column = columns[a], {}
            for w in worlds:
                value = top
                for w2 in fetched[w]:
                    value = meet[value][x[w2]]
                column[w] = value
        elif kind == NOT:
            neg, x = lattice.operation(NOT), columns[a]
            column = {w: neg[x[w]] for w in worlds}
        else:
            table, x, y = lattice.operation(kind), columns[a], columns[b]
            column = {w: table[x[w]][y[w]] for w in worlds}
        columns.append(column)
    return columns[-1][world]


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
    """Simultaneous replacement of mapped variables; unmapped ones unchanged.
    Walks f iteratively, each distinct subformula object once."""
    return _fold(f, lambda v: mapping.get(v.name, v), lambda g, images: type(g)(*images))


def erase_boxes(f: Formula) -> Formula:
    """f with each ``[]g`` read as g: the degenerate local box, whose value
    at a world is its argument's at the same world.  Walks f iteratively,
    each distinct subformula object once."""
    return _fold(
        f, lambda v: v, lambda g, images: images[0] if type(g) is Box else type(g)(*images)
    )


# ---------------------------------------------------------------------------
# Parsing

# one-character tokens, unicode aliases included; "->" and "[]" take two
_SINGLE = {
    "~": "NOT", "&": "AND", "|": "OR", "(": "LPAREN", ")": "RPAREN",
    "¬": "NOT", "∧": "AND", "∨": "OR", "→": "IMP", "□": "BOX",
}
_UNARY_START = ("identifier", "'('", "'~'", "'[]'")
_PREFIX = {"NOT": Not, "BOX": Box}

# each level of parentheses costs the parser four stack frames
MAX_PAREN_DEPTH = 100


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
        kind = _SINGLE.get(c)
        if kind is not None:
            tokens.append(_Token(kind, c, i))
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
        self.depth = 0  # parentheses open

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def fail(self, expected):
        tok = self.peek()
        found = "end of input" if tok.kind == "EOF" else repr(tok.text)
        raise FormulaSyntaxError(_byte_offset(self.text, tok.pos), expected, found)

    # the levels read self.tokens[self.i] directly: parse runs on every query

    def formula(self) -> Formula:
        node = self.or_level()
        if self.tokens[self.i].kind != "IMP":
            return node
        operands = [node]
        while self.tokens[self.i].kind == "IMP":
            self.i += 1
            operands.append(self.or_level())
        node = operands.pop()
        while operands:
            node = Imp(operands.pop(), node)
        return node

    def or_level(self) -> Formula:
        node = self.and_level()
        while self.tokens[self.i].kind == "OR":
            self.i += 1
            node = Or(node, self.and_level())
        return node

    def and_level(self) -> Formula:
        node = self.unary()
        while self.tokens[self.i].kind == "AND":
            self.i += 1
            node = And(node, self.unary())
        return node

    def unary(self) -> Formula:
        tokens = self.tokens
        tok = tokens[self.i]
        self.i += 1
        if tok.kind == "IDENT":
            return Var(tok.text)
        prefixes = []
        while tok.kind in _PREFIX:
            prefixes.append(_PREFIX[tok.kind])
            tok = tokens[self.i]
            self.i += 1
        if tok.kind == "IDENT":
            node = Var(tok.text)
        elif tok.kind == "LPAREN":
            if self.depth == MAX_PAREN_DEPTH:
                raise FormulaSyntaxError(
                    _byte_offset(self.text, tok.pos),
                    ("identifier", "'~'", "'[]'"),
                    f"'(' nested deeper than {MAX_PAREN_DEPTH}",
                )
            self.depth += 1
            node = self.formula()
            if tokens[self.i].kind != "RPAREN":
                self.fail({"')'", "'&'", "'|'", "'->'"})
            self.i += 1
            self.depth -= 1
        else:
            self.i -= 1
            self.fail(_UNARY_START)
        while prefixes:
            node = prefixes.pop()(node)
        return node


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


_BINARY = {  # type -> (level, operator, minimum level of the left and right operands)
    And: (_AND_LEVEL, " & ", _AND_LEVEL, _AND_LEVEL + 1),
    Or: (_OR_LEVEL, " | ", _OR_LEVEL, _OR_LEVEL + 1),
    Imp: (_IMP_LEVEL, " -> ", _IMP_LEVEL + 1, _IMP_LEVEL),
}


def render(f: Formula) -> str:
    """Canonical minimal-parenthesis form; parse(render(f)) == f.  Emits the
    text left to right from a stack of pending pieces, without recursion: a
    piece is literal text or a (subformula, minimum level) pair, and a
    binary subformula below its minimum level is parenthesized."""
    out: list[str] = []
    stack: list = [(f, 0)]
    while stack:
        piece = stack.pop()
        if isinstance(piece, str):
            out.append(piece)
            continue
        g, min_level = piece
        if isinstance(g, Var):
            out.append(g.name)
        elif isinstance(g, (Not, Box)):
            out.append("~" if isinstance(g, Not) else "[]")
            stack.append((g.child, _UNARY_LEVEL))
        else:
            level, op, left_level, right_level = _BINARY[type(g)]
            pieces = [(g.left, left_level), op, (g.right, right_level)]
            if level < min_level:
                pieces = ["(", *pieces, ")"]
            stack.extend(reversed(pieces))
    return "".join(out)
