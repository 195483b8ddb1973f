"""Reference computations the benchmark checks latmodal's outputs against.

Nothing here imports latmodal.  Lattices are plain tables built from an
order relation; formulas are nested tuples; model values are computed
bottom-up over all worlds from the model's own relation list; validity of
formulas of modal depth <= 1 is decided exactly, on all frames, by closing
the tuples of box-argument values under componentwise meet.

Formula tuples: ("var", name), ("not", f), ("and", f, g), ("or", f, g),
("imp", f, g), ("box", f).
"""

from __future__ import annotations

import itertools

MATERIAL = "material"
EQ1 = "deductive_eq1"


# ---------------------------------------------------------------------------
# Lattices


class Lat:
    """A finite lattice as tables, with optional negation, implication and
    designated set (all by element index)."""

    def __init__(self, elements, leq, neg=None, imp_mode=None, imp=None, designated=()):
        self.elements = list(elements)
        self.n = n = len(self.elements)
        self.leq = leq
        self.meet = [[_bound(leq, i, j, below=True) for j in range(n)] for i in range(n)]
        self.join = [[_bound(leq, i, j, below=False) for j in range(n)] for i in range(n)]
        self.top = next(i for i in range(n) if all(leq[j][i] for j in range(n)))
        self.bottom = next(i for i in range(n) if all(leq[i][j] for j in range(n)))
        self.neg = list(neg) if neg is not None else None
        self.imp_mode = imp_mode
        if imp is not None:
            self.imp = [list(row) for row in imp]
        elif imp_mode == MATERIAL:
            self.imp = [[self.join[self.neg[a]][b] for b in range(n)] for a in range(n)]
        elif imp_mode == EQ1:
            self.imp = [[self.top if leq[a][b] else b for b in range(n)] for a in range(n)]
        else:
            self.imp = None
        self.designated = frozenset(designated)

    def index(self, name: str) -> int:
        return self.elements.index(name)

def _bound(leq, i, j, *, below):
    n = len(leq)
    if below:
        cands = [k for k in range(n) if leq[k][i] and leq[k][j]]
        best = [m for m in cands if all(leq[k][m] for k in cands)]
    else:
        cands = [k for k in range(n) if leq[i][k] and leq[j][k]]
        best = [m for m in cands if all(leq[m][k] for k in cands)]
    if len(best) != 1:
        raise ValueError("not a lattice")
    return best[0]


def closure(n: int, pairs) -> list[list[bool]]:
    """Reflexive-transitive closure of index pairs; rejects cycles."""
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in pairs:
        leq[a][b] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    if leq[k][j]:
                        leq[i][j] = True
    if any(leq[i][j] and leq[j][i] for i in range(n) for j in range(n) if i != j):
        raise ValueError("order relation has a cycle")
    return leq


def lattice(elements, pairs, neg=None, imp_mode=None, designated=()) -> Lat:
    """Lattice from element names and order pairs of names; neg maps names."""
    idx = {x: i for i, x in enumerate(elements)}
    leq = closure(len(elements), [(idx[a], idx[b]) for a, b in pairs])
    neg_t = [idx[neg[x]] for x in elements] if neg is not None else None
    return Lat(elements, leq, neg_t, imp_mode, None, [idx[x] for x in designated])


def from_spec(spec: dict) -> Lat:
    """Lattice from a benchmark spec: elements, pairs, neg, imp, designated."""
    return lattice(
        spec["elements"], spec["pairs"], spec.get("neg"), spec.get("imp"), spec.get("designated", ())
    )


# Lattices of 3 to 5 elements the generated workloads draw from.  Each entry
# is (elements, cover pairs, negation or None); the negations are
# order-reversing involutions, so material implication is available.
POOL = {
    "C3": (["0", "h", "1"], [("0", "h"), ("h", "1")], {"0": "1", "h": "h", "1": "0"}),
    "C4": (
        ["0", "a", "b", "1"],
        [("0", "a"), ("a", "b"), ("b", "1")],
        {"0": "1", "a": "b", "b": "a", "1": "0"},
    ),
    "B4": (
        ["0", "a", "b", "1"],
        [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")],
        {"0": "1", "a": "b", "b": "a", "1": "0"},
    ),
    "C5": (
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "b"), ("b", "c"), ("c", "1")],
        {"0": "1", "a": "c", "b": "b", "c": "a", "1": "0"},
    ),
    "M3": (
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
        {"0": "1", "a": "a", "b": "c", "c": "b", "1": "0"},
    ),
    "N5": (
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")],
        {"0": "1", "a": "c", "b": "b", "c": "a", "1": "0"},
    ),
    "1+B4": (
        ["0", "e", "a", "b", "1"],
        [("0", "e"), ("e", "a"), ("e", "b"), ("a", "1"), ("b", "1")],
        None,
    ),
    "B4+1": (
        ["0", "a", "b", "e", "1"],
        [("0", "a"), ("0", "b"), ("a", "e"), ("b", "e"), ("e", "1")],
        None,
    ),
}


def pool_of_size(n: int) -> list[str]:
    return [name for name, (elements, _, _) in POOL.items() if len(elements) == n]


# ---------------------------------------------------------------------------
# Universes of the verification suite


def lattices_of_size(n: int) -> list[Lat]:
    """All lattices on n elements up to isomorphism.

    Element 0 is the bottom and n-1 the top; every partial order on the
    elements between them is tried and kept when all meets and joins exist.
    """
    if n == 1:
        return [Lat(["e0"], [[True]])]
    mids = list(range(1, n - 1))
    pairs = [(a, b) for a in mids for b in mids if a != b]
    seen, found = set(), []
    for chosen in range(1 << len(pairs)):
        rel = [pairs[k] for k in range(len(pairs)) if chosen >> k & 1]
        rel += [(0, m) for m in mids] + [(m, n - 1) for m in mids] + [(0, n - 1)]
        try:
            leq = closure(n, rel)
            lat = Lat([f"e{i}" for i in range(n)], leq)
        except ValueError:
            continue
        key = min(
            tuple(leq[p[i]][p[j]] for i in range(n) for j in range(n))
            for p in ([0, *perm, n - 1] for perm in itertools.permutations(mids))
        )
        if key not in seen:
            seen.add(key)
            found.append(lat)
    return found


def upsets(lat: Lat) -> list[frozenset[int]]:
    """All upward-closed subsets, the empty one included."""
    out = []
    for mask in range(1 << lat.n):
        s = frozenset(i for i in range(lat.n) if mask >> i & 1)
        if all(j in s for i in s for j in range(lat.n) if lat.leq[i][j]):
            out.append(s)
    return out


def antitone_involutions(lat: Lat) -> list[list[int]]:
    n = lat.n
    return [
        list(p)
        for p in itertools.permutations(range(n))
        if all(p[p[i]] == i for i in range(n))
        and all(lat.leq[p[b]][p[a]] for a in range(n) for b in range(n) if lat.leq[a][b])
    ]


def is_distributive(lat: Lat) -> bool:
    r = range(lat.n)
    m, j = lat.meet, lat.join
    return all(j[a][m[b][c]] == m[j[a][b]][j[a][c]] for a in r for b in r for c in r)


def twist_lattice(atoms: int) -> Lat:
    """Twist algebra over the Boolean algebra of subsets of `atoms` atoms,
    restricted to pairs whose coordinates join to the top, with material
    implication."""
    full = (1 << atoms) - 1
    pairs = [(i, j) for i in range(full + 1) for j in range(full + 1) if i | j == full]
    # (a, b) <= (c, d) when a is a subset of c and d a subset of b
    leq = [[(a & c) == a and (d & b) == d for (c, d) in pairs] for (a, b) in pairs]
    neg = [pairs.index((b, a)) for (a, b) in pairs]
    return Lat([str(p) for p in pairs], leq, neg, MATERIAL)


def suite_universes(size_bound: int = 5, twist_atoms: int = 2) -> dict[str, list]:
    """The matrices of each box biconditional in `run_suite`, as a list of
    (lattice tables, designated sets) per check."""
    lats = [lat for n in range(1, size_bound + 1) for lat in lattices_of_size(n)]
    eq1 = []
    for lat in lats:
        base = Lat(lat.elements, lat.leq, None, EQ1)
        eq1.append((base, [u for u in upsets(base) if u]))
    material = []
    for lat in lats:
        if is_distributive(lat):
            for neg in antitone_involutions(lat):
                base = Lat(lat.elements, lat.leq, neg, MATERIAL)
                material.append((base, [u for u in upsets(base) if u]))
    twists = []
    for atoms in range(1, twist_atoms + 1):
        base = twist_lattice(atoms)
        twists.append((base, upsets(base)))
    return {"disj_dist": eq1, "k_linear": eq1, "k_material": material, "twist_k": twists}


# ---------------------------------------------------------------------------
# Formulas


def V(name):
    return ("var", name)


def render(f) -> str:
    """Text with every binary connective parenthesized except at the top."""
    return _render(f, top=True)


def _render(f, top=False) -> str:
    kind = f[0]
    if kind == "var":
        return f[1]
    if kind == "not":
        return "~" + _render(f[1])
    if kind == "box":
        return "[]" + _render(f[1])
    op = {"and": " & ", "or": " | ", "imp": " -> "}[kind]
    text = _render(f[1]) + op + _render(f[2])
    return text if top else "(" + text + ")"


def variables(f) -> set[str]:
    if f[0] == "var":
        return {f[1]}
    return set().union(*(variables(g) for g in f[1:]))


def modal_depth(f) -> int:
    if f[0] == "var":
        return 0
    return (f[0] == "box") + max(modal_depth(g) for g in f[1:])


def substitute(f, mapping):
    if f[0] == "var":
        return mapping.get(f[1], f)
    return (f[0], *(substitute(g, mapping) for g in f[1:]))


def _value(lat: Lat, f, env, boxes) -> int:
    kind = f[0]
    if kind == "var":
        return env[f[1]]
    if kind == "box":
        return boxes[f]
    if kind == "not":
        return lat.neg[_value(lat, f[1], env, boxes)]
    a = _value(lat, f[1], env, boxes)
    b = _value(lat, f[2], env, boxes)
    if kind == "and":
        return lat.meet[a][b]
    if kind == "or":
        return lat.join[a][b]
    return lat.imp[a][b]


# ---------------------------------------------------------------------------
# Model evaluation


def eval_model(lat: Lat, worlds, rel, valuation, f) -> list[int]:
    """Value of f at every world, in the order of `worlds`.

    `rel` is the model's relation as [world, world] name pairs and
    `valuation` maps world -> variable -> element name, as in model files.
    Each subformula is computed once for all worlds, children first; a box
    takes the meet over the successors listed in `rel`, top at dead ends.
    """
    pos = {w: i for i, w in enumerate(worlds)}
    succ = [[] for _ in worlds]
    for a, b in rel:
        succ[pos[a]].append(pos[b])
    memo = {}

    def vals(g):
        got = memo.get(g)
        if got is not None:
            return got
        kind = g[0]
        if kind == "var":
            out = [lat.index(valuation[w][g[1]]) for w in worlds]
        elif kind == "not":
            out = [lat.neg[x] for x in vals(g[1])]
        elif kind == "box":
            child = vals(g[1])
            out = []
            for ws in succ:
                v = lat.top
                for s in ws:
                    v = lat.meet[v][child[s]]
                out.append(v)
        else:
            table = {"and": lat.meet, "or": lat.join, "imp": lat.imp}[kind]
            out = [table[x][y] for x, y in zip(vals(g[1]), vals(g[2]))]
        memo[g] = out
        return out

    return vals(f)


# ---------------------------------------------------------------------------
# Exact frame validity for modal depth <= 1


def box_nodes(f, acc=None) -> set:
    """The distinct box subformulas of f."""
    acc = set() if acc is None else acc
    if f[0] == "box":
        acc.add(f)
    if f[0] != "var":
        for g in f[1:]:
            box_nodes(g, acc)
    return acc


def _values_by_size(lat: Lat, f):
    """For m = 1, 2, ...: the values f (modal depth <= 1) takes at some
    world of some model on a frame of at most m worlds; ends when the set
    can grow no more, so the last one holds over all frames.

    At a world r the value of f depends on r's own valuation and on the
    tuple c of box values, which is the componentwise meet of the tuples of
    box-argument values at r's successors (all-top when there are none).
    With m worlds, c is the meet of at most m-1 tuples from arbitrary
    valuations (r irreflexive) or of r's own tuple and at most m-1 others
    (r reflexive).  Once the meets of at most m-1 tuples are closed under
    meet, larger frames, infinite ones included, reach nothing new.
    """
    if modal_depth(f) > 1:
        raise ValueError("the exact decision needs modal depth <= 1")
    boxes = sorted(box_nodes(f), key=render)
    names = sorted(variables(f))
    envs = [dict(zip(names, v)) for v in itertools.product(range(lat.n), repeat=len(names))]
    own = [tuple(_value(lat, b[1], env, {}) for b in boxes) for env in envs]
    singles = set(own)

    def meet(s, t):
        return tuple(lat.meet[x][y] for x, y in zip(s, t))

    level = {tuple(lat.top for _ in boxes)}  # meets of at most m-1 tuples
    values, new = set(), level
    while new:
        values |= {
            _value(lat, f, env, dict(zip(boxes, box_values)))
            for env, t in zip(envs, own)
            for c in new
            for box_values in (c, meet(t, c))
        }
        yield values
        new = {meet(c, t) for c in new for t in singles} - level
        level |= new


def smallest_countermodel(lat: Lat, f) -> int | None:
    """Fewest worlds of a frame on which f (modal depth <= 1) takes a
    non-designated value somewhere, or None when f is valid on every frame."""
    for m, values in enumerate(_values_by_size(lat, f), 1):
        if not values <= lat.designated:
            return m
    return None


def attained_values(lat: Lat, f) -> set[int]:
    """Every value f (modal depth <= 1) takes at some world of some model
    on some frame; f is valid for a designated set D on all frames exactly
    when these values all lie in D."""
    *_, values = _values_by_size(lat, f)
    return values
