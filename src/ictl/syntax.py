"""Formula syntax: AST, parser, printer, and traversal.

The surface grammar (whitespace-insensitive between tokens)::

    formula := impl
    impl    := or ( "->" impl )?                        right-associative
    or      := and ( "|" and )*                         left-associative
    and     := unary ( "&" unary )*                     left-associative
    unary   := "~" unary | "EX" unary | "AX" unary
             | "E" "[" formula ("U"|"R") formula "]"
             | "A" "[" formula ("U"|"R") formula "]"
             | "(" formula ")" | "false" | "true" | atom
    atom    := [a-z][A-Za-z0-9_]*

``~f`` is sugar for ``f -> false`` and ``true`` for ``false -> false``;
both desugar at parse time, so the AST has no negation or truth node.

Every node caches its hash when it is built, computed from its type and
its children's cached hashes, so hashing any formula is O(1) however deep
it is.  Equality stays structural but is checked with an explicit stack,
so comparing two deep equal formulas cannot overflow the call stack, and
each pair of shared subterms is compared once, so the cost is the size of
the formulas as DAGs, not as trees.

:func:`compile_formulas` is the one walk over formulas: it flattens them
into one :class:`Program`, a table of ``(kind, left, right)`` nodes with
children before parents, in post order over an explicit stack, so no
depth overflows the call stack.  :func:`subformulas` and :func:`atoms_of`
read that table, and :func:`print_formula` and a node's ``repr`` (the
text a dataclass would generate) render it children first.  One per-kind
table, ``_SYNTAX``, gives each node class its kind, print form and
precedence.  The parser is the one formula path that still recurses, so
formula text nested deeper than the recursion limit fails there.

:func:`run_frame` is the one loop that evaluates such a table.  Its unit
is a frame: each node yields a column of masks, one per valuation of the
frame in the batch (callers batch at most :data:`MAX_BATCH`).  It
computes atoms, ``false``, ``&`` and ``|`` itself, as list comprehensions
over the columns, and hands every other node to a kind-indexed operator
table; the fixpoint engine, the path oracle and the classical semantics
differ only in their tables.  It memoizes every operator result by the
operator and its child masks, in a memo the caller passes (fresh per
model, or kept across all batches of a frame), and calls the table only
on a miss.  :func:`run` evaluates one model, as a batch of one.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

if TYPE_CHECKING:
    from .model import BirelationalModel

__all__ = [
    "Formula",
    "Atom",
    "Bottom",
    "And",
    "Or",
    "Implies",
    "ExistsNext",
    "ForallNext",
    "ExistsUntil",
    "ExistsRelease",
    "ForallUntil",
    "ForallRelease",
    "BOTTOM",
    "TRUE",
    "negation",
    "ParseError",
    "parse_formula",
    "print_formula",
    "subformulas",
    "children",
    "atoms_of",
    "Program",
    "compile_formulas",
    "MAX_BATCH",
    "run_frame",
    "run",
]

ATOM_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")


class Formula:
    """Base class for formula nodes; concrete nodes are frozen dataclasses."""

    __slots__ = ("_hash",)

    def __post_init__(self) -> None:
        fields = tuple(getattr(self, name) for name in self.__match_args__)
        object.__setattr__(self, "_hash", hash((type(self), fields)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        stack = [(self, other)]
        pushed = {(id(self), id(other))}  # each shared pair is compared once
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            for name in a.__match_args__:
                x, y = getattr(a, name), getattr(b, name)
                if isinstance(x, Formula):
                    pair = (id(x), id(y))
                    if pair not in pushed:
                        pushed.add(pair)
                        stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __reduce__(self):
        # copies and pickles rebuild through the constructor, which sets _hash
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __str__(self) -> str:
        return print_formula(self)

    def __repr__(self) -> str:
        if type(self) not in _SYNTAX:  # not a node class, so no fields to show
            return object.__repr__(self)
        return _render(self, _repr_node)


# eq=False keeps Formula's iterative __eq__ and its cached __hash__, and
# repr=False its __repr__, which spells out what the generated one would
# without recursing
_node = dataclass(frozen=True, slots=True, eq=False, repr=False)


@_node
class Atom(Formula):
    name: str


@_node
class Bottom(Formula):
    pass


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class ExistsNext(Formula):
    sub: Formula


@_node
class ForallNext(Formula):
    sub: Formula


@_node
class ExistsUntil(Formula):
    left: Formula
    right: Formula


@_node
class ExistsRelease(Formula):
    left: Formula
    right: Formula


@_node
class ForallUntil(Formula):
    left: Formula
    right: Formula


@_node
class ForallRelease(Formula):
    left: Formula
    right: Formula


BOTTOM = Bottom()
TRUE = Implies(BOTTOM, BOTTOM)


def negation(f: Formula) -> Formula:
    return Implies(f, BOTTOM)


# ---------------------------------------------------------------------------
# Compiled programs

# node kinds; the operators, kind >= _IMP, are where the semantics differ
_ATOM, _BOT, _AND, _OR, _IMP, _EX, _AX, _EU, _ER, _AU, _AR = range(11)

# Per node class: its kind, its print form, the precedence it binds at
# (0 = implication, 1 = disjunction, 2 = conjunction, 3 = tightest) and the
# precedence each child is printed at, one entry per child.
_SYNTAX: dict[type, tuple[int, str, int, tuple[int, ...]]] = {
    Atom: (_ATOM, "{}", 3, ()),
    Bottom: (_BOT, "false", 3, ()),
    And: (_AND, "{} & {}", 2, (2, 3)),
    Or: (_OR, "{} | {}", 1, (1, 2)),
    Implies: (_IMP, "{} -> {}", 0, (1, 0)),
    ExistsNext: (_EX, "EX {}", 3, (3,)),
    ForallNext: (_AX, "AX {}", 3, (3,)),
    ExistsUntil: (_EU, "E[{} U {}]", 3, (0, 0)),
    ExistsRelease: (_ER, "E[{} R {}]", 3, (0, 0)),
    ForallUntil: (_AU, "A[{} U {}]", 3, (0, 0)),
    ForallRelease: (_AR, "A[{} R {}]", 3, (0, 0)),
}


def children(f: Formula) -> tuple[Formula, ...]:
    row = _SYNTAX.get(type(f))
    if row is None:
        raise TypeError(f"not a formula: {f!r}")
    # the fields of a node that prints children are those children
    return tuple(getattr(f, name) for name in f.__match_args__) if row[3] else ()


@dataclass
class Program:
    formulas: list[Formula]
    nodes: list[tuple[int, int, int]]  # (kind, left index, right index)
    atom_slots: list[str]  # atom name per node where kind == _ATOM


def compile_formulas(formulas: Iterable[Formula]) -> Program:
    """Flatten formulas into one deduplicated node table.

    Each formula's distinct subformulas that are not yet in the table are
    added in post order, left to right, so the table is closed and every
    node's children precede it; for a single formula the table is exactly
    :func:`subformulas`.  The walk keeps its own stack, so depth costs no
    recursion.
    """
    table: list[Formula] = []
    index: dict[Formula, int] = {}
    nodes: list[tuple[int, int, int]] = []
    atom_slots: list[str] = []
    for f in formulas:
        stack: list = [f]
        while stack:
            g = stack.pop()
            if type(g) is tuple:  # (node, children), the children now in the table
                g, kids = g
                l, r = index[kids[0]], index[kids[1]] if len(kids) > 1 else -1
                nodes.append((_SYNTAX[type(g)][0], l, r))
            elif g in index:
                continue
            elif kids := children(g):  # visit them, left first, then g again
                stack.append((g, kids))
                stack += reversed(kids)
                continue
            elif type(g) is Atom:
                nodes.append((_ATOM, len(atom_slots), -1))
                atom_slots.append(g.name)
            else:  # false
                nodes.append((_BOT, -1, -1))
            index[g] = len(table)
            table.append(g)
    return Program(table, nodes, atom_slots)


def subformulas(f: Formula) -> list[Formula]:
    """All distinct subformulas in post order; the last element is ``f``."""
    return compile_formulas([f]).formulas


def atoms_of(f: Formula) -> set[str]:
    return set(compile_formulas([f]).atom_slots)


def _render(f: Formula, text: Callable[[Formula, list[tuple[Formula, str]]], str]) -> str:
    """``f`` as text, built over its :func:`compile_formulas` table children
    first: ``text(g, kids)`` gets each node with its children and their
    texts.  A child's text is dropped after its last use, so a deep chain
    keeps no prefixes."""
    program = compile_formulas([f])
    arity = [len(_SYNTAX[type(g)][3]) for g in program.formulas]
    uses = Counter(c for (_, l, r), k in zip(program.nodes, arity) for c in (l, r)[:k])
    texts: list[str] = []
    for g, (_, l, r), k in zip(program.formulas, program.nodes, arity):
        kids = []
        for c in (l, r)[:k]:
            kids.append((program.formulas[c], texts[c]))
            uses[c] -= 1
            if not uses[c]:
                texts[c] = ""
        texts.append(text(g, kids))
    return texts[-1]


def _print_node(g: Formula, kids: list[tuple[Formula, str]]) -> str:
    # a child is parenthesized where it binds looser than g prints it
    if type(g) is Atom:
        return g.name
    _, form, _, levels = _SYNTAX[type(g)]
    return form.format(
        *(f"({t})" if _SYNTAX[type(c)][2] < level else t for (c, t), level in zip(kids, levels))
    )


def print_formula(f: Formula) -> str:
    """Canonical text form; re-parses to a structurally identical AST."""
    return _render(f, _print_node)


def _repr_node(g: Formula, kids: list[tuple[Formula, str]]) -> str:
    # the dataclass form: every field by name, a formula field by its repr
    if type(g) is Atom:
        args = [f"name={g.name!r}"]
    else:
        args = [f"{name}={t}" for name, (_, t) in zip(g.__match_args__, kids)]
    return f"{type(g).__qualname__}({', '.join(args)})"


# The most valuations one run_frame call gets: a frame with more is
# evaluated in chunks that share its memo, so the columns stay bounded
# however many atoms there are.
MAX_BATCH = 4096


def run_frame(
    program: Program,
    frame: BirelationalModel,
    columns: dict[str, Sequence[int]],
    size: int,
    ops: Sequence[Callable | None],
    memo: dict[int, int],
) -> list[Sequence[int]]:
    """Column of ``size`` world-set bitmasks for every node of ``program``,
    in table order, one mask per valuation of ``frame``: ``columns[atom]``
    holds the atom's masks, ``false`` is empty, ``&`` and ``|`` are
    intersection and union, and a node of kind ``k >= _IMP`` is
    ``ops[k](frame, a)`` or ``ops[k](frame, a, b)`` over its children's
    masks.

    That result depends only on the frame and the child masks, so ``memo``
    keeps it under ``(k, a, b)`` packed into one int, and each distinct
    application runs once; calls on one frame may share ``memo``.  The
    rules read only ``frame``'s relations, never its valuation.
    """
    atoms = program.atom_slots
    shift = frame.n  # masks fit in frame.n bits
    zero = [0] * size
    get = memo.get
    cols: list[Sequence[int]] = []
    push = cols.append
    for kind, l, r in program.nodes:
        if kind >= _IMP:
            op = ops[kind]
            base = kind << shift << shift
            out = []
            add = out.append
            for a, b in zip(cols[l], cols[r] if r >= 0 else zero):
                key = base | a << shift | b
                v = get(key)
                if v is None:
                    v = memo[key] = op(frame, a) if r < 0 else op(frame, a, b)
                add(v)
            push(out)
        elif kind == _AND:
            push([a & b for a, b in zip(cols[l], cols[r])])
        elif kind == _OR:
            push([a | b for a, b in zip(cols[l], cols[r])])
        elif kind == _ATOM:
            push(columns[atoms[l]])
        else:  # _BOT
            push(zero)
    return cols


def run(
    program: Program, m: BirelationalModel, ops: Sequence[Callable | None], memo: dict[int, int]
) -> list[int]:
    """World-set bitmask of every node of ``program`` on model ``m``, in
    table order: :func:`run_frame` over the one valuation of ``m``."""
    columns = {a: (m.atom_mask(a),) for a in program.atom_slots}
    return [col[0] for col in run_frame(program, m, columns, 1, ops, memo)]


# ---------------------------------------------------------------------------
# Lexer

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<ARROW>->)
  | (?P<WORD>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<PUNCT>[~&|()\[\]])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"E", "A", "U", "R", "EX", "AX", "false", "true"}


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    text: str
    pos: int


class ParseError(ValueError):
    """Syntax error with character position and expected-token hints."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at position {position}{hint}")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "WORD":
            word = m.group()
            if word in _KEYWORDS:
                tokens.append(_Token(word, word, pos))
            elif ATOM_RE.match(word):
                tokens.append(_Token("ATOM", word, pos))
            else:
                raise ParseError(
                    f"invalid name {word!r}",
                    pos,
                    ("atom starting with a lowercase letter", "EX", "AX", "E", "A"),
                )
        elif m.lastgroup in ("ARROW", "PUNCT"):
            tokens.append(_Token(m.group(), m.group(), pos))
        pos = m.end()
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_FORMULA_START = ("~", "EX", "AX", "E", "A", "(", "false", "true", "atom")


def _describe(tok: _Token) -> str:
    return "end of input" if tok.kind == "EOF" else repr(tok.text)


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def eat(self, kind: str) -> _Token:
        tok = self.cur
        if tok.kind != kind:
            raise ParseError(f"unexpected {_describe(tok)}", tok.pos, (kind,))
        self.i += 1
        return tok

    def formula(self) -> Formula:
        left = self.disjunction()
        if self.cur.kind == "->":
            self.eat("->")
            return Implies(left, self.formula())
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.cur.kind == "|":
            self.eat("|")
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.cur.kind == "&":
            self.eat("&")
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok = self.cur
        match tok.kind:
            case "~":
                self.eat("~")
                return negation(self.unary())
            case "EX":
                self.eat("EX")
                return ExistsNext(self.unary())
            case "AX":
                self.eat("AX")
                return ForallNext(self.unary())
            case "E":
                return self.bracketed(ExistsUntil, ExistsRelease)
            case "A":
                return self.bracketed(ForallUntil, ForallRelease)
            case "(":
                self.eat("(")
                f = self.formula()
                self.eat(")")
                return f
            case "false":
                self.eat("false")
                return BOTTOM
            case "true":
                self.eat("true")
                return TRUE
            case "ATOM":
                self.eat("ATOM")
                return Atom(tok.text)
        raise ParseError(f"unexpected {_describe(tok)}", tok.pos, _FORMULA_START)

    def bracketed(self, until: type, release: type) -> Formula:
        self.eat(self.cur.kind)  # E or A
        self.eat("[")
        left = self.formula()
        tok = self.cur
        if tok.kind == "U":
            ctor = until
        elif tok.kind == "R":
            ctor = release
        else:
            raise ParseError(f"unexpected {_describe(tok)}", tok.pos, ("U", "R"))
        self.eat(tok.kind)
        right = self.formula()
        self.eat("]")
        return ctor(left, right)


def parse_formula(text: str) -> Formula:
    """Parse the surface syntax into an AST, or raise :class:`ParseError`."""
    tokens = _tokenize(text)
    if tokens[0].kind == "EOF":
        raise ParseError("empty input", 0, _FORMULA_START)
    parser = _Parser(tokens)
    f = parser.formula()
    parser.eat("EOF")
    return f
