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

:func:`compile_formulas` flattens formulas into one :class:`Program`, a
table of ``(kind, left, right)`` nodes with children before parents, and
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


# eq=False keeps Formula's iterative __eq__ and its cached __hash__
_node = dataclass(frozen=True, slots=True, eq=False)


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


def children(f: Formula) -> tuple[Formula, ...]:
    match f:
        case Atom() | Bottom():
            return ()
        case ExistsNext(sub) | ForallNext(sub):
            return (sub,)
        case (
            And(l, r)
            | Or(l, r)
            | Implies(l, r)
            | ExistsUntil(l, r)
            | ExistsRelease(l, r)
            | ForallUntil(l, r)
            | ForallRelease(l, r)
        ):
            return (l, r)
    raise TypeError(f"not a formula: {f!r}")


def subformulas(f: Formula) -> list[Formula]:
    """All distinct subformulas in post order; the last element is ``f``."""
    seen: set[Formula] = set()
    out: list[Formula] = []

    def walk(g: Formula) -> None:
        if g in seen:
            return
        for child in children(g):
            walk(child)
        seen.add(g)
        out.append(g)

    walk(f)
    return out


def atoms_of(f: Formula) -> set[str]:
    return {g.name for g in subformulas(f) if isinstance(g, Atom)}


# ---------------------------------------------------------------------------
# Compiled programs

# node kinds; the operators, kind >= _IMP, are where the semantics differ
_ATOM, _BOT, _AND, _OR, _IMP, _EX, _AX, _EU, _ER, _AU, _AR = range(11)

_KIND = {
    And: _AND,
    Or: _OR,
    Implies: _IMP,
    ExistsNext: _EX,
    ForallNext: _AX,
    ExistsUntil: _EU,
    ExistsRelease: _ER,
    ForallUntil: _AU,
    ForallRelease: _AR,
}


@dataclass
class Program:
    formulas: list[Formula]
    nodes: list[tuple[int, int, int]]  # (kind, left index, right index)
    atom_slots: list[str]  # atom name per node where kind == _ATOM


def compile_formulas(formulas: Iterable[Formula]) -> Program:
    """Flatten formulas into one deduplicated node table.

    Subformulas are added, so the table is closed and every node's
    children precede it; for a single formula the table is exactly
    :func:`subformulas`.
    """
    table: list[Formula] = []
    index: dict[Formula, int] = {}
    for f in formulas:
        for g in subformulas(f):
            if g not in index:
                index[g] = len(table)
                table.append(g)
    nodes: list[tuple[int, int, int]] = []
    atom_slots: list[str] = []
    for g in table:
        match g:
            case Atom(name):
                nodes.append((_ATOM, len(atom_slots), -1))
                atom_slots.append(name)
            case Bottom():
                nodes.append((_BOT, -1, -1))
            case ExistsNext(s) | ForallNext(s):
                nodes.append((_KIND[type(g)], index[s], -1))
            case _:
                nodes.append((_KIND[type(g)], index[g.left], index[g.right]))
    return Program(table, nodes, atom_slots)


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


# ---------------------------------------------------------------------------
# Printer

# precedence levels: 0 = implication, 1 = disjunction, 2 = conjunction, 3 = unary
def _fmt(f: Formula, level: int) -> str:
    match f:
        case Atom(name):
            return name
        case Bottom():
            return "false"
        case And(l, r):
            s = f"{_fmt(l, 2)} & {_fmt(r, 3)}"
            return f"({s})" if level > 2 else s
        case Or(l, r):
            s = f"{_fmt(l, 1)} | {_fmt(r, 2)}"
            return f"({s})" if level > 1 else s
        case Implies(l, r):
            s = f"{_fmt(l, 1)} -> {_fmt(r, 0)}"
            return f"({s})" if level > 0 else s
        case ExistsNext(sub):
            return f"EX {_fmt(sub, 3)}"
        case ForallNext(sub):
            return f"AX {_fmt(sub, 3)}"
        case ExistsUntil(l, r):
            return f"E[{_fmt(l, 0)} U {_fmt(r, 0)}]"
        case ExistsRelease(l, r):
            return f"E[{_fmt(l, 0)} R {_fmt(r, 0)}]"
        case ForallUntil(l, r):
            return f"A[{_fmt(l, 0)} U {_fmt(r, 0)}]"
        case ForallRelease(l, r):
            return f"A[{_fmt(l, 0)} R {_fmt(r, 0)}]"
    raise TypeError(f"not a formula: {f!r}")


def print_formula(f: Formula) -> str:
    """Canonical text form; re-parses to a structurally identical AST."""
    return _fmt(f, 0)
