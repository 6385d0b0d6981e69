"""Parser, printer, hashing and the compiled table.

``TestReference`` holds the subformula walk, the table and the printer
written by recursion on the formula, and asks ``compile_formulas`` and
its views for identical tables and byte-identical text on seeded random
formulas.  ``TestDeepFormulas`` drives formulas far deeper than the
recursion limit through every path that reads the table.
"""

import random
import sys
import time
import tracemalloc
from dataclasses import fields

import pytest

from ictl.checker import check, denote
from ictl.gen import find_countermodel
from ictl.oracle import oracle_denotation
from ictl.syntax import (
    _AND,
    _AR,
    _ATOM,
    _AU,
    _AX,
    _BOT,
    _ER,
    _EU,
    _EX,
    _IMP,
    _OR,
    And,
    Atom,
    BOTTOM,
    Bottom,
    ExistsNext,
    ExistsRelease,
    ExistsUntil,
    ForallNext,
    ForallRelease,
    ForallUntil,
    Formula,
    Implies,
    Or,
    ParseError,
    TRUE,
    atoms_of,
    children,
    compile_formulas,
    negation,
    parse_formula,
    print_formula,
    run,
    subformulas,
)

p, q, r = Atom("p"), Atom("q"), Atom("r")


class TestParse:
    def test_until(self):
        assert parse_formula("E[p U q]") == ExistsUntil(p, q)

    def test_negation_desugars(self):
        assert parse_formula("~p") == Implies(p, BOTTOM)

    def test_implication_right_associative(self):
        assert parse_formula("p -> q -> r") == Implies(p, Implies(q, r))

    def test_true_desugars(self):
        assert parse_formula("true") == Implies(BOTTOM, BOTTOM) == TRUE

    def test_false(self):
        assert parse_formula("false") == Bottom()

    def test_all_bracket_operators(self):
        assert parse_formula("E[p R q]") == ExistsRelease(p, q)
        assert parse_formula("A[p U q]") == ForallUntil(p, q)
        assert parse_formula("A[p R q]") == ForallRelease(p, q)

    def test_precedence(self):
        # ~ / EX / AX bind tightest, then &, then |, then ->
        assert parse_formula("~p & q | r -> s") == Implies(
            Or(And(negation(p), q), r), Atom("s")
        )
        assert parse_formula("EX p & q") == And(ExistsNext(p), q)
        assert parse_formula("AX p | EX q") == Or(ForallNext(p), ExistsNext(q))

    def test_left_associative_conjunction(self):
        assert parse_formula("p & q & r") == And(And(p, q), r)
        assert parse_formula("p | q | r") == Or(Or(p, q), r)

    def test_parentheses(self):
        assert parse_formula("p & (q | r)") == And(p, Or(q, r))

    def test_nested_prefix(self):
        assert parse_formula("EX EX p") == ExistsNext(ExistsNext(p))
        assert parse_formula("~~p") == negation(negation(p))

    def test_whitespace_insensitive(self):
        assert parse_formula("E[(p)U(q)]") == parse_formula("  E [ p U q ]  ")
        assert parse_formula("p&q->r") == parse_formula("p & q -> r")

    def test_maximal_munch_atom(self):
        # no space means one atom token: pUq is a legal atom name
        assert parse_formula("pUq") == Atom("pUq")
        with pytest.raises(ParseError):
            parse_formula("E[pUq]")

    def test_atom_lexical_rule(self):
        assert parse_formula("ex_1") == Atom("ex_1")
        assert parse_formula("aXb") == Atom("aXb")

    def test_empty_input(self):
        with pytest.raises(ParseError) as e:
            parse_formula("")
        assert e.value.position == 0

    def test_truncated_input_position(self):
        with pytest.raises(ParseError) as e:
            parse_formula("p ->")
        assert e.value.position == 4
        assert "EX" in e.value.expected

    def test_missing_until_operator(self):
        with pytest.raises(ParseError) as e:
            parse_formula("E[p q]")
        assert set(e.value.expected) == {"U", "R"}

    def test_bad_character(self):
        with pytest.raises(ParseError) as e:
            parse_formula("p @ q")
        assert e.value.position == 2

    def test_uppercase_word_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("Foo")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_formula("p q")


class TestPrint:
    def test_until_canonical(self):
        assert print_formula(ExistsUntil(p, q)) == "E[p U q]"

    def test_negation_not_used_in_output(self):
        assert print_formula(Implies(p, BOTTOM)) == "p -> false"

    def test_parenthesization_preserves_tree(self):
        assert print_formula(And(p, Or(q, r))) == "p & (q | r)"
        assert print_formula(Or(And(p, q), r)) == "p & q | r"

    def test_implication_nesting(self):
        assert print_formula(Implies(Implies(p, q), r)) == "(p -> q) -> r"
        assert print_formula(Implies(p, Implies(q, r))) == "p -> q -> r"

    def test_prefix_operand_parens(self):
        assert print_formula(ExistsNext(And(p, q))) == "EX (p & q)"
        assert print_formula(And(ExistsNext(p), q)) == "EX p & q"

    @pytest.mark.parametrize(
        "text",
        [
            "p",
            "false",
            "E[p U q]",
            "A[p R q & r]",
            "p -> q -> r",
            "(p -> q) -> r",
            "~(p | q)",
            "EX (p & (q | r))",
            "A[E[p U q] U AX p]",
            "p & q & r | p",
            "E[p R q] | A[p U E[q R r]]",
        ],
    )
    def test_round_trip(self, text):
        f = parse_formula(text)
        assert parse_formula(print_formula(f)) == f


class TestSubformulas:
    def test_leaf(self):
        assert subformulas(p) == [p]

    def test_post_order(self):
        f = Implies(p, BOTTOM)
        assert subformulas(f) == [p, BOTTOM, f]

    def test_dedup(self):
        f = And(p, p)
        assert subformulas(f) == [p, f]

    def test_children_before_parents(self):
        f = parse_formula("A[p U q] -> q | (p & AX A[p U q])")
        seen = set()
        for g in subformulas(f):
            for c in children(g):
                assert c in seen
            seen.add(g)
        assert subformulas(f)[-1] == f

    def test_length_bounded_by_node_count(self):
        f = parse_formula("p & p & p & p")
        assert len(subformulas(f)) <= 7

    def test_atoms_of(self):
        assert atoms_of(parse_formula("E[p U q] -> r & p")) == {"p", "q", "r"}


class TestHashing:
    def test_equal_parses_hash_equal(self):
        text = "A[p U q] -> q | (p & AX A[p U q])"
        a, b = parse_formula(text), parse_formula(text)
        assert a is not b
        assert a == b and hash(a) == hash(b)

    def test_same_children_different_operator(self):
        assert hash(And(p, q)) != hash(Or(p, q))
        assert And(p, q) != Or(p, q)

    def test_deep_formula_is_a_dict_key(self):
        f = p
        for _ in range(10_000):
            f = ExistsNext(f)
        table = {f: 1}
        assert table[f] == 1
        assert hash(f) == hash(ExistsNext(f.sub))

    @staticmethod
    def deep(leaf, depth=10_000):
        f = leaf
        for _ in range(depth):
            f = ExistsNext(f)
        return f

    def test_deep_equal_pairs_compare_equal(self):
        a, b = self.deep(p), self.deep(Atom("p"))
        assert a is not b
        assert a == b and not (a != b)
        c, d = self.deep(And(p, q)), self.deep(And(Atom("p"), Atom("q")))
        assert c == d

    def test_deep_unequal_pair(self):
        assert self.deep(p) != self.deep(q)
        assert self.deep(p) != self.deep(p, 9_999)
        assert self.deep(And(p, q)) != self.deep(Or(p, q))

    def test_deep_key_found_by_equal_copy(self):
        assert {self.deep(p): 1}[self.deep(Atom("p"))] == 1
        assert self.deep(q) not in {self.deep(p): 1}

    @staticmethod
    def shared(leaf, depth=64):
        f = leaf
        for _ in range(depth):
            f = And(f, f)
        return f

    def test_shared_subterms_compare_once(self):
        # 2**64 leaves as a tree, 65 nodes as a DAG
        a, b = self.shared(p), self.shared(Atom("p"))
        start = time.perf_counter()
        assert a == b
        assert time.perf_counter() - start < 1.0
        assert a != self.shared(q)
        assert self.shared(And(p, q)) == self.shared(And(Atom("p"), Atom("q")))

    def test_equality_with_other_types(self):
        assert p != "p" and not (p == "p")
        assert Atom("p") == p and ExistsNext(p) != ForallNext(p)

    def test_copies_keep_the_hash(self):
        import copy
        import pickle

        f = parse_formula("E[p U ~q] & AX r")
        for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert g == f and hash(g) == hash(f)
            assert {f: 1}[g] == 1


class TestCompile:
    def test_table_is_subformulas(self):
        f = parse_formula("A[p U q] -> q | (p & AX A[p U q])")
        program = compile_formulas([f])
        assert program.formulas == subformulas(f)
        index = {g: i for i, g in enumerate(program.formulas)}
        for i, (g, (kind, left, right)) in enumerate(zip(program.formulas, program.nodes)):
            kids = children(g)
            if isinstance(g, Atom):
                assert program.atom_slots[left] == g.name
            else:
                assert [left, right][: len(kids)] == [index[c] for c in kids]
            assert all(index[c] < i for c in kids)

    def test_battery_is_deduplicated(self):
        program = compile_formulas([parse_formula("p & q"), parse_formula("q & p"), q])
        assert program.formulas == [p, q, And(p, q), And(q, p)]
        assert program.atom_slots == ["p", "q"]

    def test_run_takes_operators_from_the_table(self, four_world):
        f = parse_formula("(p & q) | EX false | (p -> q)")
        program = compile_formulas([f])
        calls = []

        def op(m, a, b=None):
            calls.append((a, b))
            return m.full

        vals = dict(zip(program.formulas, run(program, four_world, [None] * _IMP + [op] * 7, {})))
        p_mask, q_mask = four_world.atom_mask("p"), four_world.atom_mask("q")
        assert vals[BOTTOM] == 0
        assert vals[parse_formula("p & q")] == p_mask & q_mask
        assert vals[f] == four_world.full
        assert calls == [(0, None), (p_mask, q_mask)]  # EX false, then p -> q


# ---------------------------------------------------------------------------
# References written by recursion on the formula, one case per node class


def reference_children(f):
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


def reference_subformulas(f):
    seen = set()
    out = []

    def walk(g):
        if g in seen:
            return
        for child in reference_children(g):
            walk(child)
        seen.add(g)
        out.append(g)

    walk(f)
    return out


REFERENCE_KIND = {
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


def reference_compile(formulas):
    """(formulas, nodes, atom_slots) of the table, one formula at a time."""
    table, index = [], {}
    for f in formulas:
        for g in reference_subformulas(f):
            if g not in index:
                index[g] = len(table)
                table.append(g)
    nodes, atom_slots = [], []
    for g in table:
        match g:
            case Atom(name):
                nodes.append((_ATOM, len(atom_slots), -1))
                atom_slots.append(name)
            case Bottom():
                nodes.append((_BOT, -1, -1))
            case ExistsNext(s) | ForallNext(s):
                nodes.append((REFERENCE_KIND[type(g)], index[s], -1))
            case _:
                nodes.append((REFERENCE_KIND[type(g)], index[g.left], index[g.right]))
    return table, nodes, atom_slots


# precedence levels: 0 = implication, 1 = disjunction, 2 = conjunction, 3 = unary
def reference_fmt(f, level=0):
    match f:
        case Atom(name):
            return name
        case Bottom():
            return "false"
        case And(l, r):
            s = f"{reference_fmt(l, 2)} & {reference_fmt(r, 3)}"
            return f"({s})" if level > 2 else s
        case Or(l, r):
            s = f"{reference_fmt(l, 1)} | {reference_fmt(r, 2)}"
            return f"({s})" if level > 1 else s
        case Implies(l, r):
            s = f"{reference_fmt(l, 1)} -> {reference_fmt(r, 0)}"
            return f"({s})" if level > 0 else s
        case ExistsNext(sub):
            return f"EX {reference_fmt(sub, 3)}"
        case ForallNext(sub):
            return f"AX {reference_fmt(sub, 3)}"
        case ExistsUntil(l, r):
            return f"E[{reference_fmt(l, 0)} U {reference_fmt(r, 0)}]"
        case ExistsRelease(l, r):
            return f"E[{reference_fmt(l, 0)} R {reference_fmt(r, 0)}]"
        case ForallUntil(l, r):
            return f"A[{reference_fmt(l, 0)} U {reference_fmt(r, 0)}]"
        case ForallRelease(l, r):
            return f"A[{reference_fmt(l, 0)} R {reference_fmt(r, 0)}]"
    raise TypeError(f"not a formula: {f!r}")


def reference_repr(f):
    """The ``repr`` a dataclass generates for a node: its class name and
    every field by name, a formula field by recursion."""
    args = []
    for fld in fields(f):
        value = getattr(f, fld.name)
        args.append(f"{fld.name}={reference_repr(value) if isinstance(value, Formula) else repr(value)}")
    return f"{type(f).__qualname__}({', '.join(args)})"


UNARY = (ExistsNext, ForallNext, negation)
BINARY = (And, Or, Implies, ExistsUntil, ExistsRelease, ForallUntil, ForallRelease)


def random_formulas(seed, count):
    """``count`` formulas of height 1 to 7 over p, q and r, with ``~`` and
    ``true`` among the operators and subterms, and subterms shared both
    within a formula and across formulas."""
    rng = random.Random(seed)
    leaves = [p, q, r, BOTTOM]
    shallow = [TRUE]  # subterms of height at most 3, for reuse

    def go(h):
        if h <= 1:
            return rng.choice(leaves)
        if h >= 3 and rng.random() < 0.15:
            return rng.choice(shallow)
        op = rng.choice(UNARY + BINARY)
        if op in UNARY:
            g = op(go(h - 1))
        else:
            left = go(h - 1)
            g = op(left, left if rng.random() < 0.1 else go(rng.randint(1, h - 1)))
        if h <= 3:
            shallow.append(g)
        return g

    return [go(rng.randint(1, 7)) for _ in range(count)]


class TestReference:
    FORMULAS = random_formulas(2024, 3000)

    def test_subformulas_and_atoms(self):
        for f in self.FORMULAS:
            subs = reference_subformulas(f)
            assert subformulas(f) == subs
            assert atoms_of(f) == {g.name for g in subs if isinstance(g, Atom)}
            assert children(f) == reference_children(f)

    def test_print_is_byte_identical(self):
        for f in self.FORMULAS:
            assert print_formula(f) == reference_fmt(f)

    def test_repr_is_byte_identical(self):
        for f in self.FORMULAS:
            assert repr(f) == reference_repr(f)
        # the text the generated dataclass repr gave
        assert repr(parse_formula("~AX~p -> EX (a & q | E[p U A[q R false]])")) == (
            "Implies(left=Implies(left=ForallNext(sub=Implies(left=Atom(name='p'), "
            "right=Bottom())), right=Bottom()), right=ExistsNext(sub=Or(left=And("
            "left=Atom(name='a'), right=Atom(name='q')), right=ExistsUntil(left="
            "Atom(name='p'), right=ForallRelease(left=Atom(name='q'), right=Bottom())))))"
        )
        assert repr(Atom("it's")) == 'Atom(name="it\'s")'

    @pytest.mark.parametrize("size", [1, 2, 7, 40, 300])
    def test_battery_tables(self, size):
        for start in range(0, len(self.FORMULAS) - size + 1, max(size, 97)):
            battery = self.FORMULAS[start : start + size]
            program = compile_formulas(battery)
            table, nodes, atom_slots = reference_compile(battery)
            assert program.formulas == table
            assert program.nodes == nodes
            assert program.atom_slots == atom_slots


def deep_formula(depth, seed):
    """A loop-built formula ``depth`` operators deep over p and q, mixing
    EX, AX, ~ and &, each & with a fresh shallow right operand."""
    rng = random.Random(seed)
    f = p
    for _ in range(depth):
        op = rng.choice(["EX", "AX", "~", "&"])
        if op == "&":
            f = And(f, rng.choice([q, ExistsNext(q), negation(p)]))
        else:
            f = {"EX": ExistsNext, "AX": ForallNext, "~": negation}[op](f)
    return f


class TestDeepFormulas:
    DEPTH = 10_000

    @pytest.fixture(scope="class", params=[1, 2])
    def deep(self, request):
        return deep_formula(self.DEPTH, request.param)

    def test_table(self, deep):
        subs = subformulas(deep)
        assert subs[-1] is deep and len(subs) >= self.DEPTH
        program = compile_formulas([deep, ExistsNext(deep)])
        assert program.formulas[: len(subs)] == subs
        assert len(program.formulas) == len(subs) + 1
        assert atoms_of(deep) == {"p", "q"}

    def test_print(self, deep):
        tracemalloc.start()
        text = print_formula(deep)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert len(text) > 2 * self.DEPTH
        # each child's text is dropped once its parent is built; keeping
        # every prefix of the chain would take hundreds of MiB
        assert peak < 32 * 2**20
        # the outermost operator, and the innermost atom at the far left
        head = type(deep)
        if head is And:
            assert text.endswith(f" & {print_formula(deep.right)}")
        elif head is Implies:
            assert text.endswith(" -> false")
        else:
            assert text.startswith("EX " if head is ExistsNext else "AX ")
        assert text.lstrip("(EAX ").startswith("p")

    def test_repr(self, deep):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(self.DEPTH + 1000)  # for the recursive reference only
        try:
            want = reference_repr(deep)
        finally:
            sys.setrecursionlimit(limit)
        assert repr(deep) == want

    def test_denote_matches_oracle(self, deep, four_world):
        assert denote(four_world, deep) == oracle_denotation(four_world, deep)
        sets = denote(four_world, deep)
        for w in four_world.worlds:
            outcome = check(four_world, w, deep)
            assert outcome.satisfied == bool(sets[deep] >> four_world.world_index(w) & 1)

    def test_countermodel_search(self, deep):
        result = find_countermodel(deep, max_worlds=2)
        if result.found:
            assert not check(result.model, result.world, deep).satisfied
        else:
            assert result.outcome == "exhausted"
        valid = find_countermodel(Implies(deep, deep), max_worlds=2)
        assert valid.outcome == "exhausted"
        assert valid.models_checked == find_countermodel(parse_formula("p & q -> p"), max_worlds=2).models_checked

    def test_shared_chain_compiles_to_its_dag(self):
        f = p
        for _ in range(64):
            f = And(f, f)  # 2**64 leaves as a tree; never printed
        program = compile_formulas([f])
        assert len(program.formulas) == len(program.nodes) == 65
        assert program.nodes[-1] == (_AND, 63, 63)
        assert subformulas(f)[-1] is f and atoms_of(f) == {"p"}
