import time

import pytest

from ictl.syntax import (
    _IMP,
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
