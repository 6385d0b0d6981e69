import inspect
from typing import Callable

import pytest

import ictl.checker as checker
import ictl.model as model
import ictl.oracle as oracle
from ictl.checker import check, denote
from ictl.gen import GenParams, random_formula, random_model
from ictl.model import BirelationalModel, build_model, iter_bits, with_identity_preorder
from ictl.oracle import (
    Lasso,
    PathLiftError,
    _all_paths_release,
    _all_paths_until,
    _successors_within,
    _worlds_where,
    classical_denotation,
    exists_next_worlds,
    exists_release_worlds,
    exists_until_worlds,
    lasso_is_path,
    lasso_satisfies_release,
    lasso_satisfies_until,
    lift_path,
    oracle_check,
    oracle_denotation,
)
from ictl.syntax import _IMP, compile_formulas, parse_formula, run, subformulas
from helpers import enumerate_lassos, seeded_rng


class TestOracleVerdicts:
    def test_forall_until_at_base(self, four_world):
        assert oracle_check(four_world, "w1", parse_formula("A[p U q]"))

    def test_forall_next_fails_at_base(self, four_world):
        assert not oracle_check(four_world, "w1", parse_formula("AX A[p U q]"))

    def test_atom_and_bottom(self, four_world):
        assert oracle_check(four_world, "v1", parse_formula("q"))
        assert not oracle_check(four_world, "w1", parse_formula("false"))

    def test_agrees_with_engine_on_fixture_battery(self, four_world):
        battery = [
            "p", "q", "~p", "p -> q", "p & q", "p | q",
            "EX p", "AX p", "E[p U q]", "E[q R p]", "A[p U q]", "A[q R p]",
            "AX A[p U q]", "~AX~p -> EX p", "E[p U q] -> A[p U q]",
        ]
        for text in battery:
            f = parse_formula(text)
            eng = denote(four_world, f)
            orc = oracle_denotation(four_world, f)
            for g in subformulas(f):
                assert eng[g] == orc[g], f"{g} differs"


class TestDisputedRelease:
    """The four-world fixture's universal-release claims: both engines
    agree the release fails at the base world (the only path from w1
    leaves p before any q-and-p point), so the two published follow-up
    verdicts are recorded here as regression values."""

    def test_release_fails_at_base_world_both_engines(self, four_world):
        f = parse_formula("A[q R p]")
        assert oracle_check(four_world, "w1", f) is False
        assert check(four_world, "w1", f).satisfied is False

    def test_release_holds_at_upper_world(self, four_world):
        f = parse_formula("A[q R p]")
        assert oracle_check(four_world, "v1", f) is True
        assert check(four_world, "v1", f).satisfied is True

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("p & (q | AX A[q U p])", False),  # consequent as published
            ("p & (q | AX A[q R p])", False),  # plausibly intended variant
            ("A[q R p] -> p & (q | AX A[q U p])", True),
            ("A[q R p] -> p & (q | AX A[q R p])", True),
        ],
    )
    def test_consequent_variants_at_base(self, four_world, text, expected):
        f = parse_formula(text)
        eng = check(four_world, "w1", f).satisfied
        orc = oracle_check(four_world, "w1", f)
        assert eng == orc
        assert eng is expected


class TestLassos:
    def test_self_loop_world_has_exactly_one(self, four_world):
        assert list(enumerate_lassos(four_world, "w2")) == [Lasso((), (1,))]

    def test_upper_world_stream(self, four_world):
        lassos = list(enumerate_lassos(four_world, "v1"))
        rendered = {l.render(four_world) for l in lassos}
        assert rendered == {"(v1)*", "v1 (v2)*"}

    def test_single_world_model(self):
        m = build_model(["a"], [], [("a", "a")], {})
        assert list(enumerate_lassos(m, "a")) == [Lasso((), (0,))]

    def test_every_world_has_a_lasso_and_all_validate(self, four_world):
        for w in four_world.worlds:
            lassos = list(enumerate_lassos(four_world, w))
            assert lassos
            for l in lassos:
                assert lasso_is_path(four_world, l)
                assert l.states()[0] == four_world.world_index(w)

    def test_duplicate_free(self):
        m = random_model(GenParams(n_worlds=4, n_atoms=0, seed=7, edge_density=0.6))
        for w in m.worlds:
            lassos = list(enumerate_lassos(m, w))
            assert len(lassos) == len(set(lassos))

    def test_same_stream_as_recursive_walk(self, four_world):
        def recursive(m, start):
            stack = [m.world_index(start)]
            on_stack = {stack[0]: 0}

            def explore():
                for y in iter_bits(m.succ[stack[-1]]):
                    if y in on_stack:
                        k = on_stack[y]
                        yield Lasso(tuple(stack[:k]), tuple(stack[k:]))
                    else:
                        on_stack[y] = len(stack)
                        stack.append(y)
                        yield from explore()
                        stack.pop()
                        del on_stack[y]

            yield from explore()

        models = [four_world] + [
            random_model(GenParams(n_worlds=2 + k % 5, n_atoms=0, seed=300 + k, edge_density=0.5))
            for k in range(40)
        ]
        for m in models:
            for w in m.worlds:
                assert list(enumerate_lassos(m, w)) == list(recursive(m, w))

    def test_2000_world_cycle_has_one_lasso(self):
        n = 2000
        worlds = [f"c{i}" for i in range(n)]
        m = build_model(worlds, [], [(worlds[i], worlds[(i + 1) % n]) for i in range(n)], {})
        assert list(enumerate_lassos(m, "c5")) == [Lasso((), tuple((5 + i) % n for i in range(n)))]

    def test_lasso_path_evaluators(self, four_world):
        m = four_world
        p = m.atom_mask("p")
        q = m.atom_mask("q")
        walk = Lasso((m.world_index("w1"),), (m.world_index("w2"),))
        assert lasso_satisfies_until(m, walk, p, q)
        assert not lasso_satisfies_release(m, walk, q, p)
        stay = Lasso((), (m.world_index("v1"),))
        assert lasso_satisfies_release(m, stay, q, p)

    def test_invalid_lasso_rejected(self, four_world):
        m = four_world
        assert not lasso_is_path(m, Lasso((), ()))  # empty cycle
        assert not lasso_is_path(m, Lasso((m.world_index("w1"),), (m.world_index("v1"),)))

    @pytest.mark.parametrize("index", [-1, 4])  # the fixture's worlds are 0 to 3
    def test_world_index_out_of_range_rejected(self, four_world, index):
        assert not lasso_is_path(four_world, Lasso((), (index,)))
        assert not lasso_is_path(four_world, Lasso((index,), (0,)))


class TestLiftPath:
    def test_length_one(self, four_world):
        assert lift_path(four_world, "v1", ["w1"]) == ["v1"]

    def test_ladder_example(self, four_world):
        assert lift_path(four_world, "v1", ["w1", "w2", "w2"]) == ["v1", "v1", "v1"]

    def test_identity_preorder_returns_input(self, four_world):
        m = with_identity_preorder(four_world)
        assert lift_path(m, "w1", ["w1", "w2", "w2"]) == ["w1", "w2", "w2"]

    def test_componentwise_relatedness(self, four_world):
        m = four_world
        lifted = lift_path(m, "v1", ["w1", "w2", "w2"])
        for lo, hi in zip(["w1", "w2", "w2"], lifted):
            assert m.up[m.world_index(lo)] >> m.world_index(hi) & 1

    def test_requires_nonempty_prefix(self, four_world):
        with pytest.raises(ValueError, match="^prefix must be nonempty$"):
            lift_path(four_world, "v1", [])

    def test_requires_related_start(self, four_world):
        with pytest.raises(ValueError, match="does not hold"):
            lift_path(four_world, "w2", ["w1"])

    def test_requires_r_path(self, four_world):
        with pytest.raises(ValueError, match="not an R-path"):
            lift_path(four_world, "v1", ["w1", "v2"])

    def test_invalid_frame_raises_lift_error(self):
        # a P b, a R c, succ(b) cannot cover anything above c: C2 fails
        m = build_model(
            ["a", "b", "c"], [("a", "b")], [("a", "c"), ("b", "b"), ("c", "c")], {}
        )
        with pytest.raises(PathLiftError):
            lift_path(m, "b", ["a", "c"])


# Plain CTL rules with the preorder ignored: the reference for
# ``classical_denotation``, which runs the oracle over the identity preorder.

def _material(m: BirelationalModel, a: int, b: int) -> int:
    return (m.full & ~a) | b


def _all_next(m: BirelationalModel, a: int) -> int:
    return _worlds_where(m, _successors_within, a, 0)


def _all_until(m: BirelationalModel, a: int, b: int) -> int:
    return _worlds_where(m, _all_paths_until, a, b)


def _all_release(m: BirelationalModel, a: int, b: int) -> int:
    return _worlds_where(m, _all_paths_release, a, b)


def _classical_operators() -> tuple[Callable | None, ...]:
    """Plain CTL rules indexed by node kind: no up-set quantification."""
    return (None,) * _IMP + (
        _material,
        exists_next_worlds,
        _all_next,
        exists_until_worlds,
        exists_release_worlds,
        _all_until,
        _all_release,
    )


class TestClassical:
    def test_forall_until_from_base(self, four_world):
        # the single transition chain reaches q at step one
        f = parse_formula("A[p U q]")
        assert classical_denotation(four_world, f)[f] >> four_world.world_index("w1") & 1

    def test_exists_next_true_everywhere(self, four_world):
        f = parse_formula("EX true")
        for w in four_world.worlds:
            assert classical_denotation(four_world, f)[f] >> four_world.world_index(w) & 1

    def test_no_until_witness_from_sink(self, four_world):
        f = parse_formula("E[p U q]")
        assert not classical_denotation(four_world, f)[f] >> four_world.world_index("v2") & 1

    def test_material_implication(self, four_world):
        # p true and q false at w1 kills the material implication
        f = parse_formula("p -> q")
        assert not classical_denotation(four_world, f)[f] >> four_world.world_index("w1") & 1
        assert classical_denotation(four_world, f)[f] >> four_world.world_index("w2") & 1

    def test_matches_the_classical_rule_table(self):
        rng = seeded_rng(16)
        preordered = 0  # models whose preorder is not the identity
        for _ in range(2000):
            params = GenParams(
                n_worlds=rng.randint(1, 6),
                n_atoms=2,
                seed=rng.getrandbits(32),
                edge_density=rng.choice([0.1, 0.3, 0.6, 0.9]),
            )
            m = random_model(params)
            f = random_formula(rng, 4, ["p", "q"])
            program = compile_formulas([f])
            want = dict(zip(program.formulas, run(program, m, _classical_operators())))
            assert classical_denotation(m, f) == want, (f, m)
            preordered += m.up != with_identity_preorder(m).up
        assert preordered >= 500

    def test_coincides_with_engine_on_identity_preorder(self):
        formulas = [parse_formula(t) for t in ["A[p R q]", "E[p U q] -> q", "~AX~p -> EX p"]]
        for seed in range(20):
            m = random_model(GenParams(n_worlds=5, n_atoms=2, seed=100 + seed))
            ident = with_identity_preorder(m)
            for f in formulas:
                eng = denote(ident, f, validate=False)
                cls = classical_denotation(ident, f)
                assert eng[f] == cls[f]


class TestOperatorTables:
    def test_stubbed_rule_is_called(self, monkeypatch, four_world):
        calls = []
        original = oracle.exists_next_worlds

        def counting(m, a):
            calls.append(a)
            return original(m, a)

        monkeypatch.setattr(oracle, "exists_next_worlds", counting)
        sets = oracle_denotation(four_world, parse_formula("EX p & EX EX q"))
        assert len(calls) == 3
        assert sets[parse_formula("EX p")] == original(four_world, four_world.atom_mask("p"))

    def test_independent_of_the_engine(self, monkeypatch, four_world):
        # no global of the oracle is an engine set operator or checker function
        engine = [model.image, model.pre_exists, model.pre_forall, model.up_interior]
        engine += [model.complement]
        engine += [
            v for v in vars(checker).values()
            if inspect.isfunction(v) and v.__module__ == checker.__name__
        ]
        for name, value in vars(oracle).items():
            assert not any(value is e for e in engine), name

        def broken(*args):
            raise AssertionError("engine rule called")

        for name in ["lfp", "gfp", *(op.__name__ for op in checker.operators() if op)]:
            monkeypatch.setattr(checker, name, broken)
        f = parse_formula("A[p U q] -> E[q R p] | AX ~p")
        oracle_denotation(four_world, f)
        classical_denotation(four_world, f)
