import random
from itertools import product

import pytest

from helpers import (
    mask_to_names,
    naive_exists_next,
    naive_forall_next,
    naive_implication,
    witness_revalidates,
)
import ictl.checker as checker
from ictl.checker import (
    CheckOutcome,
    UniversalFailure,
    check,
    denote,
    gfp,
    lfp,
    valid_in_model,
)
from ictl.gen import (
    GenParams,
    enumerate_frames,
    enumerate_models,
    enumerate_preorders,
    random_model,
    upward_closed_masks,
)
from ictl.model import (
    BirelationalModel,
    InvalidModelError,
    build_model,
    ensure_valid,
    is_upward_closed,
    pre_exists,
    pre_forall,
    up_interior,
    validate_frame,
)
from ictl.oracle import Lasso
from ictl.syntax import _IMP, Atom, Implies, compile_formulas, parse_formula, run, subformulas


def mask(m, *names):
    out = 0
    for w in names:
        out |= 1 << m.world_index(w)
    return out


class TestFixpoints:
    def test_lfp_identity(self):
        assert lfp(lambda z: z) == 0

    def test_lfp_constant_seed(self):
        assert lfp(lambda z: z | 0b1) == 0b1

    def test_lfp_reaches_classical_until_set(self, four_world):
        m = four_world
        goal = mask(m, "w2", "v1")  # worlds where q holds
        keep = mask(m, "w1", "v1")  # worlds where p holds
        result = lfp(lambda z: goal | (keep & pre_exists(m, z)))
        assert result == mask(m, "w1", "w2", "v1")

    def test_gfp_identity(self, four_world):
        assert gfp(lambda z: z, four_world.full) == four_world.full

    def test_gfp_empty(self, four_world):
        assert gfp(lambda z: z & 0, four_world.full) == 0

    def test_gfp_reaches_classical_invariant_set(self, four_world):
        # worlds with some path staying in p forever: only the upper loop
        m = four_world
        keep = mask(m, "w1", "v1")
        assert gfp(lambda z: keep & pre_exists(m, z), m.full) == mask(m, "v1")

    def test_one_iteration_from_either_end(self, four_world):
        assert gfp is lfp
        assert lfp(lambda z: z, start=0b101) == 0b101
        assert lfp(lambda z: z & 0b110, four_world.full) == 0b110


def until_release_definitions(m, a, b):
    """The four until/release sets iterated from the module docstring's
    equations with ``lfp``/``gfp``."""
    return {
        "exists_until_set": lfp(lambda z: b | (a & pre_exists(m, z))),
        "exists_release_set": gfp(lambda z: b & (a | pre_exists(m, z)), m.full),
        "forall_until_set": up_interior(m, lfp(lambda z: b | (a & pre_forall(m, z)))),
        "forall_release_set": up_interior(
            m, gfp(lambda z: b & (a | pre_forall(m, z)), m.full)
        ),
    }


def assert_rules_match_definitions(m, a, b):
    for name, want in until_release_definitions(m, a, b).items():
        got = getattr(checker, name)(m, a, b)
        assert got == want, f"{name} on {m!r} succ={m.succ} a={a:b} b={b:b}: {got:b} != {want:b}"


class TestBackwardKernel:
    """The worklist rules equal their fixpoint definitions."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_every_small_frame_and_mask_pair(self, n):
        # every preorder and every transition relation, serial or not, C1/C2 or not
        worlds = tuple(f"w{i}" for i in range(n))
        for up in enumerate_preorders(n):
            for succ in product(range(1 << n), repeat=n):
                m = BirelationalModel(worlds, up, succ, {})
                for a, b in product(range(1 << n), repeat=2):
                    assert_rules_match_definitions(m, a, b)

    def test_random_models(self):
        rng = random.Random(4)
        for k in range(300):
            m = random_model(GenParams(rng.randint(4, 8), 0, seed=k))
            for _ in range(4):
                assert_rules_match_definitions(m, rng.getrandbits(m.n), rng.getrandbits(m.n))

    def test_world_without_successor(self):
        # a -> b -> c, and c has no successor: only "all successors" holds there
        m = build_model(["a", "b", "c"], [("a", "b")], [("a", "b"), ("b", "c")], {})
        assert m.succ[2] == 0
        for a, b in product(range(8), repeat=2):
            assert_rules_match_definitions(m, a, b)
        c_only = mask(m, "c")
        assert checker.forall_until_set(m, c_only, 0) == c_only
        assert checker.exists_until_set(m, c_only, 0) == 0
        assert checker.exists_release_set(m, 0, c_only) == 0
        assert checker.forall_release_set(m, 0, c_only) == c_only

    def test_closed_forms_on_2000_world_cycle(self):
        n = 2000
        worlds = [f"c{i}" for i in range(n)]
        m = build_model(
            worlds,
            [],
            [(worlds[i], worlds[(i + 1) % n]) for i in range(n)],
            {w: ["q"] if i == 0 else ["p"] for i, w in enumerate(worlds)},
        )
        ensure_valid(m)
        for text, want in [
            ("E[p U q]", m.full),
            ("A[p U q]", m.full),
            ("E[q R p]", 0),
            ("A[q R p]", 0),
        ]:
            f = parse_formula(text)
            assert denote(m, f, validate=False)[f] == want, text


class TestDenote:
    def test_atom(self, four_world):
        f = parse_formula("p")
        assert mask_to_names(four_world, denote(four_world, f)[f]) == {"w1", "v1"}

    def test_false_and_true(self, four_world):
        f = parse_formula("false")
        assert denote(four_world, f)[f] == 0
        t = parse_formula("true")
        assert denote(four_world, t)[t] == four_world.full

    def test_exists_next(self, four_world):
        f = parse_formula("EX q")
        assert mask_to_names(four_world, denote(four_world, f)[f]) == {"w1", "w2", "v1"}

    def test_forall_until_contains_base_world(self, four_world):
        f = parse_formula("A[p U q]")
        sets = denote(four_world, f)
        assert mask_to_names(four_world, sets[f]) == {"w1", "w2", "v1"}

    def test_forall_next_forall_until_excludes_base(self, four_world):
        f = parse_formula("AX A[p U q]")
        assert not denote(four_world, f)[f] >> four_world.world_index("w1") & 1

    def test_unfolded_disjunction_excludes_base(self, four_world):
        f = parse_formula("q | (p & AX A[p U q])")
        assert not denote(four_world, f)[f] >> four_world.world_index("w1") & 1

    def test_every_subformula_present(self, four_world):
        f = parse_formula("A[p U q] -> q | (p & AX A[p U q])")
        sets = denote(four_world, f)
        assert set(sets) == set(subformulas(f))

    def test_invalid_model_rejected(self):
        broken = build_model(["a", "b"], [], [("a", "b")], {})  # b not serial
        with pytest.raises(InvalidModelError):
            denote(broken, parse_formula("p"))

    def test_denotations_upward_closed(self, four_world):
        for text in ["p", "~p", "EX q", "AX p", "E[p U q]", "A[q R p]", "p -> q"]:
            f = parse_formula(text)
            for g, s in denote(four_world, f).items():
                assert is_upward_closed(four_world, s), f"{g} not upward closed"


class TestDefinitionalRecomputation:
    """The engine's ->, EX, AX must match sets recomputed from the
    satisfaction clauses over name-level relations."""

    @pytest.mark.parametrize("text", ["p -> q", "q -> p", "~p", "EX p", "EX q", "AX p", "AX (p -> q)"])
    def test_fixture(self, four_world, text):
        self._check_model(four_world, text)

    def test_small_enumerated_models(self):
        for i, m in enumerate(enumerate_models(2, 2)):
            if i % 7 == 0:  # spread, keep quick
                for text in ["p -> q", "EX p", "AX q", "AX (q -> p)"]:
                    self._check_model(m, text)

    @staticmethod
    def _check_model(m, text):
        f = parse_formula(text)
        sets = denote(m, f, validate=False)
        for g in subformulas(f):
            got = mask_to_names(m, sets[g])
            match g:
                case Implies(l, r):
                    want = naive_implication(
                        m, mask_to_names(m, sets[l]), mask_to_names(m, sets[r])
                    )
                case _ if type(g).__name__ == "ExistsNext":
                    want = naive_exists_next(m, mask_to_names(m, sets[g.sub]))
                case _ if type(g).__name__ == "ForallNext":
                    want = naive_forall_next(m, mask_to_names(m, sets[g.sub]))
                case _:
                    continue
            assert got == want, f"{g} differs on {m!r}"


class TestUnfoldingLaws:
    def test_existential_until_equality(self, four_world):
        lhs = parse_formula("E[p U q]")
        rhs = parse_formula("q | (p & EX E[p U q])")
        assert denote(four_world, lhs)[lhs] == denote(four_world, rhs)[rhs]

    def test_existential_release_equality(self, four_world):
        lhs = parse_formula("E[p R q]")
        rhs = parse_formula("q & (p | EX E[p R q])")
        assert denote(four_world, lhs)[lhs] == denote(four_world, rhs)[rhs]

    def test_universal_inclusions_only(self, four_world):
        m = four_world
        folded_u = parse_formula("q | (p & AX A[p U q])")
        unfolded_u = parse_formula("A[p U q]")
        assert denote(m, folded_u)[folded_u] & ~denote(m, unfolded_u)[unfolded_u] == 0
        folded_r = parse_formula("q & (p | AX A[p R q])")
        unfolded_r = parse_formula("A[p R q]")
        assert denote(m, folded_r)[folded_r] & ~denote(m, unfolded_r)[unfolded_r] == 0

    def test_universal_until_reverse_inclusion_fails_at_base(self, four_world):
        m = four_world
        au = parse_formula("A[p U q]")
        folded = parse_formula("q | (p & AX A[p U q])")
        extra = denote(m, au)[au] & ~denote(m, folded)[folded]
        assert extra >> m.world_index("w1") & 1

    def test_equalities_on_enumerated_models(self):
        lhs_u = parse_formula("E[p U q]")
        rhs_u = parse_formula("q | (p & EX E[p U q])")
        lhs_r = parse_formula("E[p R q]")
        rhs_r = parse_formula("q & (p | EX E[p R q])")
        for m in enumerate_models(2, 2):
            du, dru = denote(m, lhs_u, validate=False), denote(m, rhs_u, validate=False)
            assert du[lhs_u] == dru[rhs_u]
            dr, drr = denote(m, lhs_r, validate=False), denote(m, rhs_r, validate=False)
            assert dr[lhs_r] == drr[rhs_r]


def test_c3_iff_pre_forall_keeps_upsets():
    """C3 (x P y and y R z imply x R u and u P z for some u) holds iff
    ``pre_forall`` maps upsets to upsets, pinned on every frame with
    n <= 3.

    If C3 holds, x has all its successors in an upset a and x P y R z,
    then x R u P z for some u, which lies in a, and so does z.  So on a C3
    frame the until and release iterates from upsets stay upsets, the
    interiors change nothing, and AX, A[U] and A[R] are the classical
    next-state, least and greatest fixpoints.  If C3 fails at (x, y, z),
    no successor of x lies in the down-set of z, so the upset W - down(z)
    contains ``pre_forall`` at x but not at y, with x P y.
    """
    frames = c3 = until_changed = release_changed = 0
    for n in (1, 2, 3):
        names = tuple(f"w{i}" for i in range(n))
        for up, succ in enumerate_frames(n):
            frames += 1
            m = BirelationalModel(names, up, succ, {})
            ups = upward_closed_masks(up)
            pairs = [(a, b) for a in ups for b in ups]
            until = [lfp(lambda z: b | (a & pre_forall(m, z))) for a, b in pairs]
            release = [gfp(lambda z: b & (a | pre_forall(m, z)), m.full) for a, b in pairs]
            report = validate_frame(m, check_c3=True)
            if report.ok:
                c3 += 1
                assert all(checker.forall_next_set(m, a) == pre_forall(m, a) for a in ups)
                assert [checker.forall_until_set(m, a, b) for a, b in pairs] == until
                assert [checker.forall_release_set(m, a, b) for a, b in pairs] == release
                continue
            assert report.rules() == {"C3"}
            x, y, z = (m.world_index(w) for w in report.violations[0].witness)
            a = m.full & ~m.down[z]
            assert a in ups and pre_forall(m, a) >> x & 1 and not pre_forall(m, a) >> y & 1
            until_changed += [checker.forall_until_set(m, a, b) for a, b in pairs] != until
            release_changed += [checker.forall_release_set(m, a, b) for a, b in pairs] != release
    assert (frames, c3, frames - c3) == (3442, 2102, 1340)
    assert (until_changed, release_changed) == (150, 243)


class TestCheck:
    def test_satisfied(self, four_world):
        assert check(four_world, "w1", parse_formula("A[p U q]")).satisfied

    def test_not_satisfied(self, four_world):
        assert not check(four_world, "w1", parse_formula("q")).satisfied

    def test_true_everywhere(self, four_world):
        for w in four_world.worlds:
            assert check(four_world, w, parse_formula("true")).satisfied

    def test_unknown_world(self, four_world):
        with pytest.raises(KeyError):
            check(four_world, "nope", parse_formula("p"))

    def test_eu_witness_revalidates(self, four_world):
        f = parse_formula("E[p U q]")
        out = check(four_world, "w1", f)
        assert isinstance(out.witness, Lasso)
        assert witness_revalidates(four_world, "w1", f, out)

    def test_ex_witness_revalidates(self, four_world):
        f = parse_formula("EX q")
        out = check(four_world, "w1", f)
        assert isinstance(out.witness, Lasso)
        assert witness_revalidates(four_world, "w1", f, out)

    def test_er_witness_revalidates(self, four_world):
        f = parse_formula("E[q R p]")
        out = check(four_world, "v1", f)
        assert out.satisfied and isinstance(out.witness, Lasso)
        assert witness_revalidates(four_world, "v1", f, out)

    def test_ax_failure_witness(self, four_world):
        f = parse_formula("AX A[p U q]")
        out = check(four_world, "w1", f)
        assert not out.satisfied
        assert isinstance(out.witness, UniversalFailure)
        assert witness_revalidates(four_world, "w1", f, out)

    def test_au_failure_witness(self, four_world):
        f = parse_formula("A[p U p]")  # p never reaches itself from v2
        out = check(four_world, "v2", f)
        assert not out.satisfied
        assert isinstance(out.witness, UniversalFailure)
        assert witness_revalidates(four_world, "v2", f, out)

    def test_ar_failure_witness(self, four_world):
        f = parse_formula("A[q R p]")
        out = check(four_world, "w1", f)
        assert not out.satisfied
        assert isinstance(out.witness, UniversalFailure)
        assert out.witness.world == "w1"
        assert witness_revalidates(four_world, "w1", f, out)

    def test_validate_false_skips_validation(self):
        broken = build_model(["a", "b"], [], [("a", "b")], {"a": ["p"]})  # b not serial
        with pytest.raises(InvalidModelError):
            check(broken, "a", parse_formula("p"))
        assert check(broken, "a", parse_formula("p"), validate=False).satisfied

    def test_no_witness_for_propositional(self, four_world):
        assert check(four_world, "w1", parse_formula("p & p")).witness is None


class TestValidInModel:
    def test_unfolding_direction_valid(self, four_world):
        f = parse_formula("q | (p & AX A[p U q]) -> A[p U q]")
        assert valid_in_model(four_world, f)

    def test_reverse_direction_invalid(self, four_world):
        f = parse_formula("A[p U q] -> q | (p & AX A[p U q])")
        assert not valid_in_model(four_world, f)

    def test_ex_falso(self, four_world):
        assert valid_in_model(four_world, parse_formula("false -> p"))


class TestCompiledEvaluation:
    def test_evaluate_matches_denote(self, four_world):
        f = parse_formula("A[p U q] -> q | (p & AX A[p U q])")
        program = compile_formulas([f])
        assert run(program, four_world, checker.operators()) == list(denote(four_world, f).values())
        assert list(denote(four_world, f)) == subformulas(f)

    def test_evaluate_battery(self, four_world):
        texts = ["E[p U q]", "AX p -> EX q", "A[q R p] | false"]
        program = compile_formulas(parse_formula(t) for t in texts)
        vals = dict(zip(program.formulas, run(program, four_world, checker.operators())))
        for t in texts:
            f = parse_formula(t)
            assert vals[f] == denote(four_world, f)[f]


class TestDispatch:
    """Every engine entry point runs the rule bound to ``checker.forall_next_set``
    at call time, so a stubbed rule is the one exercised."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counter = []
        original = checker.forall_next_set

        def counting(m, a):
            counter.append(1)
            return original(m, a)

        monkeypatch.setattr(checker, "forall_next_set", counting)
        return counter

    def test_denote(self, calls, four_world):
        denote(four_world, parse_formula("AX p & AX AX q"))
        assert len(calls) == 3

    def test_find_countermodel(self, calls):
        from ictl.gen import find_countermodel

        result = find_countermodel(parse_formula("AX p -> p"), max_worlds=1)
        assert result.outcome == "exhausted"
        assert result.models_checked == 4
        assert len(calls) == 2  # the frame's memo: one call per distinct p mask

    def test_each_distinct_application_runs_once(self, monkeypatch, four_world):
        calls = []
        original = checker.implication_set

        def counting(m, a, b):
            calls.append((a, b))
            return original(m, a, b)

        monkeypatch.setattr(checker, "implication_set", counting)
        program = compile_formulas([parse_formula("~~~~p")])
        vals = run(program, four_world, checker.operators())
        applied = [(vals[l], vals[r]) for kind, l, r in program.nodes if kind >= _IMP]
        assert len(applied) == 4  # ~~~p is ~p, so ~~~~p repeats the application of ~~p
        assert sorted(calls) == sorted(set(applied))
        assert len(calls) < len(applied)

    def test_scan_models(self, calls):
        from ictl.harness import compile_battery, scan_models

        stats = scan_models(enumerate_models(1, 1), compile_battery([parse_formula("AX p")]))
        assert stats.ok and stats.models == 2
        assert len(calls) == 2  # one memo miss per model
