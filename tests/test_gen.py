import time
from itertools import islice, product

import pytest

import ictl.gen as gen
from ictl.checker import valid_in_model
from ictl.fixtures import FOUR_WORLD_DOC, four_world_model
from ictl.gen import (
    EngineDisagreementError,
    GenParams,
    atom_names,
    enumerate_formulas,
    enumerate_frames,
    enumerate_models,
    enumerate_preorders,
    find_countermodel,
    frame_batches,
    frame_conditions_hold,
    model_stream,
    product_frame,
    random_formula,
    random_model,
    upward_closed_masks,
)
from ictl.model import (
    BirelationalModel,
    is_isomorphic,
    validate_frame,
)
from ictl.syntax import atoms_of, parse_formula, subformulas
from helpers import seeded_rng


def naive_model_count(n: int, a: int) -> int:
    """Count valid models by brute force over all raw relation tuples,
    using only the validator as the filter (independent of the
    enumerator's own frame machinery)."""
    count = 0
    worlds = tuple(f"w{i}" for i in range(n))
    names = atom_names(a)
    all_masks = range(1 << n)
    for up in product(all_masks, repeat=n):
        for succ in product(all_masks, repeat=n):
            for vals in product(all_masks, repeat=a):
                m = BirelationalModel(worlds, up, succ, dict(zip(names, vals)))
                if validate_frame(m, max_witnesses=1).ok:
                    count += 1
    return count


class TestEnumerate:
    def test_single_world_counts(self):
        assert len(list(enumerate_models(1, 0))) == 1
        assert len(list(enumerate_models(1, 1))) == 2
        assert len(list(enumerate_models(1, 2))) == 4

    def test_two_world_count_matches_brute_force(self):
        stream = list(enumerate_models(2, 1))
        assert len(stream) == naive_model_count(2, 1)

    def test_two_world_two_atom_count(self):
        # brute force at a=2 takes a while; the a=1 cross-check above
        # justifies trusting the frame filter, so freeze the count
        assert len(list(enumerate_models(2, 2))) == 280

    def test_all_enumerated_models_validate(self):
        for m in enumerate_models(2, 2):
            assert validate_frame(m).ok
        for m in islice(enumerate_models(3, 2), 0, 2000, 7):
            assert validate_frame(m).ok

    def test_models_equal_freshly_built_ones(self):
        frames, prev = 0, None
        for m in enumerate_models(3, 2):
            fresh = BirelationalModel(m.worlds, m.up, m.succ, dict(m.val))
            for name in BirelationalModel.__slots__:
                assert getattr(m, name) == getattr(fresh, name), name
            if prev is not None and (m.up, m.succ) == (prev.up, prev.succ):
                assert m.pred is prev.pred  # one frame object per frame
            else:
                frames += 1
            prev = m
        assert frames == sum(1 for _ in gen.enumerate_frames(3))

    def test_deterministic_order(self):
        first = [gen_model.up + gen_model.succ for gen_model in islice(enumerate_models(3, 1), 50)]
        second = [gen_model.up + gen_model.succ for gen_model in islice(enumerate_models(3, 1), 50)]
        assert first == second

    def test_preorder_count_small(self):
        assert len(enumerate_preorders(1)) == 1
        assert len(enumerate_preorders(2)) == 4
        assert len(enumerate_preorders(3)) == 29

    def test_upward_closed_masks(self):
        up = (0b101, 0b010, 0b100)  # chain 0 <= 2, 1 isolated
        masks = upward_closed_masks(up)
        assert 0 in masks and 0b111 in masks
        assert 0b100 in masks and 0b001 not in masks


def brute_force_frames(n, preorders):
    """The frames the enumerator must yield, in its order: every serial
    transition tuple of each preorder, filtered by the C1/C2 check."""
    return [
        (up, succ)
        for up in preorders
        for succ in product(range(1, 1 << n), repeat=n)
        if frame_conditions_hold(up, succ)
    ]


class TestFrameEnumerator:
    """The world-by-world enumerator against a brute-force filter."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_every_small_frame_in_order(self, n):
        frames = list(enumerate_frames(n))
        assert frames == brute_force_frames(n, enumerate_preorders(n))
        assert len(frames) == [1, 1, 28, 3413][n]
        if n == 0:
            assert frames == [((), ())]

    FOUR_WORLD_PREORDERS = {
        "discrete": (0b0001, 0b0010, 0b0100, 0b1000),
        "chain": (0b1111, 0b1110, 0b1100, 0b1000),
        # world 0 alone, worlds 1 and 2 P-equivalent, world 3 above them
        "cluster": (0b0001, 0b1110, 0b1110, 0b1000),
    }

    @pytest.mark.parametrize("name", FOUR_WORLD_PREORDERS)
    def test_four_world_preorder(self, monkeypatch, name):
        up = self.FOUR_WORLD_PREORDERS[name]
        assert up in enumerate_preorders(4)
        monkeypatch.setattr(gen, "enumerate_preorders", lambda n: (up,))
        frames = list(enumerate_frames(4))
        assert frames == brute_force_frames(4, [up])
        assert frames

    def test_every_four_world_frame(self):
        start = time.perf_counter()
        assert sum(1 for _ in enumerate_frames(4)) == 2_073_373
        assert time.perf_counter() - start < 60

    def test_frames_of_a_preorder_share_its_masks(self):
        first = {}
        for frame, batch in frame_batches(3, 2):
            seen, seen_batch = first.setdefault(frame.up, (frame, batch))
            for name in ("worlds", "index", "up", "down"):
                assert getattr(frame, name) is getattr(seen, name), name
            assert batch is seen_batch  # the valuations, built once per preorder
        assert len(first) == len(enumerate_preorders(3))

    def test_no_atoms(self):
        assert [batch for _, batch in frame_batches(1, 0)] == [[()]]
        assert [len(batch) for _, batch in frame_batches(2, 0)] == [1] * 28


class TestFixtureInStream:
    def test_components_of_fixture_are_enumerable(self):
        """The four-world fixture is a valid output of the n=4 stream:
        its preorder is among the enumerated preorders, its transition
        masks are legal serial choices passing the frame filter, and its
        valuation masks are upward-closed; the stream is the full product
        of exactly these components."""
        m = four_world_model()
        assert m.up in enumerate_preorders(4)
        assert all(s != 0 for s in m.succ)
        assert frame_conditions_hold(m.up, m.succ)
        up_masks = upward_closed_masks(m.up)
        assert m.val["p"] in up_masks and m.val["q"] in up_masks

    def test_full_stream_isomorphism_search_small(self):
        target = random_model(GenParams(n_worlds=2, n_atoms=1, seed=3))
        assert any(is_isomorphic(m, target) for m in enumerate_models(2, 1))


class TestRandomModel:
    def test_deterministic(self):
        params = GenParams(n_worlds=5, n_atoms=2, seed=42)
        a, b = random_model(params), random_model(params)
        assert a.up == b.up and a.succ == b.succ and a.val == b.val

    @pytest.mark.parametrize("seed", range(30))
    def test_always_valid(self, seed):
        m = random_model(GenParams(n_worlds=1 + seed % 6, n_atoms=2, seed=seed))
        assert validate_frame(m).ok

    def test_full_density_gives_complete_transitions(self):
        m = random_model(GenParams(n_worlds=4, n_atoms=1, seed=9, edge_density=1.0))
        assert all(s == m.full for s in m.succ)
        assert validate_frame(m).ok

    def test_repair_discharges_violations(self):
        # a P b with succ(b) unable to cover successors of a: C2 breach
        up = [0b011, 0b010, 0b100]
        succ = [0b100, 0b010, 0b100]
        assert not frame_conditions_hold(up, succ)
        repaired = gen._repair_transitions(up, list(succ))
        assert frame_conditions_hold(up, repaired)
        for before, after in zip(succ, repaired):
            assert before & ~after == 0  # only adds edges

    # (n, seed, max_attempts) -> (up, succ, val), recorded where every attempt
    # breaks C1 or C2 and the sample goes through the repair loop
    REPAIRED = {
        (4, 0, 1): ((1, 2, 5, 8), (9, 5, 1, 8), {"p": 1, "q": 5}),
        (5, 1, 1): ((3, 2, 4, 27, 16), (22, 23, 31, 30, 23), {"p": 27, "q": 27}),
        (7, 0, 1): (
            (1, 2, 69, 72, 16, 32, 64),
            (65, 69, 73, 34, 69, 16, 107),
            {"p": 95, "q": 48},
        ),
        (5, 4, 32): ((1, 2, 4, 24, 16), (4, 26, 24, 12, 20), {"p": 22, "q": 22}),
        (6, 0, 32): ((1, 2, 55, 11, 16, 32), (43, 63, 45, 13, 33, 55), {"p": 50, "q": 63}),
        (8, 0, 32): (
            (33, 35, 236, 8, 176, 32, 192, 128),
            (236, 81, 140, 237, 192, 239, 169, 251),
            {"p": 225, "q": 239},
        ),
    }

    @pytest.mark.parametrize("n,seed,attempts", list(REPAIRED))
    def test_repaired_samples_pinned(self, monkeypatch, n, seed, attempts):
        repairs = []
        repair = gen._repair_transitions

        def spy(up, succ):
            repairs.append(1)
            return repair(up, succ)

        monkeypatch.setattr(gen, "_repair_transitions", spy)
        m = random_model(GenParams(n_worlds=n, n_atoms=2, seed=seed, max_attempts=attempts))
        assert repairs == [1]
        assert (m.up, m.succ, m.val) == self.REPAIRED[(n, seed, attempts)]

    def test_sampled_valuations_upward_closed(self):
        for seed in range(10):
            m = random_model(GenParams(n_worlds=5, n_atoms=2, seed=200 + seed))
            for mask in m.val.values():
                for i in range(m.n):
                    if mask >> i & 1:
                        assert not (m.up[i] & ~mask)


class TestProductFrame:
    def test_point_stage_is_classical_graph(self):
        m = product_frame(
            ["k"], [], ["s0", "s1"], [("s0", "s1"), ("s1", "s0")], {("k", "s0"): ["p"]}
        )
        assert m.n == 2
        assert m.up == (0b01, 0b10)  # identity preorder
        assert validate_frame(m).ok

    def test_single_looping_state_is_poset_with_loops(self):
        m = product_frame(
            ["lo", "hi"], [("lo", "hi")], ["s"], [("s", "s")], {("hi", "s"): ["p"]}
        )
        assert m.n == 2
        assert m.succ == (0b01, 0b10)  # every world loops on itself
        assert validate_frame(m).ok

    def test_chain_times_cycle(self):
        m = product_frame(
            ["lo", "hi"],
            [("lo", "hi")],
            ["s0", "s1"],
            [("s0", "s1"), ("s1", "s0")],
            {("lo", "s0"): ["p"], ("hi", "s0"): ["p", "q"]},
        )
        assert m.n == 4
        assert validate_frame(m).ok

    def test_non_serial_rejected(self):
        with pytest.raises(ValueError, match="serial"):
            product_frame(["k"], [], ["s0", "s1"], [("s0", "s1")], {})

    def test_non_monotone_valuation_rejected(self):
        with pytest.raises(ValueError, match="monotone"):
            product_frame(
                ["lo", "hi"], [("lo", "hi")], ["s"], [("s", "s")], {("lo", "s"): ["p"]}
            )

    def test_products_always_validate(self):
        for nk, ns in [(1, 1), (2, 2), (3, 2), (2, 3)]:
            stages = [f"k{i}" for i in range(nk)]
            order = [(f"k{i}", f"k{i+1}") for i in range(nk - 1)]
            states = [f"s{i}" for i in range(ns)]
            trans = [(f"s{i}", f"s{(i+1) % ns}") for i in range(ns)]
            val = {(stages[-1], states[0]): ["p"]}
            m = product_frame(stages, order, states, trans, val)
            assert m.n == nk * ns
            assert validate_frame(m).ok


class TestModelStream:
    def test_exhaustive_then_samples(self):
        models = list(model_stream(2, 1, samples=4, seed=3))
        exhaustive = [m for n in (1, 2) for m in enumerate_models(n, 1)]
        assert len(models) == len(exhaustive) + 4
        for m, e in zip(models, exhaustive):
            assert (m.up, m.succ, m.val) == (e.up, e.succ, e.val)
        assert [m.n for m in models[len(exhaustive):]] == [3, 4, 5, 3]
        for m in models:
            assert validate_frame(m).ok

    def test_seeded(self):
        def frames(seed):
            return [(m.up, m.succ, m.val) for m in model_stream(0, 2, samples=5, seed=seed)]

        assert frames(4) == frames(4)
        assert frames(4) != frames(5)


class TestFindCountermodel:
    def test_tautology_exhausts(self):
        result = find_countermodel(parse_formula("p -> p"), max_worlds=2)
        assert result.outcome == "exhausted"
        assert result.models_checked == 4 + 280

    def test_strict_unfolding_yields_hit(self):
        f = parse_formula("A[p U q] -> q | (p & AX A[p U q])")
        result = find_countermodel(f, max_worlds=3)
        assert result.found
        assert validate_frame(result.model).ok
        assert not valid_in_model(result.model, f)

    def test_budget_exceeded(self):
        result = find_countermodel(parse_formula("p -> p"), max_worlds=1, budget=5, seed=1)
        assert result.outcome == "budget_exceeded"
        assert result.models_checked == 4 + 5

    def test_deterministic(self):
        f = parse_formula("A[q R p] -> p & (q | AX A[q U p])")
        a = find_countermodel(f, max_worlds=3, seed=5)
        b = find_countermodel(f, max_worlds=3, seed=5)
        assert a.models_checked == b.models_checked
        assert a.model.up == b.model.up and a.model.succ == b.model.succ

    def test_engine_disagreement_raises(self, monkeypatch):
        f = parse_formula("A[p U q] -> q | (p & AX A[p U q])")
        monkeypatch.setattr(gen, "oracle_check", lambda *a, **k: True)
        with pytest.raises(EngineDisagreementError):
            find_countermodel(f, max_worlds=3)

    @pytest.mark.parametrize(
        "text, checked",
        [
            ("A[p U q] -> q | (p & AX A[p U q])", 23_330),
            ("A[q R p] -> p & (q | AX A[q U p])", 22_610),
        ],
    )
    def test_strict_converses_refuted_where_pinned(self, text, checked):
        result = find_countermodel(parse_formula(text), max_worlds=3, atoms=2)
        assert (result.outcome, result.world, result.models_checked) == ("countermodel", "w0", checked)

    def test_other_atoms_are_enumerated(self):
        result = find_countermodel(parse_formula("a -> b"), max_worlds=2)
        assert result.found
        assert set(result.model.val) == {"a", "b"}
        assert result.bounds["atoms"] == ["a", "b"]
        assert not valid_in_model(result.model, parse_formula("a -> b"))

    @pytest.mark.parametrize(
        "text",
        ["A[a U b] -> b | (a & AX A[a U b])", "A[a U q] -> q | (a & AX A[a U q])"],
    )
    def test_renamed_atoms_search_the_same_stream(self, text):
        # a fills the free slot p; an atom named like a slot keeps it
        f = parse_formula(text)
        result = find_countermodel(f, max_worlds=3)
        assert (result.world, result.models_checked) == ("w0", 23_330)
        assert set(result.model.val) == atoms_of(f)
        assert validate_frame(result.model).ok
        assert not valid_in_model(result.model, f)

    def test_hit_world_refuted_for_oracle_too(self):
        from ictl.oracle import oracle_check

        f = parse_formula("~AX~p -> EX p")
        result = find_countermodel(f, max_worlds=3, atoms=1)
        assert result.found
        assert not oracle_check(result.model, result.world, f)


class TestFormulaGeneration:
    def test_random_formula_deterministic(self):
        a = random_formula(seeded_rng(1), 4, ["p", "q"])
        b = random_formula(seeded_rng(1), 4, ["p", "q"])
        assert a == b

    def test_random_formula_height_bound(self):
        from ictl.syntax import children

        def height(f):
            return 1 + max((height(c) for c in children(f)), default=0)

        rng = seeded_rng(2)
        for _ in range(100):
            assert height(random_formula(rng, 3, ["p"])) <= 3

    def test_enumerate_formulas_counts(self):
        assert len(enumerate_formulas(1, ["p", "q"])) == 2
        assert len(enumerate_formulas(2, ["p", "q"])) == 34
        assert len(enumerate_formulas(3, ["p", "q"])) == 8162

    def test_enumerate_formulas_distinct_and_closed(self):
        battery = enumerate_formulas(2, ["p", "q"])
        assert len(set(battery)) == len(battery)
        pool = set(battery)
        for f in battery:
            for g in subformulas(f):
                assert g in pool

    def test_children_precede_parents(self):
        battery = enumerate_formulas(2, ["p"], include_bottom=True)
        seen = set()
        from ictl.syntax import children

        for f in battery:
            assert all(c in seen for c in children(f))
            seen.add(f)
