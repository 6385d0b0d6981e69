import time
from dataclasses import replace
from itertools import islice, permutations, product
from math import factorial

import pytest

import ictl.checker as checker
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
    frame_conditions_hold,
    model_stream,
    product_frame,
    random_formula,
    random_model,
    upward_closed_masks,
)
from ictl.model import (
    BirelationalModel,
    _apply_perm,
    _close_masks,
    iter_bits,
    model_to_document,
    pre_forall,
    validate_frame,
)
from ictl.syntax import atoms_of, compile_formulas, parse_formula, run_frame, subformulas
from helpers import is_isomorphic, seeded_rng
from test_batch import PROVE_FORMULAS


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

    def test_sweeps_only_its_world_count(self, monkeypatch):
        asked = []
        preorders = gen.enumerate_preorders

        def recorded(n):
            asked.append(n)
            return preorders(n)

        monkeypatch.setattr(gen, "enumerate_preorders", recorded)
        assert sum(1 for _ in enumerate_models(3, 2)) == 82_298
        assert set(asked) == {3}

    def test_no_worlds_no_models(self):
        assert list(enumerate_models(0, 2)) == []

    @pytest.mark.parametrize("n", [-1, -2])
    def test_negative_world_count_refused(self, n):
        with pytest.raises(ValueError, match="^n must be >= 0$"):
            enumerate_preorders(n)
        with pytest.raises(ValueError, match="^n must be >= 0$"):
            list(enumerate_frames(n))
        assert list(enumerate_models(n, 2)) == []

    @pytest.mark.parametrize("a", [-1, -3, -20])
    def test_negative_atom_count_refused(self, a):
        with pytest.raises(ValueError, match="^a must be >= 0$"):
            atom_names(a)
        with pytest.raises(ValueError, match="^a must be >= 0$"):
            list(enumerate_models(1, a))
        with pytest.raises(ValueError, match="^a must be >= 0$"):
            find_countermodel(parse_formula("p"), max_worlds=1, atoms=a)

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

    def test_frames_stream_as_found(self, monkeypatch):
        # the first frame of a preorder comes out before its second is found
        up = self.FOUR_WORLD_PREORDERS["discrete"]
        monkeypatch.setattr(gen, "enumerate_preorders", lambda n: (up,) if n == 4 else ())
        monkeypatch.setattr(gen, "_LEADERS", {})  # a replayed record would draw no frame
        drawn = []
        transitions = gen._transitions

        def counted(order, down):
            for succ in transitions(order, down):
                drawn.append(succ)
                yield succ

        monkeypatch.setattr(gen, "_transitions", counted)
        streams = [
            enumerate_frames(4),
            gen._sweep(range(4, 5), 0, 0, 0, False),
            gen._sweep(range(4, 5), 0, 0, 0, True),  # the first frame in product order leads
        ]
        for stream in streams:
            drawn.clear()
            next(stream)
            assert len(drawn) == 1

    def test_every_four_world_frame(self):
        start = time.perf_counter()
        assert sum(1 for _ in enumerate_frames(4)) == 2_073_373
        assert time.perf_counter() - start < 60

    def test_frames_of_a_preorder_share_its_masks(self):
        first = {}
        three_worlds = [(frame, batch) for _, frame, batch in gen._sweep(range(3, 4), 2, 0, 0) if batch]
        for frame, batch in three_worlds:
            seen, seen_batch = first.setdefault(frame.up, (frame, batch))
            for name in ("worlds", "index", "up", "down"):
                assert getattr(frame, name) is getattr(seen, name), name
            assert batch is seen_batch  # the valuations, built once per preorder
        assert len(first) == len(enumerate_preorders(3))

    def test_no_atoms(self):
        assert [batch for _, _, batch in gen._sweep(range(1, 2), 0, 0, 0) if batch] == [[()]]
        assert [len(batch) for _, _, batch in gen._sweep(range(2, 3), 0, 0, 0) if batch] == [1] * 28


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

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n_worlds", 0, "n_worlds must be >= 1"),
            ("n_atoms", -1, "n_atoms must be >= 0"),
            ("edge_density", 1.5, "edge_density must be in [0, 1]"),
            ("max_attempts", 0, "max_attempts must be >= 1"),
        ],
    )
    def test_params_out_of_range_refused(self, field, value, message):
        with pytest.raises(ValueError) as e:
            GenParams(**{"n_worlds": 2, "n_atoms": 1, field: value})
        assert str(e.value) == message

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

    @pytest.mark.parametrize(
        "stages, states, twice",
        [(["k", "k"], ["s"], "k.s"), (["a", "a.b"], ["b.c", "c"], "a.b.c")],
    )
    def test_duplicate_world_rejected(self, stages, states, twice):
        # a serial graph: build_model would merge the two names into one world
        with pytest.raises(ValueError, match=f"^duplicate world '{twice}'$"):
            product_frame(stages, [], states, [(s, s) for s in states], {})

    @pytest.mark.parametrize("stages, states", [([], ["s"]), (["k"], []), ([], [])])
    def test_no_worlds_rejected(self, stages, states):
        with pytest.raises(ValueError, match="no worlds"):
            product_frame(stages, [], states, [(s, s) for s in states], {})

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

    def test_matches_its_definition(self):
        """2,000 seeded products: P is the closed stage order paired with
        equal states, R steps within one stage, each atom holds where it is
        given, and a rejection names ``serial`` when some state has no
        successor and ``monotone-valuation`` otherwise."""
        rng = seeded_rng(18)
        seen = {"accepted": 0, "serial": 0, "monotone-valuation": 0, "cyclic": 0}
        for _ in range(2000):
            nk, ns, order, trans, atoms_at = random_product(rng)
            stages = [f"k{i}" for i in range(nk)]
            states = [f"s{i}" for i in range(ns)]
            up = _close_masks(nk, order)
            closed = {(i, j) for i in range(nk) for j in iter_bits(up[i])}
            seen["cyclic"] += any((j, i) in closed for i, j in order if i != j)
            serial = {a for a, _ in trans} == set(range(ns))
            monotone = all(atoms_at[i, s] <= atoms_at[j, s] for i, j in closed for s in range(ns))
            args = (
                stages,
                [(stages[i], stages[j]) for i, j in order],
                states,
                [(states[a], states[b]) for a, b in trans],
                {(stages[k], states[s]): sorted(atoms) for (k, s), atoms in atoms_at.items()},
            )
            if not (serial and monotone):
                rule = "monotone-valuation" if serial else "serial"
                with pytest.raises(ValueError, match=f"^{rule}: "):
                    product_frame(*args)
                seen[rule] += 1
                continue
            m = product_frame(*args)
            seen["accepted"] += 1
            assert m.worlds == tuple(f"k{k}.s{s}" for k in range(nk) for s in range(ns))
            world = {(k, s): k * ns + s for k in range(nk) for s in range(ns)}
            assert {(x, y) for x in range(m.n) for y in iter_bits(m.up[x])} == {
                (world[i, s], world[j, s]) for i, j in closed for s in range(ns)
            }
            assert {(x, y) for x in range(m.n) for y in iter_bits(m.succ[x])} == {
                (world[k, a], world[k, b]) for k in range(nk) for a, b in trans
            }
            for atom in "pq":
                want = {world[k, s] for (k, s), atoms in atoms_at.items() if atom in atoms}
                assert set(iter_bits(m.atom_mask(atom))) == want
        assert min(seen.values()) >= 200, seen


def random_product(rng):
    """Seeded index-level product input: stage and state counts, a stage
    order (often cyclic), a transition graph (often not serial) and the
    atoms at each (stage, state), upward closed along the order half of the
    time and often not monotone otherwise."""
    nk, ns = rng.randint(1, 4), rng.randint(1, 4)
    density = rng.choice([0.2, 0.5])
    order = [(i, j) for i in range(nk) for j in range(nk) if rng.random() < density]
    density = rng.choice([0.3, 0.6, 0.9])
    trans = [(a, b) for a in range(ns) for b in range(ns) if rng.random() < density]
    atoms_at = {(k, s): {x for x in "pq" if rng.random() < 0.5} for k in range(nk) for s in range(ns)}
    if rng.random() < 0.5:
        up = _close_masks(nk, order)
        for i, j in sorted((i, j) for i in range(nk) for j in iter_bits(up[i])):
            for s in range(ns):
                atoms_at[j, s] |= atoms_at[i, s]
    return nk, ns, order, trans, atoms_at


class TestModelStream:
    def test_exhaustive_then_samples(self):
        models = list(model_stream(range(1, 3), 1, samples=4, seed=3))
        exhaustive = [m for n in (1, 2) for m in enumerate_models(n, 1)]
        assert len(models) == len(exhaustive) + 4
        for m, e in zip(models, exhaustive):
            assert (m.up, m.succ, m.val) == (e.up, e.succ, e.val)
        assert [m.n for m in models[len(exhaustive):]] == [3, 4, 5, 3]
        for m in models:
            assert validate_frame(m).ok

    def test_seeded(self):
        def frames(seed):
            models = model_stream(range(1, 1), 2, samples=5, seed=seed)
            return [(m.up, m.succ, m.val) for m in models]

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


def reference_find_countermodel(f, max_worlds=3, atoms=2, budget=0, seed=0):
    """``find_countermodel`` as it was before it skipped non-leader frames:
    the engine runs on every batch of the labelled ``gen._sweep``."""
    program = compile_formulas([f])
    place = gen._search_atoms(program.atom_slots, atoms)
    generated = atom_names(len(place))
    slots = {a: generated[j] for a, j in place.items()}  # each atom's slot name
    program = replace(program, atom_slots=[slots[a] for a in program.atom_slots])
    ops = checker.operators()
    names = list(slots)
    bounds = {"max_worlds": max_worlds, "atoms": names, "budget": budget, "seed": seed}
    checked = 0
    frame = column_batch = None
    for _, batch_frame, batch in gen._sweep(range(1, max_worlds + 1), len(names), budget, seed):
        if not batch:  # the end marker
            break
        if batch_frame is not frame:
            frame, memo = batch_frame, {}
        if batch is not column_batch:
            column_batch, columns = batch, dict(zip(generated, zip(*batch)))
        top = run_frame(program, frame, columns, len(batch), ops, memo)[-1]
        if top.count(frame.full) < len(batch):
            i, mask = next((i, v) for i, v in enumerate(top) if v != frame.full)
            m = frame.with_valuation(dict(zip(generated, batch[i])))
            m = m.with_valuation({a: m.val[s] for a, s in slots.items()})  # f's atoms
            return gen._countermodel(f, m, mask, checked + i + 1, bounds)
        checked += len(batch)
    outcome = "exhausted" if budget <= 0 else "budget_exceeded"
    return gen.SearchResult(outcome, None, None, checked, bounds)


def summary(result):
    model = None if result.model is None else model_to_document(result.model)
    return result.outcome, result.models_checked, result.world, model


def random_searches(count, seed):
    """``count`` seeded (formula, max_worlds, atoms): formulas of height at
    most 4 over 1 to 3 atoms, searched over 1 to 3 worlds."""
    rng = seeded_rng(seed)
    out = []
    for _ in range(count):
        names = atom_names(rng.randint(1, 3))
        out.append((random_formula(rng, 4, names), rng.randint(1, 3), len(names)))
    return out


def leader_frames(n):
    """The ``n``-world frames of the leader sweep, as (up, succ)."""
    return [
        (frame.up, frame.succ)
        for _, frame, _ in gen._sweep(range(n, n + 1), 0, 0, 0, leaders=True)
        if frame is not None
    ]


def automorphisms(up, succ):
    """How many renamings of the worlds map the frame onto itself."""
    n = len(up)
    return sum(
        all(
            _apply_perm(up[i], p) == up[p[i]] and _apply_perm(succ[i], p) == succ[p[i]]
            for i in range(n)
        )
        for p in permutations(range(n))
    )


class TestLeaderSearch:
    """``find_countermodel`` runs the engine on one frame per isomorphism
    class and reports what the labelled loop of
    ``reference_find_countermodel`` reports."""

    # criterion 03's four laws and criterion 04's two converses among them
    @pytest.mark.parametrize("text", PROVE_FORMULAS)
    def test_prove_formulas(self, text):
        f = parse_formula(text)
        assert summary(find_countermodel(f)) == summary(reference_find_countermodel(f))

    def test_random_formulas(self):
        outcomes = set()
        for f, max_worlds, atoms in random_searches(300, 13):
            got = summary(find_countermodel(f, max_worlds, atoms))
            assert got == summary(reference_find_countermodel(f, max_worlds, atoms)), f
            outcomes.add((got[0], max_worlds))
        assert {("exhausted", 3), ("countermodel", 3)} <= outcomes

    def test_random_formulas_non_persistent_rule(self, monkeypatch):
        # AX read as the classical pre_forall: its outputs need not be
        # upward closed, but it still commutes with renaming worlds.  The
        # oracle disagrees with it, so hits are taken unconfirmed.
        monkeypatch.setattr(checker, "forall_next_set", lambda m, a: pre_forall(m, a))
        monkeypatch.setattr(gen, "oracle_check", lambda *args, **kwargs: False)
        for f, max_worlds, atoms in random_searches(300, 13):
            got = summary(find_countermodel(f, max_worlds, atoms))
            assert got == summary(reference_find_countermodel(f, max_worlds, atoms)), f

    @pytest.mark.parametrize("n, leaders, frames", [(1, 1, 1), (2, 17, 28), (3, 630, 3413)])
    def test_orbit_stabiliser(self, n, leaders, frames):
        found = leader_frames(n)
        assert len(found) == leaders
        assert sum(factorial(n) // automorphisms(up, succ) for up, succ in found) == frames

        def invariant(up, succ):
            return tuple(sorted(map(int.bit_count, up))), tuple(sorted(map(int.bit_count, succ)))

        worlds = tuple(f"w{i}" for i in range(n))
        by_invariant = {}
        for up, succ in found:
            leader = BirelationalModel(worlds, up, succ, {})
            by_invariant.setdefault(invariant(up, succ), []).append(leader)
        labelled = list(enumerate_frames(n))
        assert len(labelled) == frames
        for up, succ in labelled:
            m = BirelationalModel(worlds, up, succ, {})
            candidates = by_invariant[invariant(up, succ)]
            assert sum(is_isomorphic(m, leader) for leader in candidates) == 1

    @pytest.fixture
    def frames_run(self, monkeypatch):
        calls = []
        original = gen.run_frame

        def wrapper(program, frame, columns, size, ops, memo):
            calls.append(frame)
            return original(program, frame, columns, size, ops, memo)

        monkeypatch.setattr(gen, "run_frame", wrapper)
        return calls

    def test_one_run_per_leader(self, frames_run):
        result = find_countermodel(parse_formula(PROVE_FORMULAS[2]), max_worlds=3, atoms=2)
        assert (result.outcome, result.models_checked) == ("exhausted", 82_582)
        assert len(frames_run) == 1 + 17 + 630

    @pytest.mark.parametrize("name", TestFrameEnumerator.FOUR_WORLD_PREORDERS)
    def test_one_four_world_preorder(self, monkeypatch, frames_run, name):
        up = TestFrameEnumerator.FOUR_WORLD_PREORDERS[name]
        monkeypatch.setattr(gen, "enumerate_preorders", lambda n: (up,) if n == 4 else ())
        frames = brute_force_frames(4, [up])
        result = find_countermodel(parse_formula("p -> p"), max_worlds=4, atoms=1)
        models = len(frames) * len(upward_closed_masks(up))
        assert (result.outcome, result.models_checked) == ("exhausted", models)
        # one run per orbit of the preorder's automorphisms on its frames
        group = automorphisms(up, up)
        assert sum(group // automorphisms(up, frame.succ) for frame in frames_run) == len(frames)
        for text in ["EX p -> AX p", "p -> AX p", "EX EX p -> EX p"]:
            f = parse_formula(text)
            got = summary(find_countermodel(f, max_worlds=4, atoms=1))
            assert got == summary(reference_find_countermodel(f, 4, 1))
            assert got[0] == "countermodel"


def sweep(max_worlds, atoms, samples, leaders):
    """``gen._sweep`` with each frame as its relations and valuation."""
    return [
        (position, frame and (frame.up, frame.succ, frame.val), batch)
        for position, frame, batch in gen._sweep(range(1, max_worlds + 1), atoms, samples, 11, leaders)
    ]


class TestSweep:
    """``gen._sweep``, labelled and by leaders, against the frames and
    valuations counted one by one."""

    @pytest.mark.parametrize("samples", [0, 5])
    @pytest.mark.parametrize("atoms", [0, 1, 2])
    @pytest.mark.parametrize("max_worlds", [0, 1, 2, 3])
    def test_leaders_are_the_labelled_leader_batches(self, max_worlds, atoms, samples):
        labelled = sweep(max_worlds, atoms, samples, leaders=False)
        models = sum(
            len(upward_closed_masks(up)) ** atoms
            for n in range(1, max_worlds + 1)
            for up, _ in enumerate_frames(n)
        )
        position = 0
        for at, _, batch in labelled:
            assert at == position  # each batch starts where the last ended
            position += len(batch)
        assert labelled[-1] == (models + samples, None, [])
        assert [len(b) for _, m, b in labelled if m and len(m[0]) > max_worlds] == [1] * samples
        leaders = {(up, succ) for n in range(1, max_worlds + 1) for up, succ in leader_frames(n)}
        expected = [
            (at, m, batch)
            for at, m, batch in labelled
            if m is None or len(m[0]) > max_worlds or (m[0], m[1]) in leaders
        ]
        assert sweep(max_worlds, atoms, samples, leaders=True) == expected

    @pytest.mark.parametrize("leaders", [False, True])
    def test_large_frame_splits_at_its_offsets(self, leaders):
        batches = list(gen._sweep(range(1, 2), 14, 0, 0, leaders))
        assert [(at, len(batch)) for at, _, batch in batches] == [
            (0, 4096), (4096, 4096), (8192, 4096), (12288, 4096), (16384, 0)
        ]
        assert batches[0][1] is batches[3][1]
        assert sorted(v for _, _, batch in batches for v in batch) == list(product((0, 1), repeat=14))


class TestLeaderRecord:
    """``gen._LEADERS``: the leader frames of each preorder, recorded by the
    first leader stream that runs to its end and replayed after it."""

    @pytest.mark.parametrize("samples", [0, 5])
    @pytest.mark.parametrize("atoms", [0, 1, 2])
    @pytest.mark.parametrize("max_worlds", [0, 1, 2, 3])
    def test_cold_equals_warm(self, monkeypatch, max_worlds, atoms, samples):
        monkeypatch.setattr(gen, "_LEADERS", {})
        cold = sweep(max_worlds, atoms, samples, leaders=True)
        recorded = sum(len(found) for _, found in gen._LEADERS.values())
        assert recorded == [0, 1, 18, 648][max_worlds]
        assert sweep(max_worlds, atoms, samples, leaders=True) == cold

    def test_searches_cold_equal_warm(self, monkeypatch):
        monkeypatch.setattr(gen, "_LEADERS", {})
        formulas = [parse_formula(text) for text in PROVE_FORMULAS]
        cold = [summary(find_countermodel(f)) for f in formulas]
        assert gen._LEADERS
        assert [summary(find_countermodel(f)) for f in formulas] == cold

    def test_a_stopped_stream_records_nothing(self, monkeypatch):
        up = (0b001, 0b010, 0b100)  # three discrete worlds: 70 leaders of 343 frames
        monkeypatch.setattr(gen, "enumerate_preorders", lambda n: (up,) if n == 3 else ())
        monkeypatch.setattr(gen, "_LEADERS", {})
        drawn = []
        transitions = gen._transitions

        def counted(order, down):
            for succ in transitions(order, down):
                drawn.append(succ)
                yield succ

        monkeypatch.setattr(gen, "_transitions", counted)
        stream = gen._sweep(range(3, 4), 0, 0, 0, True)
        assert len(list(islice(stream, 2))) == 2  # the second resumes the first's stream
        stream.close()
        assert gen._LEADERS == {}
        cold = sweep(3, 0, 0, leaders=True)
        assert list(gen._LEADERS) == [up]
        assert gen._LEADERS[up][0] == len(drawn) - 2 == len(brute_force_frames(3, [up]))
        assert len(gen._LEADERS[up][1]) == 70
        drawn.clear()  # a second leader stream replays the record
        assert sweep(3, 0, 0, leaders=True) == cold
        assert drawn == []

    def test_no_four_world_record(self, monkeypatch):
        up = (0b0001, 0b0010, 0b0100, 0b1000)
        monkeypatch.setattr(gen, "enumerate_preorders", lambda n: (up,) if n == 4 else ())
        monkeypatch.setattr(gen, "_transitions", lambda order, down: iter([up, up[1:] + up[:1]]))
        monkeypatch.setattr(gen, "_LEADERS", {})
        batches = list(gen._sweep(range(4, 5), 0, 0, 0, True))
        assert batches[-1] == (2, None, [])
        assert gen._LEADERS == {}


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
        battery = enumerate_formulas(2, ["p", "q"])
        seen = set()
        from ictl.syntax import children

        for f in battery:
            assert all(c in seen for c in children(f))
            seen.add(f)
