import json
import random
from itertools import product
from pathlib import Path

import pytest

from ictl.fixtures import FOUR_WORLD_DOC, four_world_model
from ictl.gen import (
    GenParams,
    enumerate_preorders,
    frame_conditions_hold,
    random_model,
    upward_closed_masks,
)
from ictl.model import (
    BirelationalModel,
    ModelFormatError,
    _close_masks,
    build_model,
    c1_holds,
    c2_holds,
    complement,
    frame_violations,
    image,
    is_upward_closed,
    iter_bits,
    load_model,
    model_from_raw,
    model_to_document,
    pre_exists,
    pre_forall,
    up_interior,
    validate_frame,
    with_identity_preorder,
)
from helpers import is_isomorphic


def mask(m, *names):
    out = 0
    for w in names:
        out |= 1 << m.world_index(w)
    return out


class TestLoad:
    def test_fixture_document(self):
        raw = load_model(FOUR_WORLD_DOC)
        assert len(raw.worlds) == 4
        assert raw.valuation["v1"] == {"p", "q"}

    def test_shipped_example_is_the_fixture(self):
        path = Path(__file__).resolve().parents[1] / "models" / "four_world.json"
        text = path.read_text()
        assert json.loads(text) == FOUR_WORLD_DOC
        assert load_model(text) == load_model(FOUR_WORLD_DOC)

    def test_json_text_accepted(self):
        raw = load_model(json.dumps(FOUR_WORLD_DOC))
        assert raw.worlds == ["w1", "w2", "v1", "v2"]

    def test_unknown_world_in_edge(self):
        doc = dict(FOUR_WORLD_DOC, transitions=[["w9", "w1"]])
        with pytest.raises(ModelFormatError, match="w9"):
            load_model(doc)

    def test_duplicate_world_name(self):
        doc = dict(FOUR_WORLD_DOC, worlds=["a", "a"])
        with pytest.raises(ModelFormatError, match="duplicate"):
            load_model(doc)

    def test_minimal_model(self):
        raw = load_model(
            {"worlds": ["a"], "preorder": [], "transitions": [["a", "a"]], "valuation": {}}
        )
        m = model_from_raw(raw)
        assert validate_frame(m).ok

    def test_bad_atom_name(self):
        doc = dict(FOUR_WORLD_DOC, valuation={"w1": ["Bad"]})
        with pytest.raises(ModelFormatError, match="atom"):
            load_model(doc)

    def test_unknown_top_level_key(self):
        doc = dict(FOUR_WORLD_DOC, extra=1)
        with pytest.raises(ModelFormatError, match="unknown keys"):
            load_model(doc)

    def test_not_json(self):
        with pytest.raises(ModelFormatError):
            load_model("{nope")

    def test_json_nested_too_deeply(self):
        # the json decoder recurses once per level of nesting
        with pytest.raises(ModelFormatError, match="^not valid JSON: nested too deeply"):
            load_model("[" * 5000 + "]" * 5000)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "model document must be a JSON object"),
            ('{"worlds": ["a"], "preorder": {}}', "'preorder' must be a list of [from, to] pairs"),
            ('{"worlds": ["a"], "valuation": []}', "'valuation' must map world names to atom lists"),
        ],
    )
    def test_wrong_container_named(self, text, message):
        with pytest.raises(ModelFormatError) as e:
            load_model(text)
        assert str(e.value) == message

    def test_unknown_world_in_valuation(self):
        doc = dict(FOUR_WORLD_DOC, valuation={"zz": ["p"]})
        with pytest.raises(ModelFormatError, match="zz"):
            load_model(doc)


class TestClosePreorder:
    """``_close_masks``: ``up[i]`` is the set of worlds ``i`` reaches, itself included."""

    def test_empty_becomes_identity(self):
        assert _close_masks(3, []) == [0b001, 0b010, 0b100]

    def test_transitive_step(self):
        assert _close_masks(3, [(0, 1), (1, 2)]) == [0b111, 0b110, 0b100]

    def test_fixture_closure_adds_nothing_but_reflexives(self):
        # hand-closure: the two ladder edges plus all four reflexive pairs
        assert _close_masks(4, [(0, 2), (1, 2)]) == [0b0101, 0b0110, 0b0100, 0b1000]

    def test_idempotent(self):
        first = _close_masks(4, [(0, 1), (1, 2), (2, 3)])
        pairs = [(i, j) for i in range(4) for j in iter_bits(first[i])]
        assert _close_masks(4, pairs) == first

    def test_monotone_in_edges(self):
        small = _close_masks(4, [(0, 1)])
        big = _close_masks(4, [(0, 1), (1, 2)])
        assert all(s & ~b == 0 for s, b in zip(small, big))


class TestSetOperators:
    def test_up_set(self, four_world):
        m = four_world
        assert m.names(m.up[m.world_index("w1")]) == ["w1", "v1"]
        assert m.names(m.up[m.world_index("v2")]) == ["v2"]

    def test_up_set_contains_world(self, four_world):
        for w in four_world.worlds:
            assert four_world.up[four_world.world_index(w)] >> four_world.world_index(w) & 1

    def test_up_interior_full(self, four_world):
        assert up_interior(four_world, four_world.full) == four_world.full

    def test_up_interior_ladder_top(self, four_world):
        m = four_world
        assert up_interior(m, mask(m, "w1", "v1")) == mask(m, "w1", "v1")

    def test_up_interior_empty_when_top_missing(self, four_world):
        m = four_world
        assert up_interior(m, mask(m, "w1", "w2")) == 0

    def test_pre_exists(self, four_world):
        m = four_world
        assert pre_exists(m, mask(m, "w2")) == mask(m, "w1", "w2")
        assert pre_exists(m, 0) == 0
        assert pre_exists(m, m.full) == m.full

    def test_pre_forall(self, four_world):
        m = four_world
        assert pre_forall(m, m.full) == m.full
        assert pre_forall(m, mask(m, "w2")) == mask(m, "w1", "w2")

    def test_duality(self, four_world):
        m = four_world
        for x in range(m.full + 1):
            assert pre_forall(m, x) == complement(m, pre_exists(m, complement(m, x)))

    def test_complement(self, four_world):
        m = four_world
        assert complement(m, 0) == m.full
        assert complement(m, m.full) == 0
        assert complement(m, mask(m, "w1", "v1")) == mask(m, "w2", "v2")

    def test_is_upward_closed(self, four_world):
        m = four_world
        assert is_upward_closed(m, mask(m, "v1"))
        assert not is_upward_closed(m, mask(m, "w1"))


class TestValidate:
    def test_fixture_valid(self, four_world):
        assert validate_frame(four_world).ok

    def test_monotonicity_breach(self):
        m = build_model(
            ["a", "b"], [("a", "b")], [("a", "a"), ("b", "b")], {"a": ["p"], "b": []}
        )
        report = validate_frame(m)
        assert report.rules() == {"monotone-valuation"}
        assert report.violations[0].witness == ("a", "b")

    def test_fixture_valuation_mutation_detected(self):
        doc = dict(FOUR_WORLD_DOC, valuation={"w1": ["p"], "w2": ["q"], "v1": ["q"], "v2": []})
        m = model_from_raw(load_model(doc))
        assert "monotone-valuation" in validate_frame(m).rules()

    def test_serial_breach(self):
        m = build_model(["a", "b"], [], [("a", "b")], {})
        report = validate_frame(m)
        assert report.rules() == {"serial"}
        assert report.violations[0].witness == ("b",)

    def test_c2_breach(self):
        # a P b, a R c, but nothing above c is reachable from b
        m = build_model(
            ["a", "b", "c"],
            [("a", "b")],
            [("a", "c"), ("b", "b"), ("c", "c")],
            {},
        )
        report = validate_frame(m)
        assert report.rules() == {"C2"}
        assert ("a", "c", "b") in {v.witness for v in report.violations}

    def test_c1_breach(self):
        # a R b, b P c, but a reaches nothing whose transition hits c
        m = build_model(
            ["a", "b", "c"],
            [("b", "c")],
            [("a", "b"), ("b", "b"), ("c", "c")],
            {},
        )
        report = validate_frame(m)
        assert report.rules() == {"C1"}
        assert ("a", "b", "c") in {v.witness for v in report.violations}

    def test_unclosed_preorder_reported(self):
        # bypass closure: reflexive missing and transitivity broken
        m = BirelationalModel(("a", "b", "c"), (0b011, 0b110, 0b100), (1, 2, 4), {})
        report = validate_frame(m)
        assert "transitive" in report.rules()
        m2 = BirelationalModel(("a", "b"), (0b01, 0b01), (1, 2), {})
        assert "reflexive" in validate_frame(m2).rules()

    def test_witness_cap(self):
        worlds = [f"x{i}" for i in range(14)]
        m = build_model(worlds, [], [], {})
        report = validate_frame(m, max_witnesses=10)
        assert len([v for v in report.violations if v.rule == "serial"]) == 10
        assert report.truncated

    def test_c3_optional(self, four_world):
        # the fixture satisfies C1/C2 but not the optional C3
        assert validate_frame(four_world).ok
        report = validate_frame(four_world, check_c3=True)
        assert report.rules() == {"C3"}

    def test_c3_holds_on_identity_preorder(self, four_world):
        m = with_identity_preorder(four_world)
        assert validate_frame(m, check_c3=True).ok


class TestFrameSharing:
    def test_pred_inverts_succ(self, four_world):
        m = four_world
        for i in range(m.n):
            for j in range(m.n):
                assert (m.pred[j] >> i & 1) == (m.succ[i] >> j & 1)

    def test_down_inverts_up(self, four_world):
        m = four_world
        for i in range(m.n):
            for j in range(m.n):
                assert (m.down[j] >> i & 1) == (m.up[i] >> j & 1)

    def test_with_valuation_shares_the_frame(self, four_world):
        m = four_world
        other = m.with_valuation({"r": m.full, "a": 0})
        for name in ("worlds", "index", "up", "down", "succ", "pred", "n", "full"):
            assert getattr(other, name) is getattr(m, name), name
        assert other.val == {"r": m.full, "a": 0}
        assert other.atoms == ("a", "r")
        assert m.atoms == ("p", "q") and validate_frame(other).ok


# The per-world loops the set operators were written as, kept as references
# for the relational-image kernel.

def loop_up_interior(m, mask):
    outside = ~mask
    out = 0
    for i, u in enumerate(m.up):
        if not (u & outside):
            out |= 1 << i
    return out


def loop_pre_exists(m, mask):
    out = 0
    for i in range(m.n):
        if m.succ[i] & mask:
            out |= 1 << i
    return out


def loop_pre_forall(m, mask):
    outside = ~mask
    out = 0
    for i, s in enumerate(m.succ):
        if not (s & outside):
            out |= 1 << i
    return out


def loop_is_upward_closed(m, mask):
    for i in iter_bits(mask):
        if m.up[i] & ~mask:
            return False
    return True


def loop_upward_closed_masks(up):
    n = len(up)
    out = []
    for mask in range(1 << n):
        if all(not (up[i] & ~mask) for i in iter_bits(mask)):
            out.append(mask)
    return out


KERNEL = [
    (up_interior, loop_up_interior),
    (pre_exists, loop_pre_exists),
    (pre_forall, loop_pre_forall),
    (is_upward_closed, loop_is_upward_closed),
]


def assert_kernel_matches_loops(m, masks):
    for mask in masks:
        for op, loop in KERNEL:
            assert op(m, mask) == loop(m, mask), (op.__name__, m.up, m.succ, mask)


class TestKernel:
    """The set operators, written as relational images over the stored
    inverse relations, equal the per-world loops they replaced."""

    def test_image_is_the_union_over_the_bits(self):
        rel = (0b0110, 0b0001, 0b1000, 0b0000)
        for mask in range(16):
            expected = 0
            for j in range(4):
                if mask >> j & 1:
                    expected |= rel[j]
            assert image(rel, mask) == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_candidate_frame_every_mask(self, n):
        # the corpus of TestFrameViolations, worlds without successors included
        worlds = tuple(f"w{i}" for i in range(n))
        for up in enumerate_preorders(n):
            assert upward_closed_masks(up) == loop_upward_closed_masks(up)
            for succ in product(range(1 << n), repeat=n):
                assert_kernel_matches_loops(
                    BirelationalModel(worlds, up, succ, {}), range(1 << n)
                )

    def test_random_models(self):
        rng = random.Random(6)
        for k in range(300):
            n = rng.randint(4, 8)
            m = random_model(GenParams(n_worlds=n, n_atoms=1, seed=k))
            masks = [rng.getrandbits(n) for _ in range(8)] + [m.val["p"], 0, m.full]
            assert_kernel_matches_loops(m, masks)
            assert upward_closed_masks(m.up) == loop_upward_closed_masks(m.up)

    def test_unclosed_preorder(self):
        # neither reflexive nor transitive, and world c has no successor
        m = BirelationalModel(("a", "b", "c"), (0b010, 0b100, 0b001), (0b010, 0b101, 0), {})
        assert_kernel_matches_loops(m, range(8))
        assert upward_closed_masks(m.up) == loop_upward_closed_masks(m.up)

    def test_bits_above_the_worlds_are_ignored(self, four_world):
        m = four_world
        for mask in range(m.full + 1):
            for high in (1 << m.n, 0b1011 << m.n + 3):
                for op, loop in KERNEL:
                    assert op(m, mask | high) == loop(m, mask), (op.__name__, mask, high)


class TestDocumentRoundTrip:
    def test_round_trip(self, four_world):
        doc = model_to_document(four_world)
        again = model_from_raw(load_model(doc))
        assert again.worlds == four_world.worlds
        assert again.up == four_world.up
        assert again.succ == four_world.succ
        assert again.val == four_world.val

    def test_identity_view(self, four_world):
        m = with_identity_preorder(four_world)
        assert m.up == tuple(1 << i for i in range(4))
        assert m.succ == four_world.succ


class TestIsomorphism:
    def test_relabeling(self, four_world):
        doc = model_to_document(four_world)
        rename = {"w1": "a", "w2": "b", "v1": "c", "v2": "d"}
        doc2 = {
            "worlds": ["d", "c", "b", "a"],
            "preorder": [[rename[a], rename[b]] for a, b in doc["preorder"]],
            "transitions": [[rename[a], rename[b]] for a, b in doc["transitions"]],
            "valuation": {rename[w]: atoms for w, atoms in doc["valuation"].items()},
        }
        other = model_from_raw(load_model(doc2))
        assert is_isomorphic(four_world, other)

    def test_not_isomorphic(self, four_world):
        doc = dict(FOUR_WORLD_DOC, valuation={"w1": [], "w2": [], "v1": [], "v2": []})
        other = model_from_raw(load_model(doc))
        assert not is_isomorphic(four_world, other)


def definitional_breaches(up, succ):
    """C1/C2 breaches ``(rule, x, y, z)`` read straight off the quantifiers."""
    worlds = range(len(up))

    def P(a, b):
        return up[a] >> b & 1

    def R(a, b):
        return succ[a] >> b & 1

    out = set()
    for x, y, z in product(worlds, repeat=3):
        # C1: x R y and y P z need some u with x P u and u R z
        if R(x, y) and P(y, z) and not any(P(x, u) and R(u, z) for u in worlds):
            out.add(("C1", x, y, z))
        # C2: x P z and x R y need some u with y P u and z R u
        if P(x, z) and R(x, y) and not any(P(y, u) and R(z, u) for u in worlds):
            out.add(("C2", x, y, z))
    return out


class TestFrameViolations:
    """The one C1/C2 check, against the definition on every candidate frame
    with at most three worlds, and as seen through each of its consumers."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_candidates_agree_with_definition(self, n):
        worlds = tuple(f"w{i}" for i in range(n))
        candidates = broken = 0
        for up in enumerate_preorders(n):
            for succ in product(range(1, 1 << n), repeat=n):
                expected = definitional_breaches(up, succ)
                found = list(frame_violations(up, succ))
                # each R-edge x R y in order: its C1 breaches, then its C2 breaches
                assert found == sorted(expected, key=lambda v: (v[1], v[2], v[0], v[3]))
                assert frame_conditions_hold(up, succ) == (not expected)
                report = validate_frame(
                    BirelationalModel(worlds, up, succ, {}), max_witnesses=n**3
                )
                assert {(v.rule, *v.witness) for v in report.violations} == {
                    (rule, worlds[x], worlds[y], worlds[z]) for rule, x, y, z in expected
                }
                candidates += 1
                broken += bool(expected)
        assert candidates == len(enumerate_preorders(n)) * ((1 << n) - 1) ** n
        assert (n == 1) == (broken == 0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_non_serial_candidates_agree_with_definition(self, n):
        # the repair loop may see worlds without successors
        for up in enumerate_preorders(n):
            for succ in product(range(1 << n), repeat=n):
                if all(succ):
                    continue
                expected = definitional_breaches(up, succ)
                found = list(frame_violations(up, succ))
                assert found == sorted(expected, key=lambda v: (v[1], v[2], v[0], v[3]))


def assert_predicates_match(up, succ):
    """``c1_holds`` fails at exactly the worlds ``x`` of the C1 breaches
    ``frame_violations`` reports, and ``c2_holds`` at exactly the pairs
    ``(x, z)`` of its C2 breaches; so both hold everywhere iff it reports
    nothing."""
    n = len(up)
    down = tuple(sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n))
    breaches = list(frame_violations(up, succ))
    assert {x for x in range(n) if not c1_holds(up, succ, x)} == {
        x for rule, x, _, _ in breaches if rule == "C1"
    }
    assert {(x, z) for x in range(n) for z in iter_bits(up[x]) if not c2_holds(down, succ, x, z)} == {
        (x, z) for rule, x, _, z in breaches if rule == "C2"
    }
    return not breaches


class TestFramePredicates:
    """The enumerator's per-world C1 and per-pair C2 predicates, pinned to
    the one witness-reporting check."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_small_candidate(self, n):
        # worlds without successors included
        for up in enumerate_preorders(n):
            for succ in product(range(1 << n), repeat=n):
                assert_predicates_match(up, succ)

    def test_random_closed_preorders(self):
        rng = random.Random(7)
        valid = 0
        for _ in range(20_000):
            n = rng.randint(4, 6)
            density = rng.choice([0.15, 0.4, 0.7, 0.95])
            edges = [(i, j) for i in range(n) for j in range(n) if rng.random() < density / 2]
            up = _close_masks(n, edges)
            succ = [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)]
            valid += assert_predicates_match(up, succ)
        assert 1_000 < valid < 19_000
