"""Model ingest: loading, closing and validating in one pass each.

The error paths are pinned with the bad entry last, after 2,000 good
ones, so a whole-list fast path cannot report a different entry.  The
preorder closure and the validation report are compared with plain
references kept here: closing by rounds of images until nothing changes,
and every validation rule as a witness loop over every world.
"""

import json
import random
import time
from itertools import product

import pytest

from ictl import cli
from ictl.gen import enumerate_preorders, product_frame
from ictl.model import (
    BirelationalModel,
    ModelFormatError,
    ValidationReport,
    Violation,
    _close_masks,
    image,
    iter_bits,
    load_model,
    model_to_document,
    validate_frame,
)
from ictl.oracle import oracle_check
from ictl.syntax import parse_formula

N_GOOD = 2_000


def chain_doc() -> dict:
    """A valid 2,000-world cycle whose preorder is a chain: every entry is good."""
    worlds = [f"w{i}" for i in range(N_GOOD)]
    return {
        "worlds": worlds,
        "preorder": [[worlds[i], worlds[i + 1]] for i in range(N_GOOD - 1)],
        "transitions": [[worlds[i], worlds[(i + 1) % N_GOOD]] for i in range(N_GOOD)],
        "valuation": {w: ["p"] for w in worlds},
    }


def with_last(key: str, entry) -> dict:
    doc = chain_doc()
    doc[key] = doc[key] + [entry]
    return doc


class TestLoadErrorAfterGoodEntries:
    def test_good_document_loads(self):
        raw = load_model(chain_doc())
        assert raw.preorder[-1] == ("w1998", "w1999")
        assert raw.transitions[-1] == ("w1999", "w0")
        assert raw.valuation["w1999"] == {"p"}

    @pytest.mark.parametrize(
        "key, entry, message",
        [
            ("preorder", "w0", "'preorder' entries must be [from, to] name pairs, got 'w0'"),
            ("transitions", 7, "'transitions' entries must be [from, to] name pairs, got 7"),
            (
                "preorder",
                ["w0", "w1", "w2"],
                "'preorder' entries must be [from, to] name pairs, got ['w0', 'w1', 'w2']",
            ),
            (
                "transitions",
                ["w0", "w1", "w2"],
                "'transitions' entries must be [from, to] name pairs, got ['w0', 'w1', 'w2']",
            ),
            ("preorder", ["w0", 7], "'preorder' entries must be [from, to] name pairs, got ['w0', 7]"),
            (
                "transitions",
                [None, "w0"],
                "'transitions' entries must be [from, to] name pairs, got [None, 'w0']",
            ),
            ("preorder", ["w0", "nowhere"], "unknown world 'nowhere' in 'preorder'"),
            ("preorder", ["nowhere", "w0"], "unknown world 'nowhere' in 'preorder'"),
            ("transitions", ["w0", "nowhere"], "unknown world 'nowhere' in 'transitions'"),
            ("transitions", ["nowhere", "w0"], "unknown world 'nowhere' in 'transitions'"),
        ],
    )
    def test_bad_last_edge(self, key, entry, message):
        with pytest.raises(ModelFormatError) as e:
            load_model(with_last(key, entry))
        assert str(e.value) == message

    def test_first_bad_edge_is_named(self):
        doc = chain_doc()
        doc["preorder"] = doc["preorder"] + [["w0", "nowhere"], ["w0"]]
        with pytest.raises(ModelFormatError) as e:
            load_model(doc)
        assert str(e.value) == "unknown world 'nowhere' in 'preorder'"

    @pytest.mark.parametrize(
        "atoms, message",
        [
            (["p", "Bad"], "invalid atom name 'Bad' (want lowercase letter, then letters/digits/underscore)"),
            (["p", ""], "invalid atom name '' (want lowercase letter, then letters/digits/underscore)"),
            (["p", 3], "valuation of 'w1999' must be a list of atom names"),
            ("p", "valuation of 'w1999' must be a list of atom names"),
        ],
    )
    def test_bad_valuation_on_last_world(self, atoms, message):
        doc = chain_doc()
        doc["valuation"]["w1999"] = atoms
        with pytest.raises(ModelFormatError) as e:
            load_model(doc)
        assert str(e.value) == message

    def test_unknown_world_last_in_valuation(self):
        doc = chain_doc()
        doc["valuation"]["nowhere"] = ["p"]
        with pytest.raises(ModelFormatError) as e:
            load_model(doc)
        assert str(e.value) == "unknown world 'nowhere' in 'valuation'"

    def test_duplicate_world_at_the_end(self):
        doc = chain_doc()
        doc["worlds"] = doc["worlds"] + ["w5"]
        with pytest.raises(ModelFormatError) as e:
            load_model(doc)
        assert str(e.value) == "duplicate world name 'w5'"

    def test_list_subclass_entries_still_accepted(self):
        class Pair(list):
            pass

        doc = chain_doc()
        doc["preorder"] = [Pair(e) for e in doc["preorder"]]
        assert load_model(doc).preorder == load_model(chain_doc()).preorder


def rounds_closure(n, edges):
    """Reflexive-transitive closure by rounds of images until nothing changes."""
    up = [1 << i for i in range(n)]
    for i, j in edges:
        up[i] |= 1 << j
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = image(up, up[i])
            if acc != up[i]:
                up[i] = acc
                changed = True
    return up


class TestClosureReference:
    def test_random_graphs(self):
        rng = random.Random(11)
        for _ in range(5_000):
            n = rng.randint(1, 12)
            edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(4 * n))]
            if edges and rng.random() < 0.3:  # repeated edges
                edges += rng.choices(edges, k=len(edges))
            if rng.random() < 0.3:  # a cycle through a random subset
                ring = rng.sample(range(n), rng.randint(1, n))
                edges += list(zip(ring, ring[1:] + ring[:1]))
            assert _close_masks(n, edges) == rounds_closure(n, edges), (n, edges)

    def test_four_stage_chain(self):
        ring, stages = 500, 4
        edges = [(k * ring + j, (k + 1) * ring + j) for k in range(stages - 1) for j in range(ring)]
        up = _close_masks(ring * stages, edges)
        assert up == rounds_closure(ring * stages, edges)
        assert up[7] == sum(1 << (k * ring + 7) for k in range(stages))

    def test_long_cycle_is_one_component(self):
        n = 3_000
        assert _close_masks(n, [(i, (i + 1) % n) for i in range(n)]) == [(1 << n) - 1] * n


def reference_report(m, check_c3=False, max_witnesses=10):
    """Every rule of :func:`validate_frame` as a witness loop over every
    world, pair or triple, in its order."""
    report = ValidationReport()
    counts = {}
    W = m.worlds

    def emit(rule, witness, message):
        if counts.get(rule, 0) >= max_witnesses:
            report.truncated = True
            return
        counts[rule] = counts.get(rule, 0) + 1
        report.violations.append(Violation(rule, tuple(W[i] for i in witness), message))

    for i in range(m.n):
        if not (m.up[i] >> i & 1):
            emit("reflexive", (i,), f"preorder misses reflexive pair ({W[i]}, {W[i]})")
    for i in range(m.n):
        for j in iter_bits(m.up[i]):
            for k in iter_bits(m.up[j] & ~m.up[i]):
                emit(
                    "transitive",
                    (i, j, k),
                    f"preorder has ({W[i]}, {W[j]}) and ({W[j]}, {W[k]}) but not ({W[i]}, {W[k]})",
                )
    for i in range(m.n):
        if not m.succ[i]:
            emit("serial", (i,), f"world {W[i]} has no transition successor")
    for x in range(m.n):
        reach = image(m.succ, m.up[x])
        for y in iter_bits(m.succ[x]):
            for z in iter_bits(m.up[y] & ~reach):
                emit("C1", (x, y, z), f"C1 fails at ({W[x]}, {W[y]}, {W[z]}): no u with {W[x]} P u and u R {W[z]}")
            for z in iter_bits(m.up[x]):
                if not (m.succ[z] & m.up[y]):
                    emit("C2", (x, y, z), f"C2 fails at ({W[x]}, {W[y]}, {W[z]}): no u with {W[y]} P u and {W[z]} R u")
    for atom in m.atoms:
        a = m.val[atom]
        for i in iter_bits(a):
            for j in iter_bits(m.up[i] & ~a):
                emit("monotone-valuation", (i, j), f"atom {atom!r} holds at {W[i]} but not at P-greater {W[j]}")
    if check_c3:
        for x in range(m.n):
            for y in iter_bits(m.up[x]):
                for z in iter_bits(m.succ[y]):
                    if not (m.succ[x] & m.down[z]):
                        emit("C3", (x, y, z), f"C3 fails at ({W[x]}, {W[y]}, {W[z]}): no u with {W[x]} R u and u P {W[z]}")
    return report


def assert_same_reports(m):
    for check_c3, max_witnesses in product([False, True], [1, 10]):
        got = validate_frame(m, check_c3=check_c3, max_witnesses=max_witnesses)
        want = reference_report(m, check_c3=check_c3, max_witnesses=max_witnesses)
        assert (got.violations, got.truncated) == (want.violations, want.truncated)


class TestValidationReference:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_small_candidate(self, n):
        # closed preorders, with every transition assignment, serial or not
        worlds = tuple(f"w{i}" for i in range(n))
        for up in enumerate_preorders(n):
            for succ in product(range(1 << n), repeat=n):
                assert_same_reports(BirelationalModel(worlds, up, succ, {}))

    def test_unclosed_preorders_and_non_monotone_valuations(self):
        rng = random.Random(5)
        bad = set()
        for _ in range(3_000):
            n = rng.randint(1, 6)
            bits = lambda: rng.getrandbits(n)  # noqa: E731
            m = BirelationalModel(
                tuple(f"v{i}" for i in range(n)),
                tuple(bits() for _ in range(n)),
                tuple(bits() for _ in range(n)),
                {"p": bits(), "q": bits()},
            )
            assert_same_reports(m)
            bad |= reference_report(m, check_c3=True).rules()
        assert bad == {"reflexive", "transitive", "serial", "C1", "C2", "monotone-valuation", "C3"}


def large_model():
    """A 2,000-world product of a 4-stage chain with a 500-state ring."""
    stages = ["k0", "k1", "k2", "k3"]
    states = [f"s{j}" for j in range(500)]
    ring = [(states[j], states[(j + 1) % 500]) for j in range(500)]
    chords = [(states[j], states[(j + 7) % 500]) for j in range(0, 500, 40)]
    valuation = {}
    for k, stage in enumerate(stages):
        for j, state in enumerate(states):
            valuation[(stage, state)] = (["p"] if j % 50 != 25 or k >= 2 else []) + (
                ["q"] if j in (0, 267) and k >= 2 else []
            )
    order = list(zip(stages, stages[1:]))
    return product_frame(stages, order, states, ring + chords, valuation)


class TestLargeInput:
    def test_ten_checks_on_2000_worlds(self, tmp_path, capsys):
        m = large_model()
        path = tmp_path / "large.json"
        path.write_text(json.dumps(model_to_document(m)))
        jobs = [
            (w, text)
            for w, text in product(["k0.s3", "k2.s260", "k3.s499"], ["EX EX q", "E[p U q]", "AX p -> EX p"])
        ] + [("k1.s0", "~E[p U q]")]
        verdicts = []
        start = time.perf_counter()
        for world, text in jobs:
            code = cli.main(["--format", "json", "check", str(path), world, text])
            verdicts.append((code, json.loads(capsys.readouterr().out)["verdict"]))
        elapsed = time.perf_counter() - start
        for (world, text), (code, verdict) in zip(jobs, verdicts):
            want = oracle_check(m, world, parse_formula(text))
            assert (code, verdict) == ((0, "satisfied") if want else (1, "not satisfied")), (world, text)
        # about 0.3 s; a quadratic load, closure or validation would take far longer
        assert elapsed < 5.0
