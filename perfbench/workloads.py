"""The three workloads: seeded job lists, their input files and output checks.

Every job is an argument list for ``ictl.cli.main`` with ``--format json``.
A workload object is built from the run's seed; building it writes any
input files and is part of set-up.  ``compute_reference`` is called once
per run, after timing, and ``verify`` checks one job's exit code and JSON
document.  No reference comes from the fixpoint engine: expected counts
are constants of the model classes, and verdicts are checked with the
path oracle.

The seed changes labels, rotations, operand order and job order, never
the shape or size of an input, so runs under different seeds do the same
amount of work.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

from ictl import model, oracle, syntax

WHY = {
    "prove": (
        "bounded-validity proofs and refutations: time goes to frame and model "
        "enumeration plus one denote per tiny model; the harness is bypassed"
    ),
    "scan": (
        "engine/oracle comparison: the harness memo loop over shared frames, "
        "then random 4-6 world models where nearly every lookup misses"
    ),
    "check": (
        "single checks on few large models (500-2000 worlds): JSON load, "
        "validation, many-round fixpoints and witness search"
    ),
}

# valid models with 2 atoms and exactly n worlds, n = 1, 2, 3
MODELS_PER_SIZE = {1: 4, 2: 280, 3: 82_298}

LAWS = [
    "(E[p U q] -> q | (p & EX E[p U q])) & ((q | (p & EX E[p U q])) -> E[p U q])",
    "(E[p R q] -> q & (p | EX E[p R q])) & ((q & (p | EX E[p R q])) -> E[p R q])",
    "q | (p & AX A[p U q]) -> A[p U q]",
    "q & (p | AX A[p R q]) -> A[p R q]",
]
CONVERSES = [
    "A[p U q] -> q | (p & AX A[p U q])",
    "A[q R p] -> p & (q | AX A[q U p])",
]
DUALS = ["~AX~p -> EX p", "~AX~q -> EX q"]  # refuted within two worlds

DEEP = 300  # nesting depth of the deepest check formulas
CHECK_FORMULAS = [
    "E[{p} U {q}]",
    "A[{p} U {q}]",
    "E[{q} R {p}]",
    "A[{q} R {p}]",
    "AX E[{p} U ({q} | {r})]",
    "E[{p} U {q}] -> A[{p} U {q}]",
    "EX " * DEEP + "{q}",
    "~" * DEEP + "E[{p} U {q}]",
]
CYCLE_FORMULAS = ["E[{p} U {q}]", "EX " * DEEP + "{q}"]
ATOM_POOL = ["p", "q", "r", "s", "t", "u", "v", "w"]
# ((stages, ring states), worlds queried per formula); 0 stages is a plain
# cycle.  The 2000-world models get a sixth of the jobs, so job_p90_ms
# measures them.
CHECK_MODELS = [((2, 250), 5), ((4, 250), 6), ((4, 500), 2), ((0, 2000), 2)]
SMALL_CHECK_MODELS = [((2, 12), 5), ((3, 12), 6), ((2, 20), 2), ((0, 30), 2)]
# ``compare --seed`` values whose batteries all have the most common shape,
# 40 nodes of which 28 have kind >= _IMP.  Of the first 64 such seeds these
# are the 24 whose job makes the median number of memo misses (367k to
# 408k engine operator calls), so every run does about the same work.
BATTERY_SHAPE = (40, 28)
BATTERY_POOL = [
    236, 539, 753, 888, 924, 1810, 1876, 2016, 2129, 2325, 2391, 2587,
    2630, 2708, 3222, 3568, 3954, 4012, 4040, 4125, 4218, 4349, 4540, 4617,
]


@dataclass
class Job:
    argv: list[str]
    kind: str  # proof | refutation | compare | check
    formula: str = ""
    expected_models: int = 0  # proof, compare
    expected_worlds: int = 0  # compare: sum of world counts over the stream
    battery_seed: int = 0  # compare: its ``--seed``
    model_path: str = ""  # check
    world: str = ""  # check


def exhaustive_counts(max_worlds: int) -> tuple[int, int]:
    """(models, summed world count) of all valid models up to ``max_worlds``."""
    sizes = range(1, max_worlds + 1)
    return (
        sum(MODELS_PER_SIZE[n] for n in sizes),
        sum(n * MODELS_PER_SIZE[n] for n in sizes),
    )


def swap_pq(text: str) -> str:
    return text.replace("p", "\0").replace("q", "p").replace("\0", "q")


class Workload:
    jobs: list[Job]
    warmup: list[list[str]]  # argument lists run during set-up, unchecked

    def compute_reference(self) -> None:
        pass

    def verify(self, job: Job, code: int, doc: dict) -> str | None:
        """None if the output is right, else what is wrong with it."""
        raise NotImplementedError


class Prove(Workload):
    """The four unfolding laws exhausted over n <= 3, plus four refutations.

    With eight jobs the median latency is the mean of the two middle ones.
    """

    def __init__(self, seed: int, workdir: str, small: bool = False):
        rng = random.Random(f"prove:{seed}")
        max_worlds = 2 if small else 3
        models, _ = exhaustive_counts(max_worlds)
        # the converses need three worlds to refute
        refutations = DUALS if small else CONVERSES + DUALS
        texts = [(t, "proof") for t in LAWS] + [(t, "refutation") for t in refutations]
        self.jobs = []
        for text, kind in texts:
            if rng.random() < 0.5:
                text = swap_pq(text)  # an atom renaming keeps validity
            argv = self._argv(text, max_worlds)
            self.jobs.append(Job(argv, kind, text, expected_models=models))
        rng.shuffle(self.jobs)
        self.warmup = [self._argv(job.formula, 1) for job in self.jobs]

    @staticmethod
    def _argv(text: str, max_worlds: int) -> list[str]:
        return [
            "--format", "json", "countermodel", text,
            "--max-worlds", str(max_worlds), "--atoms", "2",
        ]

    def verify(self, job: Job, code: int, doc: dict) -> str | None:
        if job.kind == "proof":
            checked = doc["report"][0]["models_checked"]
            if (code, doc["verdict"], checked) != (1, "exhausted", job.expected_models):
                return f"want exhausted after {job.expected_models} models, got {doc['verdict']} after {checked}"
            return None
        if code != 0 or doc["verdict"] != "countermodel":
            return f"want a countermodel, got {doc['verdict']}"
        m = model.model_from_raw(model.load_model(doc["witness"]["model"]))
        if not model.validate_frame(m).ok:
            return "countermodel fails frame validation"
        world = doc["witness"]["world"]
        if oracle.oracle_check(m, world, syntax.parse_formula(job.formula), validate=False):
            return f"oracle satisfies the formula at {world}"
        return None


class Scan(Workload):
    """``compare`` over all n <= 3 models plus random 4-6 world models."""

    def __init__(self, seed: int, workdir: str, small: bool = False):
        rng = random.Random(f"scan:{seed}")
        max_worlds, samples, n_jobs = (2, 50, 2) if small else (3, 2000, 4)
        models, worlds = exhaustive_counts(max_worlds)
        models += samples
        worlds += sum(max_worlds + 1 + k % 3 for k in range(samples))
        self.jobs = []
        for cseed in rng.sample(BATTERY_POOL, n_jobs):
            argv = self._argv(max_worlds, samples, cseed)
            self.jobs.append(Job(argv, "compare", "", models, worlds, battery_seed=cseed))
        self.warmup = [self._argv(2, 20, self.jobs[0].battery_seed)]

    @staticmethod
    def _argv(max_worlds: int, samples: int, cseed: int) -> list[str]:
        return [
            "--format", "json", "compare", "--max-worlds", str(max_worlds),
            "--atoms", "2", "--depth", "3", "--samples", str(samples), "--seed", str(cseed),
        ]

    @staticmethod
    def battery_nodes(cseed: int) -> list[tuple[int, int, int]]:
        """The node table ``ictl compare --seed cseed`` builds (depth 3, 2 atoms).

        It reads harness internals, so only the traced run and the
        self-tests call it, never an end-to-end run.
        """
        from ictl import cli, gen, harness

        rng = random.Random(cseed)
        names = gen.atom_names(2)
        formulas = [gen.random_formula(rng, 3, names) for _ in range(cli.COMPARE_FORMULAS_PER_RUN)]
        return harness.compile_battery(formulas).nodes

    @staticmethod
    def operator_nodes(cseed: int) -> int:
        """Nodes of the battery that go through the memo: kind >= ``_IMP``."""
        from ictl import harness

        return sum(1 for kind, _, _ in Scan.battery_nodes(cseed) if kind >= harness._IMP)

    def verify(self, job: Job, code: int, doc: dict) -> str | None:
        rep = doc["report"][0]
        if code != 0 or doc["verdict"] != "agreement" or rep["disagreements"]:
            return f"want agreement, got {doc['verdict']}"
        if rep["models"] != job.expected_models:
            return f"want {job.expected_models} models, got {rep['models']}"
        if rep["verdicts"] != rep["formulas"] * job.expected_worlds:
            return f"want {rep['formulas']} x {job.expected_worlds} verdicts, got {rep['verdicts']}"
        return None


def product_doc(stages: int, ring: int, offset: int, atoms: dict[str, str]) -> dict:
    """Stage chain times a ring with sparse forward chords, rotated by ``offset``.

    World ``k{i}.s{j}``: the preorder runs up the stages at a fixed state,
    transitions run along the ring (and its chords) within a stage, so both
    commutation conditions hold.  ``q`` is sparse and only in the upper
    half of the stages; ``p`` holds almost everywhere; ``r`` every 97th
    state.  Every atom is monotone along the stages.
    """
    p, q, r = atoms["p"], atoms["q"], atoms["r"]
    goals = {0, ring // 2 + 17}
    holes = {j: 1 + j % stages for j in range(25, ring, 50)}  # p fails below this stage

    def name(k: int, j: int) -> str:
        return f"k{k}.s{(j + offset) % ring}"

    worlds, preorder, transitions, valuation = [], [], [], {}
    for k in range(stages):
        for j in range(ring):
            w = name(k, j)
            worlds.append(w)
            if k + 1 < stages:
                preorder.append([w, name(k + 1, j)])
            transitions.append([w, name(k, j + 1)])
            if j % 40 == 0:
                transitions.append([w, name(k, j + 7 + j * 13 % 23)])
            here = []
            if j not in holes or k >= holes[j]:
                here.append(p)
            if j in goals and 2 * k >= stages:
                here.append(q)
            if j % 97 == 0 and k >= 1:
                here.append(r)
            valuation[w] = sorted(here)
    return {"worlds": worlds, "preorder": preorder, "transitions": transitions, "valuation": valuation}


def cycle_doc(n: int, offset: int, atoms: dict[str, str]) -> dict:
    """An ``n``-world cycle, discrete preorder; ``q`` at one world, ``p`` elsewhere."""
    worlds = [f"c{i}" for i in range(n)]
    goal = worlds[offset % n]
    return {
        "worlds": worlds,
        "preorder": [],
        "transitions": [[worlds[i], worlds[(i + 1) % n]] for i in range(n)],
        "valuation": {w: [atoms["q"]] if w == goal else [atoms["p"]] for w in worlds},
    }


class Check(Workload):
    """``check`` with the fixpoint engine on few large models, written at set-up."""

    def __init__(self, seed: int, workdir: str, small: bool = False):
        rng = random.Random(f"check:{seed}")
        atoms = dict(zip("pqr", rng.sample(ATOM_POOL, 3)))
        self.jobs = []
        self.warmup = []
        self.models: dict[str, list[str]] = {}  # path -> formula texts
        for i, ((stages, ring), n_worlds) in enumerate(SMALL_CHECK_MODELS if small else CHECK_MODELS):
            offset = rng.randrange(ring)
            positions = [(offset + 3 + t * ring // n_worlds) % ring for t in range(n_worlds)]
            if stages:
                doc = product_doc(stages, ring, offset, atoms)
                templates = CHECK_FORMULAS
                worlds = [f"k{t % stages}.s{j}" for t, j in enumerate(positions)]
            else:
                doc = cycle_doc(ring, offset, atoms)
                templates = CYCLE_FORMULAS
                worlds = [f"c{j}" for j in positions]
            path = os.path.join(workdir, f"model{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            texts = [t.format(**atoms) for t in templates]
            self.models[path] = texts
            self.warmup.append(["--format", "json", "check", path, worlds[0], f"EX {atoms['q']}"])
            for text in texts:
                for w in worlds:
                    argv = ["--format", "json", "check", path, w, text]
                    self.jobs.append(Job(argv, "check", text, model_path=path, world=w))
        rng.shuffle(self.jobs)
        self.reference: dict[tuple[str, str], tuple[int, dict[str, int]]] = {}

    def compute_reference(self) -> None:
        """Oracle denotation of every (model, formula), one oracle pass per model."""
        for path, texts in self.models.items():
            with open(path, encoding="utf-8") as fh:
                m = model.model_from_raw(model.load_model(fh.read()))
            formulas = [syntax.parse_formula(t) for t in texts]
            conj = formulas[-1]
            for f in reversed(formulas[:-1]):
                conj = syntax.And(f, conj)
            sets = oracle.oracle_denotation(m, conj)
            for text, f in zip(texts, formulas):
                self.reference[(path, text)] = (sets[f], m.index)

    def verify(self, job: Job, code: int, doc: dict) -> str | None:
        mask, index = self.reference[(job.model_path, job.formula)]
        want = bool(mask >> index[job.world] & 1)
        verdict = "satisfied" if want else "not satisfied"
        if (code, doc["verdict"]) != (0 if want else 1, verdict):
            return f"oracle says {verdict} at {job.world}, got {doc['verdict']} (exit {code})"
        return None


WORKLOADS = {"prove": Prove, "scan": Scan, "check": Check}
