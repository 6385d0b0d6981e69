import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ictl.checker as checker
import ictl.cli as cli
import ictl.model as model
from ictl.cli import main
from ictl.fixtures import FOUR_WORLD_DOC
from ictl.model import pre_forall


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_model(tmp_path, doc, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


NON_SERIAL_DOC = {
    "worlds": ["a", "b"],
    "preorder": [],
    "transitions": [["a", "b"]],
    "valuation": {},
}


class TestValidate:
    def test_fixture_valid(self, capsys, four_world_path):
        code, out, _ = run(capsys, "validate", four_world_path)
        assert code == 0
        assert "frame valid" in out

    def test_non_serial_exit_3(self, capsys, tmp_path):
        path = write_model(tmp_path, NON_SERIAL_DOC)
        code, out, _ = run(capsys, "validate", path)
        assert code == 3
        assert "serial" in out

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "validate", "/no/such/file.json")
        assert code == 2
        assert "error" in err

    def test_schema_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"worlds": []}')
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2

    def test_c3_flag(self, capsys, four_world_path):
        code, out, _ = run(capsys, "validate", four_world_path, "--c3")
        assert code == 3
        assert "C3" in out

    def test_json_format(self, capsys, four_world_path):
        code, out, _ = run(capsys, "--format", "json", "validate", four_world_path)
        doc = json.loads(out)
        assert doc["command"] == "validate"
        assert doc["verdict"] == "valid"
        assert doc["report"] == []


class TestCheck:
    def test_satisfied_exit_0(self, capsys, four_world_path):
        code, out, _ = run(capsys, "check", four_world_path, "w1", "A[p U q]")
        assert code == 0
        assert "satisfied" in out

    def test_unsatisfied_exit_1(self, capsys, four_world_path):
        code, out, _ = run(capsys, "check", four_world_path, "w1", "q | (p & AX A[p U q])")
        assert code == 1
        assert "not satisfied" in out

    def test_both_engines_agree(self, capsys, four_world_path):
        code, out, _ = run(
            capsys, "check", four_world_path, "w1", "A[q R p]", "--engine", "both"
        )
        assert code == 1
        assert "fixpoint: not satisfied" in out
        assert "oracle:   not satisfied" in out

    def test_oracle_engine(self, capsys, four_world_path):
        code, out, _ = run(
            capsys, "check", four_world_path, "v1", "A[q R p]", "--engine", "oracle"
        )
        assert code == 0

    def test_unknown_world_exit_2(self, capsys, four_world_path):
        code, _, err = run(capsys, "check", four_world_path, "zz", "p")
        assert code == 2
        assert "zz" in err

    def test_parse_error_exit_2(self, capsys, four_world_path):
        code, _, err = run(capsys, "check", four_world_path, "w1", "p ->")
        assert code == 2
        assert "position" in err

    def test_invalid_frame_exit_3(self, capsys, tmp_path):
        path = write_model(tmp_path, NON_SERIAL_DOC)
        code, _, err = run(capsys, "check", path, "a", "p")
        assert code == 3

    @pytest.mark.parametrize("engine", ["fixpoint", "oracle", "both"])
    def test_model_validated_once(self, capsys, monkeypatch, four_world_path, tmp_path, engine):
        calls = []
        original = model.validate_frame

        def counting(m, *args, **kwargs):
            calls.append(m)
            return original(m, *args, **kwargs)

        monkeypatch.setattr(model, "validate_frame", counting)
        code, _, _ = run(capsys, "check", four_world_path, "w1", "A[p U q]", "--engine", engine)
        assert code == 0 and len(calls) == 1
        path = write_model(tmp_path, NON_SERIAL_DOC)
        code, _, err = run(capsys, "check", path, "a", "p", "--engine", engine)
        assert code == 3 and "invalid model" in err and len(calls) == 2

    def test_witness_in_json(self, capsys, four_world_path):
        code, out, _ = run(
            capsys, "--format", "json", "check", four_world_path, "w1", "E[p U q]"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["witness"]["type"] == "path"
        assert doc["witness"]["prefix"] == ["w1"]
        assert doc["witness"]["cycle"] == ["w2"]


WITNESS_PATH = {"type": "path", "prefix": ["w1"], "cycle": ["w2"]}
WITNESS_FAILS_ABOVE = {
    "type": "universal-failure",
    "world": "w1",
    "lasso": {"prefix": ["w1"], "cycle": ["w2"]},
}
SAT, UNSAT = "satisfied", "not satisfied"
# (verdict, engine) -> (formula at w1, exit code, human stdout, witness, engine verdicts)
CHECK_PINS = {
    (SAT, "fixpoint"): (
        "E[p U q]", 0, "satisfied\nwitness: path w1 (w2)*\n", WITNESS_PATH,
        {"fixpoint": True},
    ),
    (SAT, "oracle"): ("E[p U q]", 0, "satisfied\n", None, {"oracle": True}),
    (SAT, "both"): (
        "E[p U q]", 0,
        "fixpoint: satisfied\noracle:   satisfied\nwitness: path w1 (w2)*\n",
        WITNESS_PATH, {"fixpoint": True, "oracle": True},
    ),
    (UNSAT, "fixpoint"): (
        "A[q R p]", 1, "not satisfied\nwitness: fails above at w1: w1 (w2)*\n",
        WITNESS_FAILS_ABOVE, {"fixpoint": False},
    ),
    (UNSAT, "oracle"): ("A[q R p]", 1, "not satisfied\n", None, {"oracle": False}),
    (UNSAT, "both"): (
        "A[q R p]", 1,
        "fixpoint: not satisfied\noracle:   not satisfied\n"
        "witness: fails above at w1: w1 (w2)*\n",
        WITNESS_FAILS_ABOVE, {"fixpoint": False, "oracle": False},
    ),
    ("disagreement", "both"): (
        "AX q", 4, "fixpoint: satisfied\noracle:   not satisfied\nENGINES DISAGREE\n",
        None, {"fixpoint": True, "oracle": False},
    ),
}


@pytest.mark.parametrize("fmt", ["human", "json"])
@pytest.mark.parametrize("verdict,engine", list(CHECK_PINS))
def test_check_output_pinned(capsys, monkeypatch, four_world_path, verdict, engine, fmt):
    formula, code, human, witness, verdicts = CHECK_PINS[(verdict, engine)]
    if verdict == "disagreement":
        # drop the upward interior: AX q then holds at w1 for the engine only
        monkeypatch.setattr(checker, "forall_next_set", lambda m, a: pre_forall(m, a))
    got, out, err = run(
        capsys, "--format", fmt, "check", four_world_path, "w1", formula, "--engine", engine
    )
    doc = {
        "command": "check",
        "verdict": verdict,
        "witness": witness,
        "report": [{"engine": e, "satisfied": v} for e, v in verdicts.items()],
    }
    assert got == code
    assert err == ""
    assert out == (human if fmt == "human" else json.dumps(doc, indent=2) + "\n")


class TestDenote:
    def test_atom(self, capsys, four_world_path):
        code, out, _ = run(capsys, "denote", four_world_path, "p")
        assert code == 0
        assert "p: {v1, w1}" in out

    def test_exists_next(self, capsys, four_world_path):
        code, out, _ = run(capsys, "denote", four_world_path, "EX q")
        assert "EX q: {v1, w1, w2}" in out

    def test_false_empty(self, capsys, four_world_path):
        code, out, _ = run(capsys, "denote", four_world_path, "false")
        assert "false: {}" in out

    def test_json_lists_subformulas(self, capsys, four_world_path):
        code, out, _ = run(capsys, "--format", "json", "denote", four_world_path, "p & q")
        doc = json.loads(out)
        assert [e["formula"] for e in doc["report"]] == ["p", "q", "p & q"]


class TestCountermodel:
    def test_tautology_exhausted(self, capsys):
        code, out, _ = run(capsys, "countermodel", "p -> p", "--max-worlds", "2")
        assert code == 1
        assert "exhausted" in out

    def test_strict_unfolding_hit(self, capsys):
        code, out, _ = run(
            capsys, "countermodel", "A[p U q] -> q | (p & AX A[p U q])", "--max-worlds", "3"
        )
        assert code == 0
        assert "refuted at world" in out

    def test_found_model_reloads_and_refutes(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "countermodel",
            "A[q R p] -> p & (q | AX A[q R p])",
            "--max-worlds",
            "3",
        )
        assert code == 0
        doc = json.loads(out)
        path = write_model(tmp_path, doc["witness"]["model"])
        world = doc["witness"]["world"]
        code2, out2, _ = run(
            capsys, "check", path, world, "A[q R p] -> p & (q | AX A[q R p])",
            "--engine", "both",
        )
        assert code2 == 1

    def test_budget_exceeded_exit_5(self, capsys):
        code, out, _ = run(
            capsys, "countermodel", "p -> p", "--max-worlds", "1", "--budget", "3"
        )
        assert code == 5
        assert "budget exceeded" in out

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "countermodel", "E[p q]")
        assert code == 2

    def test_atoms_outside_p_q_refuted(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "countermodel", "a -> b", "--max-worlds", "2"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["verdict"] == "countermodel"
        assert doc["report"][0]["bounds"]["atoms"] == ["a", "b"]

    @pytest.mark.parametrize("fmt", ["human", "json"])
    def test_atoms_padded_past_the_letters(self, capsys, fmt):
        # 16 search atoms: the 15 one-letter atom names, then p0
        code, out, _ = run(
            capsys, "--format", fmt, "countermodel", "p -> p", "--atoms", "16", "--max-worlds", "1"
        )
        assert code == 1
        if fmt == "json":
            report = json.loads(out)["report"][0]
            assert report["models_checked"] == 2**16
            assert len(report["bounds"]["atoms"]) == 16
            assert report["bounds"]["atoms"][-1] == "p0"
        else:
            assert f"among all {2**16} valid models" in out


class TestDeepInput:
    DEEP = "~" * 5000 + "p"

    @pytest.mark.parametrize("fmt", ["human", "json"])
    @pytest.mark.parametrize("command", ["check", "countermodel"])
    def test_exit_2_without_traceback(self, capsys, four_world_path, fmt, command):
        if command == "check":
            argv = ["check", four_world_path, "w1", self.DEEP]
        else:
            argv = ["countermodel", self.DEEP, "--max-worlds", "1"]
        code, out, err = run(capsys, "--format", fmt, *argv)
        assert code == 2
        assert "Traceback" not in out + err
        if fmt == "json":
            assert "nested too deeply" in json.loads(out)["error"]
        else:
            assert "nested too deeply" in err

    def test_500_negations_checked(self, capsys, four_world_path):
        code, out, _ = run(capsys, "check", four_world_path, "w1", "~" * 500 + "p")
        assert code in (0, 1)
        assert "satisfied" in out


FORMULA_TOKENS = [
    "p", "q", "zz_9", "~", "EX", "AX", "E", "A", "[", "]", "U", "R",
    "(", ")", "&", "|", "->", "false", "true",
]
# (opening, closing) pieces of one nesting level around "p"
NESTINGS = [
    ("~", ""), ("EX ", ""), ("AX ", ""), ("(", ")"), ("p -> ", ""),
    ("E[p U ", "]"), ("A[", " R q]"), ("p & (", ")"),
]
WORLDS = FOUR_WORLD_DOC["worlds"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=12,
)
world_names = st.sampled_from([*WORLDS, "x"])
edges = st.lists(st.lists(world_names, min_size=2, max_size=2), max_size=6)

well_formed = st.recursive(
    st.sampled_from(["p", "q", "false", "true"]),
    lambda kids: st.one_of(
        *(st.builds(f"{op} {{}}".format, kids) for op in ("~", "EX", "AX")),
        *(st.builds(f"({{}} {op} {{}})".format, kids, kids) for op in ("&", "|", "->")),
        *(st.builds(f"{q}[{{}} {op} {{}}]".format, kids, kids) for q in "EA" for op in "UR"),
    ),
    max_leaves=8,
)
fuzz_formulas = st.one_of(
    well_formed,
    st.lists(st.sampled_from(FORMULA_TOKENS), max_size=24).map(" ".join),
    st.text(max_size=16),
    st.builds(
        lambda nesting, depth: nesting[0] * depth + "p" + nesting[1] * depth,
        st.sampled_from(NESTINGS),
        st.integers(1, 40) | st.sampled_from([300, 999, 1000, 5000, 10_000]),
    ),
)
fuzz_models = st.one_of(
    st.just(FOUR_WORLD_DOC),
    # the fixture with one key replaced or added
    st.builds(
        lambda key, value: {**FOUR_WORLD_DOC, key: value},
        st.sampled_from(["worlds", "preorder", "transitions", "valuation", "extra"]),
        json_values,
    ),
    # the fixture's worlds with its relations and valuation redrawn
    st.builds(
        lambda pre, extra, val: {
            **FOUR_WORLD_DOC,
            "preorder": pre,
            "transitions": [[w, w] for w in WORLDS] + extra,
            "valuation": val,
        },
        edges,
        edges,
        st.dictionaries(world_names, st.lists(st.sampled_from(["p", "q", "Bad"]), max_size=2)),
    ),
    json_values,
).map(lambda doc: json.dumps(doc).encode()) | st.one_of(
    st.binary(max_size=12),
    st.integers(1, 10_000).map(lambda k: ("[" * k + "]" * k).encode()),
)


class TestFuzz:
    """Random and deeply nested formula text and junk model files end in
    an exit code from 0 to 5, never a traceback or ``SystemExit``; a
    command line argparse refuses returns 2 in the chosen format."""

    @settings(max_examples=150, deadline=None)
    @given(
        command=st.sampled_from(["check", "denote", "validate", "countermodel"]),
        fmt=st.sampled_from(["human", "json"]),
        formula=fuzz_formulas,
        model=fuzz_models,
        world=world_names,
    )
    def test_main_returns_an_exit_code(self, tmp_path_factory, command, fmt, formula, model, world):
        path = tmp_path_factory.mktemp("fuzz") / "m.json"
        path.write_bytes(model)
        argv = {
            "check": ["check", str(path), world, formula],
            "denote": ["denote", str(path), formula],
            "validate": ["validate", str(path)],
            "countermodel": ["countermodel", formula, "--max-worlds", "1"],
        }[command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--format", fmt, *argv])
        assert 0 <= code <= 5
        assert "Traceback" not in out.getvalue() + err.getvalue()
        if fmt == "json":
            assert json.loads(out.getvalue())["command"] == command


class TestBadInput:
    @pytest.mark.parametrize("fmt", ["human", "json"])
    @pytest.mark.parametrize(
        "option, argv",
        [
            ("--max-worlds", ["compare", "--max-worlds", "-5", "--samples", "2"]),
            ("--atoms", ["compare", "--atoms", "-1"]),
            ("--samples", ["compare", "--samples", "-1"]),
            ("--depth", ["compare", "--depth", "-2"]),
            ("--max-worlds", ["countermodel", "p", "--max-worlds", "-1", "--budget", "2"]),
            ("--atoms", ["countermodel", "p", "--atoms", "-1"]),
            ("--budget", ["countermodel", "p", "--budget", "-3"]),
        ],
    )
    def test_negative_count_exit_2(self, capsys, fmt, option, argv):
        code, out, err = run(capsys, "--format", fmt, *argv)
        assert code == 2
        message = json.loads(out)["error"] if fmt == "json" else err
        assert f"{option} must be >= 0" in message

    @pytest.mark.parametrize("fmt", ["human", "json"])
    def test_depth_above_cap_exit_2(self, capsys, monkeypatch, fmt):
        def generating(*args):
            raise AssertionError("formula generated")

        monkeypatch.setattr(cli, "random_formula", generating)
        depth = cli.MAX_COMPARE_DEPTH + 1
        code, out, err = run(capsys, "--format", fmt, "compare", "--depth", str(depth))
        assert code == 2
        message = json.loads(out)["error"] if fmt == "json" else err
        assert f"--depth must be <= {cli.MAX_COMPARE_DEPTH}, got {depth}" in message

    @pytest.mark.parametrize("fmt", ["human", "json"])
    @pytest.mark.parametrize(
        "argv, atoms",
        [
            (["countermodel", "p", "--atoms", "17"], 17),
            (["countermodel", " | ".join(f"a{i}" for i in range(17))], 17),
            (["countermodel", " & ".join(f"a{i}" for i in range(17)), "--atoms", "3"], 17),
        ],
    )
    def test_search_atoms_above_cap_exit_2(self, capsys, monkeypatch, fmt, argv, atoms):
        def searching(*args, **kwargs):
            raise AssertionError("search started")

        monkeypatch.setattr(cli, "find_countermodel", searching)
        code, out, err = run(capsys, "--format", fmt, *argv)
        assert code == 2
        message = json.loads(out)["error"] if fmt == "json" else err
        assert f"the search has {atoms} atoms" in message
        assert f"at most {cli.MAX_SEARCH_ATOMS}" in message

    @pytest.mark.parametrize("fmt", ["human", "json"])
    def test_compare_atoms_above_cap_exit_2(self, capsys, monkeypatch, fmt):
        def generating(*args):
            raise AssertionError("formula generated")

        monkeypatch.setattr(cli, "random_formula", generating)
        atoms = cli.MAX_SEARCH_ATOMS + 1
        code, out, err = run(capsys, "--format", fmt, "compare", "--atoms", str(atoms))
        assert code == 2
        message = json.loads(out)["error"] if fmt == "json" else err
        assert f"--atoms must be <= {cli.MAX_SEARCH_ATOMS}, got {atoms}" in message

    def test_search_atoms_cap_accepted(self, capsys):
        formula = " | ".join(f"a{i}" for i in range(cli.MAX_SEARCH_ATOMS))
        code, out, _ = run(capsys, "countermodel", f"{formula} -> a0", "--max-worlds", "1")
        assert code == 0
        assert "countermodel found after 2 models" in out

    @pytest.mark.parametrize(
        "argv, command, message",
        [
            (["countermodel", "->p"], "countermodel", "the following arguments are required: formula"),
            (["countermodel", "p", "--bogus"], "countermodel", "unrecognized arguments: --bogus"),
            (["countermodel", "p", "--atoms", "x"], "countermodel", "argument --atoms: invalid int value: 'x'"),
            (["nope"], None, "invalid choice: 'nope'"),
            ([], None, "the following arguments are required: command"),
        ],
    )
    def test_argparse_error_in_json(self, capsys, argv, command, message):
        code, out, err = run(capsys, "--format", "json", *argv)
        assert code == 2
        doc = json.loads(out)
        assert doc["command"] == command
        assert message in doc["error"]
        assert doc["verdict"] is None and doc["report"] == []
        assert err == ""

    def test_argparse_error_in_human_form(self, capsys):
        code, out, err = run(capsys, "countermodel", "->p")
        assert code == 2
        assert out == ""
        assert err.startswith("usage: ictl countermodel")
        assert err.endswith("ictl countermodel: error: the following arguments are required: formula\n")

    def test_bad_format_is_reported_in_human_form(self, capsys):
        code, out, err = run(capsys, "--format", "xml", "check")
        assert code == 2
        assert out == ""
        assert "ictl: error: argument --format: invalid choice: 'xml'" in err

    @pytest.mark.parametrize("fmt", ["human", "json"])
    @pytest.mark.parametrize("command", ["validate", "check", "denote"])
    def test_model_not_utf8_exit_2(self, capsys, tmp_path, fmt, command):
        path = tmp_path / "m.json"
        path.write_bytes(b"\xff\xfe\x00")
        argv = {"validate": [], "check": ["w0", "p"], "denote": ["p"]}[command]
        code, out, err = run(capsys, "--format", fmt, command, str(path), *argv)
        assert code == 2
        message = json.loads(out)["error"] if fmt == "json" else err
        assert "not UTF-8" in message


class TestCompare:
    def test_small_bounds_agree(self, capsys):
        code, out, _ = run(capsys, "compare", "--max-worlds", "2", "--samples", "4")
        assert code == 0
        assert "engines agree everywhere" in out

    def test_check_count_reported(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "compare", "--max-worlds", "2")
        doc = json.loads(out)
        assert doc["verdict"] == "agreement"
        assert doc["report"][0]["verdicts"] >= 10_000

    def test_injected_next_rule_bug_detected(self, capsys, monkeypatch):
        # drop the upward interior from the universal next-step rule
        monkeypatch.setattr(checker, "forall_next_set", lambda m, a: pre_forall(m, a))
        code, out, _ = run(capsys, "compare", "--max-worlds", "2")
        assert code == 4
        assert "DISAGREEMENT" in out
        assert "worlds" in out  # model dumped verbatim

    def test_samples_deterministic(self, capsys):
        args = ("--format", "json", "compare", "--max-worlds", "1", "--samples", "6", "--seed", "9")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_atoms_cap_accepted(self, capsys):
        atoms = str(cli.MAX_SEARCH_ATOMS)
        code, out, _ = run(capsys, "compare", "--atoms", atoms, "--max-worlds", "0", "--samples", "2")
        assert code == 0
        assert "x 2 models" in out

    def test_depth_cap_accepted(self, capsys):
        depth = str(cli.MAX_COMPARE_DEPTH)
        code, out, _ = run(capsys, "compare", "--depth", depth, "--max-worlds", "1")
        assert code == 0
        assert "2881 formulas" in out


class TestModuleEntryPoint:
    """``python -m ictl`` runs the command line in a fresh interpreter."""

    @staticmethod
    def ictl(*argv):
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        return subprocess.run(
            [sys.executable, "-m", "ictl", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

    def test_help(self):
        proc = self.ictl("--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: ictl")
        assert "countermodel" in proc.stdout

    def test_json_countermodel(self):
        proc = self.ictl("--format", "json", "countermodel", "p -> p", "--max-worlds", "1")
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["command"] == "countermodel"
        assert doc["verdict"] == "exhausted"
        assert doc["report"][0]["models_checked"] == 4
