"""Command-line front end.

Subcommands: ``validate``, ``check``, ``denote``, ``countermodel``,
``compare``.  Exit codes: 0 success/satisfied/valid, 1 unsatisfied or
search exhausted, 2 input error, 3 invalid frame, 4 engine disagreement
or a verdict without the evidence it owes (a true existential or a false
universal that ``check`` shows no path for), 5 search budget exceeded.

With ``--format json`` each invocation emits a single document shaped
``{"command": ..., "verdict": ..., "witness": ..., "report": [...]}``;
an error, a command line argparse refuses included, adds ``"error"``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .checker import UniversalFailure, _owes_evidence, check, denote
from .gen import EngineDisagreementError, atom_names, find_countermodel, model_stream, random_formula
from .harness import compile_battery, scan_models
from .model import (
    BirelationalModel,
    InvalidModelError,
    ModelFormatError,
    ValidationReport,
    ensure_valid,
    model_from_raw,
    model_to_document,
    load_model,
    validate_frame,
)
from .oracle import Lasso, oracle_check
from .syntax import ParseError, atoms_of, parse_formula, print_formula, print_subformulas

COMPARE_FORMULAS_PER_RUN = 24
# the battery grows about 1.4x per level: 41 distinct nodes at depth 3,
# 2,881 at depth 16 (seed 0)
MAX_COMPARE_DEPTH = 16
# each atom doubles the valuations of a frame: 65,536 on one world at 16
MAX_SEARCH_ATOMS = 16


# options that count something; a negative value is a usage error
_COUNT_OPTIONS = ("max_worlds", "atoms", "budget", "samples", "depth")


class _UsageError(ValueError):
    """A command-line value out of range, or a world the model lacks."""


class _ArgumentError(Exception):
    """A command line argparse refuses, with argparse's usage message."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.text = f"{parser.format_usage()}{parser.prog}: error: {message}"


class _ArgumentParser(argparse.ArgumentParser):
    """Raises :class:`_ArgumentError` instead of exiting, so that ``main``
    reports a usage error in the chosen ``--format``."""

    def error(self, message: str):
        raise _ArgumentError(self, message)


def _read_model(path: str) -> BirelationalModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ModelFormatError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from e
    return model_from_raw(load_model(text))


def _lasso_doc(m: BirelationalModel, lasso: Lasso) -> dict:
    return {
        "prefix": [m.worlds[i] for i in lasso.prefix],
        "cycle": [m.worlds[i] for i in lasso.cycle],
    }


def _witness_doc(m: BirelationalModel, w: Lasso | UniversalFailure | None) -> dict | None:
    if w is None:
        return None
    if isinstance(w, UniversalFailure):
        return {"type": "universal-failure", "world": w.world, "lasso": _lasso_doc(m, w.lasso)}
    return {"type": "path", **_lasso_doc(m, w)}


def _witness_text(m: BirelationalModel, w: Lasso | UniversalFailure | None) -> str | None:
    if w is None:
        return None
    if isinstance(w, UniversalFailure):
        return f"fails above at {w.world}: {w.lasso.render(m)}"
    return f"path {w.render(m)}"


def _violations_doc(report: ValidationReport) -> list[dict]:
    return [
        {"rule": v.rule, "witness": list(v.witness), "message": v.message}
        for v in report.violations
    ]


# ---------------------------------------------------------------------------
# Command handlers: each returns (exit code, json document, human lines)

def _cmd_validate(args) -> tuple[int, dict, list[str]]:
    m = _read_model(args.model)
    report = validate_frame(m, check_c3=args.c3)
    doc = {
        "verdict": "valid" if report.ok else "invalid",
        "witness": None,
        "report": _violations_doc(report),
    }
    if report.ok:
        return 0, doc, ["frame valid"]
    lines = [f"frame invalid: {len(report.violations)} violation(s)"]
    lines += [f"  [{v.rule}] {v.message}" for v in report.violations]
    if report.truncated:
        lines.append("  (witness list truncated)")
    return 3, doc, lines


def _cmd_check(args) -> tuple[int, dict, list[str]]:
    m = _read_model(args.model)
    ensure_valid(m)
    f = parse_formula(args.formula)
    if args.world not in m.index:
        raise _UsageError(f"unknown world {args.world!r}")
    verdicts: dict[str, bool] = {}
    witness = None
    if args.engine != "oracle":
        outcome = check(m, args.world, f, validate=False)
        verdicts["fixpoint"], witness = outcome.satisfied, outcome.witness
    if args.engine != "fixpoint":
        verdicts["oracle"] = oracle_check(m, args.world, f, validate=False)
    word = {True: "satisfied", False: "not satisfied"}
    satisfied = next(iter(verdicts.values()))
    agree = all(v == satisfied for v in verdicts.values())
    doc = {
        "verdict": word[satisfied] if agree else "disagreement",
        "witness": _witness_doc(m, witness),
        "report": [{"engine": e, "satisfied": v} for e, v in verdicts.items()],
    }
    if len(verdicts) == 1:
        lines = [doc["verdict"]]
    else:
        lines = [f"{e + ':':9} {word[v]}" for e, v in verdicts.items()]
    if not agree:
        return 4, doc, lines + ["ENGINES DISAGREE"]
    if "fixpoint" in verdicts and witness is None and _owes_evidence(f, satisfied):
        doc["verdict"] = "no evidence"
        return 4, doc, lines + ["ENGINE GIVES NO EVIDENCE"]
    text = _witness_text(m, witness)
    if text:
        lines.append(f"witness: {text}")
    return (0 if satisfied else 1), doc, lines


def _cmd_denote(args) -> tuple[int, dict, list[str]]:
    m = _read_model(args.model)
    ensure_valid(m)
    f = parse_formula(args.formula)
    entries = []
    lines = []
    for mask, text in zip(denote(m, f, validate=False).values(), print_subformulas(f)):
        names = sorted(m.names(mask))
        entries.append({"formula": text, "worlds": names})
        lines.append(f"{text}: {{{', '.join(names)}}}")
    doc = {"verdict": None, "witness": None, "report": entries}
    return 0, doc, lines


def _cmd_countermodel(args) -> tuple[int, dict, list[str]]:
    f = parse_formula(args.formula)
    n_atoms = max(len(atoms_of(f)), args.atoms)
    if n_atoms > MAX_SEARCH_ATOMS:
        raise _UsageError(
            f"the search has {n_atoms} atoms (the formula's, padded to --atoms); "
            f"at most {MAX_SEARCH_ATOMS} are allowed"
        )
    try:
        result = find_countermodel(
            f, max_worlds=args.max_worlds, atoms=args.atoms, budget=args.budget, seed=args.seed
        )
    except EngineDisagreementError as e:
        model_doc = model_to_document(e.model)
        doc = {"verdict": "disagreement", "witness": {"world": e.world, "model": model_doc}}
        return 4, doc, [f"ENGINES DISAGREE at world {e.world}", json.dumps(model_doc, indent=2)]
    report = [{"models_checked": result.models_checked, "bounds": result.bounds}]
    if result.found:
        model_doc = model_to_document(result.model)
        doc = {
            "verdict": "countermodel",
            "witness": {"world": result.world, "model": model_doc},
            "report": report,
        }
        lines = [
            f"countermodel found after {result.models_checked} models; "
            f"refuted at world {result.world}",
            json.dumps(model_doc, indent=2),
        ]
        return 0, doc, lines
    doc = {"verdict": result.outcome.replace("_", "-"), "witness": None, "report": report}
    if result.outcome == "exhausted":
        lines = [
            f"exhausted: no countermodel among all {result.models_checked} valid models "
            f"with <= {args.max_worlds} worlds"
        ]
        return 1, doc, lines
    return 5, doc, [f"budget exceeded after {result.models_checked} models, no countermodel"]


def _cmd_compare(args) -> tuple[int, dict, list[str]]:
    if args.depth > MAX_COMPARE_DEPTH:
        raise _UsageError(f"--depth must be <= {MAX_COMPARE_DEPTH}, got {args.depth}")
    if args.atoms > MAX_SEARCH_ATOMS:
        raise _UsageError(f"--atoms must be <= {MAX_SEARCH_ATOMS}, got {args.atoms}")
    rng = random.Random(args.seed)
    names = atom_names(args.atoms)
    formulas = [
        random_formula(rng, args.depth, names) for _ in range(COMPARE_FORMULAS_PER_RUN)
    ]
    battery = compile_battery(formulas)
    models = model_stream(
        range(1, args.max_worlds + 1), args.atoms, args.samples, args.seed ^ 0x5EED
    )
    stats = scan_models(models, battery, max_disagreements=3)
    entries = [
        {
            "model": model_to_document(d.model),
            "world": d.world,
            "formula": print_formula(d.formula),
            "fixpoint": d.engine_verdict,
            "oracle": d.oracle_verdict,
        }
        for d in stats.disagreements
    ]
    doc = {
        "verdict": "agreement" if stats.ok else "disagreement",
        "witness": entries[0] if entries else None,
        "report": [
            {
                "models": stats.models,
                "formulas": len(battery.formulas),
                "verdicts": stats.verdicts,
                "disagreements": entries,
            }
        ],
    }
    lines = [
        f"compared {stats.verdicts} verdicts: {len(battery.formulas)} formulas "
        f"(battery of {COMPARE_FORMULAS_PER_RUN} with subformulas) x {stats.models} models"
    ]
    if stats.ok:
        lines.append("engines agree everywhere")
        return 0, doc, lines
    for e in entries:
        lines.append(
            f"DISAGREEMENT at world {e['world']} on {e['formula']!r} "
            f"(fixpoint={e['fixpoint']}, oracle={e['oracle']}) in model:"
        )
        lines.append(json.dumps(e["model"]))
    return 4, doc, lines


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ictl",
        description="Model checking over birelational Kripke models.",
    )
    parser.add_argument(
        "--format", choices=["human", "json"], default="human", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check frame and valuation invariants")
    p.add_argument("model")
    p.add_argument("--c3", action="store_true", help="also check the optional C3 condition")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("check", help="check a formula at a world")
    p.add_argument("model")
    p.add_argument("world")
    p.add_argument("formula")
    p.add_argument("--engine", choices=["fixpoint", "oracle", "both"], default="fixpoint")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("denote", help="print the world set of every subformula")
    p.add_argument("model")
    p.add_argument("formula")
    p.set_defaults(handler=_cmd_denote)

    p = sub.add_parser("countermodel", help="search for a model refuting a formula")
    p.add_argument("formula")
    p.add_argument("--max-worlds", type=int, default=3)
    p.add_argument(
        "--atoms",
        type=int,
        default=2,
        help=f"atoms to search, at least the formula's; at most {MAX_SEARCH_ATOMS}",
    )
    p.add_argument("--budget", type=int, default=0, help="random models after the exhaustive scan")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_countermodel)

    p = sub.add_parser("compare", help="differential engine-vs-oracle testing")
    p.add_argument("--max-worlds", type=int, default=3)
    p.add_argument("--atoms", type=int, default=2, help=f"at most {MAX_SEARCH_ATOMS}")
    p.add_argument("--depth", type=int, default=3, help=f"formula height, at most {MAX_COMPARE_DEPTH}")
    p.add_argument("--samples", type=int, default=0, help="extra random models")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    # filled while parsing, so a usage error still knows --format and the command
    args = argparse.Namespace()
    is_error = False
    try:
        _build_parser().parse_args(argv, args)
        for name in _COUNT_OPTIONS:
            if getattr(args, name, 0) < 0:
                option = "--" + name.replace("_", "-")
                raise _UsageError(f"{option} must be >= 0, got {getattr(args, name)}")
        code, doc, lines = args.handler(args)
    except _ArgumentError as e:
        code, doc, lines, is_error = 2, {"error": str(e)}, [e.text], True
    except (ParseError, ModelFormatError, _UsageError, OSError) as e:
        code, doc, lines, is_error = 2, {"error": str(e)}, [f"error: {e}"], True
    except InvalidModelError as e:
        code = 3
        doc = {"verdict": "invalid", "witness": None, "report": _violations_doc(e.report)}
        lines = [f"error: {e}"]
        is_error = True
    doc.setdefault("verdict", None)
    doc.setdefault("witness", None)
    doc.setdefault("report", [])
    doc = {"command": args.command, **doc}
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        stream = sys.stderr if is_error else sys.stdout
        for line in lines:
            print(line, file=stream)
    return code


def entry_point() -> None:
    raise SystemExit(main())
