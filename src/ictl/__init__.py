"""Model checking for an intuitionistic branching-time logic.

Models carry two relations: a preorder of knowledge stages and a serial
transition relation, tied together by commutation conditions.  The
package parses formulas, validates and generates models, computes
denotations by fixpoint labeling, and certifies verdicts against an
independent path-semantics oracle.
"""

from .syntax import (
    Atom,
    And,
    BOTTOM,
    Bottom,
    ExistsNext,
    ExistsRelease,
    ExistsUntil,
    ForallNext,
    ForallRelease,
    ForallUntil,
    Formula,
    Implies,
    Or,
    ParseError,
    TRUE,
    negation,
    parse_formula,
    print_formula,
    subformulas,
)
from .model import (
    BirelationalModel,
    InvalidModelError,
    ModelFormatError,
    ValidationReport,
    Violation,
    build_model,
    load_model,
    model_from_raw,
    model_to_document,
    validate_frame,
)
from .checker import CheckOutcome, check, denote, valid_in_model
from .oracle import Lasso, classical_denotation, lift_path, oracle_check
from .gen import (
    GenParams,
    SearchResult,
    enumerate_models,
    find_countermodel,
    product_frame,
    random_model,
)
from .fixtures import FOUR_WORLD_DOC, four_world_model

__version__ = "0.1.0"
