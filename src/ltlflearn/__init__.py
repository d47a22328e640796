"""Learning LTLf formulas that separate positive from negative traces.

The core loop: enumerate formulas in size order over bit-parallel
characteristic tables (`enumeration`, `biteval`), collapse them into a
weighted set-cover instance, and solve it with domination pruning, beam
search and divide and conquer (`boolcover`). `pipeline.learn` ties the
phases together; `benchgen` generates seeded benchmark tasks; `cli` is
the command-line surface.
"""

from .benchgen import FAMILIES, SamplingBudgetError, TaskSpec, gen_formula, gen_task
from .biteval import CharTable, CharVector, first_bits, table_of
from .boolcover import (
    BscInstance,
    NoSolution,
    Witness,
    beam_search,
    collapse,
    div_conq,
    existence_check,
    reconstruct,
)
from .deadlines import DeadlineReached
from .enumeration import FormulaBank, enumerate_bounded
from .formulas import (
    DEFAULT_OPERATORS,
    And,
    Atom,
    Bottom,
    Finally,
    Formula,
    FormulaSyntaxError,
    Globally,
    Not,
    OperatorSet,
    Or,
    Release,
    StrongNext,
    Top,
    Until,
    WeakNext,
    eval_reference,
    parse_formula,
    render_formula,
)
from .pipeline import LearnerConfig, LearnResult, VerificationError, learn, separates
from .traces import (
    Alphabet,
    Sample,
    Task,
    TaskFormatError,
    Trace,
    parse_sample,
    parse_task,
    serialize_sample,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "And",
    "Atom",
    "Bottom",
    "BscInstance",
    "CharTable",
    "CharVector",
    "DEFAULT_OPERATORS",
    "DeadlineReached",
    "FAMILIES",
    "Finally",
    "Formula",
    "FormulaBank",
    "FormulaSyntaxError",
    "Globally",
    "LearnResult",
    "LearnerConfig",
    "NoSolution",
    "Not",
    "OperatorSet",
    "Or",
    "Release",
    "Sample",
    "SamplingBudgetError",
    "StrongNext",
    "Task",
    "TaskFormatError",
    "TaskSpec",
    "Top",
    "Trace",
    "Until",
    "VerificationError",
    "WeakNext",
    "Witness",
    "beam_search",
    "collapse",
    "div_conq",
    "enumerate_bounded",
    "eval_reference",
    "existence_check",
    "first_bits",
    "gen_formula",
    "gen_task",
    "learn",
    "parse_formula",
    "parse_sample",
    "parse_task",
    "reconstruct",
    "render_formula",
    "separates",
    "serialize_sample",
    "table_of",
]
