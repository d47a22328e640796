"""Learning LTLf formulas that separate positive from negative traces.

The core loop: enumerate formulas in size order over bit-parallel
characteristic tables (`enumeration`, `biteval`), collapse them into a
weighted set-cover instance, and solve it with domination pruning, beam
search and divide and conquer (`boolcover`). `pipeline.learn` ties the
phases together; `benchgen` generates seeded benchmark tasks; `cli` is
the command-line surface.

The package exports the learner's surface:
- the learner: `learn`, `LearnerConfig`, `LearnResult`, `Witness`,
  `VerificationError` and `separates`;
- samples: `Sample`, `Trace`, `Alphabet`, `Task`, `parse_task`,
  `serialize_sample` and `TaskFormatError`;
- formulas: `Formula`, `OperatorSet`, `parse_formula`, `render_formula`
  and `FormulaSyntaxError`;
- generated tasks: `TaskSpec`, `gen_task` and `SamplingBudgetError`.

The phases and their types are imported from their modules: the formula
node classes, `DEFAULT_OPERATORS` and `eval_reference` from
`ltlflearn.formulas`; `enumerate_bounded` and `FormulaBank` from
`ltlflearn.enumeration`; `collapse`, `existence_check`, `beam_search`,
`div_conq`, `reconstruct`, `BscInstance` and `NoSolution` from
`ltlflearn.boolcover`; `table_of`, `first_bits`, `CharTable` and
`CharVector` from `ltlflearn.biteval`; `FAMILIES` and `gen_formula`
from `ltlflearn.benchgen`; `DeadlineReached` from `ltlflearn.deadlines`.
"""

from .benchgen import SamplingBudgetError, TaskSpec, gen_task
from .biteval import first_bits, table_of
from .boolcover import NoSolution, Witness, collapse, div_conq, existence_check, reconstruct
from .enumeration import enumerate_bounded
from .formulas import (
    Formula,
    FormulaSyntaxError,
    Not,
    OperatorSet,
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
    parse_task,
    serialize_sample,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "Formula",
    "FormulaSyntaxError",
    "LearnResult",
    "LearnerConfig",
    "OperatorSet",
    "Sample",
    "SamplingBudgetError",
    "Task",
    "TaskFormatError",
    "TaskSpec",
    "Trace",
    "VerificationError",
    "Witness",
    "gen_task",
    "learn",
    "parse_formula",
    "parse_task",
    "render_formula",
    "separates",
    "serialize_sample",
    # Held for the benchmark: perfbench/ imports these nine from the
    # package. They leave the package's surface once it imports them from
    # their modules (ROADMAP item 1b).
    "NoSolution",
    "Not",
    "collapse",
    "div_conq",
    "enumerate_bounded",
    "existence_check",
    "first_bits",
    "reconstruct",
    "table_of",
]
