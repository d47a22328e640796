"""End-to-end learning: enumeration, set cover, reconstruction.

`learn` first enumerates formulas in size order; if a single enumerated
formula already separates the sample it is returned directly. Otherwise
the retained formulas collapse into a set-cover instance, an existence
check either produces an unseparable witness pair or guarantees a
solution, and the cover solver (beam search wrapped in divide and
conquer) assembles one from unions and intersections of enumerated
formulas. Every solution is re-verified against the reference
semantics before it is returned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from .boolcover import (
    NoSolution,
    Witness,
    collapse,
    div_conq,
    existence_check,
    reconstruct,
    reduce_instance,
)
from .deadlines import DeadlineReached
from .enumeration import enumerate_bounded
from .formulas import DEFAULT_OPERATORS, Formula, OperatorSet, eval_reference
from .biteval import first_bits, table_of
from .traces import Sample


@dataclass(frozen=True)
class LearnerConfig:
    """Tuning knobs."""

    operators: OperatorSet = DEFAULT_OPERATORS
    ltl2bs_switch: int = 8  # max size for the direct enumeration phase
    beam_width: int = 100
    dc_switch: int = 70  # max combination weight before splitting
    domination_k: int = 10
    timeout: Optional[float] = 60.0  # seconds; None disables
    seed: int = 0

    def __post_init__(self):
        if self.ltl2bs_switch < 1:
            raise ValueError("ltl2bs_switch must be >= 1")
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.dc_switch < 1:
            raise ValueError("dc_switch must be >= 1")
        if self.domination_k < 1:
            raise ValueError("domination_k must be >= 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be > 0 seconds, or None for no timeout")


@dataclass(frozen=True)
class LearnResult:
    """Outcome of a learning run.

    status is "Solved", "NoSolution" or "Timeout". formula is set only
    when solved; witness only for NoSolution (an unseparable pair of
    trace indices). method records which phase produced the formula:
    "EnumOnly" (a single enumerated formula), "BSC" (set cover without
    splits) or "BSC+DivConq".
    """

    status: str
    formula: Optional[Formula] = None
    witness: Optional[Witness] = None
    method: Optional[str] = None
    stats: dict = field(default_factory=dict)


class VerificationError(AssertionError):
    """The two evaluators disagreed, or a reported solution does not
    separate the sample. Always a bug, never an input error."""


def separates(phi: Formula, sample: Sample) -> bool:
    """Whether phi holds on every positive trace and no negative one,
    under the reference semantics."""
    return all(
        eval_reference(phi, w, 1) for w in sample.positives
    ) and not any(eval_reference(phi, w, 1) for w in sample.negatives)


def _verify(phi: Formula, sample: Sample) -> None:
    vector = first_bits(table_of(phi, sample))
    bitwise_ok = vector.bits == (1 << sample.n_pos) - 1
    reference_ok = separates(phi, sample)
    if bitwise_ok != reference_ok:
        raise VerificationError(
            f"evaluators disagree on {phi!r}: bitwise={bitwise_ok} reference={reference_ok}"
        )
    if not bitwise_ok:
        raise VerificationError(f"reported solution does not separate: {phi!r}")


def learn(sample: Sample, config: Optional[LearnerConfig] = None) -> LearnResult:
    """Learn a formula separating the sample's positives from its negatives.

    Returns a minimal-size formula when the enumeration phase finds one
    within the size bound; beyond that bound, solutions come from the
    set-cover phase and are small but not guaranteed minimal. On an
    unseparable instance the witness pair is reported; deeper
    enumeration (a larger ltl2bs_switch) can still turn such instances
    solvable, since the check only covers formulas up to the bound.
    """
    if config is None:
        config = LearnerConfig()
    t0 = time.monotonic()
    deadline = t0 + config.timeout if config.timeout is not None else None
    stats: dict = {}

    def finish(result: LearnResult) -> LearnResult:
        result.stats["elapsed_s"] = time.monotonic() - t0
        return result

    try:
        found, bank = enumerate_bounded(
            sample, config.operators, config.ltl2bs_switch, deadline=deadline, stats=stats
        )
        if found is not None:
            _verify(found, sample)
            return finish(LearnResult("Solved", found, None, "EnumOnly", stats))

        inst, collapse_stats = collapse(bank, sample, deadline)
        stats.update(collapse_stats)

        witness = existence_check(inst)
        if witness is not None:
            return finish(LearnResult("NoSolution", None, witness, None, stats))

        reduced = reduce_instance(inst, config.domination_k, deadline)
        stats["n_after_domination"] = len(reduced.base_sets)

        outcome = div_conq(
            reduced,
            seed=config.seed,
            beam_width=config.beam_width,
            max_weight=config.dc_switch,
            domination_k=config.domination_k,
            deadline=deadline,
            stats=stats,
        )
        if isinstance(outcome, NoSolution):
            # Unreachable after a passing existence check; kept so a
            # solver regression surfaces as NoSolution, not a crash.
            return finish(LearnResult("NoSolution", None, outcome.witness, None, stats))

        phi = reconstruct(outcome, reduced)
        _verify(phi, sample)
        stats["solution_size"] = phi.size
        method = "BSC+DivConq" if stats.get("dc_splits", 0) else "BSC"
        return finish(LearnResult("Solved", phi, None, method, stats))
    except DeadlineReached:
        return finish(LearnResult("Timeout", None, None, None, stats))
