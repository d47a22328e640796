"""End-to-end learning: enumeration, set cover, reconstruction.

`learn` answers a sample with one class only by `true` or `false`.
Otherwise it first enumerates formulas in size order; if a single
enumerated formula already separates the sample it is returned
directly. Otherwise the retained formulas collapse into a set-cover
instance, an existence check either produces an unseparable witness
pair or guarantees a solution, and the cover solver (beam search
wrapped in divide and conquer) assembles one from unions and
intersections of enumerated formulas. An answer's value is tested for
separation where it is built, and its formula re-verified against the
reference semantics.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

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
from .formulas import DEFAULT_OPERATORS, Bottom, Formula, OperatorSet, Top, compile_reference
from .traces import Sample


@dataclass(frozen=True)
class LearnerConfig:
    """Tuning knobs."""

    operators: OperatorSet = DEFAULT_OPERATORS
    ltl2bs_switch: int = 8  # max size for the direct enumeration phase
    beam_width: int = 100
    dc_switch: int = 70  # max combination weight before splitting
    domination_k: int = 10
    timeout: Optional[float] = 60.0  # seconds; None, and only None, disables
    seed: int = 0

    def __post_init__(self):
        for name in ("ltl2bs_switch", "beam_width", "dc_switch", "domination_k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.timeout is not None and not 0 < self.timeout < math.inf:  # NaN too
            raise ValueError("timeout must be finite and > 0 seconds, or None for no timeout")


@dataclass(frozen=True)
class LearnResult:
    """Outcome of a learning run.

    status is "Solved", "NoSolution" or "Timeout". formula is set only
    when solved; witness only for NoSolution (an unseparable pair of
    trace indices). method records which phase produced the formula:
    "EnumOnly" (a single enumerated formula, or a one-class sample's
    literal), "BSC" (set cover without splits) or "BSC+DivConq".
    """

    status: str
    formula: Optional[Formula] = None
    witness: Optional[Witness] = None
    method: Optional[str] = None
    stats: dict = field(default_factory=dict)


class VerificationError(AssertionError):
    """A cover's rows are not exactly the positives, the reference
    evaluator rejects a formula whose value separates the sample, or
    the cover solver found none after a passing existence check. Always
    a bug, never an input error."""


def _by_length(traces) -> Iterable[list[tuple[int, ...]]]:
    """The traces' letters, in batches of one length each."""
    batches: dict = {}
    for w in traces:
        batches.setdefault(w.length, []).append(w.letters)
    return batches.values()


def separates(phi: Formula, sample: Sample) -> bool:
    """Whether phi holds on every positive trace and no negative one,
    under the reference semantics, compiled once for the sample and run
    once per trace length in each class."""
    values = compile_reference(phi)
    return all(
        values(batch)[0] == (1 << len(batch)) - 1 for batch in _by_length(sample.positives)
    ) and not any(values(batch)[0] for batch in _by_length(sample.negatives))


def _verify(phi: Formula, sample: Sample) -> None:
    """The reference check of an answer whose value already passed the
    bitwise one: a failure means the evaluators disagree."""
    if not separates(phi, sample):
        raise VerificationError(
            f"evaluators disagree on {phi!r}: its value separates, the reference rejects it"
        )


def learn(sample: Sample, config: Optional[LearnerConfig] = None) -> LearnResult:
    """Learn a formula separating the sample's positives from its negatives.

    Returns a minimal-size formula when the enumeration phase finds one
    within the size bound; beyond that bound, solutions come from the
    set-cover phase and are small but not guaranteed minimal. On an
    unseparable instance the witness pair is reported; deeper
    enumeration (a larger ltl2bs_switch) can still turn such instances
    solvable, since the check only covers formulas up to the bound.
    A sample without negatives is answered `true`, one without
    positives (the empty sample too) `false`, by method EnumOnly with
    only `elapsed_s` in its stats.

    `elapsed_s` is stamped once the formula bank and the cover instances
    are released, on every verdict, a Timeout too: the frames that hold
    them (`_solve`'s, and on a Timeout those in the traceback) are gone
    by then, so the stamp includes their teardown, which the caller
    waits for as well.

    The cyclic garbage collector is off while `learn` runs, and the
    caller's setting is restored on every exit, an exception included.
    The formula bank and the combinations are acyclic tuple graphs, so a
    collection would find nothing and still walk every one of them. The
    setting belongs to the interpreter: a host program's other threads
    run without the collector meanwhile.
    """
    if config is None:
        config = LearnerConfig()
    t0 = time.monotonic()
    deadline = t0 + config.timeout if config.timeout is not None else None
    stats: dict = {}
    collecting = gc.isenabled()
    gc.disable()
    try:
        result = _solve(sample, config, deadline, stats)
    except DeadlineReached:
        result = LearnResult("Timeout", None, None, None, stats)
    finally:
        if collecting:
            gc.enable()
    result.stats["elapsed_s"] = time.monotonic() - t0
    return result


def _solve(
    sample: Sample, config: LearnerConfig, deadline: Optional[float], stats: dict
) -> LearnResult:
    """`learn`'s verdict, without `elapsed_s`; the counts go into stats."""
    if sample.positives and sample.negatives:
        found, bank = enumerate_bounded(
            sample, config.operators, config.ltl2bs_switch, deadline=deadline, stats=stats
        )
    else:  # a size-1 separator, and enumeration seeds neither literal
        found = Top() if sample.positives else Bottom()
    if found is not None:
        _verify(found, sample)
        return LearnResult("Solved", found, None, "EnumOnly", stats)

    inst, collapse_stats = collapse(bank, sample, deadline)
    stats.update(collapse_stats)

    witness = existence_check(inst, deadline)
    if witness is not None:
        return LearnResult("NoSolution", None, witness, None, stats)

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
    if isinstance(outcome, NoSolution):  # a solver bug, never a verdict
        raise VerificationError(
            f"no cover found after a passing existence check: {outcome.witness}"
        )
    if outcome[0] != reduced.pos_mask:  # the root's rows are the whole sample
        raise VerificationError(f"the cover's rows are not the positives: {outcome[0]:b}")

    phi = reconstruct(outcome, reduced)
    _verify(phi, sample)
    stats["solution_size"] = phi.size
    method = "BSC+DivConq" if stats.get("dc_splits", 0) else "BSC"
    return LearnResult("Solved", phi, None, method, stats)
