import random
import time

import pytest

from ltlflearn.deadlines import DeadlineReached
from ltlflearn.enumeration import enumerate_bounded
from ltlflearn.formulas import (
    DEFAULT_OPERATORS,
    Atom,
    Finally,
    OperatorSet,
    render_formula,
)
from ltlflearn.pipeline import LearnerConfig, LearnResult, learn, separates
from ltlflearn.traces import Alphabet, Sample, Trace, parse_sample

from conftest import union_shaped_sample

WORKED = parse_sample("1;1;0;1;1\n0;1;1;1\n---\n1;0;1;0\n1;1;0\n")


def test_worked_sample_is_solved_by_enumeration_at_minimal_size():
    result = learn(WORKED)
    assert result.status == "Solved"
    assert result.method == "EnumOnly"
    assert result.formula.size == 3
    assert separates(result.formula, WORKED)
    assert result.witness is None
    assert result.stats["n_enumerated"] > 0
    assert result.stats["elapsed_s"] >= 0


def test_learn_uses_the_configured_operator_set():
    ops = OperatorSet.from_names(["G", "&"])
    result = learn(WORKED, LearnerConfig(operators=ops))
    # G-and-conjunction formulas cannot separate this sample: every one
    # is monotone in prefixes that the classes share.
    assert result.status == "NoSolution"
    assert result.witness is not None


def test_no_solution_carries_a_witness_pair():
    # Same first letters and ops too weak to look past them.
    s = parse_sample("1;0\n---\n1;1\n")
    result = learn(s, LearnerConfig(operators=OperatorSet.from_names(["F"])))
    assert result.status == "NoSolution"
    assert result.formula is None
    assert result.witness.pos_index == 0
    assert result.witness.neg_index == 0


def test_timeout_returns_no_formula():
    result = learn(WORKED, LearnerConfig(timeout=1e-9))
    assert result.status == "Timeout"
    assert result.formula is None
    assert "elapsed_s" in result.stats


def test_no_timeout_when_disabled():
    result = learn(WORKED, LearnerConfig(timeout=None))
    assert result.status == "Solved"


def test_separates_is_the_reference_check():
    phi = Finally(Atom(0))
    s = Sample(Alphabet(("a",)), (Trace((0, 1)),), (Trace((0, 0)),))
    assert separates(phi, s)
    assert not separates(Atom(0), s)


def test_bsc_method_on_a_union_shaped_sample():
    # Positives split between two patterns; single formulas up to the
    # switch cannot cover both sides against these negatives.
    sample = union_shaped_sample(seed=0)
    config = LearnerConfig(operators=OperatorSet.from_names(["X!", "F", "&", "|"]))
    result = learn(sample, config)
    assert result.status == "Solved"
    assert result.method in ("BSC", "BSC+DivConq")
    assert separates(result.formula, sample)
    assert result.stats["n_base_sets"] > 0
    assert result.stats["collapse_ratio"] >= 1.0
    assert result.stats["solution_size"] == result.formula.size


def test_solved_result_always_reverifies():
    # Any Solved outcome must pass the reference check; spot-check many
    # small random samples end to end.
    rng = random.Random(21)
    solved = 0
    for _ in range(40):
        n_props = rng.randint(1, 2)
        def rand_trace():
            return Trace(tuple(rng.getrandbits(n_props)
                               for _ in range(rng.randint(1, 6))))
        try:
            sample = Sample(
                Alphabet.default(n_props),
                tuple(rand_trace() for _ in range(rng.randint(1, 3))),
                tuple(rand_trace() for _ in range(rng.randint(1, 3))),
            )
        except ValueError:  # collided classes; draw again
            continue
        result = learn(sample, LearnerConfig(ltl2bs_switch=4))
        if result.status == "Solved":
            solved += 1
            assert separates(result.formula, sample)
    assert solved > 10


def test_config_validation():
    with pytest.raises(ValueError):
        LearnerConfig(ltl2bs_switch=0)
    with pytest.raises(ValueError):
        LearnerConfig(beam_width=0)
    with pytest.raises(ValueError):
        LearnerConfig(domination_k=0)
    for timeout in (0, -1):  # None, not a non-positive number, disables the timeout
        with pytest.raises(ValueError):
            LearnerConfig(timeout=timeout)


def test_result_dataclass_shape():
    result = LearnResult("Timeout")
    assert result.formula is None and result.witness is None
    assert result.stats == {}


def test_union_sample_answer_and_counts_are_pinned_bit_for_bit():
    # Measured before the packed engine replaced the per-trace tuples;
    # any change to enumeration order, pruning or the cover search shows.
    sample = union_shaped_sample()
    _, bank = enumerate_bounded(sample, DEFAULT_OPERATORS, 8)
    assert {size: len(level) for size, level in bank.by_size.items()} == {
        1: 2, 2: 10, 3: 32, 4: 122, 5: 582, 6: 2485, 7: 10775, 8: 49267,
    }
    assert (bank.n_generated, len(bank), bank.n_pruned) == (179782, 63275, 116507)

    result = learn(sample)
    assert (result.status, result.method) == ("Solved", "BSC")
    assert render_formula(result.formula, sample.alphabet) == (
        "F(p0 & X!(p0 & X!(p1))) | F(p1 & X!(p1 & X!(p0)))"
    )
    stats = result.stats
    assert (stats["n_enumerated"], stats["n_retained"]) == (179782, 63275)
    assert (stats["n_base_sets"], stats["n_after_domination"]) == (6389, 5427)
    assert stats["beam_candidates"] == 411302


def test_union_sample_divconq_answer_and_counts_are_pinned():
    # The BSC+DivConq path: splits, and _restricted re-reduces every
    # subproblem. Measured before the cover phase had one domination
    # mechanism.
    sample = union_shaped_sample()
    result = learn(sample, LearnerConfig(ltl2bs_switch=5, dc_switch=9))
    assert (result.status, result.method) == ("Solved", "BSC+DivConq")
    assert render_formula(result.formula, sample.alphabet) == (
        "(!(p0) & (p1 | X!(p0)) | p0 & !(X!(p0)) & (X!(p1) | !(X!(X!(p0))))"
        " & F(p0 & X!(p0))) & (p0 | X!(p1) & F(G(p1)) | p1 & X!(p1 & X!(p0))"
        " | (!(X!(p0 U p1)) | !(X!(p0)) & X!(X!(p1)))) | (p0 & (p0 U p1)"
        " | !(p0 | p1)) & (X!(X!(p1)) | !(p1) & F(G(p1))) & (!(p0) | X!(p0))"
    )
    assert result.formula.size == 86
    stats = result.stats
    assert (stats["n_base_sets"], stats["n_after_domination"]) == (181, 170)
    assert stats["beam_candidates"] == 34139
    assert (stats["dc_splits"], stats["dc_depth"]) == (12, 6)


def test_timeout_in_the_beam_keeps_its_counts(monkeypatch):
    # The set-cover phase's first deadline check is div_conq's, the
    # later ones are the beam's: time runs out inside the first beam,
    # after its seeds and weight 3.
    calls = []

    def check(deadline):
        calls.append(deadline)
        if len(calls) == 3:
            raise DeadlineReached()

    monkeypatch.setattr("ltlflearn.boolcover.check_deadline", check)
    result = learn(union_shaped_sample(), LearnerConfig(ltl2bs_switch=5, dc_switch=9))
    assert result.status == "Timeout"
    stats = result.stats
    assert stats["beam_iterations"] == 1
    assert stats["beam_candidates"] > stats["n_after_domination"]  # the seeds and more


def test_timeout_in_enumeration_keeps_its_counts(monkeypatch):
    # Enumeration checks the deadline at the start of sizes 2..6 (five
    # calls), then at the 4096th candidate, inside size 6: time runs
    # out there, after sizes 1-5 (748 retained) and part of size 6.
    calls = []

    def check(deadline):
        calls.append(deadline)
        if len(calls) == 6:
            raise DeadlineReached()

    monkeypatch.setattr("ltlflearn.enumeration.check_deadline", check)
    result = learn(union_shaped_sample())
    assert result.status == "Timeout"
    stats = result.stats
    assert (stats["n_enumerated"], stats["n_retained"], stats["enum_size"]) == (4096, 2219, 6)


def test_timeout_is_honoured_within_a_quarter_second():
    # On the union task the deadline falls in enumeration, collapse,
    # reduction or the beam depending on the timeout and the machine;
    # every phase checks it often enough to stop within 0.25 s.
    sample = union_shaped_sample()
    for timeout in (0.05, 0.2, 0.4, 0.5, 0.6, 0.8):
        start = time.monotonic()
        result = learn(sample, LearnerConfig(timeout=timeout))
        elapsed = time.monotonic() - start
        assert result.status in ("Solved", "Timeout")
        assert elapsed <= timeout + 0.25, (timeout, result.status, elapsed)
