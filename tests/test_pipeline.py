import gc
import inspect
import math
import random
import time
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltlflearn import biteval, enumeration, pipeline
from ltlflearn.benchgen import TaskSpec, gen_task
from ltlflearn.boolcover import NoSolution, Witness, beam_search, div_conq
from ltlflearn.deadlines import DeadlineReached
from ltlflearn.enumeration import enumerate_bounded
from ltlflearn.formulas import (
    DEFAULT_OPERATORS,
    OPERATOR_TOKENS,
    And,
    Atom,
    Bottom,
    Finally,
    Globally,
    Not,
    OperatorSet,
    Or,
    Release,
    StrongNext,
    Top,
    Until,
    WeakNext,
    render_formula,
)
from ltlflearn.pipeline import LearnerConfig, LearnResult, VerificationError, learn, separates
from ltlflearn.traces import Alphabet, Sample, Trace, parse_task

from conftest import biteval_imports, built_during, eval_reference_all, union_shaped_sample

WORKED = parse_task("1;1;0;1;1\n0;1;1;1\n---\n1;0;1;0\n1;1;0\n").sample


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
    s = parse_task("1;0\n---\n1;1\n").sample
    result = learn(s, LearnerConfig(operators=OperatorSet.from_names(["F"])))
    assert result.status == "NoSolution"
    assert result.formula is None
    assert result.witness.pos_index == 0
    assert result.witness.neg_index == 0


@st.composite
def one_class_samples(draw):
    """A sample over 1-3 propositions with one class empty, or both."""
    n_props = draw(st.integers(1, 3))
    letters = st.lists(st.integers(0, (1 << n_props) - 1), min_size=1, max_size=4)
    traces = tuple(Trace(tuple(w)) for w in draw(st.lists(letters, max_size=4)))
    if draw(st.booleans()):
        return Sample(Alphabet.default(n_props), traces, ())
    return Sample(Alphabet.default(n_props), (), traces)


@given(one_class_samples(), st.sets(st.sampled_from(sorted(OPERATOR_TOKENS)), min_size=1))
@settings(max_examples=200)
# Atoms and F(p0) hold on the lone negative; false excludes it.
@example(Sample(Alphabet.default(1), (), (Trace((1,)),)), {"F"})
# F(p0) holds on both positives, and true is smaller ...
@example(Sample(Alphabet.default(1), (Trace((0, 1, 0)), Trace((1, 0, 1))), ()),
         set(DEFAULT_OPERATORS.names()))
# ... and G(p0) on neither negative, and false is smaller.
@example(Sample(Alphabet.default(1), (), (Trace((0, 1, 0)), Trace((1, 0, 1)))),
         set(DEFAULT_OPERATORS.names()))
def test_learn_answers_a_one_class_sample_with_a_literal(sample, names):
    # true without negatives, false without positives (the empty sample
    # too): size 1, so minimal, under any operator set.
    result = learn(sample, LearnerConfig(operators=OperatorSet.from_names(names)))
    assert (result.status, result.method) == ("Solved", "EnumOnly")
    assert result.formula == (Top() if sample.positives else Bottom())
    assert separates(result.formula, sample)
    assert list(result.stats) == ["elapsed_s"]


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


def test_separates_runs_mixed_lengths_as_the_recursive_semantics_does():
    # Traces of lengths 1 to 6 in both classes, so each class makes a
    # run per length; labelled by the formula itself, it separates, and
    # any one trace moved to the other class breaks that.
    rng = random.Random(7)
    a, b = Atom(0), Atom(1)
    formulas = [Until(a, b), Release(Not(a), WeakNext(b)), Globally(Or(a, StrongNext(b))),
                Finally(And(a, Not(b)))]
    for phi in formulas:
        traces = {tuple(rng.getrandbits(2) for _ in range(rng.randint(1, 6)))
                  for _ in range(40)}
        holds = {w: eval_reference_all(phi, Trace(w))[0] for w in sorted(traces)}
        pos = [Trace(w) for w, v in holds.items() if v]
        neg = [Trace(w) for w, v in holds.items() if not v]
        assert len({w.length for w in pos}) > 1 and len({w.length for w in neg}) > 1
        alphabet = Alphabet.default(2)
        assert separates(phi, Sample(alphabet, tuple(pos), tuple(neg)))
        for i in range(len(pos)):
            moved = Sample(alphabet, tuple(pos[:i] + pos[i + 1:]), tuple(neg + [pos[i]]))
            assert not separates(phi, moved)
        for i in range(len(neg)):
            moved = Sample(alphabet, tuple(pos + [neg[i]]), tuple(neg[:i] + neg[i + 1:]))
            assert not separates(phi, moved)


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


def test_learn_builds_formula_nodes_only_for_its_answer(monkeypatch):
    # Enumeration and collapse build no node; reconstruct builds the
    # answer's, once per shared node.
    sample = union_shaped_sample(seed=0)
    config = LearnerConfig(operators=OperatorSet.from_names(["X!", "F", "&", "|"]))
    result, built = built_during(monkeypatch, lambda: learn(sample, config))
    assert result.method in ("BSC", "BSC+DivConq")
    assert built["inner"] <= result.formula.size


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


@pytest.mark.parametrize("name", ["ltl2bs_switch", "beam_width", "dc_switch", "domination_k"])
def test_each_count_below_one_is_rejected_by_name(name):
    with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
        LearnerConfig(**{name: 0})


def test_the_cover_solvers_default_to_the_config_defaults():
    # beam_search and div_conq restate the settings as their own defaults,
    # which the demos, the benchmark and the tests call them with.
    config = LearnerConfig()
    expected = {"beam_width": config.beam_width, "max_weight": config.dc_switch,
                "domination_k": config.domination_k}
    for solver in (beam_search, div_conq):
        parameters = inspect.signature(solver).parameters
        assert {name: parameters[name].default for name in expected} == expected
    assert inspect.signature(div_conq).parameters["seed"].default == config.seed


def test_a_nan_timeout_is_rejected():
    # No time.monotonic() is >= NaN, so it would never stop the run.
    with pytest.raises(ValueError, match="timeout"):
        LearnerConfig(timeout=float("nan"))


def test_an_infinite_timeout_is_rejected():
    # None is the one "no timeout"; inf would also reach a JSON echo as Infinity.
    for timeout in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="timeout"):
            LearnerConfig(timeout=timeout)


def test_no_cover_after_a_passing_existence_check_is_an_error(monkeypatch):
    # A solver bug must not read as a NoSolution verdict.
    monkeypatch.setattr(
        "ltlflearn.pipeline.div_conq", lambda *args, **kwargs: NoSolution(Witness(0, 0)))
    with pytest.raises(VerificationError, match="existence check"):
        learn(union_shaped_sample(), LearnerConfig(ltl2bs_switch=5))


def test_a_wrong_tree_for_a_separating_value_is_caught_by_the_reference(monkeypatch):
    # The EnumOnly separator's value passed the bitwise test in
    # enumeration; a tree built wrong for it fails the reference check.
    real = enumeration.formula_of

    def negated(entry, memo):
        with monkeypatch.context() as inner:
            inner.setattr(enumeration, "formula_of", real)
            return Not(real(entry, memo))

    monkeypatch.setattr(enumeration, "formula_of", negated)
    with pytest.raises(VerificationError, match="disagree"):
        learn(WORKED)


def test_a_cover_whose_rows_are_not_the_positives_is_caught_before_reconstruct(monkeypatch):
    # No base set separates (enumeration tested each value), so a lone
    # leaf is a wrong cover; its rows are checked, not its formula.
    built = []
    monkeypatch.setattr(
        "ltlflearn.pipeline.div_conq", lambda inst, **kwargs: inst.base_sets[0][2])
    monkeypatch.setattr("ltlflearn.pipeline.reconstruct", lambda *args: built.append(args))
    with pytest.raises(VerificationError, match="rows"):
        learn(union_shaped_sample(), LearnerConfig(ltl2bs_switch=5))
    assert built == []


def test_learn_imports_nothing_from_the_bitwise_tree_evaluator():
    # Every answer's value is at hand where it is built, so the formula
    # is evaluated once, by the reference.
    assert biteval_imports("from .biteval import first_bits, table_of") == ["first_bits", "table_of"]
    assert biteval_imports(Path(pipeline.__file__).read_text()) == []


ONE_TASK_PER_METHOD = {
    "EnumOnly": (WORKED, LearnerConfig()),
    "BSC": (union_shaped_sample(),
            LearnerConfig(operators=OperatorSet.from_names(["X!", "F", "&", "|"]))),
    "BSC+DivConq": (union_shaped_sample(), LearnerConfig(ltl2bs_switch=5, dc_switch=9)),
}


@pytest.mark.parametrize("method", ONE_TASK_PER_METHOD)
def test_learn_solves_without_the_tree_evaluator(monkeypatch, method):
    def no_tree_evaluation(*args):
        raise AssertionError("learn evaluated a formula tree bitwise")

    monkeypatch.setattr(biteval, "_table", no_tree_evaluation)
    result = learn(*ONE_TASK_PER_METHOD[method])
    assert (result.status, result.method) == ("Solved", method)


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
    # The set-cover phase's first deadline checks are the existence
    # check's, one per positive row, the next div_conq's, the later ones
    # the beam's: time runs out inside the first beam, after its seeds
    # and weight 3.
    sample = union_shaped_sample()
    calls = []

    def check(deadline):
        calls.append(deadline)
        if len(calls) == len(sample.positives) + 3:
            raise DeadlineReached()

    monkeypatch.setattr("ltlflearn.boolcover.check_deadline", check)
    result = learn(sample, LearnerConfig(ltl2bs_switch=5, dc_switch=9))
    assert result.status == "Timeout"
    stats = result.stats
    assert stats["beam_iterations"] == 1
    assert stats["beam_candidates"] > stats["n_after_domination"]  # the seeds and more


def test_a_deadline_that_passes_in_the_existence_check_is_a_timeout(monkeypatch):
    # The existence check gets learn's deadline: one that has passed at
    # its first positive row ends the run there, before reduction.
    calls = []

    def check(deadline):
        calls.append(deadline)
        raise DeadlineReached()

    monkeypatch.setattr("ltlflearn.boolcover.check_deadline", check)
    result = learn(union_shaped_sample(), LearnerConfig(ltl2bs_switch=5, timeout=60))
    assert result.status == "Timeout"
    assert len(calls) == 1 and calls[0] is not None
    assert "n_base_sets" in result.stats and "n_after_domination" not in result.stats


def test_timeout_in_enumeration_keeps_its_counts(monkeypatch):
    # Enumeration checks the deadline at the start of sizes 2..6 (five
    # calls), then inside size 6 before the first run of candidates
    # that would take its kernel calls past 4096: time runs out there,
    # after sizes 1-5 (748 retained) and part of size 6. Of the 6,814
    # candidates counted, 1,412 are & and | mirrors never evaluated.
    calls = []

    def check(deadline):
        calls.append(deadline)
        if len(calls) == 6:
            raise DeadlineReached()

    monkeypatch.setattr("ltlflearn.enumeration.check_deadline", check)
    result = learn(union_shaped_sample())
    assert result.status == "Timeout"
    stats = result.stats
    assert (stats["n_enumerated"], stats["n_retained"], stats["enum_size"]) == (6814, 2876, 6)
    assert stats["n_skipped"] == 1412


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("exit", ["Solved", "NoSolution", "Timeout", "error"])
def test_learn_runs_without_the_collector_and_restores_the_callers_setting(
    monkeypatch, exit, enabled
):
    during = []
    real = pipeline.enumerate_bounded

    def enumerate_bounded(*args, **kwargs):
        during.append(gc.isenabled())
        if exit == "error":
            raise RuntimeError("a bug in enumeration")
        return real(*args, **kwargs)

    def deadline_passed(deadline):
        raise DeadlineReached()

    monkeypatch.setattr(pipeline, "enumerate_bounded", enumerate_bounded)
    if exit == "Timeout":  # at enumeration's first check, the start of size 2
        monkeypatch.setattr(enumeration, "check_deadline", deadline_passed)
    sample, config = WORKED, LearnerConfig()
    if exit == "NoSolution":
        sample = parse_task("1;0\n---\n1;1\n").sample
        config = LearnerConfig(operators=OperatorSet.from_names(["F"]))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if exit == "error":
            with pytest.raises(RuntimeError):
                learn(sample, config)
        else:
            assert learn(sample, config).status == exit
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False]
    assert after == enabled


def test_learn_leaves_no_cyclic_garbage():
    # A task shaped like the cover-split workload's, solved by splits:
    # nothing `learn` leaves behind needs the cyclic collector to go.
    sample = gen_task(TaskSpec(family="random-boolcomb", n_props=2, trace_len=16, n_pos=20,
                               n_neg=20, seed=0, params={"n_patterns": 2}))
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        result = learn(sample, LearnerConfig(ltl2bs_switch=6, dc_switch=12))
        found = gc.collect()
    finally:
        if was:
            gc.enable()
    assert (result.status, result.method) == ("Solved", "BSC+DivConq")
    assert found == 0


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


@pytest.mark.parametrize("stop_in", [None, "enumeration", "boolcover"])
def test_elapsed_is_stamped_after_the_bank_is_freed(monkeypatch, stop_in):
    # On the union task the cover phase answers. A Timeout forced at the
    # third deadline check of enumeration or of the cover phase leaves a
    # traceback that holds enumeration's frame, or `learn`'s frame holds
    # the bank; either way the bank must be gone before the stamp, as
    # the caller waits for its teardown too.
    events = []

    class Bank(enumeration.FormulaBank):
        def __init__(self, layout):
            super().__init__(layout)
            weakref.finalize(self, events.append, "bank freed")

    calls = []

    def check(deadline):
        calls.append(deadline)
        if len(calls) == 3:
            raise DeadlineReached()

    def clock():
        events.append("clock")
        return time.monotonic()

    monkeypatch.setattr("ltlflearn.enumeration.FormulaBank", Bank)
    if stop_in is not None:
        monkeypatch.setattr(f"ltlflearn.{stop_in}.check_deadline", check)
    monkeypatch.setattr("ltlflearn.pipeline.time", SimpleNamespace(monotonic=clock))
    result = learn(union_shaped_sample(), LearnerConfig(ltl2bs_switch=5, dc_switch=12))
    assert (result.status, result.method) == (
        ("Solved", "BSC+DivConq") if stop_in is None else ("Timeout", None))
    # t0, the bank's teardown, then the stamp.
    assert events == ["clock", "bank freed", "clock"]
