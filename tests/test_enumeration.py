import random
import time

import pytest

from ltlflearn import formulas
from ltlflearn.biteval import table_of
from ltlflearn.deadlines import DeadlineReached
from ltlflearn.enumeration import enumerate_bounded
from ltlflearn.formulas import (
    DEFAULT_OPERATORS,
    Atom,
    Finally,
    Globally,
    OperatorSet,
    StrongNext,
    eval_reference,
)
from ltlflearn.traces import Alphabet, Sample, Trace

from conftest import bank_from_formulas, union_shaped_sample


def sample2() -> Sample:
    # P = {ab, ba}, N = {aa, bb}: the minimal separator is F a & F b
    # (size 5), so enumeration up to 4 finds no solution.
    return Sample(
        Alphabet(("a", "b")),
        (Trace((0b01, 0b10)), Trace((0b10, 0b01))),
        (Trace((0b01, 0b01)), Trace((0b10, 0b10))),
    )


def test_atoms_seed_the_bank():
    found, bank = enumerate_bounded(sample2(), DEFAULT_OPERATORS, 1)
    assert found is None
    assert {e.formula for e in bank.entries()} == {Atom(0), Atom(1)}


def test_atom_solutions_are_found_at_seeding():
    s = Sample(Alphabet(("a",)), (Trace((1, 0)),), (Trace((0, 1)),))
    found, _ = enumerate_bounded(s, DEFAULT_OPERATORS, 5)
    assert found == Atom(0)


def test_equivalent_formulas_keep_first_representative():
    found, bank = enumerate_bounded(sample2(), DEFAULT_OPERATORS, 3)
    formulas = [e.formula for e in bank.entries()]
    # F(F a) collapses onto F a; neither shows up twice by table.
    tables = [table_of(f, sample2()).bits for f in formulas]
    assert len(tables) == len(set(tables))
    assert Finally(Finally(Atom(0))) not in formulas


def test_solution_reported_before_equivalence_pruning():
    # G(a) separates; a formula with the same table must not mask it
    # even if an equal-table formula was already retained.
    s = Sample(Alphabet(("a",)), (Trace((1, 1)),), (Trace((1, 0)),))
    found, _ = enumerate_bounded(s, DEFAULT_OPERATORS, 3)
    assert found is not None
    assert eval_reference(found, s.positives[0], 1)
    assert not eval_reference(found, s.negatives[0], 1)


def test_sizes_grow_and_respect_bound():
    _, bank = enumerate_bounded(sample2(), DEFAULT_OPERATORS, 4)
    assert max(bank.by_size) <= 4
    sizes = [e.formula.size for e in bank.entries()]
    assert sizes == [size for size, level in sorted(bank.by_size.items()) for _ in level]


def test_counters_add_up():
    _, bank = enumerate_bounded(sample2(), DEFAULT_OPERATORS, 4)
    assert bank.n_generated == bank.n_pruned + len(bank)
    assert bank.n_pruned > 0
    found, bank = enumerate_bounded(sample2(), DEFAULT_OPERATORS, 6)
    assert found is not None  # counted as generated, neither pruned nor retained
    assert bank.n_generated == bank.n_pruned + len(bank) + 1


def test_deterministic_across_runs():
    _, bank1 = enumerate_bounded(sample2(), DEFAULT_OPERATORS, 5)
    _, bank2 = enumerate_bounded(sample2(), DEFAULT_OPERATORS, 5)
    assert [e.formula for e in bank1.entries()] == [e.formula for e in bank2.entries()]


def test_restricted_operator_set():
    ops = OperatorSet.from_names(["F", "&"])
    _, bank = enumerate_bounded(sample2(), ops, 3)
    for entry in bank.entries():
        stack = [entry.formula]
        while stack:
            node = stack.pop()
            assert type(node).__name__ in {"Atom", "Finally", "And"}
            if hasattr(node, "arg"):
                stack.append(node.arg)
            elif hasattr(node, "left"):
                stack.extend((node.left, node.right))


def test_deadline_interrupts_between_sizes():
    with pytest.raises(DeadlineReached):
        enumerate_bounded(sample2(), DEFAULT_OPERATORS, 9, deadline=time.monotonic())


def test_deadline_interrupts_inside_a_size_level():
    # Up to size 12 on the union sample: size 8 alone takes longer than
    # the budget, so only the in-level check can stop it this soon.
    deadline = time.monotonic() + 0.3
    with pytest.raises(DeadlineReached):
        enumerate_bounded(union_shaped_sample(), DEFAULT_OPERATORS, 12, deadline=deadline)
    assert time.monotonic() - deadline < 0.25


def test_deadline_is_checked_every_4096_candidates(monkeypatch):
    calls = []
    monkeypatch.setattr("ltlflearn.enumeration.check_deadline", calls.append)
    _, bank = enumerate_bounded(union_shaped_sample(), DEFAULT_OPERATORS, 8)
    # One check per level of sizes 2..8, plus one per 4096 candidates.
    assert len(calls) == 7 + bank.n_generated // 4096


def test_bank_values_are_the_packed_tables_of_their_formulas():
    # Mixed lengths, every operator: the enumerator's kernel calls must
    # agree with table_of, which evaluates each formula from scratch.
    rng = random.Random(2)

    def trace():
        return Trace(tuple(rng.getrandbits(2) for _ in range(rng.choice((1, 3, 5, 8, 70)))))

    s = Sample(Alphabet.default(2), tuple(trace() for _ in range(5)),
               tuple(trace() for _ in range(5)))
    ops = OperatorSet.from_names(["!", "X!", "X", "F", "G", "&", "|", "U", "R"])
    found, bank = enumerate_bounded(s, ops, 4)
    assert found is None and len(bank) > 150
    cache: dict = {}
    for entry in bank.entries():
        assert entry.bits == table_of(entry.formula, s, cache).bits, entry.formula


def test_unbounded_runs_until_solution():
    # A bound far above the answer, as good as none: the run still ends
    # at the first separator, at size 2.
    s = Sample(Alphabet(("a",)), (Trace((1, 1)),), (Trace((1, 0)),))
    found, bank = enumerate_bounded(s, DEFAULT_OPERATORS, 50)
    assert found is not None and found.size == 2
    assert max(bank.by_size) == 2


def test_bank_from_formulas_dedups_by_table():
    s = Sample(Alphabet(("a",)), (Trace((1, 0, 1)),), ())
    bank = bank_from_formulas(s, [Atom(0), Finally(Atom(0)), Finally(Finally(Atom(0)))])
    assert len(bank) == 2  # F(F a) folds onto F a


def test_enumeration_matches_known_counts_single_prop():
    # One proposition, sizes 1..2, default ops: the atom plus five unary
    # wraps, none a solution here and none equivalent to another.
    s = Sample(
        Alphabet(("a",)),
        (Trace((1, 0)), Trace((0, 1))),
        (Trace((1, 1)), Trace((0, 0))),
    )
    found, bank = enumerate_bounded(s, DEFAULT_OPERATORS, 2)
    assert found is None
    assert bank.n_generated == 1 + 5
    assert len(bank) == 6
    size2 = [e.formula for e in bank.entries() if e.formula.size == 2]
    assert StrongNext(Atom(0)) in size2 and Globally(Atom(0)) in size2


def built_during(monkeypatch, run):
    """Run `run()` and count the formula nodes built meanwhile: `Atom`
    constructions in enumeration, and every node with children (each
    sets its size through `formulas._set_size`)."""
    counts = {"atoms": 0, "inner": 0}
    set_size = formulas._set_size

    def counted_atom(prop):
        counts["atoms"] += 1
        return Atom(prop)

    def counted_set_size(node, size):
        counts["inner"] += 1
        set_size(node, size)

    monkeypatch.setattr("ltlflearn.enumeration.Atom", counted_atom)
    monkeypatch.setattr("ltlflearn.formulas._set_size", counted_set_size)
    out = run()
    monkeypatch.undo()
    return out, counts


def test_enumeration_builds_no_formula_per_retained_candidate(monkeypatch):
    sample = union_shaped_sample()
    (found, bank), built = built_during(
        monkeypatch, lambda: enumerate_bounded(sample, DEFAULT_OPERATORS, 5)
    )
    assert found is None and len(bank) == 748
    assert built == {"atoms": 2, "inner": 0}


def test_enumeration_builds_only_the_answer(monkeypatch):
    # F a & F b, of size 5, after 34 retained candidates of sizes 1-4.
    (found, bank), built = built_during(
        monkeypatch, lambda: enumerate_bounded(sample2(), DEFAULT_OPERATORS, 6)
    )
    assert found is not None and found.size == 5 and len(bank) == 34
    assert built["atoms"] == 2
    assert built["inner"] <= found.size
