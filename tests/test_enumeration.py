import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ltlflearn.biteval import BINARY_KERNELS, UNARY_KERNELS, table_of
from ltlflearn.deadlines import DEADLINE_STRIDE, DeadlineReached
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

from conftest import bank_from_formulas, built_during, reference_enumerate, union_shaped_sample


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
    # G(a) separates. Only new values are solution-tested, which cannot
    # mask it: an already-retained formula with the same table would
    # have been the answer when it was retained.
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
    stats: dict = {}
    _, bank = enumerate_bounded(union_shaped_sample(), DEFAULT_OPERATORS, 8, stats=stats)
    # One check per level of sizes 2..8, plus one before each run of
    # candidates (a slice of at most 4096 children or rights) that would
    # take the kernel calls since the last check past 4096: the run
    # boundaries put 38 such checks among the 143,158 candidates
    # evaluated (179,782 counted less 36,624 skipped mirrors).
    assert bank.n_generated - stats["n_skipped"] == 143158
    assert len(calls) == 7 + 38


def kernel_calls_between_checks(monkeypatch, run) -> list[int]:
    """Run `run()` and return the number of kernel calls before the
    first deadline check, between each two checks and after the last."""
    gaps = [0]

    def counted(kernel):
        def call(*args):
            gaps[-1] += 1
            return kernel(*args)
        return call

    for table in (UNARY_KERNELS, BINARY_KERNELS):
        for tok, kernel in list(table.items()):
            monkeypatch.setitem(table, tok, counted(kernel))
    monkeypatch.setattr("ltlflearn.enumeration.check_deadline", lambda deadline: gaps.append(0))
    run()
    monkeypatch.undo()
    return gaps


def test_kernel_calls_between_deadline_checks_stay_within_the_stride(monkeypatch):
    # The size-8 unary loops each run over the 10,775 entries of size 7,
    # so a check only at the end of each inner loop leaves gaps > 4096.
    # 247,443 candidates besides the two atoms are counted and not
    # skipped as mirrors; those an identity rule skips make no kernel
    # call, so fewer calls are made.
    ops = OperatorSet.from_names(["!", "X!", "X", "F", "G", "&", "|", "U", "R"])
    stats: dict = {}
    gaps = kernel_calls_between_checks(
        monkeypatch, lambda: enumerate_bounded(union_shaped_sample(), ops, 8, stats=stats)
    )
    assert max(gaps) <= DEADLINE_STRIDE
    assert stats["n_enumerated"] - stats["n_skipped"] - 2 == 247443
    assert sum(gaps) == 192354 > 40 * DEADLINE_STRIDE


@pytest.mark.parametrize("stride", [1, 7, 64])
def test_a_short_stride_slices_every_loop(monkeypatch, stride):
    # The children, the rights and the diagonal rows of sizes 3 and 5
    # are longer than so short a stride, so every kind of loop is
    # sliced; the runs' boundaries must not move the answer or a count.
    monkeypatch.setattr("ltlflearn.enumeration.DEADLINE_STRIDE", stride)
    ops = OperatorSet.from_names(["!", "X!", "F", "G", "&", "|", "U", "R"])
    out = []
    gaps = kernel_calls_between_checks(
        monkeypatch, lambda: out.append(enumerate_bounded(union_shaped_sample(), ops, 6))
    )
    assert max(gaps) <= stride
    ((found, bank),) = out
    ref_found, ref_bank = reference_enumerate(union_shaped_sample(), ops, 6)
    assert found == ref_found
    assert bank.by_size == ref_bank.by_size
    assert bank.n_generated == ref_bank.n_generated


def test_counts_skipped_mirrors():
    # Size 3 holds the (1, 1) pairs of a and b. Of each operator's four
    # only a & b (a | b) is evaluated; a & a, b & a and b & b are
    # counted and skipped.
    stats: dict = {}
    enumerate_bounded(sample2(), OperatorSet.from_names(["&", "|"]), 3, stats=stats)
    assert stats == {"n_enumerated": 2 + 8, "n_retained": 4, "n_skipped": 6}


def traces(n_props: int, min_size: int):
    letters = st.integers(0, (1 << n_props) - 1)
    return st.lists(st.lists(letters, min_size=1, max_size=9), min_size=min_size, max_size=4)


# (propositions, positive letter lists, negative letter lists)
SAMPLES = st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), traces(n, 1), traces(n, 0)))
OPERATOR_SETS = st.one_of(
    st.just(["!", "X!", "X", "F", "G", "&", "|", "U", "R"]),
    st.lists(
        st.sampled_from(["!", "X!", "X", "F", "G", "&", "|", "U", "R"]), min_size=1, unique=True
    ),
)


@given(SAMPLES, OPERATOR_SETS, st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_enumeration_matches_the_plain_loop(sample, names, max_size):
    # Same retained values in the same order, same answer or None, same
    # counts as the loop that evaluates and solution-tests every
    # candidate, & and | mirrors included.
    n_props, pos, neg = sample
    s = Sample(
        Alphabet.default(n_props),
        tuple(Trace(tuple(w)) for w in pos),
        tuple(Trace(tuple(w)) for w in neg if w not in pos),
    )
    ops = OperatorSet.from_names(names)
    stats: dict = {}
    found, bank = enumerate_bounded(s, ops, max_size, stats=stats)
    ref_found, ref_bank = reference_enumerate(s, ops, max_size)
    assert found == ref_found
    assert bank.by_size == ref_bank.by_size
    assert (stats["n_enumerated"], stats["n_retained"]) == (ref_bank.n_generated, len(ref_bank))
    assert 0 <= stats["n_skipped"] <= stats["n_enumerated"]


UNARY_TOKENS = ("!", "X!", "X", "F", "G")
BINARY_TOKENS = ("&", "|", "U", "R")


def operator_subsets(tokens):
    # Each token kept or not, as a fair coin decides, in any order.
    coins = st.lists(st.booleans(), min_size=len(tokens), max_size=len(tokens))
    return st.tuples(st.permutations(tokens), coins).map(
        lambda order_keep: [tok for tok, keep in zip(*order_keep) if keep]
    )


def random_sample(seed: int) -> Sample:
    # Two to four traces per class of length 1 to 8 over one or two
    # propositions, drawn at random: hard enough to separate that the
    # enumeration often reaches size 6.
    rng = random.Random(seed)
    n_props = rng.randint(1, 2)

    def draw():
        return [tuple(rng.getrandbits(n_props) for _ in range(rng.randint(1, 8)))
                for _ in range(rng.randint(2, 4))]

    pos = draw()
    neg = [w for w in draw() if w not in pos]
    return Sample(Alphabet.default(n_props), tuple(map(Trace, pos)), tuple(map(Trace, neg)))


@given(
    st.integers(0, 2**32),
    operator_subsets(UNARY_TOKENS),
    operator_subsets(BINARY_TOKENS),
    st.integers(1, 6),
)
@settings(max_examples=1000, deadline=None)
def test_identity_rules_hold_for_every_operator_subset(seed, unary, binary, max_size):
    # The rules that need another operator present are exercised with it
    # and without it, from tokens given in any order: skipping a
    # candidate must change no retained value, no answer and no count.
    assume(unary or binary)
    s = random_sample(seed)
    ops = OperatorSet(tuple(unary), tuple(binary))
    found, bank = enumerate_bounded(s, ops, max_size)
    ref_found, ref_bank = reference_enumerate(s, ops, max_size)
    assert found == ref_found
    assert bank.by_size == ref_bank.by_size
    assert (bank.n_generated, bank.n_pruned) == (ref_bank.n_generated, ref_bank.n_pruned)


def test_an_operator_set_takes_declaration_order_whatever_it_is_given():
    given = OperatorSet(("G", "F"), ("|", "&"))
    named = OperatorSet.from_names(["F", "G", "&", "|"])
    assert given == named
    assert given.names() == named.names() == ("F", "G", "&", "|")


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
