import ast
import random
from bisect import insort
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltlflearn.benchgen import TaskSpec, gen_task
from ltlflearn.boolcover import (
    BscInstance,
    NoSolution,
    Witness,
    _admit,
    _DominationPools,
    _restricted,
    _undominated,
    beam_search,
    collapse,
    div_conq,
    existence_check,
    reconstruct,
    reduce_instance,
)
from ltlflearn.deadlines import DEADLINE_STRIDE, DeadlineReached, split_runs
from ltlflearn.enumeration import enumerate_bounded, formula_of
from ltlflearn.formulas import DEFAULT_OPERATORS, And, Atom, Finally, Or
from ltlflearn.pipeline import separates
from ltlflearn.traces import Alphabet, Sample, Trace

from conftest import (
    HeapPools,
    bank_from_formulas,
    base_set_scores,
    built_during,
    dominates,
    exact_undominated,
    frontier_of,
    instance,
    inter,
    is_solution_combination,
    labelled,
    leaf,
    nodes_of,
    pool_dominated,
    reference_beam,
    reference_collapse,
    reference_sat,
    reference_undominated,
    rows_of,
    sat_and_weight,
    sat_bits,
    union,
    union_shaped_sample,
    weight_of,
    witness_solution,
)


def mask(*rows: int) -> int:
    out = 0
    for r in rows:
        out |= 1 << r
    return out


def worked_instance() -> BscInstance:
    # P = rows 0..2, N = rows 3..5; three unit-weight sets whose only
    # minimal cover is the first set union the other two intersected.
    return instance(3, 3, [(mask(0), 1), (mask(1, 2, 5), 1), (mask(0, 1, 2, 4), 1)])


# --- instances and combinations ----------------------------------------------

def test_instance_masks():
    inst = worked_instance()
    assert inst.pos_mask == 0b000111
    assert inst.neg_mask == 0b111000
    assert inst.base_sets[1] == (mask(1, 2, 5), 1, (mask(1, 2, 5), 1, None, None))
    assert leaf(inst, 1) is inst.base_sets[1][2]
    # Masked to the rows, in the leaf too.
    assert instance(1, 1, [(0b111, 1)]).base_sets == ((0b11, 1, (0b11, 0, None, None)),)


def test_combination_weights():
    # The weight is the size of the reconstructed formula.
    # Each leaf is labelled with a formula of its weight.
    inst = instance(1, 1, [(0b01, 3), (0b11, 1)], [Finally(Finally(Atom(0))), Atom(1)])
    a, b = labelled(inst, Finally(Finally(Atom(0)))), labelled(inst, Atom(1))
    assert weight_of(None, inst) == 0
    assert weight_of(a, inst) == 3
    assert weight_of(union(a, b), inst) == 5
    comb = inter(union(a, a), a)
    assert weight_of(comb, inst) == 11
    assert reconstruct(comb, inst).size == 11


def test_combination_carries_its_rows():
    # A combination carries its rows: union and intersection of its
    # children's, with no evaluation afterwards.
    inst = worked_instance()
    comb = union(leaf(inst, 0), inter(leaf(inst, 1), leaf(inst, 2)))
    assert comb[0] == rows_of(comb, inst) == 0b000111
    assert is_solution_combination(comb, inst)
    assert rows_of(None, inst) == 0


def test_deep_combination_carries_its_rows():
    inst = instance(1, 1, [(1, 1)])
    comb = leaf(inst, 0)
    for _ in range(5000):
        comb = union(comb, leaf(inst, 0))
    assert comb[0] == rows_of(comb, inst) == 1


def test_sat_bits_counts_both_sides():
    # eval covers pos row 0 and neg row 2: correct on 0, wrong on 2.
    assert sat_bits(0b101, pos_mask=0b011, neg_mask=0b100) == 0b001
    assert sat_bits(0b011, pos_mask=0b011, neg_mask=0b100) == 0b111


@given(st.lists(st.sampled_from("pn-"), max_size=12), st.integers(0, (1 << 16) - 1))
@settings(max_examples=300)
def test_sat_bits_is_the_covered_positives_and_the_excluded_negatives(kinds, bits):
    # Each of the first rows is a positive, a negative or no row of the
    # instance (as after a split); `bits` also has bits outside the rows.
    pos_mask = mask(*(r for r, kind in enumerate(kinds) if kind == "p"))
    neg_mask = mask(*(r for r, kind in enumerate(kinds) if kind == "n"))
    sat = sat_bits(bits, pos_mask, neg_mask)
    for row in range(16):
        kind = kinds[row] if row < len(kinds) else "-"
        covered, excluded = kind == "p" and bits >> row & 1, kind == "n" and not bits >> row & 1
        assert sat >> row & 1 == (covered or excluded)
    assert sat >> 16 == 0
    assert sat == reference_sat(bits, pos_mask, neg_mask)


# --- collapse ------------------------------------------------------------------

def test_collapse_keeps_smallest_per_vector():
    # a and F a have equal vectors on this sample but different tables.
    s = Sample(Alphabet(("a",)), (Trace((1, 0, 1)),), (Trace((0, 0, 0)),))
    bank = bank_from_formulas(s, [Atom(0), Finally(Atom(0))])
    assert len(bank) == 2
    inst, stats = collapse(bank, s)
    assert stats["n_formulas"] == 2
    assert stats["n_base_sets"] == 1
    assert stats["collapse_ratio"] == 2.0
    # members, weight, and the leaf: the members before the entry's op and children
    assert inst.base_sets == ((0b01, 1, (0b01, Atom(0), None, None)),)
    assert (inst.pos_mask, inst.neg_mask) == (0b01, 0b10)


@pytest.mark.parametrize("source", ["union", 0, 1, 2, 3])
def test_collapse_matches_the_reference_collapse(source):
    # The leaves are the bank's back-pointers; the reference reads built
    # formulas through bank.entries().
    if source == "union":
        sample, max_size = union_shaped_sample(), 8
    else:
        spec = TaskSpec("random-boolcomb", 2, trace_len=16, n_pos=8, n_neg=8,
                        seed=source, params={"n_patterns": 2})
        sample, max_size = gen_task(spec), 6
    found, bank = enumerate_bounded(sample, DEFAULT_OPERATORS, max_size)
    assert found is None
    inst, stats = collapse(bank, sample)
    expected, expected_stats = reference_collapse(bank)
    assert [(m, w, formula_of(leaf, {})) for m, w, leaf in inst.base_sets] == expected
    assert all(leaf[0] == m for m, _, leaf in inst.base_sets)
    assert inst.pos_mask == (1 << sample.n_pos) - 1
    assert inst.neg_mask == ((1 << sample.n_neg) - 1) << sample.n_pos
    assert stats == expected_stats


def test_collapse_rejects_empty_bank():
    s = Sample(Alphabet(("a",)), (Trace((1,)),), ())
    with pytest.raises(ValueError):
        collapse(bank_from_formulas(s, []), s)


# --- lightest first ------------------------------------------------------------

def lightest_first(sets) -> bool:
    weights = [weight for _, weight, _ in sets]
    return weights == sorted(weights)


def half_of(mask: int, rng: random.Random) -> int:
    """A random half of the mask's rows, one row at least."""
    rows = [r for r in range(mask.bit_length()) if mask >> r & 1]
    return sum(1 << r for r in rng.sample(rows, max(1, len(rows) // 2)))


# (members, weight) pairs over at most 8 rows, with many equal weights.
WEIGHTED_PAIRS = st.lists(st.tuples(st.integers(0, 255), st.integers(1, 4)), max_size=14)


@given(st.integers(1, 4), st.integers(1, 4), WEIGHTED_PAIRS, st.integers(1, 3),
       st.integers(2, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
# Every weight twice, heaviest first: the sort moves every set.
@example(2, 2, [(0b0101, 3), (0b0110, 3), (0b1001, 2), (0b1010, 2), (0b0011, 1), (0b1100, 1)],
         1, 6, 0)
def test_instances_keep_their_base_sets_lightest_first(n_pos, n_neg, pairs, k, max_weight, seed):
    rng = random.Random(seed)
    inst = instance(n_pos, n_neg, pairs)
    # Sorted stably: the sets of one weight keep the order of their pairs.
    assert [leaf[1] for _, _, leaf in inst.base_sets] == sorted(
        range(len(pairs)), key=lambda i: pairs[i][1])
    assert lightest_first(reduce_instance(inst, k).base_sets)
    # Restrictions to ever fewer rows, as the splits of `div_conq` chain them.
    pos_mask, neg_mask, sets = inst.pos_mask, inst.neg_mask, inst.base_sets
    while pos_mask.bit_count() + neg_mask.bit_count() > 2:
        if pos_mask.bit_count() >= neg_mask.bit_count():
            pos_mask = half_of(pos_mask, rng)
        else:
            neg_mask = half_of(neg_mask, rng)
        sets = _restricted(sets, pos_mask, neg_mask, k)
        assert lightest_first(sets)
    # An instance of the sets in any order is its sorted twin, so the
    # cover phase answers and counts alike on both.
    triples = list(inst.base_sets)
    rng.shuffle(triples)
    shuffled = BscInstance(inst.pos_mask, inst.neg_mask, tuple(triples))
    twin = BscInstance(inst.pos_mask, inst.neg_mask, tuple(sorted(triples, key=lambda t: t[1])))
    runs = []
    for view in (shuffled, twin):
        stats = {}
        found = beam_search(view, 3, max_weight, k, None, stats)
        split = div_conq(view, seed=seed, beam_width=3, max_weight=max_weight,
                         domination_k=k, stats=stats)
        runs.append((found, split, stats))
    assert runs[0] == runs[1]


# --- existence ------------------------------------------------------------------

def test_empty_family_gives_the_trivial_witness():
    inst = instance(1, 1, [])
    assert existence_check(inst) == Witness(0, 0)


@pytest.mark.parametrize("n_pos,n_neg", [(0, 2), (2, 0), (0, 0)])
def test_an_instance_needs_both_classes(n_pos, n_neg):
    # learn answers a one-class sample with true or false itself.
    with pytest.raises(ValueError, match="a positive and a negative row"):
        instance(n_pos, n_neg, [(0b11, 1)])


def test_inseparable_pair_is_reported():
    # every set containing p0 also contains n0 (row 1)
    inst = instance(1, 2, [(mask(0, 1), 1), (mask(0, 1, 2), 2)])
    assert existence_check(inst) == Witness(0, 0)


def test_separable_instance_passes():
    assert existence_check(worked_instance()) is None


def test_existence_check_checks_the_deadline_once_per_positive_row(monkeypatch):
    calls = []
    monkeypatch.setattr("ltlflearn.boolcover.check_deadline", calls.append)
    assert existence_check(worked_instance(), deadline=123.0) is None
    assert calls == [123.0] * 3


def test_witness_solution_is_valid_but_heavy():
    inst = worked_instance()
    theta = witness_solution(inst)
    assert is_solution_combination(theta, inst)
    assert weight_of(theta, inst) >= 5


# --- domination ------------------------------------------------------------------

def tagged_instance(pool) -> BscInstance:
    """Base sets from (members, weight) pairs over 4 positives and 4
    negatives; their leaves' labels, the indices, keep twins apart."""
    return instance(4, 4, pool)


def kept_indices(inst: BscInstance, k: int) -> list[int]:
    """The positions in inst of the base sets the reduction keeps, found
    by their leaves' labels."""
    at = {leaf[1]: i for i, (_, _, leaf) in enumerate(inst.base_sets)}
    return [at[leaf[1]] for _, _, leaf in reduce_instance(inst, k).base_sets]


def test_dominates_needs_weight_and_sat():
    # Set 0 has both positives and no negative; set 1 one positive.
    lighter = instance(2, 1, [(0b011, 1), (0b001, 2)])
    assert reduce_instance(lighter, 10).base_sets == lighter.base_sets[:1]
    heavier = instance(2, 1, [(0b011, 2), (0b001, 1)])
    assert reduce_instance(heavier, 10).base_sets == heavier.base_sets
    big, small = base_set_scores(lighter)
    assert dominates(big, small)
    assert not dominates(small, big)
    assert dominates(big, big)


def test_exact_reduction_keeps_first_of_ties():
    inst = instance(2, 1, [(0b001, 1), (0b001, 1)])
    for k in (1, 2):
        assert kept_indices(inst, k) == [0]  # the mutually dominating twin goes
    assert exact_undominated(base_set_scores(inst)) == [0]


POOLS = st.lists(
    st.tuples(st.integers(0, 255), st.integers(1, 6)), min_size=1, max_size=24
)
# Draws with replacement from a few distinct sets: many exact twins.
POOLS_WITH_TWINS = st.lists(
    st.tuples(st.integers(0, 255), st.integers(1, 3)), min_size=1, max_size=6
).flatmap(lambda base: st.lists(st.sampled_from(base), min_size=1, max_size=24))


@given(POOLS)
@settings(max_examples=200)
def test_exact_reduction_is_an_antichain_with_dominating_survivors(pool):
    inst = tagged_instance(pool)
    items = base_set_scores(inst)
    kept = kept_indices(inst, len(pool))
    for i in kept:
        for j in kept:
            if i != j:
                assert not dominates(items[j], items[i])
    for i, item in enumerate(items):
        if i not in kept:
            assert any(dominates(items[j], item) for j in kept)


@given(POOLS)
@settings(max_examples=200)
def test_pool_reduction_monotone_in_k_and_exact_at_full_k(pool):
    inst = tagged_instance(pool)
    sizes = [len(kept_indices(inst, k)) for k in range(1, len(pool) + 1)]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert kept_indices(inst, len(pool)) == exact_undominated(base_set_scores(inst))


@given(POOLS)
@settings(max_examples=100)
def test_pool_reduction_is_sound_for_every_k(pool):
    inst = tagged_instance(pool)
    exact_kept = set(exact_undominated(base_set_scores(inst)))
    for k in (1, 2, 5):
        assert exact_kept <= set(kept_indices(inst, k))  # never drops an undominated set


@given(POOLS_WITH_TWINS)
@settings(max_examples=200)
def test_pool_reduction_equals_the_oracle_at_full_k(pool):
    pos_mask, neg_mask = 0x0F, 0xF0
    triples = [(m, w, i) for i, (m, w) in enumerate(pool)]
    kept = _undominated(triples, pos_mask, neg_mask, len(pool))
    items = [(reference_sat(m, pos_mask, neg_mask), w) for m, w in pool]
    assert [i for _, _, i in kept] == exact_undominated(items)


# Families of up to 30 sets over at most 8 rows, drawn from a few member
# sets: repeated sats and many tied scores.
FAMILIES = st.lists(st.integers(0, 255), min_size=1, max_size=6).flatmap(
    lambda members: st.lists(st.tuples(st.sampled_from(members), st.integers(1, 4)), max_size=30)
)


@given(st.integers(1, 4), st.integers(0, 4), st.integers(0, 4), FAMILIES)
@settings(max_examples=300)
@example(2, 3, 0, [(0b101, 1), (0b011, 1), (0b101, 2), (0b001, 1), (0b110, 1)])
# Twins at one weight: pool 1 answers alone, and the tie rule keeps the first.
@example(2, 1, 1, [(0b01, 1), (0b01, 1)])
# A twin across two weights: {p0, p1} at weight 1 loses its one-entry
# pool to {p1, p2, p3}, so only pool 2, which holds the first of the
# twins at weight 2, answers for the second.
@example(1, 4, 0, [(0b0011, 2), (0b1110, 1), (0b0011, 1), (0b0011, 2)])
def test_undominated_keeps_what_the_one_set_at_a_time_reference_keeps(k, n_pos, n_neg, family):
    # With a stride of 3 both passes check the deadline several times,
    # most often inside one weight's entries.
    pos_mask = (1 << n_pos) - 1
    neg_mask = ((1 << n_neg) - 1) << n_pos
    sets = [(members, weight, i) for i, (members, weight) in enumerate(family)]
    expected = reference_undominated(sets, pos_mask, neg_mask, k)
    for stride in (DEADLINE_STRIDE, 3):
        calls = []
        with mock.patch("ltlflearn.boolcover.DEADLINE_STRIDE", stride), \
                mock.patch("ltlflearn.boolcover.check_deadline", calls.append):
            assert _undominated(sets, pos_mask, neg_mask, k, 1.0) == expected
        assert len(calls) == 2 * (len(sets) // stride)


def pool_entries(pools: _DominationPools) -> set[tuple[int, int, int]]:
    """Every (weight, seq, sat) the pools hold, after checking their order:
    each pool best first and at most k long."""
    for pool in pools.pools.values():
        assert pool == sorted(pool) and len(pool) <= pools.k
        assert all(-neg_score == sat.bit_count() for neg_score, _, sat, _ in pool)
    return {(w, seq, sat) for w, pool in pools.pools.items() for _, seq, sat, _ in pool}


def pool_add(pools: _DominationPools, weight: int, sat: int, seq: int) -> None:
    """Admit sat at weight, with a seq newer than any before, through the
    beam's own `_admit` and a scratch queue: a pool with room takes it in
    its next slot; a full one only a strictly higher score than its last
    entry's, which it drops, and the new entry takes over that slot. The
    pools keep no query to outdate: each is built afresh from the lists."""
    rep, guards, notkept = pools.query(frontier_of(pools, weight), weight)
    pool = pools.pools.setdefault(weight, [])
    _admit(pools, pool, [], 1, sat.bit_count(), seq, sat, (), rep, guards, notkept)


def beam_hits(pools: _DominationPools, weight: int, sat: int) -> int:
    """The beam's inline test of sat at weight: `pool_dominated` without
    its tie rule."""
    rep, guards, notkept = pools.query(frontier_of(pools, weight), weight)
    return (guards - (sat * rep & notkept)) & guards


def rows_of_candidates(candidates) -> int:
    """The union of the candidates' sats: rows wide enough for all of them."""
    rows = 0
    for _, sat, _ in candidates:
        rows |= sat
    return rows


# (weight, sat, forced add) draws over a few sat sets of 6 rows: many
# twins and many equal scores.
CANDIDATES = st.lists(st.integers(0, 63), min_size=1, max_size=6).flatmap(
    lambda sats: st.lists(
        st.tuples(st.integers(1, 4), st.sampled_from(sats), st.booleans()), max_size=40
    )
)


# (weight, sat, forced add) draws over a few sat sets of 30 to 100 rows,
# so that packed frontier slots straddle CPython's 30-bit int digits;
# each sat is a drawn set, or a subset or superset of one, so that
# domination happens.
WIDE_CANDIDATES = st.integers(30, 100).flatmap(
    lambda rows: st.lists(st.integers(0, (1 << rows) - 1), min_size=1, max_size=4).flatmap(
        lambda sats: st.lists(
            st.tuples(
                st.integers(1, 4),
                st.builds(
                    lambda sat, other, how: (sat, sat & other, sat | other)[how],
                    st.sampled_from(sats), st.integers(0, (1 << rows) - 1), st.integers(0, 2),
                ),
                st.booleans(),
            ),
            max_size=40,
        )
    )
)


def answer_halves_like_the_oracle(pools, oracle, weight, sat, seq):
    # Guard bits from `top` up are the lighter entries', those below pool W's.
    hits = pool_dominated(pools, weight, sat, seq)
    assert (hits >= pools.top) == oracle.lighter_dominates(weight, sat)
    assert (hits % pools.top != 0) == oracle.pool_dominates(weight, sat, seq)


def answer_like_the_oracle_as_the_beam_uses_them(k, candidates):
    # The beam asks first and adds what is not dominated under the next
    # seq; a forced add also puts dominated entries and twins in. Asked
    # with the newest seq, `pool_dominated` answers like the beam's inline
    # test, even for a twin, which `seen` keeps from that test.
    pools, oracle = _DominationPools(k, rows_of_candidates(candidates)), HeapPools(k)
    seq = 0
    for weight, sat, forced in candidates:
        answer = pool_dominated(pools, weight, sat, seq)
        assert bool(answer) == oracle.dominated(weight, sat, seq)
        assert answer == beam_hits(pools, weight, sat)
        answer_halves_like_the_oracle(pools, oracle, weight, sat, seq)
        if forced or not answer:
            pool_add(pools, weight, sat, seq)
            oracle.add(weight, sat, seq)
            seq += 1
        assert pool_entries(pools) == oracle.entries()


def answer_like_the_oracle_after_all_adds(k, candidates):
    # As in _undominated: every entry goes in, then every entry is asked.
    # `fill` takes a weight's entries at once and keeps what the adds keep.
    rows = rows_of_candidates(candidates)
    pools, filled, oracle = _DominationPools(k, rows), _DominationPools(k, rows), HeapPools(k)
    by_weight = {}
    for seq, (weight, sat, _) in enumerate(candidates):
        pool_add(pools, weight, sat, seq)
        oracle.add(weight, sat, seq)
        by_weight.setdefault(weight, []).append((-sat.bit_count(), seq, sat))
    for weight, entries in by_weight.items():
        filled.fill(weight, entries)
    assert pool_entries(pools) == pool_entries(filled) == oracle.entries()
    for seq, (weight, sat, _) in enumerate(candidates):
        assert bool(pool_dominated(pools, weight, sat, seq)) == oracle.dominated(weight, sat, seq)
        answer_halves_like_the_oracle(pools, oracle, weight, sat, seq)
    for weight, entries in by_weight.items():
        for _, seq, sat in entries:
            assert bool(pool_dominated(filled, weight, sat, seq)) == oracle.dominated(weight, sat, seq)
            answer_halves_like_the_oracle(filled, oracle, weight, sat, seq)
    # Asking with a seq or weight outside the pools too.
    for weight, sat, _ in candidates:
        for w in (weight - 1, weight + 1):
            assert bool(pool_dominated(pools, w, sat, -1)) == oracle.dominated(w, sat, -1)
            assert bool(pool_dominated(pools, w, sat, len(candidates))) == oracle.dominated(
                w, sat, len(candidates))


@given(st.integers(1, 4), CANDIDATES)
@settings(max_examples=300)
def test_pools_answer_like_the_heap_oracle_as_the_beam_uses_them(k, candidates):
    answer_like_the_oracle_as_the_beam_uses_them(k, candidates)


@given(st.integers(1, 4), CANDIDATES)
@settings(max_examples=300)
def test_pools_answer_like_the_heap_oracle_after_all_adds(k, candidates):
    answer_like_the_oracle_after_all_adds(k, candidates)


@given(st.integers(1, 4), WIDE_CANDIDATES)
@settings(max_examples=300)
def test_pools_answer_like_the_heap_oracle_on_wide_sats(k, candidates):
    answer_like_the_oracle_as_the_beam_uses_them(k, candidates)
    answer_like_the_oracle_after_all_adds(k, candidates)


def test_an_empty_frontier_dominates_nothing():
    pools = _DominationPools(2, (1 << 70) - 1)
    assert not pool_dominated(pools, 1, 0, 0)
    pool_add(pools, 3, (1 << 70) - 1, 0)  # heavier than the queries: not in their frontier
    rep, notkept, shift = pools.extend(pools.empty, 1)  # no pool 1: nothing to add
    assert (rep, notkept, shift) == (0, 0, 2 * pools.width)  # its first slot free
    for sat in (0, 1, 1 << 69):
        assert not pool_dominated(pools, 2, sat, 1)


def test_every_lighter_entry_dominates_the_empty_sat():
    for kept in (0, 1, 1 << 64 | 1 << 31):
        pools = _DominationPools(1, (1 << 65) - 1)
        pool_add(pools, 1, kept, 0)
        assert pool_dominated(pools, 2, 0, 1)  # by the packed frontier
        assert pool_dominated(pools, 1, 0, 1)  # by pool 1: a superset or the older twin
    pools = _DominationPools(1, 0)
    pool_add(pools, 1, 0, 0)
    assert not pool_dominated(pools, 1, 0, 0)  # an entry never dominates itself


def test_a_row_above_every_lighter_entry_is_not_dominated():
    # Every slot spans all the rows, not only those of its entries: with
    # slots as wide as kept = 0b01 (one data bit) the packed test would
    # read sat = 0b10 as contained.
    pools = _DominationPools(3, (1 << 100) - 1)
    pool_add(pools, 1, 0b01, 0)
    assert not pool_dominated(pools, 2, 0b10, 1)
    wide = (1 << 40) - 1
    pool_add(pools, 1, wide, 1)
    assert (pools.width, pools.limit) == (101, 1 << 100)
    assert pool_dominated(pools, 2, wide, 2)
    assert not pool_dominated(pools, 2, 1 << 40, 2)
    assert not pool_dominated(pools, 2, 1 << 40 | 1, 2)
    assert not pool_dominated(pools, 2, 1 << 99, 2)


def packed_afresh(pools: _DominationPools, weight: int) -> tuple[int, int]:
    """The rep and notkept of pool W, packed afresh from its list."""
    rep = notkept = 0
    for _, _, sat, slot in pools.pools.get(weight, ()):
        rep |= 1 << slot * pools.width
        notkept |= (pools.limit - 1 ^ sat) << slot * pools.width
    return rep, notkept


def check_slots(pools: _DominationPools, probes) -> None:
    """Each pool's packed part is its list packed afresh, one slot per
    entry over slots 0..len-1, and the frontier of each weight answers
    every probe like the lighter entries, all of them, do."""
    for weight, pool in pools.pools.items():
        assert sorted(slot for *_, slot in pool) == list(range(len(pool)))
        rep, guards, notkept = pools.query(frontier_of(pools, weight), weight)
        assert guards == rep * pools.limit
        assert (rep % pools.top, notkept % pools.top) == packed_afresh(pools, weight)
    for weight in range(1, 6):
        lighter = [kept for w, pool in pools.pools.items() if w < weight for _, _, kept, _ in pool]
        for sat in probes:
            assert (beam_hits(pools, weight, sat) >= pools.top) == any(
                sat & ~kept == 0 for kept in lighter)


def slot_steps(rows: int):
    """(op, weight, sats) steps over a few sets of the rows, with their
    pairwise unions and intersections: many twins, subsets and ties."""
    return st.lists(st.integers(0, rows), min_size=1, max_size=4).map(
        lambda sats: sorted({a & b for a in sats for b in sats} | {a | b for a in sats for b in sats})
    ).flatmap(lambda sats: st.lists(
        st.tuples(st.sampled_from(("add", "fill")), st.integers(1, 4),
                  st.lists(st.sampled_from(sats), min_size=1, max_size=6)),
        max_size=20,
    ))


# (rows, steps) over 6 rows, or over 30 to 100 rows, so that slots
# straddle CPython's 30-bit int digits.
SLOT_CASES = st.one_of(st.just(6), st.integers(30, 100)).flatmap(
    lambda n: st.tuples(st.just((1 << n) - 1), slot_steps((1 << n) - 1)))


@given(st.integers(1, 4), SLOT_CASES)
@settings(max_examples=300)
def test_packed_slots_follow_adds_evictions_and_fills(k, case):
    # A fill takes a step's sats at once into an empty pool; otherwise
    # they are added one at a time, evicting from a full pool. Every
    # check asks each weight over a frontier extended from the lists.
    rows, steps = case
    pools, oracle = _DominationPools(k, rows), HeapPools(k)
    probes, seq = {0, rows}, 0
    for op, weight, sats in steps:
        probes.update(sats)
        if op == "fill" and weight not in pools.pools:
            pools.fill(weight, [(-sat.bit_count(), seq + i, sat) for i, sat in enumerate(sats)])
            for sat in sats:
                oracle.add(weight, sat, seq)
                seq += 1
        else:
            for sat in sats:
                pool_add(pools, weight, sat, seq)
                oracle.add(weight, sat, seq)
                seq += 1
        assert pool_entries(pools) == oracle.entries()
        check_slots(pools, probes)


@given(st.integers(1, 3), st.integers(1, 5), st.one_of(st.just(6), st.integers(30, 100)),
       st.data())
@settings(max_examples=300)
def test_admit_updates_the_packed_query_and_the_floor_in_place(k, beam_width, n_rows, data):
    # Admissions at weight 2, evictions included, over a pool 1 filled
    # first, so the query has a frontier above pool 2's slots. Each is
    # admitted as the beam admits: only over the floor, with the newest
    # seq, the query carried from one admission to the next.
    rows = (1 << n_rows) - 1
    sats = st.integers(0, rows)
    pools, oracle = _DominationPools(k, rows), HeapPools(k)
    lighter = data.draw(st.lists(sats, max_size=4))
    if lighter:
        pools.fill(1, [(-sat.bit_count(), seq, sat) for seq, sat in enumerate(lighter)])
    for seq, sat in enumerate(lighter):
        oracle.add(1, sat, seq)
    seq, floor, admitted = len(lighter), -1, []
    front = pools.extend(pools.empty, 1)
    rep, guards, notkept = pools.query(front, 2)
    pool, queue = pools.pools.setdefault(2, []), []
    for sat in data.draw(st.lists(sats, min_size=1, max_size=12)):
        score = sat.bit_count()
        if score <= floor:
            continue
        floor, rep, guards, notkept = _admit(
            pools, pool, queue, beam_width, score, seq, sat, (seq,), rep, guards, notkept
        )
        oracle.add(2, sat, seq)
        admitted.append((-score, -seq, (seq,)))
        seq += 1
        assert queue == sorted(admitted)[:beam_width]
        assert floor == (-queue[-1][0] if len(queue) == beam_width else -1)
        assert pool_entries(pools) == oracle.entries()
        assert (rep, guards, notkept) == pools.query(front, 2)


def test_pools_reject_a_sat_outside_their_rows():
    # Only `fill` takes sats from outside the pools; the beam admits sats
    # it masked to the instance's rows itself.
    pools = _DominationPools(2, 0b1011)
    pool_add(pools, 1, 0b1011, 0)
    for outside in (0b0100, 0b1111, 1 << 4):
        with pytest.raises(ValueError):
            pools.fill(2, [(-1, 1, 0b1), (-outside.bit_count(), 2, outside)])
    assert pool_entries(pools) == {(1, 0, 0b1011)}


def test_the_pair_loop_drops_the_frontiers_the_seeds_built(monkeypatch):
    # Each seed is asked as it comes, so the seed pass extends a frontier
    # up to weights 3 and 4 here; the pair loop then admits at weight 3
    # in place. The frontier it reads at weight 4 must hold that
    # admission, not what the seeds left. (The instance of the reference
    # example in which {p0, p2, p3, n0} | {p1} evicts a seed at weight 3.)
    inst = instance(4, 1, [(0b11101, 1), (0b00010, 1), (0b00110, 3), (0b00100, 4)])
    phase, built, read, seeded = ["seeds"], [], [], {}

    class Pools(_DominationPools):
        def __init__(self, k, rows):
            super().__init__(k, rows)
            built.append(self)

        def query(self, front, weight):
            if phase[0] == "pairs":
                lighter = [kept for w, pool in self.pools.items() if w < weight
                           for _, _, kept, _ in pool]
                read.append((weight, front, lighter))
            else:
                seeded[weight] = front
            return super().query(front, weight)

    def check(deadline):
        phase[0] = "pairs"

    monkeypatch.setattr("ltlflearn.boolcover._DominationPools", Pools)
    monkeypatch.setattr("ltlflearn.boolcover.check_deadline", check)
    expected = reference_beam(inst, 2, 7, 1)[0]
    assert beam_search(inst, 2, 7, 1) == expected
    assert [weight for weight, _, _ in read] == [3, 4, 5]
    assert {3, 4} <= set(seeded)
    assert read[1][1] != seeded[4]
    probes = {kept for pool in built[0].pools.values() for _, _, kept, _ in pool} | {
        sat_bits(members, inst.pos_mask, inst.neg_mask) for members, _, _ in inst.base_sets}
    for weight, (rep, notkept, _), lighter in read:
        guards = rep * built[0].limit
        for sat in probes:
            assert ((guards - (sat * rep & notkept)) & guards != 0) == any(
                sat & ~kept == 0 for kept in lighter)


def counting_pools(calls: Counter, built: list):
    """A `_DominationPools` that counts each call of any of its methods
    by (name, weight), the one int it is passed, in the order of first
    calls; each one made is appended to `built`."""

    class Pools(_DominationPools):
        def __init__(self, k, rows):
            super().__init__(k, rows)
            built.append(self)

        def __getattribute__(self, name):
            attr = super().__getattribute__(name)
            if name.startswith("__") or not callable(attr):
                return attr

            def counted(*args):
                calls[name, next(arg for arg in args if isinstance(arg, int))] += 1
                return attr(*args)

            return counted

    return Pools


def test_each_weight_s_query_is_built_once_per_seed_pass_and_reduction(monkeypatch):
    # 60 distinct sets over 10 rows at weights 1-4, none a solution: the
    # seed pass asks about every one, and `_undominated` too. Each reads a
    # weight's packed query once, tests every set at that weight itself
    # and extends its frontier by the pool; no pool method is called per
    # set.
    rng = random.Random(5)
    family = {}
    while len(family) < 60:
        members = rng.getrandbits(10)
        if members != 0b11111:  # not exactly the positives
            family.setdefault(members, rng.randint(1, 4))
    sets = sorted(family.items(), key=lambda pair: pair[1])
    inst = instance(5, 5, sets)
    weights = {1, 2, 3, 4}
    seed_calls, reduce_calls, built = Counter(), Counter(), []
    monkeypatch.setattr("ltlflearn.boolcover._DominationPools", counting_pools(seed_calls, built))
    stats = {}
    assert beam_search(inst, max_weight=2, domination_k=3, stats=stats) is None
    assert stats["beam_candidates"] == 60 and len(built[0].pools) == 4
    assert {name for name, _ in seed_calls} == {"query", "extend"}
    assert all(seed_calls["query", w] == 1 for w in weights)
    # A seed pool extends the seed pass's frontier as the next weight
    # comes, and the pair loop's start if it is lighter than 3.
    assert {w: seed_calls["extend", w] for w in weights} == {1: 2, 2: 2, 3: 1, 4: 0}
    # `_undominated` asks the weights lightest first, whatever the order
    # of the sets.
    monkeypatch.setattr("ltlflearn.boolcover._DominationPools", counting_pools(reduce_calls, built))
    rng.shuffle(sets)
    _undominated([(m, w, i) for i, (m, w) in enumerate(sets)], 0b11111, 0b11111 << 5, 3)
    assert list(reduce_calls) == [(name, w) for w in sorted(weights)
                                  for name in ("fill", "query", "extend")]
    assert set(reduce_calls.values()) == {1}


def test_undominated_checks_the_deadline_every_4096_sets(monkeypatch):
    rng = random.Random(7)
    sets = [(rng.getrandbits(16), rng.randint(1, 8), i) for i in range(10_000)]
    calls = []
    monkeypatch.setattr("ltlflearn.boolcover.check_deadline", calls.append)
    _undominated(sets, 0xFF, 0xFF00, 10, deadline=123.0)
    # One check per 4096 sets in each pass: adding, then asking.
    assert calls == [123.0] * (2 * (len(sets) // 4096))


def test_collapse_checks_the_deadline_every_4096_entries(monkeypatch):
    sample = union_shaped_sample()
    _, bank = enumerate_bounded(sample, DEFAULT_OPERATORS, 7)
    calls = []
    monkeypatch.setattr("ltlflearn.boolcover.check_deadline", calls.append)
    _, stats = collapse(bank, sample, deadline=123.0)
    assert stats["n_formulas"] > 2 * 4096
    assert calls == [123.0] * (stats["n_formulas"] // 4096)


def test_reduce_instance_stops_at_a_passed_deadline():
    inst = instance(8, 8, [(m, 1) for m in range(1, 5000)])
    with pytest.raises(DeadlineReached):
        reduce_instance(inst, 10, deadline=0.0)


def test_reduce_instance_drops_dominated_sets():
    inst = instance(2, 1, [
        (0b011, 1),  # dominates everything below
        (0b001, 2),
        (0b011, 3),
    ])
    reduced = reduce_instance(inst, 10)
    assert reduced.base_sets == inst.base_sets[:1]
    assert reduce_instance(inst, len(inst.base_sets)).base_sets == reduced.base_sets
    with pytest.raises(ValueError):
        reduce_instance(inst, 0)
    with pytest.raises(TypeError):
        reduce_instance(inst, None)  # no unbounded mode: exact is k >= any pool


# --- best-first lists --------------------------------------------------------

TIES = [(5, "a"), (3, "b"), (3, "c"), (4, "d")]
LOWEST = [(1, "old"), (1, "new"), (2, "best")]


def seed_pass_lists(adds, beam_width: int, domination_k: int) -> tuple:
    """The (score, name) entries as weight-1 seeds of beams that stop
    after their seed pass, each name's members `score` positives of its
    own; the one negative is in no seed, so no sat contains another. Each
    prefix of the seeds gets a pass of its own. Whether each seed was in
    queue 1 and in pool 1 after its prefix, then the last pass's queue 1
    as names and pool 1 as (name, slot), best first."""
    members = [((1 << score) - 1) << 8 * i for i, (score, _) in enumerate(adds)]
    inst = instance(8 * len(adds), 1, [(m, 1) for m in members])
    names = {m | inst.neg_mask: name for m, (_, name) in zip(members, adds)}
    in_queue, in_pool = [], []
    for end, (_, name) in enumerate(adds, 1):
        lists = {}

        def logged_insort(best, entry):
            lists["queue" if isinstance(entry[2], tuple) else "pool"] = best
            insort(best, entry)

        prefix = BscInstance(inst.pos_mask, inst.neg_mask, inst.base_sets[:end])
        with mock.patch("ltlflearn.boolcover.insort", logged_insort):
            assert beam_search(prefix, beam_width, 2, domination_k) is None
        queue = [adds[leaf[1]][1] for _, _, leaf in lists["queue"]]
        pool = [(names[sat], slot) for _, _, sat, slot in lists["pool"]]
        in_queue.append(name in queue)
        in_pool.append(name in [n for n, _ in pool])
    return in_queue, in_pool, queue, pool


def queue_adds(adds) -> tuple[list[bool], list]:
    """The seed pass's two-entry queue 1, with pools that keep every seed."""
    in_queue, _, queue, _ = seed_pass_lists(adds, 2, len(adds))
    return in_queue, queue


def pool_adds(adds) -> tuple[list[bool], list]:
    """The seed pass's two-entry pool 1, with a queue that keeps every seed."""
    _, in_pool, _, pool = seed_pass_lists(adds, len(adds), 2)
    return in_pool, pool


@pytest.mark.parametrize("adds_to,adds,admitted,kept", [
    # Ties lose against a full list; a strictly higher score evicts the
    # last entry, the lowest score. The list stays best first. The beam
    # admits to both in place: a full queue turns away what scores at or
    # under its floor, and a pool's new entry takes over its evictee's slot.
    pytest.param(queue_adds, TIES, [True, True, False, True], ["a", "d"], id="queue-ties-lose"),
    pytest.param(pool_adds, TIES, [True, True, False, True], [("a", 0), ("d", 1)],
                 id="pool-ties-lose"),
    # Among the lowest, a queue evicts the oldest, a pool the newest.
    pytest.param(queue_adds, LOWEST, [True] * 3, ["best", "new"], id="queue-evicts-oldest"),
    pytest.param(pool_adds, LOWEST, [True] * 3, [("best", 1), ("old", 0)],
                 id="pool-evicts-newest"),
])
def test_keep_best_admits_and_evicts_under_both_keys(adds_to, adds, admitted, kept):
    assert adds_to(adds) == (admitted, kept)


# --- beam search ------------------------------------------------------------

def test_beam_finds_single_set_solution_at_seeding():
    inst = instance(2, 1, [(0b011, 4)])
    stats = {}
    assert beam_search(inst, stats=stats) == leaf(inst, 0)
    assert stats["beam_iterations"] == 0


def test_beam_on_the_worked_instance():
    inst = worked_instance()
    comb = beam_search(inst)
    assert comb == union(leaf(inst, 0), inter(leaf(inst, 1), leaf(inst, 2)))
    assert weight_of(comb, inst) == 5


def test_beam_without_budget_returns_none():
    # max_weight 2 forbids any union or intersection (weight >= 3).
    assert beam_search(worked_instance(), max_weight=2) is None


def test_beam_on_empty_family_returns_none():
    assert beam_search(instance(1, 1, [])) is None


def test_beam_stats_are_recorded():
    stats = {}
    beam_search(worked_instance(), stats=stats)
    assert stats["beam_candidates"] > 0


def test_beam_checks_the_deadline_every_4096_candidates(monkeypatch):
    sample = union_shaped_sample()
    _, bank = enumerate_bounded(sample, DEFAULT_OPERATORS, 5)
    inst = reduce_instance(collapse(bank, sample)[0], 10)
    calls = []
    monkeypatch.setattr("ltlflearn.boolcover.check_deadline", calls.append)
    stats = {}
    beam_search(inst, max_weight=12, stats=stats)
    assert (len(inst.base_sets), stats["beam_candidates"], stats["beam_iterations"]) == (
        170, 79442, 10)
    # One check per weight level, plus one before each run of pair
    # candidates (a slice of at most 2048 rights, each taken once for |
    # and & together: 4096 candidates) that would take the count since
    # the last check past 4096: 17 such checks among the 79,272 pair
    # candidates. The 170 seeds are fewer than 4096, so they get no check.
    assert len(calls) == 10 + 17


class AskedRep(int):
    """The `rep` of a packed query at one weight, which logs each sat
    that `sat * rep` tests against it; or-ing a slot in keeps the log."""

    def __new__(cls, value: int, weight: int, log):
        rep = super().__new__(cls, value)
        rep.weight, rep.log = weight, log
        return rep

    def __rmul__(self, sat: int) -> int:
        self.log(self.weight, sat)
        return int(self) * sat

    def __or__(self, other: int) -> "AskedRep":
        return AskedRep(int(self) | other, self.weight, self.log)


def logging_pools(log, built: list):
    """A `_DominationPools` whose packed queries log what they are asked;
    each one made is appended to `built`."""

    class Pools(_DominationPools):
        def __init__(self, k, rows):
            super().__init__(k, rows)
            built.append(self)

        def query(self, front, weight):
            rep, guards, notkept = super().query(front, weight)
            return AskedRep(rep, weight, log), guards, notkept

    return Pools


def test_the_pair_loop_asks_the_lighter_pools_once_per_value(monkeypatch):
    # Once the pair loop fills weight W, no lighter pool changes again
    # and every later frontier holds them, so a value they dominate is
    # dropped for the rest of the beam without another question.
    sample = union_shaped_sample()
    _, bank = enumerate_bounded(sample, DEFAULT_OPERATORS, 5)
    inst = reduce_instance(collapse(bank, sample)[0], 10)
    phase, asked, built = ["seeds"], [], []
    monkeypatch.setattr(
        "ltlflearn.boolcover._DominationPools",
        logging_pools(lambda weight, sat: asked.append((phase[0], weight, sat)), built))
    # The pair loop checks the deadline as each weight starts; the 170
    # seeds are fewer than 4096, so they get no check.
    monkeypatch.setattr(
        "ltlflearn.boolcover.check_deadline", lambda deadline: phase.__setitem__(0, "pairs"))
    stats = {}
    beam_search(inst, max_weight=12, stats=stats)
    assert (stats["beam_candidates"], stats["beam_iterations"]) == (79442, 10)
    # The pools lighter than the weight a pair is asked at were final when
    # it was asked, so the pools as the beam left them give its answer.
    (pools,) = built

    def lighter_dominates(weight, sat):
        return any(sat & ~kept == 0
                   for w, pool in pools.pools.items() if w < weight for _, _, kept, _ in pool)

    pairs = [(sat, lighter_dominates(weight, sat))
             for when, weight, sat in asked if when == "pairs"]
    last = {sat: i for i, (sat, _) in enumerate(pairs)}
    assert all(last[sat] == i for i, (sat, answer) in enumerate(pairs) if answer)
    # The last two weights, 11 and 12, only look for a solution.
    assert max(weight for when, weight, _ in asked if when == "pairs") == 10
    # 244 dominated values, each asked once; asked again at each weight and
    # after each admission, the lighter pools would answer True 347 times.
    assert sum(answer for _, answer in pairs) == 244


def test_the_pair_loop_splits_each_queue_into_runs_at_most_twice(monkeypatch):
    # A queue never changes once its weight is filled, so the pair loop
    # splits its rights into runs once in a beam: the last two weights
    # take their per-side lists from the same runs.
    sample = union_shaped_sample()
    _, bank = enumerate_bounded(sample, DEFAULT_OPERATORS, 5)
    inst = reduce_instance(collapse(bank, sample)[0], 10)
    split = []

    def counted_split_runs(entries, stride, start=0):
        split.append(weight_of(entries[0][0], inst))
        return split_runs(entries, stride, start)

    monkeypatch.setattr("ltlflearn.boolcover.split_runs", counted_split_runs)
    stats = {}
    assert beam_search(inst, max_weight=12, stats=stats) is None
    assert (stats["beam_candidates"], stats["beam_iterations"]) == (79442, 10)
    # Queues 1-8 are rights before weight 11, and queues 5-10 at 11 and 12;
    # split at every (weight, left weight) pair, they would be split 30 times.
    assert Counter(split) == {w: 1 for w in range(1, 11)}


def test_the_last_two_weights_only_look_for_a_solution(monkeypatch):
    # A combination of weight 11 or 12 is never a child at max_weight 12,
    # so the pair loop queues, pools and asks pool W about none of them.
    sample = union_shaped_sample()
    _, bank = enumerate_bounded(sample, DEFAULT_OPERATORS, 5)
    inst = reduce_instance(collapse(bank, sample)[0], 10)
    phase, calls, built = ["seeds"], [], []

    def counted_insort(best, entry):
        # Queues and pools, seeded or admitted in the pair loop, all take
        # their entries by insort.
        if isinstance(entry[2], tuple):  # a queue's combination, not a pool's sat
            calls.append((phase[0], "queue", weight_of(entry[2], inst)))
        else:
            (pools,) = built
            calls.append((phase[0], "pool", next(w for w, p in pools.pools.items() if p is best)))
        insort(best, entry)

    monkeypatch.setattr("ltlflearn.boolcover.insort", counted_insort)
    monkeypatch.setattr(
        "ltlflearn.boolcover._DominationPools",
        logging_pools(lambda weight, sat: calls.append((phase[0], "pool W", weight)), built))
    # The 170 seeds get no deadline check; the pair loop checks as each
    # weight starts.
    monkeypatch.setattr(
        "ltlflearn.boolcover.check_deadline", lambda deadline: phase.__setitem__(0, "pairs"))
    stats = {}
    assert beam_search(inst, max_weight=12, stats=stats) is None
    assert (stats["beam_candidates"], stats["beam_iterations"]) == (79442, 10)
    heaviest = {}
    for when, what, weight in calls:
        if when == "pairs":
            heaviest[what] = max(heaviest.get(what, 0), weight)
    assert heaviest == {"queue": 10, "pool": 10, "pool W": 10}


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.lists(st.tuples(st.integers(0, 255), st.integers(1, 6)), max_size=10),
    st.integers(1, 4),
    st.integers(2, 9),
    st.integers(1, 3),
)
@settings(max_examples=500)
# A full queue of width 1 admits a score just above its minimum.
@example(3, 1, [(0b0001, 4), (0b0100, 1), (0b1011, 2)], 1, 4, 1)
# p0 | p1 reaches the value of the heavier seed {p0, p1}, already queued.
@example(3, 1, [(0b0001, 1), (0b0010, 1), (0b0011, 6)], 4, 3, 2)
# At weight 3, sat 0b110000 is dominated by 0b110010; 0b11011 scores
# higher and evicts it from the one-entry pool, so 0b110000 asked again
# at weight 3 is undominated.
@example(4, 2, [(0b010010, 1), (0b100011, 1), (0b101001, 1)], 4, 8, 1)
# The seed {p2} (weight 4) is dominated at seeding by the lighter seed
# {p1, p2} (weight 3). At weight 3, {p0, p2, p3, n0} | {p1} scores higher
# and evicts that seed from its one-entry pool, so {p2} comes back at
# weight 5 as {p0, p2, p3, n0} & {p1, p2}, undominated: an answer from
# the seeding loop does not hold for the rest of the beam.
@example(4, 1, [(0b11101, 1), (0b00010, 1), (0b00110, 3), (0b00100, 4)], 2, 7, 1)
# The weight-4 seed fills the one-slot queue 4 before the pair loop fills weight 4.
@example(3, 4, [(25, 4), (40, 1), (72, 2)], 1, 8, 1)
# The last two weights only look for a solution. One at max_weight - 1 by & ...
@example(1, 2, [(131, 1), (93, 3), (179, 1), (146, 5), (242, 3), (173, 6)], 1, 6, 1)
# ... and one at max_weight by |, in the second run of rights at stride 6.
@example(4, 4, [(106, 2), (191, 4), (174, 4), (24, 4), (199, 2), (200, 3), (5, 1), (158, 1)],
         4, 6, 3)
# The seeds a and b are complements, so a | b holds on every row and
# a & b on none. Once those two are queued at weight 3, every pair gives
# one of the four queued values: no queue of width 4 fills, the floor
# stays -1 and every other candidate is dropped as already in `seen`.
@example(4, 4, [(0b11001110, 1), (0b00110101, 1)], 4, 8, 1)
# At width 2, a | b and a & b fill queue 3, and then b | a, in `seen` as
# a | b, scores at the floor of the full queue.
@example(4, 3, [(0b0011010, 1), (0b0101101, 1)], 2, 6, 2)
# Seeds out of weight order, which the instance sorts: {p0, p2, n0, n1}
# (weight 1) evicts {p2, n1} from the full pool 1 before the weight-2 seed
# is asked, and dominates the last seed, {p2, n0} at weight 4, through the
# seed pass's frontier.
@example(3, 2, [(210, 2), (76, 1), (133, 1), (52, 4)], 3, 9, 1)
def test_beam_answers_and_counts_like_the_reference_beam(
    n_pos, n_neg, sets, beam_width, max_weight, domination_k
):
    # Small queues fill and evict, heavy seeds fill queues that the pair
    # loop reaches later, and low max_weight ends most beams unsolved. A
    # stride of 6 puts the rights of most weights in several runs; one of
    # 7 does too, in runs of 3 rights, 6 candidates, as a run holds whole
    # rights.
    inst = instance(n_pos, n_neg, sets)
    expected, iterations, n_candidates = reference_beam(inst, beam_width, max_weight, domination_k)
    for stride in (DEADLINE_STRIDE, 6, 7):
        stats = {}
        with mock.patch("ltlflearn.boolcover.DEADLINE_STRIDE", stride):
            got = beam_search(inst, beam_width, max_weight, domination_k, None, stats)
        assert got == expected
        assert (stats["beam_candidates"], stats["beam_iterations"]) == (n_candidates, iterations)


def private_boolcover_imports(source: str) -> list[str]:
    """The `_`-prefixed names that source imports from ltlflearn.boolcover."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "ltlflearn.boolcover"
        for alias in node.names if alias.name.startswith("_")
    ]


def test_the_oracles_share_no_private_code_with_boolcover():
    # reference_beam, HeapQueue and HeapPools judge the beam, its queues
    # and the pools, so conftest takes only public names from boolcover.
    source = "from ltlflearn.boolcover import (\n    BscInstance,\n    _keep_best,\n)"
    assert private_boolcover_imports(source) == ["_keep_best"]
    assert private_boolcover_imports(Path(__file__).with_name("conftest.py").read_text()) == []


def candidates_at_each_check(monkeypatch, run) -> list[int]:
    """The beam's candidate count at each deadline check of `run(stats)`,
    then its final count: check j raises, for j = 1, 2, ... until a run
    ends. A seed's check counts the seed at hand."""
    counts: list[int] = []
    while True:
        calls = []

        def check(deadline):
            calls.append(deadline)
            if len(calls) > len(counts):
                raise DeadlineReached()

        stats = {}
        try:
            with monkeypatch.context() as patch:
                patch.setattr("ltlflearn.boolcover.check_deadline", check)
                run(stats)
        except DeadlineReached:
            counts.append(stats["beam_candidates"])
        else:
            return counts + [stats["beam_candidates"]]


@pytest.mark.parametrize("n_pos,n_neg,sets,beam_width,max_weight,domination_k,op", [
    # Fewer seeds than the stride, rights in two runs of three (six
    # candidates), and the answer in the second run: by & ...
    (1, 4, [(57, 2), (42, 2), (77, 2), (145, 2)], 6, 5, 1, "&"),
    # ... and by |.
    (2, 2, [(84, 1), (224, 1), (162, 1), (145, 1), (253, 1)], 5, 6, 3, "|"),
])
def test_a_short_stride_keeps_the_beam_of_the_reference(
    monkeypatch, n_pos, n_neg, sets, beam_width, max_weight, domination_k, op
):
    monkeypatch.setattr("ltlflearn.boolcover.DEADLINE_STRIDE", 6)
    inst = instance(n_pos, n_neg, sets)
    results = []
    counts = candidates_at_each_check(monkeypatch, lambda stats: results.append(
        beam_search(inst, beam_width, max_weight, domination_k, 1.0, stats)))
    got = results[-1]
    expected, _, n_candidates = reference_beam(inst, beam_width, max_weight, domination_k)
    assert got == expected
    assert got is not None and got[1] == op
    assert counts[-1] == n_candidates
    assert max(b - a for a, b in zip([0] + counts, counts)) <= 6


def test_union_combination_rows_sat_and_weight():
    inst = worked_instance()
    comb = union(leaf(inst, 0), leaf(inst, 1))
    assert comb[0] == mask(0, 1, 2, 5)
    # All positives right, negatives n0 and n1 excluded, n2 admitted.
    assert sat_and_weight(comb, inst) == (mask(0, 1, 2, 3, 4), 3)


# --- divide and conquer -------------------------------------------------------

def random_instance(rng: random.Random) -> BscInstance:
    n_pos = rng.randint(1, 6)
    n_neg = rng.randint(1, 6)
    n_bits = n_pos + n_neg
    pairs = [
        (rng.getrandbits(n_bits) | 1 << rng.randrange(n_bits), rng.randint(1, 5))
        for _ in range(rng.randint(2, 12))
    ]
    return instance(n_pos, n_neg, pairs)


def plant_witness(inst: BscInstance, rng: random.Random) -> BscInstance:
    """Make some (p, n) unseparable by adding n to every set containing p."""
    n_pos = inst.pos_mask.bit_length()
    p = rng.randrange(n_pos)
    n_row = n_pos + rng.randrange(inst.neg_mask.bit_count())
    sets = []
    for members, weight, (_, label, _, _) in inst.base_sets:
        members |= 1 << n_row if members >> p & 1 else 0
        sets.append((members, weight, (members, label, None, None)))
    return BscInstance(inst.pos_mask, inst.neg_mask, tuple(sets))


def witness_is_correct(w: Witness, inst: BscInstance) -> bool:
    p_bit = 1 << w.pos_index
    n_bit = 1 << (inst.pos_mask.bit_length() + w.neg_index)
    return not any(
        members & p_bit and not members & n_bit for members, _, _ in inst.base_sets
    )


@given(st.integers(1, 4), st.integers(1, 4), WEIGHTED_PAIRS, st.integers(1, 3),
       st.integers(0, 255), st.integers(0, 255))
@settings(max_examples=200)
# Restricted to p0 and n0, sets 0 and 1 mask to one vector, set 2 to
# none, and set 3 to a vector that set 0 dominates.
@example(2, 1, [(0b001, 1), (0b011, 2), (0b010, 2), (0b101, 3)], 1, 0b01, 0b1)
def test_restricted_keeps_the_first_set_of_each_masked_vector(
    n_pos, n_neg, pairs, k, pos_rows, neg_rows
):
    # A restriction to some rows of each class, as a split of `div_conq`.
    inst = instance(n_pos, n_neg, pairs)
    pos_mask = inst.pos_mask & pos_rows or inst.pos_mask
    neg_mask = inst.neg_mask & neg_rows << n_pos or inst.neg_mask
    rows = pos_mask | neg_mask
    firsts, vectors = [], set()
    for triple in inst.base_sets:
        vector = triple[0] & rows
        if vector and vector not in vectors:  # a lightest set of its vector
            vectors.add(vector)
            firsts.append(triple)
    got = _restricted(inst.base_sets, pos_mask, neg_mask, k)
    assert got == _undominated(firsts, pos_mask, neg_mask, k)
    assert all(members & rows for members, _, _ in got)


def test_div_conq_solves_every_separable_instance():
    rng = random.Random(11)
    done = 0
    while done < 60:
        inst = random_instance(rng)
        if existence_check(inst) is not None:
            continue
        done += 1
        out = div_conq(inst, seed=done)
        assert not isinstance(out, NoSolution)
        assert is_solution_combination(out, inst)


def test_div_conq_reports_correct_witnesses():
    rng = random.Random(12)
    for i in range(60):
        inst = plant_witness(random_instance(rng), rng)
        out = div_conq(inst, seed=i)
        assert isinstance(out, NoSolution)
        assert witness_is_correct(out.witness, inst)


def test_div_conq_is_deterministic_per_seed():
    rng = random.Random(13)
    inst = random_instance(rng)
    while existence_check(inst) is not None:
        inst = random_instance(rng)
    assert div_conq(inst, seed=5) == div_conq(inst, seed=5)


def test_div_conq_base_case_picks_lightest_separating_set():
    inst = instance(1, 1, [
        (mask(0, 1), 1),  # covers the negative too
        (mask(0), 3),
        (mask(0), 2),
    ])
    out = div_conq(inst, seed=0)
    assert out == labelled(inst, 2)
    # Of equally light sets, the first.
    twins = instance(1, 1, [(mask(0), 2), (mask(0), 1), (mask(0), 1)])
    assert div_conq(twins, seed=0) is labelled(twins, 1)


def test_div_conq_splits_when_the_solver_stalls(monkeypatch):
    # A beam that never solves forces splitting all the way down.
    def stubborn(*args):
        return None

    monkeypatch.setattr("ltlflearn.boolcover.beam_search", stubborn)
    inst = worked_instance()
    stats = {}
    out = div_conq(inst, seed=3, stats=stats)
    assert not isinstance(out, NoSolution)
    assert is_solution_combination(out, inst)
    assert stats["dc_splits"] >= 1
    assert stats["dc_depth"] >= 2


@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.lists(st.tuples(st.integers(1, 1023), st.integers(1, 4)), min_size=1, max_size=10),
    st.integers(2, 9),
    st.integers(0, 3),
)
@settings(max_examples=300)
def test_answers_carry_the_rows_of_their_base_sets(n_pos, n_neg, sets, max_weight, seed):
    # Every node's rows span the whole universe, also below a split,
    # where the subproblems see only some of the rows.
    inst = instance(n_pos, n_neg, sets)
    answers = [beam_search(inst, beam_width=3, max_weight=max_weight)]
    out = div_conq(inst, seed=seed, beam_width=3, max_weight=max_weight)
    if not isinstance(out, NoSolution):
        assert is_solution_combination(out, inst)
        answers.append(out)
    for comb in answers:
        for node in nodes_of(comb, inst):
            assert node[0] == rows_of(node, inst)


# --- reconstruction ------------------------------------------------------------

def test_reconstruct_maps_union_and_inter():
    # F a and F b are size-2 entries of an enumerated bank, so their
    # leaves hold the entries' children, not a seed's formula.
    s = Sample(
        Alphabet(("a", "b")),
        (Trace((0b01, 0b10)), Trace((0b10, 0b01))),
        (Trace((0b01, 0b01)), Trace((0b10, 0b10))),
    )
    found, bank = enumerate_bounded(s, DEFAULT_OPERATORS, 2)
    assert found is None
    inst, _ = collapse(bank, s)
    leaves = {formula_of(leaf, {}): leaf for _, _, leaf in inst.base_sets}
    fa, fb = leaves[Finally(Atom(0))], leaves[Finally(Atom(1))]
    assert fa[1:] == ("F", bank.by_size[1][0], None) and fb[2] is bank.by_size[1][1]
    comb = inter(fa, fb)
    phi = reconstruct(comb, inst)
    assert phi == And(Finally(Atom(0)), Finally(Atom(1)))
    assert phi.size == weight_of(comb, inst) == 5
    comb = union(fa, fb)
    phi = reconstruct(comb, inst)
    assert phi == Or(Finally(Atom(0)), Finally(Atom(1)))
    assert phi.size == weight_of(comb, inst)


def test_reconstruct_rejects_empty():
    inst = worked_instance()
    with pytest.raises(ValueError):
        reconstruct(None, inst)


def test_leaves_name_formulas_not_positions():
    # An answer's leaves are the collapsed instance's own leaves (`is`),
    # also after the reduction drops base sets and after splits restrict
    # and re-reduce them, and reconstruct builds the formula through them.
    sample = union_shaped_sample()
    _, bank = enumerate_bounded(sample, DEFAULT_OPERATORS, 5)
    inst = collapse(bank, sample)[0]
    reduced = reduce_instance(inst, 10)
    assert len(reduced.base_sets) < len(inst.base_sets)
    leaves = {id(leaf) for _, _, leaf in inst.base_sets}
    # max_weight 2 admits no combination: every leaf comes from the 1x1
    # base case; at 9 the beams below the splits solve too.
    for seed, max_weight in [(0, 2), (1, 2), (0, 9), (1, 9), (2, 9)]:
        stats = {}
        out = div_conq(reduced, seed=seed, max_weight=max_weight, stats=stats)
        assert stats["dc_splits"] > 0
        nodes = nodes_of(out, inst)
        assert all(node[1] in ("|", "&") for node in nodes if id(node) not in leaves)
        # Some leaves hold an enumerated entry's children.
        assert any(node[2] is not None for node in nodes if id(node) in leaves)
        phi = reconstruct(out, reduced)
        assert separates(phi, sample)
        assert phi.size == weight_of(out, inst)


def test_collapse_builds_no_formula(monkeypatch):
    sample = union_shaped_sample()
    _, bank = enumerate_bounded(sample, DEFAULT_OPERATORS, 6)
    (inst, _), built = built_during(monkeypatch, lambda: collapse(bank, sample))
    assert len(inst.base_sets) == 580
    assert built == {"atoms": 0, "inner": 0}


def test_worked_base_sets_score_and_all_survive_reduction():
    inst = worked_instance()
    items = base_set_scores(inst)
    assert items[0] == (mask(0, 3, 4, 5), 1)  # one positive right, all three negatives
    assert items[0][0].bit_count() == 4
    # No base set dominates another here: reduction keeps them all, in order.
    assert reduce_instance(inst, 1).base_sets == inst.base_sets
