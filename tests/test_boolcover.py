import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltlflearn.benchgen import TaskSpec, gen_task
from ltlflearn.boolcover import (
    BeamResult,
    BscInstance,
    NoSolution,
    Witness,
    _BoundedQueue,
    _DominationPools,
    _undominated,
    beam_search,
    collapse,
    div_conq,
    existence_check,
    reconstruct,
    reduce_instance,
    sat_bits,
)
from ltlflearn.deadlines import DeadlineReached
from ltlflearn.enumeration import enumerate_bounded
from ltlflearn.formulas import DEFAULT_OPERATORS, And, Atom, Finally, Or
from ltlflearn.traces import Alphabet, Sample, Trace

from conftest import (
    HeapPools,
    bank_from_formulas,
    base_set_scores,
    dominates,
    exact_undominated,
    instance,
    inter,
    is_solution_combination,
    leaf,
    nodes_of,
    reference_beam,
    reference_collapse,
    rows_of,
    sat_and_weight,
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
    assert inst.base_sets[1] == (mask(1, 2, 5), 1, 1)
    assert instance(1, 1, [(0b111, 1)]).base_sets == ((0b11, 1, 0),)  # masked to the rows


def test_combination_weights():
    # The weight is the size of the reconstructed formula.
    inst = instance(1, 1, [(0b01, 3), (0b11, 1)], [Finally(Finally(Atom(0))), Atom(1)])
    a, b = leaf(inst, 0), leaf(inst, 1)
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
    inst = instance(1, 0, [(1, 1)])
    comb = leaf(inst, 0)
    for _ in range(5000):
        comb = union(comb, leaf(inst, 0))
    assert comb[0] == rows_of(comb, inst) == 1


def test_sat_bits_counts_both_sides():
    # eval covers pos row 0 and neg row 2: correct on 0, wrong on 2.
    assert sat_bits(0b101, pos_mask=0b011, neg_mask=0b100) == 0b001
    assert sat_bits(0b011, pos_mask=0b011, neg_mask=0b100) == 0b111


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
    assert inst.base_sets == ((0b01, 1, 0),)  # members, weight, formula index
    assert inst.formulas == (Atom(0),)
    assert (inst.pos_mask, inst.neg_mask) == (0b01, 0b10)


@pytest.mark.parametrize("source", ["union", 0, 1, 2, 3])
def test_collapse_matches_the_reference_collapse(source):
    # Formulas are built from the bank's back-pointers; the reference
    # reads built formulas through bank.entries().
    if source == "union":
        sample, max_size = union_shaped_sample(), 8
    else:
        spec = TaskSpec("random-boolcomb", 2, trace_len=16, n_pos=8, n_neg=8,
                        seed=source, params={"n_patterns": 2})
        sample, max_size = gen_task(spec), 6
    found, bank = enumerate_bounded(sample, DEFAULT_OPERATORS, max_size)
    assert found is None
    inst, stats = collapse(bank, sample)
    expected, expected_stats = reference_collapse(bank, sample)
    assert inst == expected
    assert stats == expected_stats


def test_collapse_rejects_empty_bank():
    s = Sample(Alphabet(("a",)), (Trace((1,)),), ())
    with pytest.raises(ValueError):
        collapse(bank_from_formulas(s, []), s)


# --- existence ------------------------------------------------------------------

def test_empty_family_gives_the_trivial_witness():
    inst = instance(1, 1, [])
    assert existence_check(inst) == Witness(0, 0)


def test_uncovered_positive_with_no_negatives():
    inst = instance(2, 0, [(mask(0), 1)])
    assert existence_check(inst) == Witness(1, None)


def test_inseparable_pair_is_reported():
    # every set containing p0 also contains n0 (row 1)
    inst = instance(1, 2, [(mask(0, 1), 1), (mask(0, 1, 2), 2)])
    assert existence_check(inst) == Witness(0, 0)


def test_separable_instance_passes():
    assert existence_check(worked_instance()) is None


def test_witness_solution_is_valid_but_heavy():
    inst = worked_instance()
    theta = witness_solution(inst)
    assert is_solution_combination(theta, inst)
    assert weight_of(theta, inst) >= 5


# --- domination ------------------------------------------------------------------

def tagged_instance(pool) -> BscInstance:
    """Base sets from (members, weight) pairs over 4 positives and 4
    negatives; their indices keep twins apart."""
    return instance(4, 4, pool)


def kept_indices(inst: BscInstance, k: int) -> list[int]:
    return [i for _, _, i in reduce_instance(inst, k).base_sets]


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
    items = [(sat_bits(m, pos_mask, neg_mask), w) for m, w in pool]
    assert [i for _, _, i in kept] == exact_undominated(items)


def pool_entries(pools: _DominationPools) -> set[tuple[int, int, int]]:
    """Every (weight, seq, sat) the pools hold, after checking their order:
    weights heaviest first, each pool best first and at most k long."""
    weights = [w for w, _ in pools.pools]
    assert weights == sorted(set(weights), reverse=True)
    for _, pool in pools.pools:
        assert pool == sorted(pool) and len(pool) <= pools.k
        assert all(-neg_score == sat.bit_count() for neg_score, _, sat in pool)
    return {(w, seq, sat) for w, pool in pools.pools for _, seq, sat in pool}


# (weight, sat, forced add) draws over a few sat sets of 6 rows: many
# twins and many equal scores.
CANDIDATES = st.lists(st.integers(0, 63), min_size=1, max_size=6).flatmap(
    lambda sats: st.lists(
        st.tuples(st.integers(1, 4), st.sampled_from(sats), st.booleans()), max_size=40
    )
)


@given(st.integers(1, 4), CANDIDATES)
@settings(max_examples=300)
def test_pools_answer_like_the_heap_oracle_as_the_beam_uses_them(k, candidates):
    # The beam asks first and adds what is not dominated under the next
    # seq; a forced add also puts dominated entries and twins in.
    pools, oracle = _DominationPools(k), HeapPools(k)
    seq = 0
    for weight, sat, forced in candidates:
        answer = pools.dominated(weight, sat, seq)
        assert answer == oracle.dominated(weight, sat, seq)
        if forced or not answer:
            pools.add(weight, sat, seq)
            oracle.add(weight, sat, seq)
            seq += 1
        assert pool_entries(pools) == oracle.entries()


@given(st.integers(1, 4), CANDIDATES)
@settings(max_examples=300)
def test_pools_answer_like_the_heap_oracle_after_all_adds(k, candidates):
    # As in _undominated: every entry goes in, then every entry is asked.
    pools, oracle = _DominationPools(k), HeapPools(k)
    for seq, (weight, sat, _) in enumerate(candidates):
        pools.add(weight, sat, seq)
        oracle.add(weight, sat, seq)
    assert pool_entries(pools) == oracle.entries()
    for seq, (weight, sat, _) in enumerate(candidates):
        assert pools.dominated(weight, sat, seq) == oracle.dominated(weight, sat, seq)
    # Asking with a seq or weight outside the pools too.
    for weight, sat, _ in candidates:
        for w in (weight - 1, weight + 1):
            assert pools.dominated(w, sat, -1) == oracle.dominated(w, sat, -1)
            assert pools.dominated(w, sat, len(candidates)) == oracle.dominated(
                w, sat, len(candidates))


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
    assert reduced.base_sets == ((0b011, 1, 0),)
    assert reduce_instance(inst, len(inst.base_sets)).base_sets == reduced.base_sets
    with pytest.raises(ValueError):
        reduce_instance(inst, 0)
    with pytest.raises(TypeError):
        reduce_instance(inst, None)  # no unbounded mode: exact is k >= any pool


# --- bounded queues ----------------------------------------------------------

def test_bounded_queue_admission_and_eviction():
    q = _BoundedQueue(2)
    assert q.add(5, 0, "a") and q.add(3, 1, "b")
    assert q.full()
    assert not q.add(3, 2, "c")  # ties lose against a full queue
    assert q.add(4, 3, "d")  # strict improvement evicts the min ("b")
    assert sorted(t[2] for t in q.heap) == ["a", "d"]
    assert q.ordered() == ["a", "d"]  # insertion order


def test_bounded_queue_evicts_oldest_among_lowest():
    q = _BoundedQueue(2)
    q.add(1, 0, "old")
    q.add(1, 1, "new")
    assert q.add(2, 2, "best")
    assert sorted(t[2] for t in q.heap) == ["best", "new"]


# --- beam search ------------------------------------------------------------

def test_beam_finds_single_set_solution_at_seeding():
    inst = instance(2, 1, [(0b011, 4)])
    res = beam_search(inst)
    assert res.is_solution
    assert res.combination == leaf(inst, 0)
    assert res.iterations == 0


def test_beam_on_the_worked_instance():
    inst = worked_instance()
    res = beam_search(inst)
    assert res.is_solution
    assert res.combination == union(leaf(inst, 0), inter(leaf(inst, 1), leaf(inst, 2)))
    assert weight_of(res.combination, inst) == 5


def test_beam_without_budget_returns_best():
    # max_weight 2 forbids any union or intersection (weight >= 3).
    inst = worked_instance()
    res = beam_search(inst, max_weight=2)
    assert not res.is_solution
    assert res.score < (inst.pos_mask | inst.neg_mask).bit_count()


def test_beam_on_empty_family_returns_empty_best():
    inst = instance(1, 1, [])
    res = beam_search(inst)
    assert not res.is_solution
    assert res.combination is None
    assert res.score == 1  # right on the one negative


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
    assert stats["beam_candidates"] > 10 * 4096
    # One check per weight level, plus one per 4096 candidates.
    assert len(calls) == stats["beam_iterations"] + stats["beam_candidates"] // 4096


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
# p0 | p1 ties the heavier seed {p0, p1} as best, with a value already queued.
@example(3, 1, [(0b0001, 1), (0b0010, 1), (0b0011, 6)], 4, 3, 2)
# At weight 3, sat 0b110000 is dominated by 0b110010; 0b11011 scores
# higher and evicts it from the one-entry pool, so 0b110000 asked again
# at weight 3 is undominated.
@example(4, 2, [(0b010010, 1), (0b100011, 1), (0b101001, 1)], 4, 8, 1)
def test_beam_answers_and_counts_like_the_reference_beam(
    n_pos, n_neg, sets, beam_width, max_weight, domination_k
):
    # Small queues fill and evict, heavy seeds leave a best that lighter
    # combinations tie, and low max_weight ends most beams unsolved.
    inst = instance(n_pos, n_neg, sets)
    stats = {}
    got = beam_search(inst, beam_width, max_weight, domination_k, None, stats)
    expected, n_candidates = reference_beam(inst, beam_width, max_weight, domination_k)
    assert got == expected
    assert (stats["beam_candidates"], stats["beam_iterations"]) == (
        n_candidates, expected.iterations)


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
    sets = tuple(
        (members | 1 << n_row if members >> p & 1 else members, weight, i)
        for members, weight, i in inst.base_sets
    )
    return BscInstance(inst.pos_mask, inst.neg_mask, sets, inst.formulas)


def witness_is_correct(w: Witness, inst: BscInstance) -> bool:
    p_bit = 1 << w.pos_index
    if w.neg_index is None:
        return not any(members & p_bit for members, _, _ in inst.base_sets)
    n_bit = 1 << (inst.pos_mask.bit_length() + w.neg_index)
    return not any(
        members & p_bit and not members & n_bit for members, _, _ in inst.base_sets
    )


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
    assert out == leaf(inst, 2)


def test_div_conq_splits_when_the_solver_stalls(monkeypatch):
    # A beam that never solves forces splitting all the way down.
    def stubborn(*args):
        return BeamResult(None, False, 0, 0)

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
    beam = beam_search(inst, beam_width=3, max_weight=max_weight)
    answers = [beam.combination]
    out = div_conq(inst, seed=seed, beam_width=3, max_weight=max_weight)
    if not isinstance(out, NoSolution):
        assert is_solution_combination(out, inst)
        answers.append(out)
    for comb in answers:
        for node in nodes_of(comb):
            assert node[0] == rows_of(node, inst)


# --- reconstruction ------------------------------------------------------------

def test_reconstruct_maps_union_and_inter():
    s = Sample(
        Alphabet(("a", "b")),
        (Trace((0b01, 0b10)), Trace((0b10, 0b01))),
        (Trace((0b01, 0b01)), Trace((0b10, 0b10))),
    )
    bank = bank_from_formulas(s, [Finally(Atom(0)), Finally(Atom(1))])
    inst, _ = collapse(bank, s)
    comb = inter(leaf(inst, 0), leaf(inst, 1))
    phi = reconstruct(comb, inst)
    assert phi == And(Finally(Atom(0)), Finally(Atom(1)))
    assert phi.size == weight_of(comb, inst)
    assert reconstruct(union(leaf(inst, 0), leaf(inst, 1)), inst) == Or(
        Finally(Atom(0)), Finally(Atom(1))
    )


def test_reconstruct_rejects_empty():
    inst = worked_instance()
    with pytest.raises(ValueError):
        reconstruct(None, inst)


def test_leaves_name_formulas_not_positions():
    # Set 0, {p1, n1} of weight 2, is dominated by set 1, {p1} of weight 1:
    # the reduction drops it, so every survivor's position is one less
    # than its formula index. The rest is the worked instance.
    inst = instance(3, 3, [(mask(0, 3), 2), (mask(0), 1), (mask(1, 2, 5), 1), (mask(0, 1, 2, 4), 1)],
                    [Atom(i) for i in range(4)])
    reduced = reduce_instance(inst, 10)
    assert [i for _, _, i in reduced.base_sets] == [1, 2, 3]
    beam = beam_search(reduced)
    assert beam.is_solution
    assert reconstruct(beam.combination, reduced) == Or(Atom(1), And(Atom(2), Atom(3)))

    def rows_named(phi):  # Atom(i) stands for base set i of inst
        if isinstance(phi, Atom):
            return inst.base_sets[phi.prop][0]
        left, right = rows_named(phi.left), rows_named(phi.right)
        return left | right if isinstance(phi, Or) else left & right

    for seed in range(4):
        # max_weight 2 admits no combination: div_conq splits down to
        # leaves it picks in its 1x1 base case.
        out = div_conq(reduced, seed=seed, max_weight=2)
        for node in nodes_of(out):
            if node[2] is None:
                assert inst.base_sets[node[1]][0] == node[0]
        phi = reconstruct(out, reduced)
        assert rows_named(phi) == out[0]
        assert out[0] & (inst.pos_mask | inst.neg_mask) == inst.pos_mask


def test_worked_base_sets_score_and_all_survive_reduction():
    inst = worked_instance()
    items = base_set_scores(inst)
    assert items[0] == (mask(0, 3, 4, 5), 1)  # one positive right, all three negatives
    assert items[0][0].bit_count() == 4
    # No base set dominates another here: reduction keeps them all, in order.
    assert reduce_instance(inst, 1).base_sets == inst.base_sets
