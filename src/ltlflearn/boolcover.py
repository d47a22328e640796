"""Boolean set cover over characteristic vectors.

After enumeration, every retained formula contributes a base set: the
rows of the sample (positives first, then negatives) on which it holds,
together with a weight (the formula's size). A solution is a positive
Boolean combination of base sets, built from unions and intersections
only, that evaluates to exactly the positive rows; its weight is the
total leaf weight plus one per connective, which equals the size of the
reconstructed formula (union -> or, intersection -> and).

The cover pipeline: `collapse` builds the instance from a formula
bank (one base set per distinct characteristic vector, carrying the
smallest formula for it), `existence_check` decides solvability by
pairwise separability, domination pruning (`reduce_instance`) shrinks
the family, `beam_search` explores combinations in weight order keeping
the best-scoring few per weight, and `div_conq` splits the instance
when beam search stalls, combining the halves' solutions with a union
(positives split) or intersection (negatives split). `reconstruct`
maps a combination back to a formula.

An instance holds its rows as two masks over the sample and its base
sets as `(members, weight, index)` triples; `formulas[index]` is a
set's source formula. A restriction to fewer rows, by reduction or by a
split, is an instance too, with some of the same triples and the same
`formulas`: members keep their rows over the whole sample, and every
read masks them with the instance's rows.

A combination is a back-pointer, like an enumerated formula: the tuple
`(rows, op, left, right)` of its value over the whole sample, its
connective "|" or "&" and its two children. A leaf is `(members,
index, None, None)`, where `index` names the set's formula, not its
position in any `base_sets`, and None is the empty combination, which
holds on no row. So the rows of every combination are at hand where it
is built, and none is evaluated again.

sat(theta) is the set of rows a combination classifies correctly:
the covered positives plus the excluded negatives. theta2 is dominated
by theta1 when theta1 weighs no more and sat(theta2) is a subset of
sat(theta1); dominated elements can be dropped without losing any
solution, because replacing theta2 by theta1 inside a bigger
combination never shrinks its sat set and never raises its weight.
One mechanism, `_DominationPools`, decides domination everywhere: the
per-weight top-k sat sets it holds are the only dominators consulted,
in instance reduction, in the restrictions of `div_conq` and in the beam.
A query at weight W reads two short lists sorted best first: the
maximal sats of all lighter pools (the frontier of W, built on demand
and dropped when a lighter pool changes), then pool W itself. Since a
superset of sat scores (counts rows) at least as high, each is read
only down to its first entry scoring below the candidate's.

The beam spends most of its time on candidates it then drops. Per
weight it keeps a score floor, below which a candidate can neither
improve the best nor enter its full queue; such candidates, those
that cannot improve the best and are already queued, and those found
dominated at this weight since the pools last changed are counted and
skipped before any bookkeeping.
"""

from __future__ import annotations

import heapq
import random
from bisect import insort
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .deadlines import DEADLINE_STRIDE, check_deadline
from .enumeration import formula_of
from .formulas import Formula, build_binary
from .traces import Sample


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BscInstance:
    """(members, weight, index) base sets over the rows pos_mask | neg_mask."""

    pos_mask: int
    neg_mask: int
    base_sets: tuple[tuple[int, int, int], ...]
    formulas: tuple[Formula, ...]


# ---------------------------------------------------------------------------
# Combinations
# ---------------------------------------------------------------------------

def sat_bits(eval_bits: int, pos_mask: int, neg_mask: int) -> int:
    """Rows classified correctly: covered positives + excluded negatives."""
    return (eval_bits & pos_mask) | (neg_mask & ~eval_bits)


# ---------------------------------------------------------------------------
# Collapse
# ---------------------------------------------------------------------------

def collapse(bank, sample: Sample, deadline: Optional[float] = None) -> tuple[BscInstance, dict]:
    """One base set per distinct characteristic vector of the bank.

    The representative (weight and formula) is the first bank
    formula with that vector; the bank enumerates by increasing size,
    so it is also a smallest one. Only representatives are built from
    the bank's back-pointers. Returns the instance and statistics
    including the collapse ratio |bank| / |base sets|. The deadline is
    checked every DEADLINE_STRIDE bank entries.
    """
    layout = bank.layout
    first = layout.first
    n_formulas = 0
    seen_keys: set[int] = set()
    base: list[tuple[int, int, int]] = []
    formulas: list[Formula] = []
    memo: dict = {}
    for size in sorted(bank.by_size):
        for entry in bank.by_size[size]:
            n_formulas += 1
            if not n_formulas % DEADLINE_STRIDE:
                check_deadline(deadline)
            key = entry[0] & first  # the vector, still spread over the layout
            if key in seen_keys:
                continue
            seen_keys.add(key)
            base.append((layout.vector(key), size, len(base)))
            formulas.append(formula_of(entry, memo))
    if not base:
        raise ValueError("cannot collapse an empty bank")
    pos_mask = (1 << sample.n_pos) - 1
    neg_mask = ((1 << sample.n_neg) - 1) << sample.n_pos
    inst = BscInstance(pos_mask, neg_mask, tuple(base), tuple(formulas))
    stats = {
        "n_formulas": n_formulas,
        "n_base_sets": len(base),
        "collapse_ratio": n_formulas / len(base),
    }
    return inst, stats


# ---------------------------------------------------------------------------
# Existence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    """An unseparable pair: indices into positives / negatives.

    neg_index is None in the degenerate case of a positive no base set
    covers while there are no negatives at all.
    """

    pos_index: int
    neg_index: Optional[int]


def existence_check(inst: BscInstance) -> Optional[Witness]:
    """None if a solution exists; otherwise a witness pair proving none does.

    A solution exists iff every positive p is in some base set and for
    every (p, n) some base set contains p and excludes n. The second
    condition alone is the textbook criterion; the first closes its
    N = ∅ edge case, where it is vacuous yet an uncovered positive can
    never be reached by a positive combination.
    """
    n_pos = inst.pos_mask.bit_length()  # the positives are the low rows
    for p in range(n_pos):
        bit = 1 << p
        inter: Optional[int] = None
        for members, _, _ in inst.base_sets:
            if members & bit:
                inter = members if inter is None else inter & members
        if inter is None:
            return Witness(p, 0 if inst.neg_mask else None)
        # Negatives inside every set containing p.
        bad = (inter & inst.neg_mask) >> n_pos
        if bad:
            return Witness(p, (bad & -bad).bit_length() - 1)
    return None


# ---------------------------------------------------------------------------
# Domination
# ---------------------------------------------------------------------------

class _DominationPools:
    """Per-weight top-k sat sets: the one domination test of the cover phase.

    Each weight's pool keeps the k highest-scoring entries added at that
    weight, the earliest among equal scores, as a list sorted best first
    by (-score, seq); the score of an entry is the popcount of its sat.
    Only pool entries are consulted as dominators: sound (never reports
    an undominated element) but incomplete (may miss a dominator that
    was evicted); with k >= the largest pool it is exact.

    A query at weight W reads the frontier of W, then pool W. The
    frontier is the maximal sats of all entries lighter than W, best
    first: a lighter entry needs no tie rule, and a sat under a
    non-maximal one is also under a maximal one. Pools heavier than W
    are never read. A frontier is built on the first query at its
    weight and dropped when an add changes a lighter pool (or creates
    pool W, which the frontier holds beside it).
    """

    __slots__ = ("k", "pools", "frontiers")

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        # (weight, pool) pairs, heaviest first; each pool holds
        # (-score, seq, sat) triples in ascending order, best first.
        self.pools: list[tuple[int, list[tuple[int, int, int]]]] = []
        # weight -> (frontier of (-score, sat) pairs best first, pool of that weight)
        self.frontiers: dict[int, tuple[list[tuple[int, int]], Sequence]] = {}

    def add(self, weight: int, sat: int, seq: int) -> None:
        """Offer sat at this weight; a full pool keeps its k best.

        The last entry of a full pool, the lowest score and the newest
        among ties, gives way to a better one.
        """
        pools = self.pools
        at = 0
        while at < len(pools) and pools[at][0] > weight:
            at += 1
        entry = (-sat.bit_count(), seq, sat)
        if at == len(pools) or pools[at][0] != weight:
            pools.insert(at, (weight, [entry]))
            stale = weight
        else:
            pool = pools[at][1]
            if len(pool) < self.k:
                insort(pool, entry)
            elif entry < pool[-1]:
                pool.pop()
                insort(pool, entry)
            else:
                return
            stale = weight + 1
        frontiers = self.frontiers
        for w in [w for w in frontiers if w >= stale]:
            del frontiers[w]

    def _frontier(self, weight: int) -> tuple[list[tuple[int, int]], Sequence]:
        """The frontier of this weight and the pool of this weight."""
        frontier: list[tuple[int, int]] = []
        lighter = sorted(
            (neg_score, sat)
            for w, pool in self.pools if w < weight
            for neg_score, _, sat in pool
        )
        # A strict superset scores higher and so comes first; a twin
        # comes right after its first copy.
        for neg_score, sat in lighter:
            if all(sat & ~kept for _, kept in frontier):
                frontier.append((neg_score, sat))
        return frontier, next((pool for w, pool in self.pools if w == weight), ())

    def dominated(self, weight: int, sat: int, seq: int) -> bool:
        """Whether a pool entry weighs no more and its sat contains sat.

        Mutually dominating twins (equal weight and sat) keep the one
        with the smaller seq, so an entry never dominates itself. A
        superset of sat scores at least as high, so the frontier and the
        pool are each read only down to the first entry that scores
        lower than sat.
        """
        neg_score = -sat.bit_count()
        cached = self.frontiers.get(weight)
        if cached is None:
            cached = self.frontiers[weight] = self._frontier(weight)
        frontier, pool = cached
        for kept_neg_score, kept in frontier:
            if kept_neg_score > neg_score:
                break
            if sat & ~kept == 0:
                return True
        for pool_neg_score, pool_seq, pool_sat in pool:
            if pool_neg_score > neg_score:
                break
            if sat & ~pool_sat == 0 and (pool_sat != sat or pool_seq < seq):
                return True
        return False


def _undominated(
    sets: Sequence[tuple[int, int, int]],
    pos_mask: int,
    neg_mask: int,
    k: int,
    deadline: Optional[float] = None,
) -> tuple[tuple[int, int, int], ...]:
    """The (members, weight, index) triples the top-k pools leave standing.

    Every triple enters the pools first, its position as its seq; a
    triple is dropped when a pool entry dominates it. Every dropped
    triple is dominated by a kept one (domination is transitive and the
    tie rule acyclic), so no solution is lost. The deadline is checked
    every DEADLINE_STRIDE triples of each pass.
    """
    pools = _DominationPools(k)
    sats = [sat_bits(members, pos_mask, neg_mask) for members, _, _ in sets]
    for seq, ((_, weight, _), sat) in enumerate(zip(sets, sats), 1):
        if not seq % DEADLINE_STRIDE:
            check_deadline(deadline)
        pools.add(weight, sat, seq)
    kept = []
    for seq, (triple, sat) in enumerate(zip(sets, sats), 1):
        if not seq % DEADLINE_STRIDE:
            check_deadline(deadline)
        if not pools.dominated(triple[1], sat, seq):
            kept.append(triple)
    return tuple(kept)


def reduce_instance(inst: BscInstance, k: int, deadline: Optional[float] = None) -> BscInstance:
    """Instance with the base sets its top-k pools dominate dropped.

    Order is kept. k at least the largest number of base sets of one
    weight makes the reduction exact: the result is an antichain.
    """
    pos_mask, neg_mask = inst.pos_mask, inst.neg_mask
    kept = _undominated(inst.base_sets, pos_mask, neg_mask, k, deadline)
    return BscInstance(pos_mask, neg_mask, kept, inst.formulas)


# ---------------------------------------------------------------------------
# Beam search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BeamResult:
    combination: Optional[tuple]
    is_solution: bool
    score: int
    iterations: int


class _BoundedQueue:
    """AddBounded priority queue: keeps the `capacity` best by score.

    A full queue admits only a strictly higher score than its current
    minimum and evicts the oldest entry among the lowest-scoring.
    """

    __slots__ = ("capacity", "heap")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.heap: list[tuple[int, int, object]] = []  # (score, seq, entry)

    def add(self, score: int, seq: int, entry: object) -> bool:
        if len(self.heap) < self.capacity:
            heapq.heappush(self.heap, (score, seq, entry))
            return True
        if score > self.heap[0][0]:
            heapq.heappushpop(self.heap, (score, seq, entry))
            return True
        return False

    @property
    def min_score(self) -> int:
        return self.heap[0][0]

    def full(self) -> bool:
        return len(self.heap) >= self.capacity

    def ordered(self) -> list:
        """Entries in insertion order."""
        return [t[2] for t in sorted(self.heap, key=lambda t: t[1])]

    def __len__(self) -> int:
        return len(self.heap)


def beam_search(
    inst: BscInstance,
    beam_width: int = 100,
    max_weight: int = 70,
    domination_k: int = 10,
    deadline: Optional[float] = None,
    stats: Optional[dict] = None,
) -> BeamResult:
    """Weight-ordered beam search for a solution combination.

    Seeds per-weight bounded queues with the instance's base sets, then
    combines queue members pairwise under union and intersection,
    weight k+1 from child weights summing to k. Returns immediately on
    a solution; otherwise, once the next weight would exceed max_weight
    (or nothing is left to combine), returns the best explored
    combination: highest score, then lowest weight, then earliest
    discovery.
    """
    if beam_width < 1:
        raise ValueError("beam width must be >= 1")
    posm, negm = inst.pos_mask, inst.neg_mask
    universe = posm | negm
    queues: dict[int, _BoundedQueue] = {}
    seen: set[int] = set()
    pools = _DominationPools(domination_k)
    # Values found dominated at the weight being filled since the last
    # pools.add. Asked again, consider would drop them again: seq and the
    # pools have not moved, and the best cannot take an equal score at
    # the same weight. Not `seen`: an add may evict their dominator.
    dominated: set[int] = set()
    seq = 0
    n_candidates = 0

    # The empty combination is the fallback best: right on all negatives.
    best_comb: Optional[tuple] = None
    best_score = negm.bit_count()
    best_weight = 0
    floor = best_floor = -1  # see the pair loop

    def floors(weight: int) -> tuple[int, int]:
        """(floor, best_floor) for candidates of this weight.

        A candidate scoring at most best_floor cannot improve the best;
        one scoring at most floor is, besides, turned away by its full
        queue (floor is -1 while the queue has room).
        """
        best_floor = best_score if weight >= best_weight else best_score - 1
        queue = queues.get(weight)
        if queue is None or not queue.full():
            return -1, best_floor
        return min(queue.min_score, best_floor), best_floor

    def consider(
        rows: int, sat: int, score: int, weight: int, op, left, right
    ) -> Optional[tuple]:
        """Returns a solution combination, or None after bookkeeping.

        The candidate is (rows, op, left, right), built only once it is
        needed; the caller has counted it and computed its sat and
        score. Whenever the best or the queue changes, the floors of
        this weight follow.
        """
        nonlocal seq, best_comb, best_score, best_weight, floor, best_floor
        if sat == universe:
            return (rows, op, left, right)
        if score > best_score or (score == best_score and weight < best_weight):
            best_comb = (rows, op, left, right)
            best_score = score
            best_weight = weight
            floor, best_floor = floors(weight)
        queue = queues.get(weight)
        if queue is None:
            queue = queues[weight] = _BoundedQueue(beam_width)
        elif queue.full() and score <= queue.min_score:
            return None
        masked = rows & universe
        if masked in seen:
            return None
        if pools.dominated(weight, sat, seq):
            dominated.add(masked)
            return None
        if queue.add(score, seq, (rows, op, left, right)):
            seen.add(masked)
            pools.add(weight, sat, seq)
            dominated.clear()  # the add may have evicted a dominator
            seq += 1
            floor, best_floor = floors(weight)
        return None

    iterations = 0
    try:
        for members, weight, index in inst.base_sets:
            n_candidates += 1
            if not n_candidates % DEADLINE_STRIDE:
                check_deadline(deadline)
            sat = (members & posm) | (negm & ~members)
            found = consider(members, sat, sat.bit_count(), weight, index, None, None)
            if found is not None:
                return BeamResult(found, True, universe.bit_count(), 0)

        k = 2
        while k + 1 <= max_weight and any(len(q) for q in queues.values()):
            check_deadline(deadline)
            iterations += 1
            weight = k + 1
            # Candidates that consider would drop without a trace are
            # counted and skipped: those at or under the floor, those
            # found dominated at this weight since the last add, and
            # those at or under best_floor whose value is already in
            # `seen`. From here on only consider moves the floors.
            floor, best_floor = floors(weight)
            dominated.clear()
            for i in range(1, k // 2 + 1):
                qi = queues.get(i)
                qj = queues.get(k - i)
                if qi is None or qj is None or not len(qi) or not len(qj):
                    continue
                # Only queue k + 1 changes while weight k + 1 is filled.
                rights = qj.ordered()
                for comb1 in qi.ordered():
                    rows1 = comb1[0]
                    for comb2 in rights:
                        rows2 = comb2[0]
                        for op, value in (("|", rows1 | rows2), ("&", rows1 & rows2)):
                            n_candidates += 1
                            if not n_candidates % DEADLINE_STRIDE:
                                check_deadline(deadline)
                            sat = (value & posm) | (negm & ~value)
                            score = sat.bit_count()
                            if score <= floor:
                                continue
                            masked = value & universe
                            if masked in dominated or (score <= best_floor and masked in seen):
                                continue
                            found = consider(value, sat, score, weight, op, comb1, comb2)
                            if found is not None:
                                return BeamResult(found, True, universe.bit_count(), iterations)
            k += 1
        return BeamResult(best_comb, False, best_score, iterations)
    finally:
        # Also on DeadlineReached, so a timed-out run reports how far it got.
        if stats is not None:
            stats["beam_candidates"] = stats.get("beam_candidates", 0) + n_candidates
            stats["beam_iterations"] = stats.get("beam_iterations", 0) + iterations


# ---------------------------------------------------------------------------
# Divide and conquer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoSolution:
    witness: Witness


def _split_mask(mask: int, rng: random.Random) -> tuple[int, int]:
    """Shuffle the rows of the mask and split them n//2 / n - n//2."""
    rows = [i for i in range(mask.bit_length()) if mask >> i & 1]
    rng.shuffle(rows)
    half = len(rows) // 2
    m1 = 0
    for r in rows[:half]:
        m1 |= 1 << r
    return m1, mask ^ m1


def _restricted(
    sets: Sequence[tuple[int, int, int]],
    pos_mask: int,
    neg_mask: int,
    k: int,
    deadline: Optional[float] = None,
) -> tuple[tuple[int, int, int], ...]:
    """Mask the family to a restriction's rows, re-dedup, re-reduce.

    Keeps, per distinct masked vector, the minimal-weight (then first)
    set, with its full members; drops empty vectors; then applies the
    approximate domination reduction. Any set separating a surviving
    (p, n) pair keeps a separating representative: a dominating
    survivor classifies a superset of rows correctly, p and n included.
    """
    view_mask = pos_mask | neg_mask
    out: list[tuple[int, int, int]] = []
    by_vec: dict[int, int] = {}
    for members, weight, index in sets:
        m = members & view_mask
        if m == 0:
            continue
        at = by_vec.get(m)
        if at is None:
            by_vec[m] = len(out)
            out.append((members, weight, index))
        elif weight < out[at][1]:
            out[at] = (members, weight, index)
    return _undominated(out, pos_mask, neg_mask, k, deadline)


def div_conq(
    inst: BscInstance,
    seed: int = 0,
    *,
    beam_width: int = 100,
    max_weight: int = 70,
    domination_k: int = 10,
    deadline: Optional[float] = None,
    stats: Optional[dict] = None,
) -> Union[tuple, NoSolution]:
    """Solve by beam search, splitting the instance when it stalls.

    When the beam's result is not a solution, the larger of P and N
    (P on ties) is split by a seeded shuffle into halves; the first
    half's restriction is solved first, the second is simplified by it
    (positives already covered / negatives already excluded are
    dropped, and if none remain the first solution is returned alone),
    and the two solutions combine with a union (P split) or an
    intersection (N split). The 1-positive/1-negative base case returns
    the minimal-weight separating base set directly, or NoSolution with
    the witness pair; by induction this finds a solution whenever the
    existence check passes.
    """
    rng = random.Random(seed)
    n_pos = inst.pos_mask.bit_length()  # the offset of the negatives' rows

    def recurse(view: BscInstance, depth: int) -> Union[tuple, NoSolution]:
        check_deadline(deadline)
        if stats is not None:
            stats["dc_depth"] = max(stats.get("dc_depth", 0), depth)
        n_p = view.pos_mask.bit_count()
        n_n = view.neg_mask.bit_count()
        if n_p == 1 and n_n == 1:
            best: Optional[tuple[int, int, int]] = None
            for members, weight, index in view.base_sets:
                if members & view.pos_mask and not members & view.neg_mask:
                    if best is None or weight < best[1]:
                        best = (members, weight, index)
            if best is None:
                p_row = view.pos_mask.bit_length() - 1
                n_row = view.neg_mask.bit_length() - 1
                return NoSolution(Witness(p_row, n_row - n_pos))
            return (best[0], best[2], None, None)

        result = beam_search(view, beam_width, max_weight, domination_k, deadline, stats)
        if result.is_solution:
            return result.combination
        if stats is not None:
            stats["dc_splits"] = stats.get("dc_splits", 0) + 1

        split_pos = n_p >= n_n
        half1, half2 = _split_mask(view.pos_mask if split_pos else view.neg_mask, rng)

        def solve(half: int) -> Union[tuple, NoSolution]:
            pos_mask, neg_mask = (half, view.neg_mask) if split_pos else (view.pos_mask, half)
            sets = _restricted(view.base_sets, pos_mask, neg_mask, domination_k, deadline)
            return recurse(BscInstance(pos_mask, neg_mask, sets, inst.formulas), depth + 1)

        first = solve(half1)
        if isinstance(first, NoSolution):
            return first
        # Keep the second half's rows that the first solution gets wrong.
        remaining = half2 & (~first[0] if split_pos else first[0])
        if remaining == 0:
            return first
        second = solve(remaining)
        if isinstance(second, NoSolution):
            return second
        if split_pos:
            return (first[0] | second[0], "|", first, second)
        return (first[0] & second[0], "&", first, second)

    return recurse(inst, 1)


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------

def reconstruct(comb: Optional[tuple], inst: BscInstance) -> Formula:
    """Map a combination back to a formula: leaves to their source
    formulas, "|" to Or, "&" to And. The result's size equals the
    combination's weight."""
    if comb is None:
        raise ValueError("cannot reconstruct the empty combination")
    _, op, left, right = comb
    if left is None:
        return inst.formulas[op]
    return build_binary(op, reconstruct(left, inst), reconstruct(right, inst))
