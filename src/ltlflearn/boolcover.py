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
builds the answer's formula.

An instance holds its rows as two masks over the sample and its base
sets as `(members, weight, leaf)` triples, lightest first: `BscInstance`
sorts them by weight, stably, and every reader of the cover phase
relies on that order. A restriction to fewer rows, by reduction or by a
split, is an instance too, with some of the same triples in the same
order: members keep their rows over the whole sample, and every read
masks them with the instance's rows.

A combination is a back-pointer, like an enumerated formula: the tuple
`(rows, op, left, right)` of its value over the whole sample, its
connective "|" or "&" and its two children; None is the empty one. A
leaf is its set's representative bank entry with the members in front,
so an answer and the enumerated formulas under it are one graph, and
only the answer's formula is built. The rows of every combination are
at hand where it is built, and none is evaluated again.

sat(theta) is the set of rows a combination classifies correctly:
the covered positives plus the excluded negatives. theta2 is dominated
by theta1 when theta1 weighs no more and sat(theta2) is a subset of
sat(theta1); dominated elements can be dropped without losing any
solution, because replacing theta2 by theta1 inside a bigger
combination never shrinks its sat set and never raises its weight.
One mechanism, `_DominationPools`, decides domination everywhere: the
per-weight top-k sat sets it holds are the only dominators consulted,
in instance reduction, in the restrictions of `div_conq` and in the beam.
A query at weight W reads one int, packed in slots as wide as the
instance's rows plus a guard bit: pool W's sats, then the
frontier of W, the lighter sats, each unless one packed before it
contains it. A query is one big-integer subset test, whose guard bits
tell which slots contain the candidate's sat. The frontier of W + 1 is
that of W plus what pool W adds to it once final. Each reader goes
through the weights lightest first, so it carries one running frontier
and extends it after each weight. The test is written out where a set
is asked, as a call per set costs more than the test: in
`_undominated`, and in the beam's seed pass and pair loop. Those admit
through one function, `_admit`, called only on an admission: it puts
the combination in its queue and its sat in pool W, updating W's
packed int in place.

The beam's queues and the pools are one kind of list: per weight the
best few, sorted best first; a full list takes only a strictly higher
score and drops its last entry. A queue holds (-score, -seq, comb) and
so drops the oldest of its lowest score, a pool (-score, seq, sat,
slot) and the newest, whose slot the new entry takes over. Every
admission comes with the newest seq, and the queue's combinations come
out in seq order. So a pool holds the k least of the entries admitted
to it: reduction and the restrictions of `div_conq`, which admit every
set before they ask, fill each pool with one sort.

The seed pass asks about each base set as it comes and admits the ones
no pool entry dominates, with the pair loop's test and `_admit`. It
holds one weight's packed query, updated in place, while its seeds keep
that weight, and extends its frontier by that pool when the next weight
comes. The pair loop, which adds to the seed pools from weight 3 up,
starts from the frontier of the seed pools lighter than 3.

The beam spends most of its time on candidates it then drops, so its
pair loop drops them itself, on their rows masked to the instance, and
builds full rows only for a solution or an admission to a queue. It
drops a value in `seen`, its one memo, before scoring it. `seen` holds
the queued values and those the pools lighter than the weight being
filled dominate: those pools never change again, so the values stay
dominated for the rest of the beam. Each was tested for a solution
before it went in. Then it drops a candidate at or under the floor of
its weight's full queue and, unless it is a solution, one that a pool
entry dominates: one inline subset test of its weight's packed int,
whose guard bits also tell a lighter dominator, which puts the value in
`seen`, from one in pool W. Each of these tests only drops, and none
drops a solution, so their order moves no answer and no count. What
passes them all is admitted: `_admit` updates the queue, its floor and
pool W's list and slot, and the loop adds the value to `seen`.
The loop takes each right once for both of its candidates, | then &:
each value goes through the tests above on its own, so a right whose
two values are in `seen` costs two set lookups. Candidates are counted
once per run of rights, two a right, as in enumeration. A queue is read
only once its weight is filled, and then never changes, so its lefts
and its runs of rights are built once per beam, at its first read.

The last two weights only look for a solution. A combination of weight
w is a child only at weight w + 2 or more, as the other child weighs at
least 1, so nothing the beam would keep at `max_weight - 1` and
`max_weight` is read again: there no queue, pool, floor or `seen` test
runs. A solution's masked rows are exactly the positives, so a pair by
| needs both children free of negatives and one by & needs both to hold
every positive; a left passes at most one of these tests, as no queued
value is a solution, and is tried only against the rights of its run
that pass it too. The runs, their counts and the deadline checks are
those of the other weights, so the first solution and every count stay
as if each candidate had been tried.
"""

from __future__ import annotations

import random
from bisect import insort
from functools import cache
from itertools import compress
from typing import NamedTuple, Optional, Sequence, Union

from .deadlines import DEADLINE_STRIDE, check_deadline, split_runs
from .enumeration import formula_of
from .formulas import Formula, Value
from .traces import Sample


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

class BscInstance(Value):
    """(members, weight, leaf) base sets over the rows pos_mask | neg_mask,
    sorted lightest first, stably; each class has a row (`learn` answers
    a one-class sample itself)."""

    __slots__ = _fields = ("pos_mask", "neg_mask", "base_sets")
    pos_mask: int
    neg_mask: int
    base_sets: tuple[tuple[int, int, tuple], ...]

    def __init__(self, pos_mask: int, neg_mask: int,
                 base_sets: tuple[tuple[int, int, tuple], ...]):
        if not (pos_mask and neg_mask):
            raise ValueError("an instance needs a positive and a negative row")
        object.__setattr__(self, "pos_mask", pos_mask)
        object.__setattr__(self, "neg_mask", neg_mask)
        object.__setattr__(self, "base_sets", tuple(sorted(base_sets, key=lambda t: t[1])))


# ---------------------------------------------------------------------------
# Collapse
# ---------------------------------------------------------------------------

def collapse(bank, sample: Sample, deadline: Optional[float] = None) -> tuple[BscInstance, dict]:
    """One base set per distinct characteristic vector of the bank.

    The representative is the first bank entry with that vector; the
    bank enumerates by increasing size, so it is also a smallest one.
    A base set is (vector, size, leaf), the leaf `(vector, *entry[1:])`;
    no formula is built. Returns the instance and statistics including
    the collapse ratio |bank| / |base sets|. The deadline is checked
    every DEADLINE_STRIDE bank entries.
    """
    layout = bank.layout
    first = layout.first
    n_formulas = 0
    seen_keys: set[int] = set()
    base: list[tuple[int, int, tuple]] = []
    for size in sorted(bank.by_size):
        for entry in bank.by_size[size]:
            n_formulas += 1
            if not n_formulas % DEADLINE_STRIDE:
                check_deadline(deadline)
            key = entry[0] & first  # the vector, still spread over the layout
            if key in seen_keys:
                continue
            seen_keys.add(key)
            members = layout.vector(key)
            base.append((members, size, (members, *entry[1:])))
    if not base:
        raise ValueError("cannot collapse an empty bank")
    pos_mask = (1 << sample.n_pos) - 1
    neg_mask = ((1 << sample.n_neg) - 1) << sample.n_pos
    inst = BscInstance(pos_mask, neg_mask, tuple(base))
    stats = {
        "n_formulas": n_formulas,
        "n_base_sets": len(base),
        "collapse_ratio": n_formulas / len(base),
    }
    return inst, stats


# ---------------------------------------------------------------------------
# Existence
# ---------------------------------------------------------------------------

class Witness(NamedTuple):
    """An unseparable pair: indices into positives / negatives."""

    pos_index: int
    neg_index: int


def existence_check(inst: BscInstance, deadline: Optional[float] = None) -> Optional[Witness]:
    """None if a solution exists; otherwise a witness pair proving none does.

    A solution exists iff for every (p, n) some base set contains p and
    excludes n: the negatives in every set containing p (all of them
    when none does) are unseparable from p. The deadline is checked once
    per positive row, each a pass over every base set.
    """
    n_pos = inst.pos_mask.bit_length()  # the positives are the low rows
    for p in range(n_pos):
        check_deadline(deadline)
        bit = 1 << p
        bad = inst.neg_mask
        for members, _, _ in inst.base_sets:
            if members & bit:
                bad &= members
        if bad:
            return Witness(p, (bad & -bad).bit_length() - 1 - n_pos)
    return None


# ---------------------------------------------------------------------------
# Domination
# ---------------------------------------------------------------------------

class _DominationPools:
    """Per-weight top-k sat sets: the one domination test of the cover phase.

    Each weight's pool is a list of (-score, seq, sat, slot), best first:
    the k highest-scoring entries added at that weight, the earliest among
    equal scores, as every add comes with the newest seq; a full pool
    drops the lowest score, the newest among ties, and the new entry
    takes over its slot. The score of an entry is the popcount of its
    sat. Only pool entries are consulted as dominators: sound (never
    reports an undominated element) but incomplete (may miss a dominator
    that was evicted); with k >= the largest pool it is exact.

    The sats are packed into one int per query, in slots of
    `rows.bit_length() + 1` bits: slot i holds ~sat_i over the data bits,
    below `limit`, under a zero guard bit. With `rep` a 1 at the base of
    each slot in use and `guards` = rep * limit, slot i of `sat * rep &
    notkept` is zero exactly when sat_i contains sat, and only then keeps
    its guard bit in `guards -` it: no borrow crosses a slot. So a query
    at weight W is one subset test of that int (`query`): pool W sits in
    slots 0..k-1 and the frontier of W above them, so guard bits below
    `top` are pool W's and those from `top` up the lighter entries'.
    Heavier pools are never read.

    The frontier of W holds the sats of the entries lighter than W, each
    unless one packed before it contains it, as (rep, notkept, base of
    the next free slot). Its reader carries it, from `empty`, and
    `extend`s it by each pool, lightest first, once the pool is final:
    the pool's entries go in best first (a strict superset scores higher
    and so comes first).

    The pools answer no question themselves: `_undominated` and the seed
    pass and pair loop of `beam_search` read a weight's packed query once
    and write the subset test out, as a call per set costs more than the
    test. `_undominated` fills each pool with one sort (`fill`) before it
    asks. The beam asks and admits in turn: its `_admit` updates pool W's
    list and its packed query in place, keeping the pool's rule above.
    """

    __slots__ = ("k", "rows", "width", "limit", "top", "empty", "pools")

    def __init__(self, k: int, rows: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k, self.rows = k, rows
        self.width = rows.bit_length() + 1
        self.limit = 1 << rows.bit_length()  # a slot's guard bit
        self.top = 1 << k * self.width  # the base of the frontier's first slot
        self.empty = (0, 0, k * self.width)  # the frontier of the lightest weight
        # weight -> pool of (-score, seq, sat, slot) in ascending order, best first
        self.pools: dict[int, list[tuple[int, int, int, int]]] = {}

    def fill(self, weight: int, entries: list[tuple[int, int, int]]) -> None:
        """Fill the empty pool W with the k least of the (-score, seq,
        sat) entries.

        Admitting them one at a time in seq order keeps the same: a full
        pool takes only a strictly higher score than its last entry's, and
        an entry that ties it is newer, so the pool takes exactly the
        entries less than its last.
        """
        best = sorted(entries)[: self.k]
        if any(sat & ~self.rows for _, _, sat in best):
            raise ValueError("a sat outside the rows of the pools")
        self.pools[weight] = [(s, seq, sat, i) for i, (s, seq, sat) in enumerate(best)]

    def extend(self, front: tuple[int, int, int], weight: int) -> tuple[int, int, int]:
        """The frontier `front` with the sats of the final pool W that no
        entry packed before them contains."""
        rep, notkept, shift = front
        guards = rep * self.limit
        for _, _, sat, _ in self.pools.get(weight, ()):
            if not (guards - (sat * rep & notkept)) & guards:
                rep |= 1 << shift
                guards |= self.limit << shift
                notkept |= (self.limit - 1 ^ sat) << shift
                shift += self.width
        return rep, notkept, shift

    def query(self, front: tuple[int, int, int], weight: int) -> tuple[int, int, int]:
        """The (rep, guards, notkept) of a query at weight: pool W in
        slots 0..k-1, over the frontier of W, `front`."""
        rep, notkept, _ = front
        for _, _, sat, slot in self.pools.get(weight, ()):
            rep |= 1 << slot * self.width
            notkept |= (self.limit - 1 ^ sat) << slot * self.width
        return rep, rep * self.limit, notkept


def _undominated(
    sets: Sequence[tuple[int, int, tuple]],
    pos_mask: int,
    neg_mask: int,
    k: int,
    deadline: Optional[float] = None,
) -> tuple[tuple[int, int, tuple], ...]:
    """The (members, weight, leaf) triples the top-k pools leave standing.

    Every triple enters the pools first, its position as its seq; a
    triple is dropped when a pool entry dominates it. Mutually dominating
    twins (equal weight and sat) keep the one with the smaller seq, so a
    triple never dominates itself. Every dropped triple is dominated by a
    kept one (domination is transitive and the tie rule acyclic), so no
    solution is lost.

    The triples are grouped by weight, and then each weight in turn,
    lightest first, fills its pool (`_DominationPools.fill`), builds its
    packed query once over the running frontier, asks its triples, and
    extends the frontier by its pool. The subset test is written out
    here. Its guard bits from `top` up are a lighter dominator's. Only
    when pool W alone answers does the tie rule apply, through a map
    from pool W's sats to their entries' least seq and guard bits. The
    deadline is checked every DEADLINE_STRIDE triples of each pass.
    """
    universe = pos_mask | neg_mask
    pools = _DominationPools(k, universe)
    by_weight: dict[int, list[tuple[int, int, int]]] = {}
    for seq, (members, weight, _) in enumerate(sets, 1):
        if not seq % DEADLINE_STRIDE:
            check_deadline(deadline)
        sat = members & universe ^ neg_mask
        by_weight.setdefault(weight, []).append((-sat.bit_count(), seq, sat))
    kept = [False] * len(sets)
    width, guard, top = pools.width, pools.limit, pools.top
    front = pools.empty
    done = 0
    for weight in sorted(by_weight):
        entries = by_weight[weight]
        pools.fill(weight, entries)
        rep, guards, notkept = pools.query(front, weight)
        twins: dict[int, tuple[int, int]] = {}  # sat -> (least seq, guard bits)
        for _, pool_seq, pool_sat, slot in pools.pools[weight]:  # in seq order per sat
            least, bits = twins.get(pool_sat, (pool_seq, 0))
            twins[pool_sat] = (least, bits | guard << slot * width)
        for _, seq, sat in entries:
            done += 1
            if not done % DEADLINE_STRIDE:
                check_deadline(deadline)
            hits = (guards - (sat * rep & notkept)) & guards
            if 0 < hits < top:  # pool W alone answered: the tie rule applies
                least, bits = twins.get(sat, (seq, 0))
                if least >= seq:  # no older twin: the twins' slots are no hit
                    hits ^= bits
            kept[seq - 1] = not hits
        front = pools.extend(front, weight)
    return tuple(compress(sets, kept))


def reduce_instance(inst: BscInstance, k: int, deadline: Optional[float] = None) -> BscInstance:
    """Instance with the base sets its top-k pools dominate dropped.

    Order is kept, lightest first. k at least the largest number of base
    sets of one weight makes the reduction exact: the result is an
    antichain.
    """
    pos_mask, neg_mask = inst.pos_mask, inst.neg_mask
    kept = _undominated(inst.base_sets, pos_mask, neg_mask, k, deadline)
    return BscInstance(pos_mask, neg_mask, kept)


# ---------------------------------------------------------------------------
# Beam search
# ---------------------------------------------------------------------------

def _admit(
    pools: _DominationPools, pool: list, queue: list, beam_width: int, score: int, seq: int,
    sat: int, comb: tuple, rep: int, guards: int, notkept: int,
) -> tuple[int, int, int, int]:
    """Admit an undominated combination at the weight the beam fills.

    Inserts (-score, -seq, comb) into the queue and trims it to
    beam_width: the caller has tested the floor, so a full queue sorts
    it before its last entry. Admits (-score, seq, sat, slot) to pool
    W, the list `pool`: in the next free slot, or, in a full pool, in
    the slot of its last entry if sat scores strictly higher. The
    packed query (rep, guards, notkept) of W is updated in that slot.
    Returns the queue's floor, or -1 while it has room, and the query.

    A function of the module, not a closure of `beam_search`: it runs
    only on an admission, while a closure would turn the names it
    rebinds into cells that the pair loop reads on every candidate.
    """
    insort(queue, (-score, -seq, comb))
    del queue[beam_width:]
    slot = len(pool)
    if slot < pools.k:
        shift = slot * pools.width
        rep |= 1 << shift
        guards |= pools.limit << shift
        notkept |= (pools.limit - 1 ^ sat) << shift
        insort(pool, (-score, seq, sat, slot))
    elif -score < pool[-1][0]:
        *_, evicted, slot = pool.pop()
        notkept ^= (evicted ^ sat) << slot * pools.width
        insort(pool, (-score, seq, sat, slot))
    floor = -queue[-1][0] if len(queue) >= beam_width else -1
    return floor, rep, guards, notkept


def beam_search(
    inst: BscInstance,
    beam_width: int = 100,
    max_weight: int = 70,
    domination_k: int = 10,
    deadline: Optional[float] = None,
    stats: Optional[dict] = None,
) -> Optional[tuple]:
    """Weight-ordered beam search for a solution combination.

    Seeds per-weight bounded queues with the instance's base sets, then
    combines queue members pairwise under union and intersection,
    weight k+1 from child weights summing to k. Returns the first
    solution found, or None once the next weight would exceed
    max_weight or nothing is left to combine: the beam has stalled.
    Weights max_weight - 1 and max_weight are never children, so there
    the pair loop only looks for a solution and queues nothing. A queue
    is read only after its weight is filled, so it is sorted into
    admission order, masked and split into runs of rights once per
    beam; the last two weights take their per-side lists from those
    runs. The packed domination test is written out in two places here.
    The seed pass reads the base sets lightest first: it asks
    `_DominationPools.query` once per weight, tests each seed against
    it inline, and extends its frontier by the pool when the weight
    changes. Below the last two weights, the pair loop asks it once per
    weight, over a frontier it starts from the seed pools lighter than
    3 and extends after each weight, and takes each right once, testing
    its | value and then its & value against it inline. In both, an
    admission adds the value to `seen` and calls `_admit`, which updates
    the queue and pool W's list and packed slot in place.
    """
    if beam_width < 1:
        raise ValueError("beam width must be >= 1")
    posm, negm = inst.pos_mask, inst.neg_mask
    universe = posm | negm
    # weight -> list of (-score, -seq, comb), best first: a full queue
    # drops the lowest score, the oldest among ties
    queues: dict[int, list[tuple[int, int, tuple]]] = {}
    pools = _DominationPools(domination_k, universe)
    top = pools.top
    # Values dropped for good: the queued ones, and those the pair loop
    # found dominated by the pools lighter than its weight, which never
    # change again. Not a seed's: its lighter dominator may be evicted.
    seen: set[int] = set()
    seq = 0
    n_candidates = 0
    # The score to beat at the weight being filled: its full queue's lowest
    # score, or -1 while the queue has room.
    floor = -1

    # Built on a queue's first read: only queue k + 1 changes while weight
    # k + 1 is filled, and the pair loop reads only lighter queues.
    @cache
    def lefts(weight: int) -> list:
        """The queue in admission order as lefts (comb, masked, side)."""
        built = []
        for _, _, comb in sorted(queues[weight], key=lambda entry: -entry[1]):
            m = comb[0] & universe
            # A left passes at most one test: a queued value is no solution.
            built.append((comb, m, 0 if not m & negm else 1 if m & posm == posm else 2))
        return built

    @cache
    def runs(weight: int) -> list:
        """The queue's lefts as runs of rights, each with its count of
        candidates: two a right, | then &."""
        return [(run, 2 * n) for run, n in split_runs(lefts(weight), DEADLINE_STRIDE // 2)]

    @cache
    def tail_runs(weight: int) -> list:
        """The runs at the last two weights: per side of a left, the
        rights that can complete a solution, each with its candidate's
        place in the run: by | with a left free of negatives (side 0), by &
        with a left holding every positive (side 1). A right's own side
        says which, as a queued value is no solution."""
        return [
            ([[(2 * at + side, right) for at, right in enumerate(run) if right[2] == side]
              for side in (0, 1)] + [()], count)
            for run, count in runs(weight)
        ]

    iterations = 0
    try:
        front = pools.empty  # the frontier of the seed pools lighter than `held`
        held = None  # the weight whose packed query the seed pass holds
        for members, weight, leaf in inst.base_sets:
            n_candidates += 1
            if not n_candidates % DEADLINE_STRIDE:
                check_deadline(deadline)
            masked = members & universe
            sat = masked ^ negm
            if sat == universe:
                return leaf
            score = sat.bit_count()
            queue = queues.setdefault(weight, [])
            if masked in seen or len(queue) >= beam_width and score <= -queue[-1][0]:
                continue  # in `seen`, or at or under the full queue's floor
            if weight != held:  # a heavier weight: no seed joins pool `held` again
                if held is not None:
                    front = pools.extend(front, held)
                held = weight
                pool = pools.pools.setdefault(weight, [])
                rep, guards, notkept = pools.query(front, weight)
            # As in the pair loop: every pool W entry is older than seq,
            # and `seen` has dropped a twin of one, so no tie rule applies.
            if not (guards - (sat * rep & notkept)) & guards:
                _, rep, guards, notkept = _admit(
                    pools, pool, queue, beam_width, score, seq, sat, leaf, rep, guards, notkept
                )
                seen.add(masked)
                seq += 1

        # The pair loop adds to the seed pools from weight 3 up, so its
        # frontier starts from the lighter ones.
        front = pools.empty
        for weight in sorted(w for w in pools.pools if w < 3):
            front = pools.extend(front, weight)
        k = 2
        while k + 1 <= max_weight and any(queues.values()):
            check_deadline(deadline)
            limit = n_candidates + DEADLINE_STRIDE  # no run may take the count past it unchecked
            iterations += 1
            weight = k + 1
            # A combination of this weight is a child only at weight + 2 or
            # more, so at the last two weights only a solution matters.
            tail = weight + 2 > max_weight
            # Seeds of this weight may have filled its queue already.
            queue = queues.setdefault(weight, [])
            floor = -queue[-1][0] if len(queue) >= beam_width else -1
            if not tail:
                pool = pools.pools.setdefault(weight, [])
                rep, guards, notkept = pools.query(front, weight)
            for i in range(1, k // 2 + 1):
                if not queues.get(i) or not queues.get(k - i):
                    continue
                right_runs = tail_runs(k - i) if tail else runs(k - i)
                for comb1, m1, side in lefts(i):
                    rows1 = comb1[0]
                    for run, count in right_runs:
                        if n_candidates + count > limit:
                            check_deadline(deadline)
                            limit = n_candidates + DEADLINE_STRIDE
                        if tail:
                            for at, (comb2, m2, _) in run[side]:
                                if (m1 & m2 if side else m1 | m2) == posm:
                                    n_candidates += at + 1
                                    if side:
                                        return (rows1 & comb2[0], "&", comb1, comb2)
                                    return (rows1 | comb2[0], "|", comb1, comb2)
                            n_candidates += count
                            continue
                        for comb2, m2, side2 in run:
                            # Each value, | then &: drop one in `seen`,
                            # which holds no solution, before it is scored;
                            # then one at or under the floor, which the full
                            # queue turns away (a solution scores above any
                            # queued value). A solution returns next. Then
                            # what a pool entry dominates, in one test.
                            # Every pool W entry is older than seq, and none
                            # is a twin of sat, which `seen` would have
                            # dropped: `_undominated`'s tie rule would change
                            # nothing.
                            masked = m1 | m2
                            if masked not in seen:
                                sat = masked ^ negm
                                score = sat.bit_count()
                                if score > floor:
                                    if sat == universe:
                                        n_candidates += 2 * run.index((comb2, m2, side2)) + 1
                                        return (rows1 | comb2[0], "|", comb1, comb2)
                                    hits = (guards - (sat * rep & notkept)) & guards
                                    if hits >= top:  # a lighter entry: for good
                                        seen.add(masked)
                                    elif not hits:
                                        comb = (rows1 | comb2[0], "|", comb1, comb2)
                                        floor, rep, guards, notkept = _admit(
                                            pools, pool, queue, beam_width, score, seq,
                                            sat, comb, rep, guards, notkept,
                                        )
                                        seen.add(masked)
                                        seq += 1
                            # The & value: the same tests, written out, as a
                            # loop or a call per value costs more than it saves.
                            masked = m1 & m2
                            if masked not in seen:
                                sat = masked ^ negm
                                score = sat.bit_count()
                                if score > floor:
                                    if sat == universe:
                                        n_candidates += 2 * run.index((comb2, m2, side2)) + 2
                                        return (rows1 & comb2[0], "&", comb1, comb2)
                                    hits = (guards - (sat * rep & notkept)) & guards
                                    if hits >= top:
                                        seen.add(masked)
                                    elif not hits:
                                        comb = (rows1 & comb2[0], "&", comb1, comb2)
                                        floor, rep, guards, notkept = _admit(
                                            pools, pool, queue, beam_width, score, seq,
                                            sat, comb, rep, guards, notkept,
                                        )
                                        seen.add(masked)
                                        seq += 1
                        n_candidates += count
            if not tail:  # pool W is final
                front = pools.extend(front, weight)
            k += 1
        return None
    finally:
        # Also on DeadlineReached, so a timed-out run reports how far it got.
        if stats is not None:
            stats["beam_candidates"] = stats.get("beam_candidates", 0) + n_candidates
            stats["beam_iterations"] = stats.get("beam_iterations", 0) + iterations


# ---------------------------------------------------------------------------
# Divide and conquer
# ---------------------------------------------------------------------------

class NoSolution(NamedTuple):
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
    sets: Sequence[tuple[int, int, tuple]],
    pos_mask: int,
    neg_mask: int,
    k: int,
    deadline: Optional[float] = None,
) -> tuple[tuple[int, int, tuple], ...]:
    """Mask the lightest-first family to a restriction's rows, re-dedup,
    re-reduce.

    Keeps the first set of each distinct masked vector, a lightest one,
    with its full members; drops the sets whose masked vector is empty;
    then applies the approximate domination reduction. The order is
    kept. Any set separating a surviving (p, n) pair keeps a separating
    representative: a dominating survivor classifies a superset of rows
    correctly, p and n included.
    """
    view_mask = pos_mask | neg_mask
    first: dict[int, tuple[int, int, tuple]] = {}  # masked vector -> its first set
    for triple in sets:
        first.setdefault(triple[0] & view_mask, triple)
    first.pop(0, None)
    return _undominated(list(first.values()), pos_mask, neg_mask, k, deadline)


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

    When the beam stalls without a solution, the larger of P and N
    (P on ties) is split by a seeded shuffle into halves; the first
    half's restriction is solved first, the second is simplified by it
    (positives already covered / negatives already excluded are
    dropped, and if none remain the first solution is returned alone),
    and the two solutions combine with a union (P split) or an
    intersection (N split). The 1-positive/1-negative base case returns
    the leaf of the first separating base set, a lightest one, or
    NoSolution with the witness pair; by induction this finds a solution
    whenever the existence check passes. Every view has a row of each class: a split
    cuts the larger class, which then has two rows or more, and keeps
    the other whole.
    """
    search = (beam_width, max_weight, domination_k, deadline, stats)
    return _div_conq(inst, 1, inst.pos_mask.bit_length(), random.Random(seed), search)


def _div_conq(
    view: BscInstance, depth: int, n_pos: int, rng: random.Random, search: tuple
) -> Union[tuple, NoSolution]:
    """`div_conq` on a view at a depth of the recursion. n_pos is the
    offset of the negatives' rows, and search the (beam_width,
    max_weight, domination_k, deadline, stats) of every beam. A
    function of the module, not a closure that calls itself: that would
    leave a reference cycle behind each call."""
    _, _, domination_k, deadline, stats = search
    check_deadline(deadline)
    if stats is not None:
        stats["dc_depth"] = max(stats.get("dc_depth", 0), depth)
    n_p = view.pos_mask.bit_count()
    n_n = view.neg_mask.bit_count()
    if n_p == 1 and n_n == 1:
        for members, _, leaf in view.base_sets:  # lightest first
            if members & view.pos_mask and not members & view.neg_mask:
                return leaf
        p_row = view.pos_mask.bit_length() - 1
        n_row = view.neg_mask.bit_length() - 1
        return NoSolution(Witness(p_row, n_row - n_pos))

    found = beam_search(view, *search)
    if found is not None:
        return found
    if stats is not None:
        stats["dc_splits"] = stats.get("dc_splits", 0) + 1

    split_pos = n_p >= n_n
    half1, half2 = _split_mask(view.pos_mask if split_pos else view.neg_mask, rng)

    def solve(half: int) -> Union[tuple, NoSolution]:
        pos_mask, neg_mask = (half, view.neg_mask) if split_pos else (view.pos_mask, half)
        sets = _restricted(view.base_sets, pos_mask, neg_mask, domination_k, deadline)
        return _div_conq(BscInstance(pos_mask, neg_mask, sets), depth + 1, n_pos, rng, search)

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


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------

def reconstruct(comb: Optional[tuple], inst: BscInstance) -> Formula:
    """The formula of a combination, built by `formula_of` as a bank
    entry's is: "|" becomes Or, "&" And, and a leaf its representative's
    formula. Its size is the combination's weight. `inst` is not read,
    as the leaves carry their back-pointers; it keeps callers working."""
    if comb is None:
        raise ValueError("cannot reconstruct the empty combination")
    return formula_of(comb, {})
