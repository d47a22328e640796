"""Shared sample, bank, evaluation and set-cover helpers used across the test modules."""

import heapq
import json
import random
from typing import Optional

from ltlflearn.benchgen import TaskSpec
from ltlflearn.biteval import CharTable, Layout, table_of
from ltlflearn.boolcover import BeamResult, BscInstance, _BoundedQueue, sat_bits
from ltlflearn.enumeration import FormulaBank
from ltlflearn.formulas import (
    And,
    Atom,
    Bottom,
    Finally,
    Formula,
    Globally,
    Not,
    Or,
    Release,
    StrongNext,
    Top,
    Until,
    WeakNext,
    eval_reference,
)
from ltlflearn.traces import Alphabet, Sample, Trace


# --- the oracle's oracle: LTLf semantics by direct recursion, position by position ---

def _eval(phi: Formula, w: Trace, k: int, memo: dict) -> bool:
    key = (id(phi), k)
    cached = memo.get(key)
    if cached is not None:
        return cached
    length = w.length
    if isinstance(phi, Atom):
        val = bool(w.letters[k - 1] >> phi.prop & 1)
    elif isinstance(phi, Top):
        val = True
    elif isinstance(phi, Bottom):
        val = False
    elif isinstance(phi, Not):
        val = not _eval(phi.arg, w, k, memo)
    elif isinstance(phi, And):
        val = _eval(phi.left, w, k, memo) and _eval(phi.right, w, k, memo)
    elif isinstance(phi, Or):
        val = _eval(phi.left, w, k, memo) or _eval(phi.right, w, k, memo)
    elif isinstance(phi, StrongNext):
        val = k < length and _eval(phi.arg, w, k + 1, memo)
    elif isinstance(phi, WeakNext):
        val = k == length or _eval(phi.arg, w, k + 1, memo)
    elif isinstance(phi, Finally):
        val = any(_eval(phi.arg, w, i, memo) for i in range(k, length + 1))
    elif isinstance(phi, Globally):
        val = all(_eval(phi.arg, w, i, memo) for i in range(k, length + 1))
    elif isinstance(phi, Until):
        # Exists i in [k, length] with right at i and left on [k, i-1].
        val = False
        for i in range(k, length + 1):
            if _eval(phi.right, w, i, memo):
                val = True
                break
            if not _eval(phi.left, w, i, memo):
                break
    elif isinstance(phi, Release):
        # !((!left) U (!right)): right holds up to and including the first
        # position where left holds, or throughout if left never does.
        val = True
        for i in range(k, length + 1):
            if not _eval(phi.right, w, i, memo):
                val = False
                break
            if _eval(phi.left, w, i, memo):
                break
    else:
        raise TypeError(f"not a formula node: {phi!r}")
    memo[key] = val
    return val


def eval_reference_all(phi: Formula, w: Trace) -> list[bool]:
    """The recursive semantics at every position, sharing one memo."""
    memo: dict = {}
    return [_eval(phi, w, k, memo) for k in range(1, w.length + 1)]


# --- bit strings: "10110" has position 1 leftmost ---------------------------------

def value_at(bits: int, lay: Layout, i: int, p: int) -> int:
    """Trace i's value at position p (from 1) in a packed value over `lay`.

    Position p sits at bit offsets[i] + lengths[i] - p: position 1 at the
    top of the trace's slice, the last position at its bottom. Every
    reading of a packed value in the tests goes through here.
    """
    return bits >> (lay.offsets[i] + lay.lengths[i] - p) & 1


def trace_rows(bits: int, lay: Layout) -> list[str]:
    """One bit string per trace of the layout, in sample order."""
    return [
        "".join(str(value_at(bits, lay, i, p)) for p in range(1, n + 1))
        for i, n in enumerate(lay.lengths)
    ]


def pack_rows(rows: list[str]) -> int:
    """The packed value whose rows over `Layout([len(r) for r in rows], .)`
    are `rows`; the inverse of `trace_rows`. The last trace lies highest."""
    return int("".join(reversed(rows)), 2)


def bits_of(text: str) -> int:
    """The packed value a bit string spells over one trace."""
    return pack_rows([text])


def string_of(bits: int, length: int) -> str:
    """The positions of a packed value over one trace of `length`."""
    return trace_rows(bits, Layout((length,), 1))[0]


def table_rows(table: CharTable) -> list[str]:
    """One bit string per trace of the table's layout, in sample order."""
    return trace_rows(table.bits, table.layout)


def one_trace_sample(w: Trace, n_props: int = 1) -> Sample:
    """A sample of the single positive trace w."""
    return Sample(Alphabet.default(n_props), (w,), ())


# --- the kernels' oracle: U by a doubling recurrence ---------------------------

def until_rounds(acc: int, out: int, max_len: int) -> list[int]:
    """The value after each round of the doubling recurrence for U.

    `acc` is s1 & notlast, `out` is s2. For shifts d = 1, 2, 4, ... below
    `max_len`: out |= (out << d) & acc, then acc &= acc << d. After the
    round with shift d, acc holds at p iff s1 holds and p is not a last
    position on all of [p, p + 2d), so a shift by d only ever reads
    positions of p's own trace. Position p + d lies d bits below p.
    """
    rounds = []
    shift = 1
    while shift < max_len:
        out |= (out << shift) & acc
        acc &= acc << shift
        rounds.append(out)
        shift <<= 1
    return rounds


def doubling_until(acc: int, out: int, lay: Layout) -> int:
    """U by the doubling recurrence: s1 U s2 is doubling_until(s1 & notlast, s2)."""
    rounds = until_rounds(acc, out, max(lay.lengths, default=0))
    return rounds[-1] if rounds else out


def finally_rounds(bits: int, length: int) -> list[int]:
    """The value after each or-shift round of F by doubling, on one trace.

    ceil(log2 length) rounds in total; the last entry equals F applied
    to the value.
    """
    return until_rounds(Layout((length,), 1).notlast, bits, length)


def bank_from_formulas(sample: Sample, formulas) -> FormulaBank:
    """Build a bank from given formulas, in order, dedup by packed value.

    Each formula becomes a seed-shaped back-pointer `(bits, formula,
    None, None)` at its size. For hand-made set-cover instances; no
    solution check is performed.
    """
    bank = FormulaBank(Layout.of(sample))
    cache: dict = {Layout: bank.layout}
    seen: set[int] = set()
    for phi in formulas:
        bits = table_of(phi, sample, cache).bits
        bank.n_generated += 1
        if bits in seen:
            bank.n_pruned += 1
            continue
        seen.add(bits)
        bank.by_size.setdefault(phi.size, []).append((bits, phi, None, None))
    return bank


def reference_collapse(bank: FormulaBank, sample: Sample) -> tuple[BscInstance, dict]:
    """`collapse` written over built formulas: the first formula of the
    bank per characteristic vector, weighted by its size."""
    first = bank.layout.first
    keys: set[int] = set()
    pairs, formulas = [], []
    entries = list(bank.entries())
    for entry in entries:
        key = entry.bits & first
        if key not in keys:
            keys.add(key)
            pairs.append((bank.layout.vector(key), entry.formula.size))
            formulas.append(entry.formula)
    stats = {
        "n_formulas": len(entries),
        "n_base_sets": len(pairs),
        "collapse_ratio": len(entries) / len(pairs),
    }
    return instance(sample.n_pos, sample.n_neg, pairs, formulas), stats


def union_shaped_sample(seed: int = 0, trace_len: int = 12) -> Sample:
    """Sample whose smallest separator is a union of two F-chains.

    Positives split between the two patterns, so no single enumerated
    formula below the set-cover switch covers them all; the learner has
    to go through the cover phase.
    """
    a, b = Atom(0), Atom(1)
    phi1 = Finally(And(a, StrongNext(And(a, StrongNext(b)))))
    phi2 = Finally(And(b, StrongNext(And(b, StrongNext(a)))))
    target = Or(phi1, phi2)
    rng = random.Random(f"bsc-task:{seed}")

    def draw(pred):
        for _ in range(10**6):
            w = Trace(tuple(rng.getrandbits(2) for _ in range(trace_len)))
            if pred(w):
                return w
        raise RuntimeError("sampling budget exhausted")

    pos = [draw(lambda w: eval_reference(phi1, w, 1) and not eval_reference(phi2, w, 1))
           for _ in range(10)]
    pos += [draw(lambda w: eval_reference(phi2, w, 1) and not eval_reference(phi1, w, 1))
            for _ in range(10)]
    neg = [draw(lambda w: not eval_reference(target, w, 1)) for _ in range(20)]
    return Sample(Alphabet.default(2), tuple(pos), tuple(neg))


# --- set-cover instances and combinations: back-pointers (rows, op, left, right) ---
#
# The helpers read a leaf's formula index as a position in inst.base_sets,
# so they take an instance as `instance` builds it, where the two agree.

def instance(n_pos: int, n_neg: int, pairs, formulas=()) -> BscInstance:
    """The instance over n_pos positives, then n_neg negatives, of the
    (members, weight) pairs, in order; members are masked to the rows,
    and each set's formula index is its position."""
    pos_mask = (1 << n_pos) - 1
    neg_mask = ((1 << n_neg) - 1) << n_pos
    rows = pos_mask | neg_mask
    sets = tuple((members & rows, weight, i) for i, (members, weight) in enumerate(pairs))
    return BscInstance(pos_mask, neg_mask, sets, tuple(formulas))


def leaf(inst: BscInstance, index: int) -> tuple:
    return (inst.base_sets[index][0], index, None, None)


def union(a: tuple, b: tuple) -> tuple:
    return (a[0] | b[0], "|", a, b)


def inter(a: tuple, b: tuple) -> tuple:
    return (a[0] & b[0], "&", a, b)


def weight_of(comb: Optional[tuple], inst: BscInstance) -> int:
    """Leaf weights plus one per connective; 0 for the empty combination."""
    if comb is None:
        return 0
    _, op, left, right = comb
    if left is None:
        return inst.base_sets[op][1]
    return 1 + weight_of(left, inst) + weight_of(right, inst)


def rows_of(comb: Optional[tuple], inst: BscInstance) -> int:
    """The rows a combination evaluates to, from its leaves' base sets
    alone, not from the rows it carries; iterative, safe for deep trees."""
    if comb is None:
        return 0
    stack: list[tuple[tuple, bool]] = [(comb, False)]
    values: list[int] = []
    while stack:
        node, ready = stack.pop()
        _, op, left, right = node
        if left is None:
            values.append(inst.base_sets[op][0])
        elif ready:
            b, a = values.pop(), values.pop()
            values.append(a | b if op == "|" else a & b)
        else:
            stack += [(node, True), (right, False), (left, False)]
    return values[0]


def nodes_of(comb: Optional[tuple]) -> list[tuple]:
    """Every node of a combination, root first."""
    out, stack = [], [comb] if comb is not None else []
    while stack:
        node = stack.pop()
        out.append(node)
        if node[2] is not None:
            stack += [node[3], node[2]]
    return out


def is_solution_combination(comb: Optional[tuple], inst: BscInstance) -> bool:
    return rows_of(comb, inst) & (inst.pos_mask | inst.neg_mask) == inst.pos_mask


def witness_solution(inst: BscInstance) -> tuple:
    """The constructive solution ∪_p ∩_{F ∋ p} F; requires existence.

    A completeness backstop of weight O(|base sets| * |P|).
    """
    thetas: list[tuple] = []
    for p in range(inst.pos_mask.bit_length()):
        bit = 1 << p
        part: Optional[tuple] = None
        for i, (members, _, _) in enumerate(inst.base_sets):
            if members & bit:
                part = leaf(inst, i) if part is None else inter(part, leaf(inst, i))
        if part is None:
            raise ValueError(f"positive {p} is in no base set")
        thetas.append(part)
    theta = thetas[0]
    for part in thetas[1:]:
        theta = union(theta, part)
    if not is_solution_combination(theta, inst):
        raise ValueError("existence check fails on this instance")
    return theta


# --- the domination oracle ------------------------------------------------------

def sat_and_weight(comb: Optional[tuple], inst: BscInstance) -> tuple[int, int]:
    """The rows a combination classifies correctly, and its weight."""
    return sat_bits(rows_of(comb, inst), inst.pos_mask, inst.neg_mask), weight_of(comb, inst)


def base_set_scores(inst: BscInstance) -> list[tuple[int, int]]:
    """(sat, weight) of every base set, in order."""
    return [(sat_bits(members, inst.pos_mask, inst.neg_mask), weight)
            for members, weight, _ in inst.base_sets]


def dominates(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Whether (sat, weight) a dominates b: a weighs no more, sat(b) ⊆ sat(a)."""
    return a[1] <= b[1] and b[0] & ~a[0] == 0


def exact_undominated(items: list[tuple[int, int]]) -> list[int]:
    """Indices of the items no other item dominates; a quadratic scan.

    Of mutually dominating twins (equal weight and sat) the first stays.
    """
    return [
        i for i, x in enumerate(items)
        if not any(
            dominates(y, x) and (not dominates(x, y) or j < i)
            for j, y in enumerate(items) if j != i
        )
    ]


class HeapPools:
    """The oracle for `boolcover._DominationPools`: the same top-k rule
    kept as min-heaps, and a linear scan of every pool entry.

    A heap root is the lowest score, the newest among ties: the entry
    a full pool evicts.
    """

    def __init__(self, k: int):
        self.k = k
        self.pools: dict[int, list[tuple[int, int, int]]] = {}  # (score, -seq, sat)

    def add(self, weight: int, sat: int, seq: int) -> None:
        pool = self.pools.setdefault(weight, [])
        push = heapq.heappush if len(pool) < self.k else heapq.heappushpop
        push(pool, (sat.bit_count(), -seq, sat))

    def dominated(self, weight: int, sat: int, seq: int) -> bool:
        return any(
            sat & ~pool_sat == 0 and (w < weight or pool_sat != sat or -neg_seq < seq)
            for w, pool in self.pools.items() if w <= weight
            for _, neg_seq, pool_sat in pool
        )

    def entries(self) -> set[tuple[int, int, int]]:
        """Every (weight, seq, sat) the pools hold."""
        return {(w, -neg_seq, sat) for w, pool in self.pools.items() for _, neg_seq, sat in pool}


def reference_beam(
    inst: BscInstance, beam_width: int, max_weight: int, domination_k: int
) -> tuple[BeamResult, int]:
    """The oracle for `boolcover.beam_search`: the same search with every
    candidate taken through the whole bookkeeping, nothing skipped, and
    the heap pools. Returns the result and the number of candidates."""
    posm, negm = inst.pos_mask, inst.neg_mask
    universe = posm | negm
    queues: dict[int, _BoundedQueue] = {}
    seen: set[int] = set()
    pools = HeapPools(domination_k)
    seq = n_candidates = 0
    best = (None, negm.bit_count(), 0)  # combination, score, weight

    def consider(comb: tuple, weight: int) -> bool:
        nonlocal seq, best, n_candidates
        n_candidates += 1
        masked = comb[0] & universe
        sat = sat_bits(masked, posm, negm)
        if sat == universe:
            return True
        score = sat.bit_count()
        if score > best[1] or (score == best[1] and weight < best[2]):
            best = (comb, score, weight)
        queue = queues.setdefault(weight, _BoundedQueue(beam_width))
        if queue.full() and score <= queue.min_score:
            return False
        if masked in seen or pools.dominated(weight, sat, seq):
            return False
        if queue.add(score, seq, comb):
            seen.add(masked)
            pools.add(weight, sat, seq)
            seq += 1
        return False

    def solved(comb: tuple, iterations: int) -> tuple[BeamResult, int]:
        return BeamResult(comb, True, universe.bit_count(), iterations), n_candidates

    for members, weight, index in inst.base_sets:
        if consider((members, index, None, None), weight):
            return solved((members, index, None, None), 0)
    iterations = 0
    k = 2
    while k + 1 <= max_weight and any(len(q) for q in queues.values()):
        iterations += 1
        for i in range(1, k // 2 + 1):
            if not len(queues.get(i, ())) or not len(queues.get(k - i, ())):
                continue
            rights = queues[k - i].ordered()
            for comb1 in queues[i].ordered():
                for comb2 in rights:
                    for comb in (union(comb1, comb2), inter(comb1, comb2)):
                        if consider(comb, k + 1):
                            return solved(comb, iterations)
        k += 1
    return BeamResult(best[0], False, best[1], iterations), n_candidates


# --- manifests: a manifest row read back into its task spec ---

def spec_from_manifest_row(row: dict) -> TaskSpec:
    return TaskSpec(
        family=row["family"],
        n_props=int(row["n_props"]),
        trace_len=int(row["trace_len"]),
        n_pos=int(row["n_pos"]),
        n_neg=int(row["n_neg"]),
        seed=int(row["seed"]),
        params=json.loads(row["params"]) if row.get("params") else {},
    )
