"""Shared sample, bank, evaluation and set-cover helpers used across the test modules."""

import ast
import heapq
import json
import random
from itertools import repeat
from typing import Optional

from ltlflearn.benchgen import (
    DEFAULT_MAX_TRIES,
    DRAW_BATCH,
    SamplingBudgetError,
    TaskSpec,
    gen_formula,
)
from ltlflearn.biteval import BINARY_KERNELS, UNARY_KERNELS, CharTable, Layout, table_of
from ltlflearn.boolcover import BscInstance
from ltlflearn.enumeration import FormulaBank, formula_of
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
    _set_size,
    compile_reference,
    eval_reference,
)
from ltlflearn.traces import Alphabet, Sample, Trace


def pytest_addoption(parser):
    parser.addoption(
        "--all-pins",
        action="store_true",
        help="check every pinned universe task in perfbench/pins.json, "
        "not only the two cheapest of each workload",
    )


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


def biteval_imports(source: str) -> list[str]:
    """The names that source imports from ltlflearn.biteval."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module in ("biteval", "ltlflearn.biteval")
        for alias in node.names
    ]


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
    return int("".join(reversed(rows)) or "0", 2)


def atom_rows(traces, prop: int) -> list[str]:
    """Proposition `prop`'s bit string on each trace, position 1 leftmost."""
    return ["".join(str(letter >> prop & 1) for letter in w.letters) for w in traces]


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


def built_during(monkeypatch, run):
    """Run `run()` and count the formula nodes built meanwhile: `Atom`
    constructions in enumeration, and every node with children (each
    sets its size through `formulas._set_size`)."""
    counts = {"atoms": 0, "inner": 0}

    def counted_atom(prop):
        counts["atoms"] += 1
        return Atom(prop)

    def counted_set_size(node, size):
        counts["inner"] += 1
        _set_size(node, size)

    monkeypatch.setattr("ltlflearn.enumeration.Atom", counted_atom)
    monkeypatch.setattr("ltlflearn.formulas._set_size", counted_set_size)
    out = run()
    monkeypatch.undo()
    return out, counts


def reference_enumerate(sample: Sample, ops, max_size: int) -> tuple[Optional[Formula], FormulaBank]:
    """`enumerate_bounded` as one plain loop, without a deadline: every
    candidate of the unpruned order is evaluated and solution-tested
    before the equivalence check, `&`/`|` mirrors included."""
    layout = Layout.of(sample)
    first, goal = layout.first, layout.pos_first
    bank = FormulaBank(layout)
    seen: set[int] = set()
    answer = None
    n = 0

    def visit(entry) -> bool:
        nonlocal n, answer
        n += 1
        bits = entry[0]
        if bits & first == goal:
            answer = entry[1] if entry[2] is None else formula_of(entry, {})
            return True
        if bits not in seen:
            seen.add(bits)
            bank.by_size[size].append(entry)
        return False

    def done():
        bank.n_generated = n
        bank.n_pruned = n - len(bank) - (answer is not None)
        return answer, bank

    size = 1
    bank.by_size[1] = []
    for prop in range(len(sample.alphabet)):
        if visit((pack_rows(atom_rows(sample.traces, prop)), Atom(prop), None, None)):
            return done()
    for size in range(2, max_size + 1):
        bank.by_size[size] = []
        for tok in ops.unary:
            for child in bank.by_size[size - 1]:
                if visit((UNARY_KERNELS[tok](child[0], layout), tok, child, None)):
                    return done()
        for tok in ops.binary:
            for i in range(1, size - 1):
                for left in bank.by_size[i]:
                    for right in bank.by_size[size - 1 - i]:
                        bits = BINARY_KERNELS[tok](left[0], right[0], layout)
                        if visit((bits, tok, left, right)):
                            return done()
    return done()


def reference_collapse(bank: FormulaBank) -> tuple[list[tuple[int, int, Formula]], dict]:
    """`collapse` written over built formulas: the first formula of the
    bank per characteristic vector, as (members, weight, formula) with
    the formula's size as weight, and the statistics."""
    first = bank.layout.first
    keys: set[int] = set()
    triples = []
    entries = list(bank.entries())
    for entry in entries:
        key = entry.bits & first
        if key not in keys:
            keys.add(key)
            triples.append((bank.layout.vector(key), entry.formula.size, entry.formula))
    stats = {
        "n_formulas": len(entries),
        "n_base_sets": len(triples),
        "collapse_ratio": len(entries) / len(triples),
    }
    return triples, stats


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
# A leaf is the third element of its base set, found by identity: the
# leaves `collapse` makes hold an enumerated entry's children, so a
# non-None `left` does not tell a leaf from a connective.

def instance(n_pos: int, n_neg: int, pairs, labels=None) -> BscInstance:
    """The instance over n_pos positives, then n_neg negatives, of the
    (members, weight) pairs, which it sorts lightest first, stably;
    members are masked to the rows. Pair i's leaf is `(members, label,
    None, None)`, its label `labels[i]` (a formula, which `reconstruct`
    returns for the leaf) or i."""
    pos_mask = (1 << n_pos) - 1
    neg_mask = ((1 << n_neg) - 1) << n_pos
    rows = pos_mask | neg_mask
    sets = []
    for i, (members, weight) in enumerate(pairs):
        members &= rows
        sets.append((members, weight, (members, i if labels is None else labels[i], None, None)))
    return BscInstance(pos_mask, neg_mask, tuple(sets))


def leaf(inst: BscInstance, index: int) -> tuple:
    """The leaf of the base set at `index`, lightest first."""
    return inst.base_sets[index][2]


def labelled(inst: BscInstance, label) -> tuple:
    """The leaf labelled `label`: pair `label` of `instance` unless it
    was given labels."""
    return next(node for _, _, node in inst.base_sets if node[1] == label)


def base_sets_by_leaf(inst: BscInstance) -> dict[int, tuple[int, int, tuple]]:
    """id(leaf) -> its base set: a node is a leaf of inst iff its id is here."""
    return {id(t[2]): t for t in inst.base_sets}


def union(a: tuple, b: tuple) -> tuple:
    return (a[0] | b[0], "|", a, b)


def inter(a: tuple, b: tuple) -> tuple:
    return (a[0] & b[0], "&", a, b)


def weight_of(comb: Optional[tuple], inst: BscInstance) -> int:
    """Leaf weights plus one per connective; 0 for the empty combination."""
    if comb is None:
        return 0
    by_leaf = base_sets_by_leaf(inst)
    return sum(by_leaf[id(node)][1] if id(node) in by_leaf else 1 for node in nodes_of(comb, inst))


def rows_of(comb: Optional[tuple], inst: BscInstance) -> int:
    """The rows a combination evaluates to, from its leaves' base sets
    alone, not from the rows it carries; iterative, safe for deep trees."""
    if comb is None:
        return 0
    by_leaf = base_sets_by_leaf(inst)
    stack: list[tuple[tuple, bool]] = [(comb, False)]
    values: list[int] = []
    while stack:
        node, ready = stack.pop()
        _, op, left, right = node
        if id(node) in by_leaf:
            values.append(by_leaf[id(node)][0])
        elif ready:
            b, a = values.pop(), values.pop()
            values.append(a | b if op == "|" else a & b)
        else:
            stack += [(node, True), (right, False), (left, False)]
    return values[0]


def nodes_of(comb: Optional[tuple], inst: BscInstance) -> list[tuple]:
    """Every node of a combination over inst, root first; the walk stops
    at inst's leaves."""
    by_leaf = base_sets_by_leaf(inst)
    out, stack = [], [comb] if comb is not None else []
    while stack:
        node = stack.pop()
        out.append(node)
        if id(node) not in by_leaf:
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

def reference_sat(rows: int, pos_mask: int, neg_mask: int) -> int:
    """The rows classified correctly: the covered positives, plus the
    excluded negatives."""
    return (rows & pos_mask) | (neg_mask & ~rows)


def sat_bits(eval_bits: int, pos_mask: int, neg_mask: int) -> int:
    """Rows classified correctly: covered positives + excluded negatives.

    The cover phase computes the same rows inline, as
    `members & universe ^ neg_mask` with `universe = pos_mask | neg_mask`.
    """
    return (eval_bits ^ neg_mask) & (pos_mask | neg_mask)


def sat_and_weight(comb: Optional[tuple], inst: BscInstance) -> tuple[int, int]:
    """The rows a combination classifies correctly, and its weight."""
    return reference_sat(rows_of(comb, inst), inst.pos_mask, inst.neg_mask), weight_of(comb, inst)


def base_set_scores(inst: BscInstance) -> list[tuple[int, int]]:
    """(sat, weight) of every base set, in order."""
    return [(reference_sat(members, inst.pos_mask, inst.neg_mask), weight)
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

    def lighter_dominates(self, weight: int, sat: int) -> bool:
        """The half of `dominated` that the pools lighter than weight answer."""
        return any(
            sat & ~pool_sat == 0
            for w, pool in self.pools.items() if w < weight
            for _, _, pool_sat in pool
        )

    def pool_dominates(self, weight: int, sat: int, seq: int) -> bool:
        """The half of `dominated` that pool W answers, with the tie rule."""
        return any(
            sat & ~pool_sat == 0 and (pool_sat != sat or -neg_seq < seq)
            for _, neg_seq, pool_sat in self.pools.get(weight, ())
        )

    def entries(self) -> set[tuple[int, int, int]]:
        """Every (weight, seq, sat) the pools hold."""
        return {(w, -neg_seq, sat) for w, pool in self.pools.items() for _, neg_seq, sat in pool}


def frontier_of(pools, weight: int) -> tuple[int, int, int]:
    """The frontier of weight over the pools as they stand: `empty`
    extended by each lighter pool, lightest first, as a reader that has
    filled them carries it."""
    front = pools.empty
    for w in sorted(w for w in pools.pools if w < weight):
        front = pools.extend(front, w)
    return front


def pool_dominated(pools, weight: int, sat: int, seq: int) -> int:
    """The guard bits of the pool entries that weigh no more than weight
    and contain sat, 0 when none does: the packed query's subset test,
    then `_undominated`'s tie rule, written as a scan of pool W. A slot
    of pool W that equals sat with a seq not smaller than seq is no hit,
    so an entry never dominates itself."""
    rep, guards, notkept = pools.query(frontier_of(pools, weight), weight)
    hits = (guards - (sat * rep & notkept)) & guards
    if hits & pools.top - 1:  # pool W answered
        for _, pool_seq, pool_sat, slot in pools.pools[weight]:
            if pool_sat == sat and pool_seq >= seq:
                hits ^= pools.limit << slot * pools.width
    return hits


def reference_undominated(sets, pos_mask: int, neg_mask: int, k: int) -> tuple:
    """`boolcover._undominated` one set at a time, over the heap oracle's
    pools: every (members, weight, leaf) triple is added with its position
    as its seq, then each is asked in turn, and those no pool entry
    dominates stay, in order."""
    pools = HeapPools(k)
    sats = [reference_sat(members, pos_mask, neg_mask) for members, _, _ in sets]
    for seq, ((_, weight, _), sat) in enumerate(zip(sets, sats), 1):
        pools.add(weight, sat, seq)
    return tuple(
        triple for seq, (triple, sat) in enumerate(zip(sets, sats), 1)
        if not pools.dominated(triple[1], sat, seq)
    )


class HeapQueue:
    """The oracle's beam queue: the `capacity` best by score as a min-heap.

    A full queue admits only a strictly higher score than its current
    minimum and evicts the oldest entry among the lowest-scoring.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.heap: list[tuple[int, int, tuple]] = []  # (score, seq, comb)

    def add(self, score: int, seq: int, comb: tuple) -> None:
        if len(self.heap) < self.capacity:
            heapq.heappush(self.heap, (score, seq, comb))
        elif score > self.heap[0][0]:
            heapq.heappushpop(self.heap, (score, seq, comb))

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


def reference_beam(
    inst: BscInstance, beam_width: int, max_weight: int, domination_k: int
) -> tuple[Optional[tuple], int, int]:
    """The oracle for `boolcover.beam_search`: the same search with every
    candidate taken through the whole bookkeeping, nothing skipped, and
    the heap queues and pools. Returns the solution or None, the number of
    iterations and the number of candidates."""
    posm, negm = inst.pos_mask, inst.neg_mask
    universe = posm | negm
    queues: dict[int, HeapQueue] = {}
    seen: set[int] = set()
    pools = HeapPools(domination_k)
    seq = n_candidates = 0

    def consider(comb: tuple, weight: int) -> bool:
        nonlocal seq, n_candidates
        n_candidates += 1
        masked = comb[0] & universe
        sat = reference_sat(masked, posm, negm)
        if sat == universe:
            return True
        score = sat.bit_count()
        queue = queues.setdefault(weight, HeapQueue(beam_width))
        if queue.full() and score <= queue.min_score:
            return False
        if masked in seen or pools.dominated(weight, sat, seq):
            return False
        queue.add(score, seq, comb)
        seen.add(masked)
        pools.add(weight, sat, seq)
        seq += 1
        return False

    for _, weight, base_leaf in inst.base_sets:
        if consider(base_leaf, weight):
            return base_leaf, 0, n_candidates
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
                            return comb, iterations, n_candidates
        k += 1
    return None, iterations, n_candidates


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


# --- the generator's oracle: one getrandbits call per letter, one label per draw ---

def _random_letters(rng: random.Random, trace_len: int, n_props: int) -> tuple[int, ...]:
    return tuple(map(rng.getrandbits, repeat(n_props, trace_len)))


def reference_gen_task(spec: TaskSpec, max_tries: int = DEFAULT_MAX_TRIES) -> Sample:
    """benchgen.gen_task for the formula families, drawn a getrandbits
    call per letter and classified by a Python loop over every draw of a
    batch: what the batch drawing and the label search must match."""
    rng = random.Random(f"{spec.seed}:traces")
    values = compile_reference(gen_formula(spec))
    positives: list[Trace] = []
    negatives: list[Trace] = []
    tries = 0
    while len(positives) < spec.n_pos or len(negatives) < spec.n_neg:
        if tries >= max_tries:
            raise SamplingBudgetError(
                f"{spec.family}: {len(positives)}/{spec.n_pos} positives and "
                f"{len(negatives)}/{spec.n_neg} negatives after {max_tries} draws"
            )
        batch = [
            _random_letters(rng, spec.trace_len, spec.n_props)
            for _ in range(min(DRAW_BATCH, max_tries - tries))
        ]
        holds = values(batch)[0]  # bit d: the formula holds on draw d
        for d, letters in enumerate(batch):
            tries += 1
            if holds >> d & 1:
                if len(positives) < spec.n_pos:
                    positives.append(Trace(letters))
            elif len(negatives) < spec.n_neg:
                negatives.append(Trace(letters))
            if len(positives) == spec.n_pos and len(negatives) == spec.n_neg:
                break
    return Sample(spec.alphabet, tuple(positives), tuple(negatives))
