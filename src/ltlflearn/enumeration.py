"""Size-ordered formula enumeration with observational-equivalence pruning.

Formulas are generated bottom-up by size, up to a given bound: the
size-1 seeds are the atoms, and size s+1 candidates are unary
operators over retained size-s formulas and binary operators over
retained pairs of sizes (i, j) with i + j = s. true and false are not
seeded: with F and G primitive they never shrink a minimal separator of
a sample with both classes, and `learn` answers a one-class sample with
one of them itself.
Each candidate's packed value (see `biteval`) is one kernel call on its
children's values; a candidate whose value equals an already-retained
one is observationally equivalent on this sample and is discarded. The first candidate that
separates the sample is returned immediately; because sizes are
enumerated in increasing order, it is size-minimal for the operator set.

A retained candidate is a back-pointer, not a formula: the tuple
`(bits, op, left, right)` of its packed value, its operator token and
its children's own entries (`right` is None for a unary operator; a
size-1 seed holds its formula in `op` and None in both children).
Formulas are built from back-pointers only where they are read: for
the separator `enumerate_bounded` returns, for the set cover answer,
whose leaves point into the bank, and on demand in `FormulaBank.entries`.

The order is fully deterministic: within one size, unary products come
before binary products, operators iterate in their declaration order,
operand pairs iterate i = 1..s-1, and ties between observationally
equivalent formulas keep the first one generated. Only a candidate
whose value is new is tested for being a solution, seeds included: a
value already retained was tested when it was retained.

`&` and `|` commute and give their operand back on equal operands, so
for them the pairs with i > j, and on the diagonal i = j the right
entries at or before the left one, would only repeat values already
retained. They are skipped, not evaluated, but counted: `n_enumerated`
and the bank's counters count candidates in the unpruned order, and
`n_skipped` says how many of them were skipped. The counts are updated
once per run of candidates, not once per candidate. A run is a slice of
at most DEADLINE_STRIDE children or right entries, and the deadline is
checked before any run that would take the kernel calls since the last
check past DEADLINE_STRIDE.

A value is new iff `seen.add` grows `seen`, so each value is hashed
once; on wide samples hashing a value costs more than computing it.

Identity rules skip more candidates, by the operators of their
children alone (`skip_rules`, built at the start of each call). Each rule
names a candidate whose value equals that of a formula built earlier:
strictly smaller, of the same size in an earlier unary loop of the
level, or of the same size over an earlier left entry of the same
binary loop. Every formula of a smaller size has its value in `seen`:
its children's values are retained by formulas no larger, and the
candidate over those was enumerated. The same holds, level by level,
for the same-size formulas built before, so by induction the
skipped candidate's value is in `seen` and it would be pruned anyway;
it cannot be a solution either, since its value was tested when it was
retained. x is the child's child; the unary loops run in the order
!, X!, X, F, G of every `OperatorSet`:

    !!x = x
    X!(!x) = !(X x)        needs X
    X(!x) = !(X! x)        needs X!
    F(!x) = !(G x)         needs G
    G(!x) = !(F x)         needs F
    F(X! x) = X!(F x)
    G(X x) = X(G x)
    F(a U b) = F b
    F(X x) = true          if the all-ones value is in `seen` when the
                           level's F loop starts
    G(X! x) = false        if 0 is in `seen` when the level's G loop starts

    !a & !b = !(a | b)     needs |
    !a | !b = !(a & b)     needs &
    Ya & Zb = X!(a & b), or X(a & b) when Y and Z are both X
    Ya | Zb = X(a | b), or X!(a | b) when Y and Z are both X!
                           (Y, Z in {X!, X})
    X!a U X!b = X!(a U b)
    a U F b = F b
    Xa U b = X!a U b       needs X!
    Xa R b = X!a R b       needs X!

The last two rules hold because U and R read their left operand only
before the last position, where X and X! agree. X!a comes before Xa in
every level, so its value is retained by an entry before Xa, of no
larger size, and the twin over that entry was enumerated earlier. They
skip every right operand, Xb included. X!a U Xb is left out: it equals
no smaller formula, only a weak until.

A loop evaluates the entries of a run that no rule skips and still
counts, checks the deadline and places a solution by the whole run, so
a skipped candidate is counted in `n_enumerated` as if it
were evaluated, not in `n_skipped`, and every count is that of the
plain loop.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .biteval import BINARY_KERNELS, UNARY_KERNELS, Layout, pack_atom
from .deadlines import DEADLINE_STRIDE, DeadlineReached, check_deadline, split_runs
from .formulas import Atom, Formula, OperatorSet, build_binary, build_unary
from .traces import Sample

# Binary operators whose operands commute and whose value on equal
# operands is that operand: a & b == b & a and a & a == a.
_MIRRORED = ("&", "|")
_NONE: frozenset = frozenset()
_NEXT = frozenset(("X!", "X"))
# The skip set of a rule that skips every right operand. `_keep` knows it
# by identity; no operator is named "*", so it keys no other skip set.
_EVERY = frozenset("*")


def skip_rules(ops: OperatorSet) -> tuple[dict, dict]:
    """The identity rules (module docstring) that hold for `ops`, as
    two tables `(unary, binary)`.

    `unary[tok]` holds the operators of the children whose candidate
    `tok(child)` is skipped. `binary[tok][op]` holds the operators of
    the right operands whose candidate `left tok right` is skipped when
    the left operand's operator is `op`; the key None stands for any
    other left operand. `_EVERY` skips every right operand.
    """
    unary: dict = {}
    for tok, child, holds in (
        ("!", "!", True),  # !!x = x
        ("X!", "!", "X" in ops.unary),  # X!(!x) = !(X x)
        ("X", "!", "X!" in ops.unary),  # X(!x) = !(X! x)
        ("F", "!", "G" in ops.unary),  # F(!x) = !(G x)
        ("G", "!", "F" in ops.unary),  # G(!x) = !(F x)
        ("F", "X!", True),  # F(X! x) = X!(F x)
        ("G", "X", True),  # G(X x) = X(G x)
        ("F", "U", True),  # F(a U b) = F b
    ):
        if holds:
            unary[tok] = unary.get(tok, _NONE) | {child}

    binary: dict = {}
    for tok, left, rights, holds in (
        ("&", "!", {"!"}, "|" in ops.binary),  # !a & !b = !(a | b)
        ("|", "!", {"!"}, "&" in ops.binary),  # !a | !b = !(a & b)
        ("&", "X!", _NEXT, True),  # X!a & Yb = X!(a & b)
        ("&", "X", _NEXT, True),  # Xa & X!b = X!(a & b), Xa & Xb = X(a & b)
        ("|", "X!", _NEXT, True),  # X!a | X!b = X!(a | b), X!a | Xb = X(a | b)
        ("|", "X", _NEXT, True),  # Xa | Yb = X(a | b)
        ("U", None, {"F"}, True),  # a U F b = F b
        ("U", "X!", {"X!"}, True),  # X!a U X!b = X!(a U b)
    ):
        if holds:
            by_left = binary.setdefault(tok, {})
            by_left[left] = by_left.get(left, _NONE) | rights
    for by_left in binary.values():  # a rule for any left holds for each
        for left in by_left:
            by_left[left] |= by_left.get(None, _NONE)
    if "X!" in ops.unary:  # Xa U b = X!a U b, Xa R b = X!a R b
        for tok in ("U", "R"):
            binary.setdefault(tok, {})["X"] = _EVERY
    return unary, binary


def _keep(runs: list[tuple], skip: frozenset) -> list[tuple]:
    """Each `(run, k)` with the entries of the run whose operator is not
    in `skip`, the ones a loop evaluates: `(run, k, kept)`."""
    if not skip:
        return [(run, k, run) for run, k in runs]
    if skip is _EVERY:
        return [(run, k, ()) for run, k in runs]
    return [(run, k, [e for e in run if e[1] not in skip]) for run, k in runs]


class BankEntry(NamedTuple):
    """A retained candidate as `FormulaBank.entries` yields it: its
    formula, built, and its packed value on the sample."""

    formula: Formula
    bits: int


def formula_of(entry: tuple, memo: dict) -> Formula:
    """The formula a back-pointer, a bank entry or a cover answer, stands for.

    `memo` maps id(entry) to the formula built for it, so children
    shared by several entries are built once per memo.
    """
    phi = memo.get(id(entry))
    if phi is None:
        _, op, left, right = entry
        if left is None:
            phi = op
        elif right is None:
            phi = build_unary(op, formula_of(left, memo))
        else:
            phi = build_binary(op, formula_of(left, memo), formula_of(right, memo))
        memo[id(entry)] = phi
    return phi


class FormulaBank:
    """Retained candidates grouped by size, as back-pointers.

    `by_size[s]` lists the size-s entries `(bits, op, left, right)` in
    enumeration order; their packed values are all distinct. `layout`
    is the sample layout the packed values use.
    """

    __slots__ = ("layout", "by_size", "n_generated", "n_pruned")

    def __init__(self, layout: Layout):
        self.layout = layout
        self.by_size: dict[int, list[tuple]] = {}
        self.n_generated = 0
        self.n_pruned = 0

    def entries(self):
        """All retained entries in enumeration order, each with its
        `.formula` and `.bits`; formulas are built as the pass goes."""
        memo: dict = {}
        for size in sorted(self.by_size):
            for entry in self.by_size[size]:
                yield BankEntry(formula_of(entry, memo), entry[0])

    def __len__(self) -> int:
        return sum(len(v) for v in self.by_size.values())


def enumerate_bounded(
    sample: Sample,
    ops: OperatorSet,
    max_size: int,
    *,
    deadline: Optional[float] = None,
    stats: Optional[dict] = None,
) -> tuple[Optional[Formula], FormulaBank]:
    """Enumerate sizes 1..max_size; stop early on the first separator.

    Returns (solution, bank). The deadline is checked at the start of
    every size level, and inside it before any run of candidates that
    would take the kernel calls since the last check past
    DEADLINE_STRIDE. When `stats` is given it receives `n_enumerated`,
    `n_retained` and `n_skipped` (the `&`/`|` mirrors counted in
    `n_enumerated` but never evaluated), also when the deadline
    interrupts, and then `enum_size` too, the size level that was being
    enumerated. The candidates that an identity rule of `skip_rules(ops)`
    skips are not evaluated either, but are counted in `n_enumerated`
    alone, as evaluated candidates whose value is pruned: their values
    are already in `seen` (module docstring), so every count and the
    bank are those of evaluating them.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    layout = Layout.of(sample)
    first, goal = layout.first, layout.pos_first
    bank = FormulaBank(layout)
    seen: set[int] = set()  # the retained packed values, the equivalence keys
    add = seen.add  # a value is new iff adding it grows `seen`
    known = 0  # len(seen)
    unary_rules, binary_rules = skip_rules(ops)
    answer: Optional[Formula] = None
    n = 0  # candidates evaluated or skipped by a rule
    skipped = 0  # mirrors counted as candidates but not evaluated
    size = 1

    try:
        level = bank.by_size[1] = []
        for prop in range(len(sample.alphabet)):
            formula, bits = Atom(prop), pack_atom(sample.traces, prop)
            n += 1
            add(bits)
            if len(seen) > known:
                known += 1
                if bits & first == goal:
                    answer = formula
                    return answer, bank
                level.append((bits, formula, None, None))

        size = 2
        while size <= max_size:
            check_deadline(deadline)
            limit = n + DEADLINE_STRIDE  # no run may take `n` past it unchecked
            level = bank.by_size[size] = []
            append = level.append
            children = split_runs(bank.by_size[size - 1], DEADLINE_STRIDE)
            # The unary and binary loops share one body, inlined: it
            # runs once per candidate. It evaluates only the entries
            # that no rule skips, `kept`, but counts, checks the
            # deadline and places a solution by the whole run. A value
            # already in `seen` was solution-tested when it was retained.
            for tok in ops.unary:
                kernel = UNARY_KERNELS[tok]
                skip = unary_rules.get(tok, _NONE)
                if tok == "F" and layout.full in seen:
                    skip = skip | {"X"}  # F(X x) is all ones
                elif tok == "G" and 0 in seen:
                    skip = skip | {"X!"}  # G(X! x) is 0
                for run, k, kept in _keep(children, skip):
                    if n + k > limit:
                        check_deadline(deadline)
                        limit = n + DEADLINE_STRIDE
                    for child in kept:
                        bits = kernel(child[0], layout)
                        add(bits)
                        if len(seen) > known:
                            known += 1
                            if bits & first == goal:
                                n += run.index(child) + 1
                                answer = formula_of((bits, tok, child, None), {})
                                return answer, bank
                            append((bits, tok, child, None))
                    n += k
            for tok in ops.binary:
                kernel = BINARY_KERNELS[tok]
                mirrored = tok in _MIRRORED
                by_left = binary_rules.get(tok, {})
                default = by_left.get(None, _NONE)
                for i in range(1, size - 1):
                    j = size - 1 - i
                    lefts, rights = bank.by_size[i], bank.by_size[j]
                    if mirrored and i > j:
                        skipped += len(lefts) * len(rights)
                        continue
                    diagonal = mirrored and i == j
                    whole = split_runs(rights, DEADLINE_STRIDE)
                    kept_runs: dict = {}  # skip set -> the rights' runs it keeps
                    for a, left in enumerate(lefts):
                        skip = by_left.get(left[1], default)
                        if diagonal:
                            skipped += a + 1
                            runs = _keep(split_runs(rights, DEADLINE_STRIDE, a + 1), skip)
                        else:
                            runs = kept_runs.get(skip)
                            if runs is None:
                                runs = kept_runs[skip] = _keep(whole, skip)
                        left_bits = left[0]
                        for run, k, kept in runs:
                            if n + k > limit:
                                check_deadline(deadline)
                                limit = n + DEADLINE_STRIDE
                            for right in kept:
                                bits = kernel(left_bits, right[0], layout)
                                add(bits)
                                if len(seen) > known:
                                    known += 1
                                    if bits & first == goal:
                                        n += run.index(right) + 1
                                        answer = formula_of((bits, tok, left, right), {})
                                        return answer, bank
                                    append((bits, tok, left, right))
                            n += k
            size += 1
        return None, bank
    except DeadlineReached:
        if stats is not None:
            stats["enum_size"] = size
        raise
    finally:
        bank.n_generated = n + skipped
        bank.n_pruned = bank.n_generated - len(bank) - (answer is not None)
        if stats is not None:
            stats["n_enumerated"] = bank.n_generated
            stats["n_retained"] = len(bank)
            stats["n_skipped"] = skipped
