"""Size-ordered formula enumeration with observational-equivalence pruning.

Formulas are generated bottom-up by size, up to a given bound: the
size-1 seeds are the atoms, and size s+1 candidates are unary
operators over retained size-s formulas and binary operators over
retained pairs of sizes (i, j) with i + j = s. true and false are not
seeded: with F and G primitive they never shrink a minimal separator.
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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .biteval import BINARY_KERNELS, UNARY_KERNELS, Layout, pack_atom
from .deadlines import DEADLINE_STRIDE, DeadlineReached, check_deadline, split_runs
from .formulas import Atom, Formula, OperatorSet, build_binary, build_unary
from .traces import Sample

# Binary operators whose operands commute and whose value on equal
# operands is that operand: a & b == b & a and a & a == a.
_MIRRORED = ("&", "|")


@dataclass(frozen=True, slots=True)
class BankEntry:
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


@dataclass
class FormulaBank:
    """Retained candidates grouped by size, as back-pointers.

    `by_size[s]` lists the size-s entries `(bits, op, left, right)` in
    enumeration order; their packed values are all distinct. `layout`
    is the sample layout the packed values use.
    """

    layout: Layout
    by_size: dict[int, list[tuple]] = field(default_factory=dict)
    n_generated: int = 0
    n_pruned: int = 0

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
    enumerated.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    layout = Layout.of(sample)
    first, goal = layout.first, layout.pos_first
    bank = FormulaBank(layout)
    seen: set[int] = set()  # the retained packed values, the equivalence keys
    answer: Optional[Formula] = None
    n = 0  # candidates evaluated
    skipped = 0  # mirrors counted as candidates but not evaluated
    size = 1

    try:
        level = bank.by_size[1] = []
        for prop in range(len(sample.alphabet)):
            formula, bits = Atom(prop), pack_atom(sample.traces, prop)
            n += 1
            if bits not in seen:
                if bits & first == goal:
                    answer = formula
                    return answer, bank
                seen.add(bits)
                level.append((bits, formula, None, None))

        size = 2
        while size <= max_size:
            check_deadline(deadline)
            limit = n + DEADLINE_STRIDE  # no run may take `n` past it unchecked
            level = bank.by_size[size] = []
            append = level.append
            children = split_runs(bank.by_size[size - 1], DEADLINE_STRIDE)
            # The unary and binary loops share one body, inlined: it
            # runs once per candidate. A value already in `seen` was
            # solution-tested when it was retained.
            for tok in ops.unary:
                kernel = UNARY_KERNELS[tok]
                for run, k in children:
                    if n + k > limit:
                        check_deadline(deadline)
                        limit = n + DEADLINE_STRIDE
                    for child in run:
                        bits = kernel(child[0], layout)
                        if bits not in seen:
                            if bits & first == goal:
                                n += run.index(child) + 1
                                answer = formula_of((bits, tok, child, None), {})
                                return answer, bank
                            seen.add(bits)
                            append((bits, tok, child, None))
                    n += k
            for tok in ops.binary:
                kernel = BINARY_KERNELS[tok]
                mirrored = tok in _MIRRORED
                for i in range(1, size - 1):
                    j = size - 1 - i
                    lefts, rights = bank.by_size[i], bank.by_size[j]
                    if mirrored and i > j:
                        skipped += len(lefts) * len(rights)
                        continue
                    diagonal = mirrored and i == j
                    runs = split_runs(rights, DEADLINE_STRIDE)
                    for a, left in enumerate(lefts):
                        if diagonal:
                            skipped += a + 1
                            runs = split_runs(rights, DEADLINE_STRIDE, a + 1)
                        left_bits = left[0]
                        for run, k in runs:
                            if n + k > limit:
                                check_deadline(deadline)
                                limit = n + DEADLINE_STRIDE
                            for right in run:
                                bits = kernel(left_bits, right[0], layout)
                                if bits not in seen:
                                    if bits & first == goal:
                                        n += run.index(right) + 1
                                        answer = formula_of((bits, tok, left, right), {})
                                        return answer, bank
                                    seen.add(bits)
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
