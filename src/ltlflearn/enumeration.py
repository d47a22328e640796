"""Size-ordered formula enumeration with observational-equivalence pruning.

Formulas are generated bottom-up by size: size s+1 candidates are unary
operators over retained size-s formulas and binary operators over
retained pairs of sizes (i, j) with i + j = s. Each candidate's packed
value (see `biteval`) is one kernel call on its children's values; a
candidate whose value equals an already-retained one is observationally
equivalent on this sample and is discarded. The first candidate that
separates the sample is returned immediately; because sizes are
enumerated in increasing order, it is size-minimal for the operator set.

The order is fully deterministic: within one size, unary products come
before binary products, operators iterate in their declaration order,
operand pairs iterate i = 1..s-1, and ties between observationally
equivalent formulas keep the first one generated. Candidates are
checked for being a solution before the equivalence check, and the
size-1 seeds are solution-checked too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .biteval import BINARY_KERNELS, UNARY_KERNELS, Layout, pack_atom
from .deadlines import DEADLINE_STRIDE, check_deadline
from .formulas import (
    Atom,
    Bottom,
    Formula,
    OperatorSet,
    Top,
    build_binary,
    build_unary,
)
from .traces import Sample

@dataclass(frozen=True, slots=True)
class BankEntry:
    """A retained formula with its packed value on the sample."""

    formula: Formula
    bits: int


@dataclass
class FormulaBank:
    """Retained formulas grouped by size, plus the equivalence index.

    `seen` holds the packed value of every retained formula; a packed
    value identifies a characteristic table, so it is the equivalence
    key as it stands. `layout` is the sample layout the values use.
    """

    layout: Layout
    by_size: dict[int, list[BankEntry]] = field(default_factory=dict)
    seen: set[int] = field(default_factory=set)
    n_generated: int = 0
    n_pruned: int = 0

    def entries(self):
        """All retained entries in enumeration order."""
        for size in sorted(self.by_size):
            yield from self.by_size[size]

    def __len__(self) -> int:
        return sum(len(v) for v in self.by_size.values())


def enumerate_bounded(
    sample: Sample,
    ops: OperatorSet,
    max_size: Optional[int],
    *,
    include_consts: bool = False,
    deadline: Optional[float] = None,
) -> tuple[Optional[Formula], FormulaBank]:
    """Enumerate sizes 1..max_size; stop early on the first separator.

    Returns (solution, bank). With max_size=None enumeration is
    unbounded and runs until a solution or the deadline; memory is the
    operational limit in that mode. `include_consts` adds true/false to
    the size-1 seeds (off by default: with F and G primitive they never
    shrink a minimal separator). The deadline is checked at the start
    of every size level and every 4096 candidates.
    """
    if max_size is not None and max_size < 1:
        raise ValueError("max_size must be >= 1")
    layout = Layout.of(sample)
    first, goal = layout.first, layout.pos_first
    bank = FormulaBank(layout)
    seen = bank.seen

    seeds = [
        (Atom(prop), pack_atom(sample.traces, prop)) for prop in range(len(sample.alphabet))
    ]
    if include_consts:
        seeds += [(Top(), layout.full), (Bottom(), 0)]
    level = bank.by_size[1] = []
    for formula, bits in seeds:
        bank.n_generated += 1
        if bits & first == goal:
            return formula, bank
        if bits in seen:
            bank.n_pruned += 1
            continue
        seen.add(bits)
        level.append(BankEntry(formula, bits))

    size = 2
    while max_size is None or size <= max_size:
        check_deadline(deadline)
        level = bank.by_size[size] = []
        # The unary and binary loops share one body, inlined: it runs
        # once per candidate.
        for tok in ops.unary:
            kernel = UNARY_KERNELS[tok]
            for entry in bank.by_size[size - 1]:
                bits = kernel(entry.bits, layout)
                bank.n_generated += 1
                if not bank.n_generated % DEADLINE_STRIDE:
                    check_deadline(deadline)
                if bits & first == goal:
                    return build_unary(tok, entry.formula), bank
                if bits in seen:
                    bank.n_pruned += 1
                else:
                    seen.add(bits)
                    level.append(BankEntry(build_unary(tok, entry.formula), bits))
        for tok in ops.binary:
            kernel = BINARY_KERNELS[tok]
            for i in range(1, size - 1):
                rights = bank.by_size[size - 1 - i]
                for left in bank.by_size[i]:
                    left_bits = left.bits
                    for right in rights:
                        bits = kernel(left_bits, right.bits, layout)
                        bank.n_generated += 1
                        if not bank.n_generated % DEADLINE_STRIDE:
                            check_deadline(deadline)
                        if bits & first == goal:
                            return build_binary(tok, left.formula, right.formula), bank
                        if bits in seen:
                            bank.n_pruned += 1
                        else:
                            seen.add(bits)
                            formula = build_binary(tok, left.formula, right.formula)
                            level.append(BankEntry(formula, bits))
        size += 1
    return None, bank

