"""Shared sample, bank and set-cover helpers used across the test modules."""

import random
from typing import Optional

from ltlflearn.biteval import Layout, table_of
from ltlflearn.boolcover import (
    BoolCombination,
    BscInstance,
    Inter,
    Leaf,
    Union,
    eval_combination,
    sat_bits,
)
from ltlflearn.enumeration import BankEntry, FormulaBank
from ltlflearn.formulas import And, Atom, Finally, Or, StrongNext, eval_reference
from ltlflearn.traces import Alphabet, Sample, Trace


def bank_from_formulas(sample: Sample, formulas) -> FormulaBank:
    """Build a bank from given formulas, in order, dedup by packed value.

    For hand-made set-cover instances; no solution check is performed.
    """
    bank = FormulaBank(Layout.of(sample))
    cache: dict = {Layout: bank.layout}
    for phi in formulas:
        bits = table_of(phi, sample, cache).bits
        bank.n_generated += 1
        if bits in bank.seen:
            bank.n_pruned += 1
            continue
        bank.seen.add(bits)
        bank.by_size.setdefault(phi.size, []).append(BankEntry(phi, bits))
    return bank


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


def is_solution_combination(comb: BoolCombination, inst: BscInstance) -> bool:
    return eval_combination(comb, inst.base_sets) & inst.universe == inst.pos_mask


def witness_solution(inst: BscInstance) -> BoolCombination:
    """The constructive solution ∪_p ∩_{F ∋ p} F; requires existence.

    A completeness backstop of weight O(|base sets| * |P|).
    """
    thetas: list[BoolCombination] = []
    for p in range(inst.n_pos):
        bit = 1 << p
        part: Optional[BoolCombination] = None
        for i, bs in enumerate(inst.base_sets):
            if bs.members & bit:
                leaf = Leaf(i, bs.weight)
                part = leaf if part is None else Inter(part, leaf)
        if part is None:
            raise ValueError(f"positive {p} is in no base set")
        thetas.append(part)
    theta: BoolCombination = thetas[0]
    for part in thetas[1:]:
        theta = Union(theta, part)
    if not is_solution_combination(theta, inst):
        raise ValueError("existence check fails on this instance")
    return theta


# --- the domination oracle ------------------------------------------------------

def sat_and_weight(comb: BoolCombination, inst: BscInstance) -> tuple[int, int]:
    """The rows a combination classifies correctly, and its weight."""
    ev = eval_combination(comb, inst.base_sets) & inst.universe
    return sat_bits(ev, inst.pos_mask, inst.neg_mask), comb.weight


def base_set_scores(inst: BscInstance) -> list[tuple[int, int]]:
    """(sat, weight) of every base set, in order."""
    return [(sat_bits(bs.members, inst.pos_mask, inst.neg_mask), bs.weight)
            for bs in inst.base_sets]


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
