"""Shared sample and bank builders used across the test modules."""

import random

from ltlflearn.biteval import Layout, table_of
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
