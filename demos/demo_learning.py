"""Walk through the evaluation engine and the learner on a tiny sample.

Run with: python3 demos/demo_learning.py
"""

from ltlflearn import LearnerConfig, learn, parse_task, render_formula
from ltlflearn.biteval import first_bits, table_of
from ltlflearn.enumeration import enumerate_bounded
from ltlflearn.formulas import DEFAULT_OPERATORS, Atom, StrongNext

SAMPLE = """\
1;1;0;1;1
0;1;1;1
---
1;0;1;0
1;1;0
---
a
"""


def main() -> None:
    sample = parse_task(SAMPLE).sample
    print("sample: 2 positive, 2 negative traces over", sample.alphabet.props)

    # A formula's characteristic table is one int with one bit per
    # position of the sample. Trace i's slice starts at bit offsets[i],
    # with position 1 at its top: position p is bit offset + length - p.
    phi = StrongNext(Atom(0))
    table = table_of(phi, sample)
    lay = table.layout
    print(f"\npacked value of {render_formula(phi, sample.alphabet)}: {table.bits}; "
          "its rows, position 1 leftmost:")
    for i, (offset, length) in enumerate(zip(lay.offsets, lay.lengths)):
        row = "".join(str(table.bits >> (offset + length - p) & 1) for p in range(1, length + 1))
        print(f"  trace {i}, bits {offset}..{offset + length - 1}: {row}")
    vector = first_bits(table)
    print("first bits per trace:", [int(vector.bits >> i & 1) for i in range(vector.n)])
    print("a solution needs (1, 1, 0, 0); X! a is not one")

    # Enumeration by size with observational equivalence: formulas that
    # evaluate identically on the sample collapse to one representative.
    found, bank = enumerate_bounded(sample, DEFAULT_OPERATORS, max_size=3)
    print(f"\nenumerated {bank.n_generated} candidates up to size 3, "
          f"kept {len(bank)} distinct, pruned {bank.n_pruned} equivalent")
    print("first separator found:",
          render_formula(found, sample.alphabet) if found else None)

    # The full pipeline: enumerate, and only if that fails, set cover.
    result = learn(sample, LearnerConfig(timeout=10.0))
    print(f"\nlearn: {result.status} via {result.method} "
          f"in {result.stats['elapsed_s'] * 1000:.2f} ms")
    print("formula:", render_formula(result.formula, sample.alphabet))
    print("size:", result.formula.size, "(guaranteed minimal for this sample)")


if __name__ == "__main__":
    main()
