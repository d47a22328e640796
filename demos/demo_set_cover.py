"""The Boolean set cover layer on a worked three-set instance.

Three positives p1..p3 and three negatives n1..n3; three base sets of
unit weight. No single set separates, but a weight-5 combination does.

Run with: python3 demos/demo_set_cover.py
"""

import random

from ltlflearn import BscInstance, NoSolution, beam_search, div_conq, existence_check
from ltlflearn.boolcover import reduce_instance, sat_bits


def bits(*rows: int) -> int:
    out = 0
    for r in rows:
        out |= 1 << r
    return out


def show(members: int, n: int) -> str:
    names = [f"p{i + 1}" for i in range(3)] + [f"n{i + 1}" for i in range(3)]
    return "{" + ", ".join(names[i] for i in range(n) if members >> i & 1) + "}"


def render(comb) -> str:
    """A combination is a back-pointer (rows, op, left, right); a leaf
    holds its base set's formula index in op."""
    _, op, left, right = comb
    if left is None:
        return f"phi{op + 1}"
    return "(" + render(left) + (" u " if op == "|" else " n ") + render(right) + ")"


def weight(comb, inst) -> int:
    _, op, left, right = comb
    if left is None:
        return inst.base_sets[op][1]  # here each set's index is its position
    return 1 + weight(left, inst) + weight(right, inst)


def main() -> None:
    # A base set is (members, weight, index): formulas[index] would be its
    # source formula, phi<index + 1> here. The demo builds no formulas.
    inst = BscInstance(
        pos_mask=bits(0, 1, 2),
        neg_mask=bits(3, 4, 5),
        base_sets=(
            (bits(0), 1, 0),           # phi1 = {p1}
            (bits(1, 2, 5), 1, 1),     # phi2 = {p2, p3, n3}
            (bits(0, 1, 2, 4), 1, 2),  # phi3 = {p1, p2, p3, n2}
        ),
        formulas=(),
    )
    for members, w, i in inst.base_sets:
        print(f"phi{i + 1} = {show(members, 6)}, weight {w}")

    # sat is the set of correctly classified examples: covered positives
    # plus excluded negatives. Its size, the score, orders the beam; a set
    # whose sat another set of no more weight contains is dominated.
    for members, _, i in inst.base_sets:
        sat = sat_bits(members, inst.pos_mask, inst.neg_mask)
        print(f"sat(phi{i + 1}) = {show(sat, 6)}, score {sat.bit_count()}")
    assert reduce_instance(inst, 10).base_sets == inst.base_sets
    print("domination keeps all three: no sat contains another's")
    phi4 = (bits(0), 2, 3)  # {p1} again, heavier
    extended = BscInstance(inst.pos_mask, inst.neg_mask, inst.base_sets + (phi4,), ())
    assert reduce_instance(extended, 10).base_sets == inst.base_sets
    print("phi4 = {p1}, weight 2: dropped, phi1 dominates it")

    print("\nexistence check:", existence_check(inst), "(None means separable)")
    result = beam_search(inst)
    comb = result.combination
    print(f"beam search: {render(comb)} = {show(comb[0], 6)}, "
          f"weight {weight(comb, inst)}, solution={result.is_solution}")

    # Planting a witness: add n1 to every set containing p1. Now any
    # combination covering p1 also admits n1, and the divide-and-conquer
    # proves it by exhausting a 1x1 subproblem.
    planted = BscInstance(inst.pos_mask, inst.neg_mask, tuple(
        (members | bits(3) if members & 1 else members, w, i)
        for members, w, i in inst.base_sets
    ), ())
    out = div_conq(planted, seed=0)
    assert isinstance(out, NoSolution)
    w = out.witness
    print(f"\nplanted instance: NoSolution, witness p{w.pos_index + 1} "
          f"vs n{w.neg_index + 1} (no set covers one without the other)")

    # Larger random instances go through the same machinery.
    rng = random.Random(7)
    solved = 0
    for _ in range(200):
        sets = tuple((rng.getrandbits(12) | 1, rng.randint(1, 4), i) for i in range(8))
        inst = BscInstance(bits(*range(6)), bits(*range(6, 12)), sets, ())
        if existence_check(inst) is None:
            out = div_conq(inst, seed=1)
            solved += not isinstance(out, NoSolution)
    print(f"random instances: {solved} separable ones, all solved")


if __name__ == "__main__":
    main()
