"""The Boolean set cover layer on a worked three-set instance.

Three positives p1..p3 and three negatives n1..n3; three base sets of
unit weight. No single set separates, but a weight-5 combination does.

Run with: python3 demos/demo_set_cover.py
"""

import random

from ltlflearn.boolcover import (
    BscInstance,
    NoSolution,
    beam_search,
    div_conq,
    existence_check,
    reduce_instance,
)


def bits(*rows: int) -> int:
    out = 0
    for r in rows:
        out |= 1 << r
    return out


def show(members: int, n: int) -> str:
    names = [f"p{i + 1}" for i in range(3)] + [f"n{i + 1}" for i in range(3)]
    return "{" + ", ".join(names[i] for i in range(n) if members >> i & 1) + "}"


def base_set(members: int, weight: int, label: str) -> tuple:
    """A base set (members, weight, leaf). `collapse` makes the leaf from
    an enumerated formula's back-pointer; here it holds only a label."""
    return (members, weight, (members, label, None, None))


def render(comb) -> str:
    """A combination is a back-pointer (rows, op, left, right); a leaf
    here holds its label in op and no children."""
    _, op, left, right = comb
    if left is None:
        return op
    return "(" + render(left) + (" u " if op == "|" else " n ") + render(right) + ")"


def weight(comb, inst) -> int:
    _, op, left, right = comb
    if left is None:
        return next(w for _, w, leaf in inst.base_sets if leaf is comb)
    return 1 + weight(left, inst) + weight(right, inst)


def main() -> None:
    # The demo builds no formulas: each leaf is labelled phi1..phi3.
    inst = BscInstance(
        pos_mask=bits(0, 1, 2),
        neg_mask=bits(3, 4, 5),
        base_sets=(
            base_set(bits(0), 1, "phi1"),
            base_set(bits(1, 2, 5), 1, "phi2"),
            base_set(bits(0, 1, 2, 4), 1, "phi3"),
        ),
    )
    for members, w, leaf in inst.base_sets:
        print(f"{leaf[1]} = {show(members, 6)}, weight {w}")

    # sat is the set of correctly classified examples: covered positives
    # plus excluded negatives. Its size, the score, orders the beam; a set
    # whose sat another set of no more weight contains is dominated.
    universe = inst.pos_mask | inst.neg_mask
    for members, _, leaf in inst.base_sets:
        sat = members & universe ^ inst.neg_mask
        print(f"sat({leaf[1]}) = {show(sat, 6)}, score {sat.bit_count()}")
    assert reduce_instance(inst, 10).base_sets == inst.base_sets
    print("domination keeps all three: no sat contains another's")
    phi4 = base_set(bits(0), 2, "phi4")  # {p1} again, heavier
    extended = BscInstance(inst.pos_mask, inst.neg_mask, inst.base_sets + (phi4,))
    assert reduce_instance(extended, 10).base_sets == inst.base_sets
    print("phi4 = {p1}, weight 2: dropped, phi1 dominates it")

    print("\nexistence check:", existence_check(inst), "(None means separable)")
    comb = beam_search(inst)
    print(f"beam search: {render(comb)} = {show(comb[0], 6)}, weight {weight(comb, inst)}")

    # Planting a witness: add n1 to every set containing p1. Now any
    # combination covering p1 also admits n1, and the divide-and-conquer
    # proves it by exhausting a 1x1 subproblem.
    planted = BscInstance(inst.pos_mask, inst.neg_mask, tuple(
        base_set(members | bits(3) if members & 1 else members, w, leaf[1])
        for members, w, leaf in inst.base_sets
    ))
    out = div_conq(planted, seed=0)
    assert isinstance(out, NoSolution)
    w = out.witness
    print(f"\nplanted instance: NoSolution, witness p{w.pos_index + 1} "
          f"vs n{w.neg_index + 1} (no set covers one without the other)")

    # Larger random instances go through the same machinery.
    rng = random.Random(7)
    solved = 0
    for _ in range(200):
        sets = tuple(
            base_set(rng.getrandbits(12) | 1, rng.randint(1, 4), f"phi{i + 1}") for i in range(8)
        )
        inst = BscInstance(bits(*range(6)), bits(*range(6, 12)), sets)
        if existence_check(inst) is None:
            out = div_conq(inst, seed=1)
            solved += not isinstance(out, NoSolution)
    print(f"random instances: {solved} separable ones, all solved")


if __name__ == "__main__":
    main()
