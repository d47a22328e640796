"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass line (visible under -s); the assertions
carry the tolerances. A1/A2 pin the two worked examples bit-exactly,
A3-A8 are randomized property suites at fixed seeds, A9 exercises the
full pipeline at desk scale, and A10 checks that the README is honest
about what desk scale cannot reproduce.
"""

import functools
import os
import random
import time

from ltlflearn.benchgen import TaskSpec, gen_task
from ltlflearn.biteval import first_bits, table_of
from ltlflearn.boolcover import (
    BscInstance,
    NoSolution,
    beam_search,
    div_conq,
    existence_check,
    reduce_instance,
)
from ltlflearn.formulas import (
    And,
    Atom,
    Bottom,
    Finally,
    Globally,
    Not,
    OperatorSet,
    Or,
    Release,
    StrongNext,
    Top,
    Until,
    WeakNext,
)
from ltlflearn.pipeline import LearnerConfig, learn, separates
from ltlflearn.traces import Alphabet, Sample, Trace

from conftest import (
    base_set_scores,
    bits_of,
    dominates,
    eval_reference_all,
    exact_undominated,
    finally_rounds,
    instance,
    inter,
    is_solution_combination,
    leaf,
    one_trace_sample,
    sat_and_weight,
    string_of,
    table_rows,
    union,
    union_shaped_sample,
    value_at,
    weight_of,
)
from test_boolcover import plant_witness, random_instance, witness_is_correct

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _letters(word: str) -> Trace:
    return Trace(tuple(1 if c == "a" else 0 for c in word))


def test_a01_worked_table_bit_exact_under_a_millisecond():
    sample = Sample(
        Alphabet(("a",)),
        (_letters("aabaa"), _letters("baaa")),
        (_letters("abab"), _letters("aab")),
    )
    phi = StrongNext(Atom(0))

    def build():
        t = table_of(phi, sample)
        return t, first_bits(t)

    elapsed = min(_timed(build) for _ in range(10))
    table, vector = build()
    assert table_rows(table) == ["10110", "1110", "0100", "100"]
    assert (vector.n, vector.bits) == (4, 0b1011)
    assert vector.bits != (1 << sample.n_pos) - 1  # not a solution
    assert elapsed < 1e-3
    print(f"A1 pass: rows 10110/1110/0100/100, vector (1,1,0,1) "
          f"not a solution, {elapsed * 1e6:.0f} us")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_a02_finally_reaches_all_ones_after_shifts_1_2_4():
    rounds = finally_rounds(bits_of("0000000100000001"), 16)
    assert [string_of(r, 16) for r in rounds[:3]] == [
        "0000001100000011",
        "0000111100001111",
        "1111111111111111",
    ]
    assert string_of(rounds[1], 16) != "1" * 16
    assert all(r == (1 << 16) - 1 for r in rounds[2:])
    print("A2 pass: or-shifts 1, 2, 4 give all-ones, bit-exact")


def _random_formula(rng: random.Random, n_props: int, budget: int):
    leaves = [lambda: Atom(rng.randrange(n_props))] * 4 + [Top, Bottom]
    if budget == 1:
        return rng.choice(leaves)()
    unary = (Not, StrongNext, WeakNext, Finally, Globally)
    binary = (And, Or, Until, Release)
    if budget == 2 or rng.random() < 0.4:
        return rng.choice(unary)(_random_formula(rng, n_props, budget - 1))
    i = rng.randint(1, budget - 2)
    return rng.choice(binary)(
        _random_formula(rng, n_props, i),
        _random_formula(rng, n_props, budget - 1 - i),
    )


def test_a03_bitwise_matches_reference_on_1e4_pairs():
    rng = random.Random(303)
    t0 = time.perf_counter()
    long_traces = 0
    for trial in range(10_000):
        n_props = rng.randint(1, 3)
        phi = _random_formula(rng, n_props, rng.randint(1, 10))
        length = rng.randint(65, 100) if trial % 5 == 0 else rng.randint(1, 100)
        long_traces += length > 64
        w = Trace(tuple(rng.getrandbits(n_props) for _ in range(length)))
        table = table_of(phi, one_trace_sample(w, n_props))
        ref = eval_reference_all(phi, w)
        got = [bool(value_at(table.bits, table.layout, 0, p)) for p in range(1, length + 1)]
        assert got == ref, (phi, w)
    elapsed = time.perf_counter() - t0
    assert long_traces >= 2000
    assert elapsed < 30.0
    print(f"A3 pass: 10000 formula/trace pairs agree at every position "
          f"({long_traces} traces longer than 64), {elapsed:.1f} s")


def _brute_min_size(sample: Sample, cap: int = 6):
    """Smallest separating size by exhaustive, unpruned enumeration.

    Valuations are computed from the acceptance semantics directly,
    independent of both evaluators under test. No equivalence pruning:
    every syntactically distinct formula of each size is present.
    """
    lengths = [w.length for w in sample.traces]
    n_pos = sample.n_pos

    def unary(op, vals):
        out = []
        for row, ell in zip(vals, lengths):
            if op == "!":
                out.append(tuple(not v for v in row))
            elif op == "X!":
                out.append(tuple(row[p] if p < ell else False for p in range(1, ell + 1)))
            elif op == "X":
                out.append(tuple(row[p] if p < ell else True for p in range(1, ell + 1)))
            elif op == "F":
                acc, rev = False, []
                for v in reversed(row):
                    acc = acc or v
                    rev.append(acc)
                out.append(tuple(reversed(rev)))
            else:  # G
                acc, rev = True, []
                for v in reversed(row):
                    acc = acc and v
                    rev.append(acc)
                out.append(tuple(reversed(rev)))
        return tuple(out)

    def binary(op, vals1, vals2):
        out = []
        for row1, row2 in zip(vals1, vals2):
            if op == "&":
                out.append(tuple(a and b for a, b in zip(row1, row2)))
            elif op == "|":
                out.append(tuple(a or b for a, b in zip(row1, row2)))
            else:  # U, right to left
                nxt, rev = False, []
                for a, b in zip(reversed(row1), reversed(row2)):
                    nxt = b or (a and nxt)
                    rev.append(nxt)
                out.append(tuple(reversed(rev)))
        return tuple(out)

    def separating(vals):
        firsts = [row[0] for row in vals]
        return all(firsts[:n_pos]) and not any(firsts[n_pos:])

    levels: dict[int, list] = {1: []}
    for prop in range(len(sample.alphabet)):
        vals = tuple(
            tuple(bool(letter >> prop & 1) for letter in w.letters)
            for w in sample.traces
        )
        levels[1].append(vals)

    for size in range(1, cap + 1):
        if size > 1:
            new = []
            for op in ("!", "X!", "X", "F", "G"):
                new.extend(unary(op, v) for v in levels[size - 1])
            for op in ("&", "|", "U"):
                for i in range(1, size - 1):
                    for v1 in levels[i]:
                        for v2 in levels[size - 1 - i]:
                            new.append(binary(op, v1, v2))
            levels[size] = new
        if any(separating(v) for v in levels[size]):
            return size
    return None


def test_a04_enumeration_returns_the_exact_minimal_size():
    rng = random.Random(404)
    checked = 0
    while checked < 50:
        n_props = rng.randint(1, 2)

        def rand_trace():
            return Trace(tuple(rng.getrandbits(n_props)
                               for _ in range(rng.randint(1, 10))))

        try:
            sample = Sample(
                Alphabet.default(n_props),
                tuple(rand_trace() for _ in range(rng.randint(1, 3))),
                tuple(rand_trace() for _ in range(rng.randint(1, 3))),
            )
        except ValueError:
            continue
        minimal = _brute_min_size(sample)
        if minimal is None:
            continue
        checked += 1
        result = learn(sample)
        assert result.status == "Solved"
        assert result.method == "EnumOnly"
        assert result.formula.size == minimal
        assert separates(result.formula, sample)
    print("A4 pass: 50 samples solved at the brute-force minimal size, EnumOnly")


def test_a05_div_conq_complete_and_witnesses_correct():
    rng = random.Random(505)
    solved = 0
    while solved < 100:
        inst = random_instance(rng)
        if existence_check(inst) is not None:
            continue
        solved += 1
        out = div_conq(inst, seed=solved)
        assert not isinstance(out, NoSolution)
        assert is_solution_combination(out, inst)

    refuted = 0
    while refuted < 100:
        inst = plant_witness(random_instance(rng), rng)
        refuted += 1
        out = div_conq(inst, seed=refuted)
        assert isinstance(out, NoSolution)
        assert witness_is_correct(out.witness, inst)
    print("A5 pass: 100/100 separable instances solved, "
          "100/100 planted witnesses found")


def _random_combination(rng: random.Random, inst: BscInstance, depth: int):
    if depth == 0 or rng.random() < 0.4:
        return leaf(inst, rng.randrange(len(inst.base_sets)))
    make = union if rng.random() < 0.5 else inter
    return make(
        _random_combination(rng, inst, depth - 1),
        _random_combination(rng, inst, depth - 1),
    )


def _subterms(comb) -> list:
    out = [comb]
    if comb[2] is not None:
        out.extend(_subterms(comb[2]))
        out.extend(_subterms(comb[3]))
    return out


def _substitute(comb, old, new):
    if comb == old:
        return new
    if comb[2] is not None:
        make = union if comb[1] == "|" else inter
        return make(_substitute(comb[2], old, new), _substitute(comb[3], old, new))
    return comb


def test_a06_substituting_a_dominator_never_hurts():
    rng = random.Random(606)
    nontrivial = 0
    for trial in range(1000):
        inst = random_instance(rng)
        theta = _random_combination(rng, inst, rng.randint(1, 3))
        theta2 = rng.choice(_subterms(theta))
        scored2 = sat_and_weight(theta2, inst)
        candidates = [theta2]
        candidates += [leaf(inst, i) for i in range(len(inst.base_sets))]
        candidates += [_random_combination(rng, inst, 2) for _ in range(8)]
        valid = [c for c in candidates
                 if dominates(sat_and_weight(c, inst), scored2)]
        theta1 = rng.choice(valid)
        nontrivial += theta1 != theta2

        sat_before, weight_before = sat_and_weight(theta, inst)
        sat_after, weight_after = sat_and_weight(_substitute(theta, theta2, theta1), inst)
        assert weight_after <= weight_before
        assert sat_before & ~sat_after == 0
    assert nontrivial >= 100
    print(f"A6 pass: 1000 substitution triples keep weight and sat monotone "
          f"({nontrivial} non-trivial)")


def _canon(comb):
    _, op, left, right = comb
    if left is None:
        return ("L", op)
    return (op,) + tuple(sorted((_canon(left), _canon(right))))


def test_a07_worked_cover_instance_is_solved_minimally():
    inst = instance(3, 3, [
        (0b000001, 1),  # phi1 = {p1}
        (0b100110, 1),  # phi2 = {p2, p3, n3}
        (0b010111, 1),  # phi3 = {p1, p2, p3, n2}
    ])

    result = beam_search(inst)
    assert result.is_solution
    comb = result.combination
    assert weight_of(comb, inst) == 5
    expected = union(leaf(inst, 0), inter(leaf(inst, 1), leaf(inst, 2)))
    assert _canon(comb) == _canon(expected)

    def combos(weight):
        if weight == 1:
            yield from (leaf(inst, i) for i in range(3))
            return
        for i in range(1, weight - 1):
            for left in combos(i):
                for right in combos(weight - 1 - i):
                    yield union(left, right)
                    yield inter(left, right)

    for w in range(1, 5):
        assert not any(is_solution_combination(c, inst) for c in combos(w))
    assert any(is_solution_combination(c, inst) for c in combos(5))
    print("A7 pass: beam finds phi1 u (phi2 n phi3), weight 5, "
          "brute force confirms minimality")


def test_a08_domination_reductions_are_sound():
    rng = random.Random(808)
    for _ in range(200):
        inst = random_instance(rng)
        items = base_set_scores(inst)

        def kept(k):  # formula indices keep twins apart
            return [i for _, _, i in reduce_instance(inst, k).base_sets]

        exact = kept(len(items))
        for i in exact:
            for j in exact:
                if i != j:
                    assert not dominates(items[i], items[j])
        for i, item in enumerate(items):
            if i not in exact:
                assert any(dominates(items[j], item) for j in exact)

        sizes = [len(kept(k)) for k in range(1, len(items) + 1)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert exact == exact_undominated(items)
    print("A8 pass: 200 pools reduce to antichains; "
          "approximation monotone in k, exact at full k")


@functools.lru_cache(maxsize=1)
def _union_task_outcome():
    sample = union_shaped_sample(seed=0)
    config = LearnerConfig(operators=OperatorSet.from_names(["X!", "F", "&", "|"]))
    t0 = time.perf_counter()
    result = learn(sample, config)
    return sample, result, time.perf_counter() - t0


def test_a09_desk_scale_end_to_end():
    spec = TaskSpec("ordered-sequence", n_props=3, trace_len=16,
                    n_pos=5, n_neg=5, seed=0, params={"n": 3})
    sample = gen_task(spec)
    t0 = time.perf_counter()
    result = learn(sample)
    quick = time.perf_counter() - t0
    assert result.status == "Solved"
    assert separates(result.formula, sample)
    assert quick < 1.0

    hard_sample, hard, elapsed = _union_task_outcome()
    assert hard.status == "Solved"
    assert hard.method in ("BSC", "BSC+DivConq")
    assert hard.formula.size > 8  # out of reach for direct enumeration
    assert separates(hard.formula, hard_sample)
    assert elapsed < 60.0
    print(f"A9 pass: ordered-sequence n=3 in {quick:.2f} s; "
          f"union task via {hard.method} in {elapsed:.2f} s")


def test_a10_desk_scale_limits_are_documented():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    for marker in ("15,595", "3.54", "3.45", "6.60", "Scarlet", "GPU"):
        assert marker in text, f"README must state what is not reproduced: {marker}"
    assert "collapse" in text.lower()

    _, hard, _ = _union_task_outcome()
    assert hard.stats["collapse_ratio"] >= 1.0
    assert hard.stats["n_base_sets"] >= 1
    print("A10 pass: README states the non-reproducible corpus results; "
          "collapse statistics are reported per run")
