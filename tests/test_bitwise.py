import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltlflearn.biteval import (
    BINARY_KERNELS,
    UNARY_KERNELS,
    Layout,
    first_bits,
    pack_atom,
    table_of,
)
from ltlflearn.formulas import (
    And,
    Atom,
    Bottom,
    Finally,
    Globally,
    Not,
    Or,
    Release,
    StrongNext,
    Top,
    Until,
    WeakNext,
    eval_reference,
)
from ltlflearn.pipeline import separates
from ltlflearn.traces import Alphabet, Sample, Trace

from conftest import (
    atom_rows,
    bits_of,
    doubling_until,
    eval_reference_all,
    finally_rounds,
    one_trace_sample,
    pack_rows,
    string_of,
    table_rows,
    trace_rows,
    value_at,
)
from test_acceptance import _random_formula

AABAA = Trace((1, 1, 0, 1, 1))


def unary(op: str, text: str) -> str:
    """A unary kernel on one trace's bit string."""
    return string_of(UNARY_KERNELS[op](bits_of(text), Layout((len(text),), 1)), len(text))


def binary(op: str, text1: str, text2: str) -> str:
    """A binary kernel on two bit strings of one trace."""
    lay = Layout((len(text1),), 1)
    return string_of(BINARY_KERNELS[op](bits_of(text1), bits_of(text2), lay), len(text1))


# --- representation ---------------------------------------------------------

def test_string_round_trip():
    # Position p of a trace of length n is bit n-p of its packed value.
    assert bits_of("10110") == 0b10110
    assert string_of(0b10110, 5) == "10110"
    w = Trace((1, 0, 1, 1, 0))
    assert table_of(Atom(0), one_trace_sample(w)).bits == bits_of("10110")


def test_bit_accessor_is_one_indexed():
    # The reference counts positions from 1, and so does `value_at`.
    w = Trace((1, 0, 1, 1, 0))
    table = table_of(Atom(0), one_trace_sample(w))
    got = [bool(value_at(table.bits, table.layout, 0, p)) for p in range(1, 6)]
    assert got == [eval_reference(Atom(0), w, p) for p in range(1, 6)]
    assert got == [True, False, True, True, False]


WIDE_LETTERS = st.integers(9, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3), max_size=6),
    )
)


@given(WIDE_LETTERS)
@example((9, [[256], [511], [0], [257]]))
@example((10, [[1 << 9]]))
@example((9, []))
@settings(max_examples=100, deadline=None)
def test_pack_atom_spells_each_trace_row(case):
    # Letters of 9 or more propositions (256 and up) and traces of
    # length 1: each proposition's value must be the rows of its bits,
    # the last trace highest, whatever the other propositions hold.
    n_props, letters = case
    traces = [Trace(tuple(w)) for w in letters]
    for prop in range(n_props):
        rows = atom_rows(traces, prop)
        assert pack_atom(traces, prop) == pack_rows(rows)


# --- operator kernels ---------------------------------------------------------

def test_atom_reads_the_trace():
    assert string_of(table_of(Atom(0), one_trace_sample(AABAA)).bits, 5) == "11011"


def test_not_respects_padding():
    bits = UNARY_KERNELS["!"](bits_of("11011"), Layout((5,), 1))
    assert string_of(bits, 5) == "00100"
    assert bits >> 5 == 0


def test_strong_next_reads_the_next_position():
    assert unary("X!", "11011") == "10110"


def test_weak_next_holds_at_last_position():
    assert unary("X", "11011") == "10111"
    assert unary("X", "00000") == "00001"


@given(st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=130), min_size=1, max_size=6))
@settings(max_examples=300)
def test_weak_next_matches_the_reference_on_random_layouts(rows):
    # Up to six traces of 1-130 letters: slices of one position, and
    # slices that straddle CPython's 30-bit int digits. X sets each
    # trace's last position with `last` and takes the rest from X!.
    traces = [Trace(tuple(letters)) for letters in rows]
    sample = Sample(Alphabet.default(2), tuple(traces), ())
    lay = Layout.of(sample)
    assert lay.last == lay.full ^ lay.notlast
    for phi in (Atom(0), Not(Atom(1)), And(Atom(0), Atom(1)), Finally(Atom(1))):
        table = table_of(WeakNext(phi), sample)
        s = table_of(phi, sample).bits
        assert table.bits == (((s ^ lay.full) << 1) & lay.notlast) ^ lay.full  # X as !X!!
        for i, w in enumerate(traces):
            got = [bool(value_at(table.bits, lay, i, p)) for p in range(1, w.length + 1)]
            assert got == eval_reference_all(WeakNext(phi), w), (phi, i)


def test_finally_spreads_backwards():
    assert unary("F", "00100") == "11100"
    assert unary("F", "00000") == "00000"


def test_finally_rounds_double_the_shift():
    bits = bits_of("0000000100000001")
    rounds = finally_rounds(bits, 16)
    assert len(rounds) == 4  # shifts 1, 2, 4, 8 for length 16
    assert rounds[-1] == UNARY_KERNELS["F"](bits, Layout((16,), 1))


def test_globally_requires_suffix():
    assert unary("G", "11011") == "00011"


def test_until_on_the_worked_trace():
    # a U b on aabaa: b has CS 00100; holds at 1, 2, 3.
    a = string_of(table_of(Atom(0), one_trace_sample(AABAA)).bits, 5)
    assert binary("U", a, unary("!", a)) == "11100"


def test_release_matches_its_definition():
    a, b = "11010", "01110"
    via_duality = unary("!", binary("U", unary("!", a), unary("!", b)))
    assert binary("R", a, b) == via_duality


def test_binary_kernels_keep_mixed_lengths_apart():
    # Two traces of lengths 2 and 3 in one layout: each trace's slice of
    # a kernel's value is the kernel on that trace alone.
    lay = Layout((2, 3), 1)
    for op, kernel in BINARY_KERNELS.items():
        for (x1, y1), (x2, y2) in [(("10", "01"), ("011", "110")),
                                   (("11", "00"), ("101", "010"))]:
            got = kernel(pack_rows([x1, x2]), pack_rows([y1, y2]), lay)
            assert trace_rows(got, lay) == [binary(op, x1, y1), binary(op, x2, y2)], op


# --- the carry kernels against the doubling recurrence -------------------------

@st.composite
def packed_cases(draw):
    """A multi-trace layout with two packed values over it.

    Each value is all-ones, zero, or random, dense or sparse: all-ones
    is where a carry leaking out of a trace would run through every
    trace after it.
    """
    lengths = draw(st.lists(st.integers(1, 130), min_size=1, max_size=5))
    lay = Layout(lengths, draw(st.integers(0, len(lengths))))
    full = lay.full

    def value():
        kind = draw(st.sampled_from(["all-ones", "zero", "random", "dense", "sparse"]))
        if kind == "all-ones":
            return full
        if kind == "zero":
            return 0
        a, b, c = (draw(st.integers(0, full)) for _ in range(3))
        return {"random": a, "dense": a | b | c, "sparse": a & b & c}[kind]

    return lay, value(), value()


@given(packed_cases())
@example((Layout((3, 1, 4), 1), 0xFF, 0b100))  # s1 all-ones, s2 at trace 0's start
@settings(max_examples=300)
def test_carry_kernels_match_the_doubling_recurrence(case):
    lay, s1, s2 = case
    full, notlast = lay.full, lay.notlast
    for s in (s1, s2):
        assert UNARY_KERNELS["F"](s, lay) == doubling_until(notlast, s, lay)
        assert UNARY_KERNELS["G"](s, lay) == doubling_until(notlast, s ^ full, lay) ^ full
        rows = trace_rows(s, lay)
        assert trace_rows(UNARY_KERNELS["X!"](s, lay), lay) == [r[1:] + "0" for r in rows]
        assert trace_rows(UNARY_KERNELS["X"](s, lay), lay) == [r[1:] + "1" for r in rows]
    assert BINARY_KERNELS["U"](s1, s2, lay) == doubling_until(s1 & notlast, s2, lay)
    assert BINARY_KERNELS["R"](s1, s2, lay) == (
        doubling_until((s1 ^ full) & notlast, s2 ^ full, lay) ^ full
    )


# --- tables -------------------------------------------------------------------

def worked_sample() -> Sample:
    return Sample(
        Alphabet(("a",)),
        (Trace((1, 1, 0, 1, 1)), Trace((0, 1, 1, 1))),
        (Trace((1, 0, 1, 0)), Trace((1, 1, 0))),
    )


def test_table_rows_follow_sample_order():
    t = table_of(StrongNext(Atom(0)), worked_sample())
    assert table_rows(t) == ["10110", "1110", "0100", "100"]


LAID_OUT_BITS = st.lists(st.integers(1, 9), max_size=8).flatmap(
    lambda lengths: st.tuples(st.just(lengths), st.integers(0, (1 << sum(lengths)) - 1))
)


@given(LAID_OUT_BITS)
@example(([1], 1))
@example(([7], 0b1000000))
@example(([7], 0b0111111))
@example(([], 0))
@example(([1, 9, 2], 0b1_100000000_10))
@settings(max_examples=300)
def test_vector_is_the_first_bit_of_each_trace(case):
    # Mixed lengths, one trace and none: bit i of the vector is trace i's
    # value at position 1, whatever the other positions hold.
    lengths, bits = case
    lay = Layout(lengths, 0)
    assert lay.vector(bits) == sum(value_at(bits, lay, i, 1) << i for i in range(len(lengths)))


def test_first_bits_and_solution_flag():
    s = worked_sample()
    # A formula separates iff its vector is all ones on the positives
    # and all zeros on the negatives: exactly the positives' bits.
    solution = (1 << s.n_pos) - 1
    v = first_bits(table_of(StrongNext(Atom(0)), s))
    assert (v.n, v.bits) == (4, 0b1011)
    assert v.bits != solution and not separates(StrongNext(Atom(0)), s)
    w = first_bits(table_of(Finally(Globally(Atom(0))), s))
    assert (w.n, w.bits) == (4, 0b0011)
    assert w.bits == solution and separates(Finally(Globally(Atom(0))), s)


def test_table_cache_is_shared_across_calls():
    s = worked_sample()
    cache = {}
    table_of(Finally(Atom(0)), s, cache)
    assert Atom(0) in cache and Finally(Atom(0)) in cache
    again = table_of(Finally(Atom(0)), s, cache)
    assert again is cache[Finally(Atom(0))]


# --- agreement with the reference evaluator -----------------------------------

FORMULAS = st.recursive(
    st.sampled_from([Atom(0), Atom(1), Top(), Bottom()]),
    lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(StrongNext, children),
        st.builds(WeakNext, children),
        st.builds(Finally, children),
        st.builds(Globally, children),
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Until, children, children),
        st.builds(Release, children, children),
    ),
    max_leaves=10,
)


@given(FORMULAS, st.lists(st.integers(0, 3), min_size=1, max_size=100))
@settings(max_examples=400)
def test_bitwise_matches_reference(phi, letters):
    w = Trace(tuple(letters))
    table = table_of(phi, one_trace_sample(w, 2))
    expected = eval_reference_all(phi, w)
    got = [bool(value_at(table.bits, table.layout, 0, p)) for p in range(1, w.length + 1)]
    assert got == expected


# --- packed samples: no bit crosses a trace boundary ---------------------------

NINE_OPERATORS = {Not, StrongNext, WeakNext, Finally, Globally, And, Or, Until, Release}


def _node_types(phi) -> set:
    out = {type(phi)}
    for child in (getattr(phi, "arg", None), getattr(phi, "left", None),
                  getattr(phi, "right", None)):
        if child is not None:
            out |= _node_types(child)
    return out


def test_packed_value_matches_reference_across_trace_boundaries():
    rng = random.Random(1207)
    ops_seen: set = set()
    samples = 0
    while samples < 150:
        n_props = rng.randint(1, 3)
        lengths = [1, rng.randint(65, 100)]
        lengths += [rng.randint(1, 100) for _ in range(rng.randint(1, 4))]
        rng.shuffle(lengths)
        traces = [Trace(tuple(rng.getrandbits(n_props) for _ in range(n))) for n in lengths]
        n_pos = rng.randint(0, len(traces))
        try:
            sample = Sample(Alphabet.default(n_props), tuple(traces[:n_pos]),
                            tuple(traces[n_pos:]))
        except ValueError:  # one trace drawn into both classes; draw again
            continue
        samples += 1
        for _ in range(4):
            phi = _random_formula(rng, n_props, rng.randint(2, 10))
            ops_seen |= _node_types(phi)
            table = table_of(phi, sample)
            packed, lay = table.bits, table.layout
            for i, w in enumerate(sample.traces):
                got = [bool(value_at(packed, lay, i, p)) for p in range(1, w.length + 1)]
                assert got == eval_reference_all(phi, w), (phi, lengths, i)
            assert packed >> sum(lay.lengths) == 0, "bits set beyond the last trace"
    assert ops_seen >= NINE_OPERATORS
