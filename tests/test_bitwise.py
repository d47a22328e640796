import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltlflearn.biteval import (
    WORD_BITS,
    CharSequence,
    CharVector,
    cs_apply_binary,
    cs_apply_unary,
    cs_atom,
    cs_bottom,
    cs_top,
    first_bits,
    is_solution,
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
)
from ltlflearn.traces import Alphabet, Sample, Trace

from conftest import eval_reference_all, finally_rounds
from test_acceptance import _random_formula

AABAA = Trace((1, 1, 0, 1, 1))


def cs(text: str) -> CharSequence:
    return CharSequence.from_string(text)


# --- representation ---------------------------------------------------------

def test_string_round_trip():
    s = cs("10110")
    assert s.length == 5
    assert s.bits == 0b01101  # position p is bit p-1
    assert s.to_string() == "10110"


def test_bit_accessor_is_one_indexed():
    s = cs("10110")
    assert [s.bit(p) for p in range(1, 6)] == [True, False, True, True, False]


def test_padding_must_be_zero():
    with pytest.raises(ValueError):
        CharSequence(3, 0b1000)
    with pytest.raises(ValueError):
        CharSequence(0, 0)


def test_words_are_little_endian():
    s = CharSequence(130, 1 | (1 << 64) | (1 << 129))
    assert len(s.words) == 3
    assert s.words[0] == 1 and s.words[1] == 1 and s.words[2] == 2
    assert all(w < (1 << WORD_BITS) for w in s.words)


# --- operator kernels ---------------------------------------------------------

def test_atom_reads_the_trace():
    assert cs_atom(AABAA, 0).to_string() == "11011"


def test_not_respects_padding():
    s = cs_apply_unary("!", cs("11011"))
    assert s.to_string() == "00100"
    assert s.bits >> s.length == 0


def test_strong_next_is_a_right_shift():
    assert cs_apply_unary("X!", cs("11011")).to_string() == "10110"


def test_weak_next_holds_at_last_position():
    assert cs_apply_unary("X", cs("11011")).to_string() == "10111"
    assert cs_apply_unary("X", cs("00000")).to_string() == "00001"


def test_finally_spreads_backwards():
    assert cs_apply_unary("F", cs("00100")).to_string() == "11100"
    assert cs_apply_unary("F", cs("00000")).to_string() == "00000"


def test_finally_rounds_double_the_shift():
    rounds = finally_rounds(cs("0000000100000001"))
    assert len(rounds) == 4  # shifts 1, 2, 4, 8 for length 16
    assert rounds[-1] == cs_apply_unary("F", cs("0000000100000001"))


def test_globally_requires_suffix():
    assert cs_apply_unary("G", cs("11011")).to_string() == "00011"


def test_until_on_the_worked_trace():
    # a U b on aabaa: b has CS 00100; holds at 1, 2, 3.
    a = cs_atom(AABAA, 0)
    b = cs_apply_unary("!", a)
    assert cs_apply_binary("U", a, b).to_string() == "11100"


def test_release_matches_its_definition():
    a = cs("11010")
    b = cs("01110")
    direct = cs_apply_binary("R", a, b)
    not_a, not_b = cs_apply_unary("!", a), cs_apply_unary("!", b)
    via_duality = cs_apply_unary("!", cs_apply_binary("U", not_a, not_b))
    assert direct == via_duality


def test_binary_kernels_reject_mixed_lengths():
    with pytest.raises(ValueError):
        cs_apply_binary("&", cs("10"), cs("101"))


# --- tables -------------------------------------------------------------------

def worked_sample() -> Sample:
    return Sample(
        Alphabet(("a",)),
        (Trace((1, 1, 0, 1, 1)), Trace((0, 1, 1, 1))),
        (Trace((1, 0, 1, 0)), Trace((1, 1, 0))),
    )


def test_table_rows_follow_sample_order():
    t = table_of(StrongNext(Atom(0)), worked_sample())
    assert [r.to_string() for r in t.rows] == ["10110", "1110", "0100", "100"]


def test_first_bits_and_solution_flag():
    s = worked_sample()
    v = first_bits(table_of(StrongNext(Atom(0)), s))
    assert (v.n, v.bits) == (4, 0b1011)
    assert not is_solution(v, s)
    w = first_bits(table_of(Finally(Globally(Atom(0))), s))
    assert (w.n, w.bits) == (4, 0b0011)
    assert is_solution(w, s)


def test_is_solution_checks_width():
    with pytest.raises(ValueError):
        is_solution(CharVector(3, 0b011), worked_sample())


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
    sample = Sample(Alphabet(("a", "b")), (w,), ())
    row = table_of(phi, sample).rows[0]
    expected = eval_reference_all(phi, w)
    assert [row.bit(p) for p in range(1, w.length + 1)] == expected


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
            packed = table_of(phi, sample).bits
            offset = 0
            for w in sample.traces:
                got = [bool(packed >> (offset + p) & 1) for p in range(w.length)]
                assert got == eval_reference_all(phi, w), (phi, lengths, offset)
                offset += w.length
            assert packed >> offset == 0, "bits set beyond the last trace"
    assert ops_seen >= NINE_OPERATORS
