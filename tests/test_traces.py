import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ltlflearn.traces import (
    Alphabet,
    Sample,
    TaskFormatError,
    Trace,
    parse_task,
    serialize_sample,
)

WORKED = """1;1;0;1;1
0;1;1;1
---
1;0;1;0
1;1;0
"""


def test_parse_two_sections():
    sample = parse_task(WORKED).sample
    assert sample.n_pos == 2
    assert sample.n_neg == 2
    assert len(sample.alphabet) == 1
    assert sample.positives[0].letters == (1, 1, 0, 1, 1)
    assert sample.negatives[1].letters == (1, 1, 0)


def test_parse_multi_prop_letters():
    sample = parse_task("1,0;0,1\n---\n0,0\n").sample
    assert len(sample.alphabet) == 2
    assert sample.positives[0].letters == (0b01, 0b10)


def test_names_section():
    task = parse_task("1;0\n---\n0;1\n---\nreq\n")
    assert task.sample.alphabet.props == ("req",)
    assert task.op_names is None


def test_ops_section_is_recognized_by_vocabulary():
    task = parse_task("1\n---\n0\n---\nX!,F,&,|\n")
    assert task.op_names == ("X!", "F", "&", "|")
    assert task.sample.alphabet.props == ("p0",)


def test_ops_then_names():
    task = parse_task("1,0\n---\n0,0\n---\nF,G,U,&\n---\nreq,ack\n")
    assert task.op_names == ("F", "G", "U", "&")
    assert task.sample.alphabet.props == ("req", "ack")


def test_names_then_ops_rejected():
    with pytest.raises(TaskFormatError):
        parse_task("1\n---\n0\n---\nreq\n---\nF,G\n")


def test_blank_lines_and_crlf():
    sample = parse_task("1;1\r\n\r\n---\r\n0;0\r\n").sample
    assert sample.n_pos == 1
    assert sample.positives[0].letters == (1, 1)


def test_empty_positive_block_rejected():
    with pytest.raises(TaskFormatError):
        parse_task("---\n0;1\n")


def test_empty_trace_line_detail():
    with pytest.raises(TaskFormatError, match="line 1"):
        parse_task(";\n---\n0\n")


def test_ragged_letter_width_rejected():
    with pytest.raises(TaskFormatError):
        parse_task("1,0;1\n---\n0,0\n")


def test_bad_bit_rejected():
    with pytest.raises(TaskFormatError, match="line 3"):
        parse_task("1;0\n---\n2;0\n")


def test_bad_letter_after_many_good_copies_names_its_own_line():
    # Each letter text is checked once per task; a later bad one still is.
    good = "1,0;0,1;1,1\n" * 40
    with pytest.raises(TaskFormatError, match=r"^line 42: expected bit 0 or 1, got '2'$"):
        parse_task(good + "---\n0,1;1,2\n")
    with pytest.raises(TaskFormatError, match=r"^line 41: inconsistent letter width: "
                                              r"expected 2 bits, got 3$"):
        parse_task(good + "1,0;0,1,0\n---\n0,0\n")
    assert parse_task(good + "---\n0,0;1,0\n").sample.positives[39].letters == (1, 2, 3)


@pytest.mark.parametrize(
    "text,message",
    [
        # A new text of the wrong width after known ones, in the negatives.
        ("1,0;0,1\n0,0\n---\n0,1;1,1\n1,0;0,0;1\n",
         "line 5: inconsistent letter width: expected 2 bits, got 1"),
        # A new text first on its line, the rest known.
        ("1,0;0,1\n---\n0,0,1;1,0\n", "line 3: inconsistent letter width: expected 2 bits, got 3"),
        # Neither 0 nor 1, after known texts on the same line.
        ("1,0;0,1\n0,0\n---\n0,1;1,0;0,x\n", "line 4: expected bit 0 or 1, got 'x'"),
        ("1\n\n---\n0;1;-1\n", "line 4: expected bit 0 or 1, got '-1'"),
    ],
)
def test_a_bad_letter_text_is_named_at_its_own_line(text, message):
    with pytest.raises(TaskFormatError) as err:
        parse_task(text)
    assert str(err.value) == message


def test_a_negative_letter_is_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        Trace((1, 0, -2, 3))


def test_a_letter_beyond_the_alphabet_is_named_at_its_first_occurrence():
    # The first offender in sample order, not the largest letter.
    sample = (Trace((0, 1)),), (Trace((1, 0)), Trace((1, 2, 8, 4)), Trace((16,)))
    with pytest.raises(ValueError, match=r"^letter 0x2 uses bits beyond the 1-proposition"):
        Sample(Alphabet.default(1), *sample)
    with pytest.raises(ValueError, match=r"^letter 0x8 uses bits beyond the 3-proposition"):
        Sample(Alphabet.default(3), *sample)


def test_width_must_match_names():
    with pytest.raises(TaskFormatError):
        parse_task("1,0\n---\n0,0\n---\nonly_one\n")


def test_reserved_prop_names_rejected():
    # "F,req" is not all operator tokens, so it must be a names line,
    # and "F" is reserved.
    with pytest.raises(TaskFormatError, match="F"):
        parse_task("1,0\n---\n0,0\n---\nF,req\n")
    with pytest.raises(ValueError):
        Alphabet(("true",))


def test_overlapping_classes_rejected():
    with pytest.raises(ValueError, match="both"):
        Sample(Alphabet.default(1), (Trace((1, 0)),), (Trace((1, 0)),))


def test_a_trace_in_both_classes_is_a_format_error_at_its_negative():
    with pytest.raises(TaskFormatError, match=r"^line 4: .*both"):
        parse_task("1;0\n---\n0\n1;0\n")


def test_a_name_given_twice_is_a_format_error_at_its_line():
    with pytest.raises(TaskFormatError, match=r"^line 5: .*unique"):
        parse_task("1,0\n---\n0,0\n---\nreq,req\n")


def _trace_lines(width):
    letter = st.lists(st.sampled_from("01"), min_size=width, max_size=width).map(",".join)
    trace = st.lists(letter, min_size=1, max_size=2).map(";".join)
    return st.lists(trace, max_size=3)


@st.composite
def task_texts(draw):
    """Well-formed trace lines, two blocks of them over one or two
    widths, then an optional ops and an optional names section. Short
    traces over small alphabets, so that the classes often share one."""
    widths = draw(st.lists(st.integers(1, 2), min_size=2, max_size=2))
    blocks = [draw(_trace_lines(width)) for width in widths]
    lines = blocks[0] + ["---"] + blocks[1]
    if draw(st.booleans()):
        lines += ["---", ",".join(draw(st.lists(st.sampled_from(["F", "G", "X!", "&", "|", "U"]),
                                                min_size=1, max_size=3)))]
    if draw(st.booleans()):
        lines += ["---", ",".join(draw(st.lists(st.sampled_from(["a", "b", "p0", "F", "true"]),
                                                min_size=1, max_size=3)))]
    return "\n".join(lines) + "\n"


@given(task_texts())
@example("0\n---\n0\n")
@example("0,1\n---\n1,1\n---\na,a\n")
def test_a_task_text_parses_or_raises_a_format_error(text):
    try:
        task = parse_task(text)
    except TaskFormatError:
        return
    assert task.sample.n_pos and task.sample.n_neg


def test_duplicates_within_class_kept():
    sample = parse_task("1;0\n1;0\n---\n0;0\n").sample
    assert sample.n_pos == 2


def test_trace_accessors():
    w = Trace((0b01, 0b10, 0b11))
    assert w.length == 3
    assert [[letter >> prop & 1 for prop in (0, 1)] for letter in w.letters] == [
        [1, 0], [0, 1], [1, 1]
    ]


def test_serialize_round_trip_default_names():
    sample = parse_task(WORKED).sample
    text = serialize_sample(sample)
    assert "---" in text and "a" not in text  # default names omitted
    again = parse_task(text).sample
    assert again.positives == sample.positives
    assert again.negatives == sample.negatives


def test_serialize_round_trip_custom_names():
    task = parse_task("1,0;0,1\n---\n0,0\n---\nreq,ack\n")
    text = serialize_sample(task.sample)
    assert text.splitlines()[-1] == "req,ack"
    assert parse_task(text).sample == task.sample


def test_serialize_with_ops():
    task = parse_task("1\n---\n0\n---\nF,G\n")
    text = serialize_sample(task.sample, op_names=task.op_names)
    round_tripped = parse_task(text)
    assert round_tripped.op_names == ("F", "G")


def test_alphabet_default_and_index():
    alpha = Alphabet.default(3)
    assert alpha.props == ("p0", "p1", "p2")
    assert alpha.index("p1") == 1
