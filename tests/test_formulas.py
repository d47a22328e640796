import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltlflearn import formulas
from ltlflearn.biteval import BINARY_KERNELS, UNARY_KERNELS
from ltlflearn.formulas import (
    BINARY_REFERENCE,
    DEFAULT_OPERATORS,
    OPERATOR_TOKENS,
    RESERVED_NAMES,
    UNARY_REFERENCE,
    And,
    Atom,
    Bottom,
    Finally,
    FormulaSyntaxError,
    Globally,
    Not,
    OperatorSet,
    Or,
    Release,
    StrongNext,
    Top,
    Until,
    WeakNext,
    _compile,
    build_binary,
    build_unary,
    compile_reference,
    eval_reference,
    parse_formula,
    render_formula,
)
from ltlflearn.traces import Alphabet, Trace

from conftest import biteval_imports, eval_reference_all

ALPHA2 = Alphabet(("a", "b"))


def trace(*masks: int) -> Trace:
    return Trace(tuple(masks))


# --- sizes ----------------------------------------------------------------

def test_sizes_count_nodes_shortcuts_included():
    a = Atom(0)
    assert a.size == 1
    assert Not(a).size == 2
    assert StrongNext(a).size == 2
    assert WeakNext(a).size == 2  # a shortcut still counts as one node
    assert Finally(a).size == 2
    assert Globally(Finally(a)).size == 3
    assert Until(a, Atom(1)).size == 3
    assert And(Finally(a), Finally(Atom(1))).size == 5
    assert Top().size == 1 and Bottom().size == 1


# --- reference semantics ---------------------------------------------------

def test_atom_and_not():
    w = trace(0b01, 0b10)
    assert eval_reference(Atom(0), w, 1)
    assert not eval_reference(Atom(0), w, 2)
    assert eval_reference(Not(Atom(0)), w, 2)


def test_strong_next_fails_at_last_position():
    w = trace(0b1, 0b1)
    assert eval_reference(StrongNext(Atom(0)), w, 1)
    assert not eval_reference(StrongNext(Atom(0)), w, 2)


def test_weak_next_holds_at_last_position():
    w = trace(0b0, 0b0)
    assert not eval_reference(WeakNext(Atom(0)), w, 1)
    assert eval_reference(WeakNext(Atom(0)), w, 2)


def test_finally_and_globally():
    w = trace(0, 0, 1)
    assert eval_reference(Finally(Atom(0)), w, 1)
    assert not eval_reference(Globally(Atom(0)), w, 1)
    assert eval_reference(Globally(Atom(0)), w, 3)


def test_until_needs_the_goal_to_occur():
    # a a b: a U b holds at 1; a U b fails where neither holds onward.
    w = trace(0b01, 0b01, 0b10)
    phi = Until(Atom(0), Atom(1))
    assert eval_reference_all(phi, w) == [True, True, True]
    # without any b, a U b is false even on all-a traces
    assert not eval_reference(phi, trace(0b01, 0b01), 1)


def test_until_requires_left_to_hold_up_to_goal():
    # b at the end, a broken in the middle
    w = trace(0b01, 0b00, 0b10)
    assert not eval_reference(Until(Atom(0), Atom(1)), w, 1)


def test_release_is_dual_of_until():
    cases = [trace(0b01, 0b10, 0b11), trace(0b00, 0b01), trace(0b11, 0b11, 0b00, 0b10)]
    phi = Release(Atom(0), Atom(1))
    dual = Not(Until(Not(Atom(0)), Not(Atom(1))))
    for w in cases:
        assert eval_reference_all(phi, w) == eval_reference_all(dual, w)


def test_top_bottom():
    w = trace(0b0)
    assert eval_reference(Top(), w, 1)
    assert not eval_reference(Bottom(), w, 1)


def test_finally_is_top_until():
    w = trace(0b0, 0b1, 0b0)
    assert eval_reference_all(Finally(Atom(0)), w) == eval_reference_all(
        Until(Top(), Atom(0)), w
    )


def test_out_of_range_position_rejected():
    with pytest.raises(ValueError):
        eval_reference(Atom(0), trace(1), 2)
    with pytest.raises(ValueError):
        eval_reference(Atom(0), trace(1), 0)


# --- operator sets ----------------------------------------------------------

def test_default_operator_set():
    assert DEFAULT_OPERATORS.unary == ("!", "X!", "X", "F", "G")
    assert DEFAULT_OPERATORS.binary == ("&", "|", "U")  # R is opt-in


UNARY_CLASSES = (Not, StrongNext, WeakNext, Finally, Globally)
BINARY_CLASSES = (And, Or, Until, Release)


def test_each_token_names_one_operator_everywhere():
    unary = tuple(cls.token for cls in UNARY_CLASSES)
    binary = tuple(cls.token for cls in BINARY_CLASSES)
    assert unary == ("!", "X!", "X", "F", "G")
    assert binary == ("&", "|", "U", "R")
    for cls in UNARY_CLASSES:
        phi = build_unary(cls.token, Atom(0))
        assert type(phi) is cls
        assert render_formula(phi, ALPHA2) == f"{cls.token}(a)"
        assert parse_formula(render_formula(phi, ALPHA2), ALPHA2) == phi
    for cls in BINARY_CLASSES:
        phi = build_binary(cls.token, Atom(0), Atom(1))
        assert type(phi) is cls
        assert render_formula(phi, ALPHA2) == f"a {cls.token} b"
        assert parse_formula(render_formula(phi, ALPHA2), ALPHA2) == phi
    assert tuple(UNARY_KERNELS) == tuple(UNARY_REFERENCE) == unary
    assert tuple(BINARY_KERNELS) == tuple(BINARY_REFERENCE) == binary
    everything = OperatorSet.from_names(unary + binary)
    assert (everything.unary, everything.binary) == (unary, binary)
    assert OPERATOR_TOKENS == set(unary + binary)
    assert (Top.token, Bottom.token) == ("true", "false")
    assert RESERVED_NAMES == {"X", "F", "G", "U", "R", "true", "false"}


def test_from_names_partitions_and_validates():
    ops = OperatorSet.from_names(["F", "&", "X!", "|"])
    assert ops.unary == ("X!", "F")
    assert ops.binary == ("&", "|")
    assert tuple(ops.names()) == ("X!", "F", "&", "|")
    with pytest.raises(ValueError):
        OperatorSet.from_names(["F", "W"])


# --- parsing and rendering ---------------------------------------------------

@pytest.mark.parametrize(
    "text,expected",
    [
        ("a", Atom(0)),
        ("!a", Not(Atom(0))),
        ("X! a", StrongNext(Atom(0))),
        ("X a", WeakNext(Atom(0))),
        ("X!a", StrongNext(Atom(0))),
        ("F(a)", Finally(Atom(0))),
        ("a & b | a", Or(And(Atom(0), Atom(1)), Atom(0))),
        ("a | b & a", Or(Atom(0), And(Atom(1), Atom(0)))),
        ("a U b U a", Until(Atom(0), Until(Atom(1), Atom(0)))),
        ("a & b & a", And(And(Atom(0), Atom(1)), Atom(0))),
        ("a R b", Release(Atom(0), Atom(1))),
        ("G F a", Globally(Finally(Atom(0)))),
        ("!a U b", Until(Not(Atom(0)), Atom(1))),
        ("(a | b) & a", And(Or(Atom(0), Atom(1)), Atom(0))),
        ("true U a", Until(Top(), Atom(0))),
        ("false", Bottom()),
    ],
)
def test_parse(text, expected):
    assert parse_formula(text, ALPHA2) == expected


# Each text the parser rejects, with the offset and message it reports.
PARSE_ERRORS = {
    "": (0, "unexpected end of input"),
    "a &": (3, "unexpected end of input"),
    "& a": (0, "unexpected token '&'"),
    "(a": (2, "unexpected end of input"),
    "a)": (1, "unexpected token ')'"),
    "c": (0, "unknown proposition 'c'"),
    "a U": (3, "unexpected end of input"),
    "X": (1, "unexpected end of input"),
    "a b": (2, "unexpected token 'b'"),
    "!": (1, "unexpected end of input"),
    "F": (1, "unexpected end of input"),
    "a & | b": (4, "unexpected token '|'"),
    "a U b R": (7, "unexpected end of input"),
    "(a U b": (6, "unexpected end of input"),
    "X! U a": (3, "unexpected token 'U'"),
    "a R R b": (4, "unexpected token 'R'"),
    "a # b": (2, "unexpected character '#'"),
}


@pytest.mark.parametrize("bad", PARSE_ERRORS)
def test_parse_errors(bad):
    pos, message = PARSE_ERRORS[bad]
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula(bad, ALPHA2)
    assert (err.value.pos, str(err.value)) == (pos, f"at offset {pos}: {message}")


WORDS = ["a", "b", "c", "true", "false"]  # c is not in the alphabet
# Grammar tokens, words and parentheses, each followed by a space or by
# nothing, so that words sometimes run together.
TOKEN_SOUP = st.lists(
    st.tuples(st.sampled_from(["(", ")", *WORDS, *sorted(OPERATOR_TOKENS)]),
              st.sampled_from(["", " "])),
    max_size=12,
).map(lambda pieces: "".join(tok + gap for tok, gap in pieces))
# Well formed: prefix operators, parentheses and binary operators over
# known words, with binary chains left for precedence to group.
NESTED_TEXT = st.recursive(
    st.sampled_from(["a", "b", "true", "false"]),
    lambda inner: st.one_of(
        st.builds(lambda prefix, arg: f"{prefix} {arg}",
                  st.sampled_from([cls.token for cls in UNARY_CLASSES]), inner),
        inner.map(lambda arg: f"({arg})"),
        st.builds(lambda left, op, right: f"{left} {op} {right}",
                  inner, st.sampled_from([cls.token for cls in BINARY_CLASSES]), inner),
    ),
    max_leaves=8,
)


@given(st.one_of(TOKEN_SOUP, NESTED_TEXT))
@settings(max_examples=500)
def test_any_token_string_round_trips_or_reports_an_offset(text):
    try:
        phi = parse_formula(text, ALPHA2)
    except FormulaSyntaxError as err:
        assert 0 <= err.pos <= len(text)
    else:
        assert parse_formula(render_formula(phi, ALPHA2), ALPHA2) == phi


def test_render_style():
    assert render_formula(Globally(Finally(Atom(0))), ALPHA2) == "G(F(a))"
    assert render_formula(Until(Atom(0), Until(Atom(1), Atom(0))), ALPHA2) == "a U b U a"
    assert (
        render_formula(Until(Until(Atom(0), Atom(1)), Atom(0)), ALPHA2)
        == "(a U b) U a"
    )
    assert render_formula(Or(And(Atom(0), Atom(1)), Atom(0)), ALPHA2) == "a & b | a"
    assert render_formula(And(Or(Atom(0), Atom(1)), Atom(0)), ALPHA2) == "(a | b) & a"
    assert render_formula(Not(Atom(0)), ALPHA2) == "!(a)"


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
    max_leaves=12,
)


@given(FORMULAS)
@settings(max_examples=300)
def test_render_parse_round_trip(phi):
    assert parse_formula(render_formula(phi, ALPHA2), ALPHA2) == phi


@given(FORMULAS, st.lists(st.integers(0, 3), min_size=1, max_size=100))
@settings(max_examples=400)
def test_list_evaluator_matches_the_recursive_semantics(phi, letters):
    w = Trace(tuple(letters))
    got = [eval_reference(phi, w, k) for k in range(1, w.length + 1)]
    assert got == eval_reference_all(phi, w)


def _twin(phi):
    """An equal tree of new nodes."""
    return parse_formula(render_formula(phi, ALPHA2), ALPHA2)


def _subformulas(phi) -> set:
    out = {phi}
    for name in ("arg", "left", "right"):
        if hasattr(phi, name):
            out |= _subformulas(getattr(phi, name))
    return out


UNARY_TOKENS = st.sampled_from([cls.token for cls in UNARY_CLASSES])
BINARY_TOKENS = st.sampled_from([cls.token for cls in BINARY_CLASSES])
# Every operator over true, false and atoms, with subtrees met twice: as
# one node under both arguments, or as two equal trees of distinct nodes.
SHARING_FORMULAS = st.recursive(
    st.sampled_from([Atom(0), Atom(1), Top(), Bottom()]),
    lambda children: st.one_of(
        st.builds(build_unary, UNARY_TOKENS, children),
        st.builds(build_binary, BINARY_TOKENS, children, children),
        st.builds(lambda tok, phi: build_binary(tok, phi, phi), BINARY_TOKENS, children),
        st.builds(lambda tok, phi: build_binary(tok, phi, _twin(phi)), BINARY_TOKENS, children),
    ),
    max_leaves=10,
)


def batches(n_props: int, max_len: int, max_traces: int):
    """Batches of 1 to max_traces letter tuples of one length, 1 to max_len."""
    letters = st.integers(0, (1 << n_props) - 1)
    return st.integers(1, max_len).flatmap(
        lambda length: st.lists(
            st.tuples(*[letters] * length), min_size=1, max_size=max_traces
        )
    )


def assert_batch_matches_the_recursive_semantics(phi, batch, values=None):
    # Bit d of each position's int is trace d's value there, and no bit
    # beyond the batch is set. `values` is phi's compiled program.
    got = (values or compile_reference(phi))(batch)
    assert len(got) == len(batch[0])
    assert all(v >> len(batch) == 0 for v in got)
    for d, letters in enumerate(batch):
        assert [v >> d & 1 == 1 for v in got] == eval_reference_all(phi, Trace(letters)), d


@given(SHARING_FORMULAS, batches(2, 40, 4))
@settings(max_examples=400)
def test_compiled_program_matches_the_recursive_semantics(phi, batch):
    assert_batch_matches_the_recursive_semantics(phi, batch)


def formulas_over(n_props: int):
    """Every operator, R, X, true and false included, over n_props atoms."""
    return st.recursive(
        st.sampled_from([*map(Atom, range(n_props)), Top(), Bottom()]),
        lambda children: st.one_of(
            st.builds(build_unary, UNARY_TOKENS, children),
            st.builds(build_binary, BINARY_TOKENS, children, children),
        ),
        max_leaves=10,
    )


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(formulas_over(n), batches(n, 12, 6))))
@settings(max_examples=400)
def test_batches_match_the_recursive_semantics(phi_batch):
    assert_batch_matches_the_recursive_semantics(*phi_batch)


def test_letters_above_255_are_read_per_proposition():
    # Twelve propositions: the letters do not fit a byte, and the atoms
    # of propositions 0, 8 and 11 read their own bits of them.
    a, b, c = Atom(0), Atom(8), Atom(11)
    phi = Or(Until(Not(b), And(a, c)), Release(b, WeakNext(Not(a))))
    batch = [
        (1 << 11 | 1, 1 << 8, 0xFFF, 1),
        (1 << 8, 1 << 8 | 1, 1 << 11, 0),
        (0xFFF, 0, 1 << 11 | 1 << 8, 1 << 11 | 1),
    ]
    assert_batch_matches_the_recursive_semantics(phi, batch)
    assert compile_reference(b)(batch) == [0b110, 0b011, 0b101, 0]
    # Letters below 256 take the byte path instead.
    small = [tuple(x & 0xFF for x in letters) for letters in batch]
    assert_batch_matches_the_recursive_semantics(Until(Not(Atom(7)), Atom(0)), small)


def test_a_batch_is_one_length():
    values = compile_reference(Finally(Atom(0)))
    with pytest.raises(ValueError, match="one length"):
        values([(0, 1), (1,)])
    with pytest.raises(ValueError, match="one length"):
        values([])


def test_compiled_program_has_one_step_per_distinct_subformula():
    a, b = Atom(0), Atom(1)
    left = Until(Finally(a), And(Not(b), WeakNext(Top())))
    phi = Or(
        Release(left, _twin(left)),
        And(Globally(StrongNext(Finally(a))), Or(Bottom(), _twin(left))),
    )
    steps: list = []
    _compile(phi, {}, steps)
    assert len(steps) == len(_subformulas(phi)) == 15
    assert {type(node) for node in _subformulas(phi)} == {
        Atom, Top, Bottom, *UNARY_CLASSES, *BINARY_CLASSES}
    values = compile_reference(phi)  # one program, run on every batch
    for batch in [[(0,)], [(1, 2), (3, 3)], [(3, 0, 1, 2)],
                  [(2, 2, 1, 0, 3, 1), (0, 1, 2, 3, 0, 1), (1, 3, 3, 2, 0, 0)]]:
        assert_batch_matches_the_recursive_semantics(phi, batch, values)


def test_the_reference_imports_nothing_from_the_bitwise_engine():
    assert biteval_imports(Path(formulas.__file__).read_text()) == []


@given(FORMULAS, st.lists(st.integers(0, 3), min_size=1, max_size=8))
@settings(max_examples=200)
def test_negation_flips_every_position(phi, letters):
    w = Trace(tuple(letters))
    base = eval_reference_all(phi, w)
    flipped = eval_reference_all(Not(phi), w)
    assert [not v for v in base] == flipped


def test_node_kinds_over_the_same_children_hash_apart():
    a, b = Atom(0), Atom(1)
    nodes = [Not(a), StrongNext(a), WeakNext(a), Finally(a), Globally(a),
             And(a, b), Or(a, b), Until(a, b), Release(a, b)]
    assert len({hash(phi) for phi in nodes}) == len(nodes)
    assert len({hash(phi) for phi in (a, Top(), Bottom())}) == 3


@given(FORMULAS)
@settings(max_examples=200)
def test_equal_trees_hash_equal(phi):
    twin = parse_formula(render_formula(phi, ALPHA2), ALPHA2)
    assert twin is not phi and twin == phi
    assert hash(twin) == hash(phi)
    assert hash(phi) == hash(phi)  # the cached value


def test_formula_hashes_do_not_depend_on_the_hash_seed():
    code = "from ltlflearn.formulas import *; print(hash(Until(Finally(Atom(0)), Not(Top()))))"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outputs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        outputs.add(run.stdout)
    assert len(outputs) == 1
