import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltlflearn.benchgen import (
    DEFAULT_MAX_TRIES,
    FAMILIES,
    FAMILY_TABLE,
    SamplingBudgetError,
    TaskSpec,
    _draw,
    default_basis,
    gen_formula,
    gen_task,
    manifest_row,
    read_manifest,
    write_manifest,
    write_task,
)
from ltlflearn.formulas import (
    And,
    Atom,
    Finally,
    StrongNext,
    Until,
    eval_reference,
    render_formula,
)
from ltlflearn.traces import parse_task, serialize_sample

from conftest import reference_gen_task, spec_from_manifest_row


# --- formula shapes -----------------------------------------------------------

def test_ordered_sequence_is_a_right_nested_until_chain():
    spec = TaskSpec("ordered-sequence", 3, params={"n": 3})
    phi = gen_formula(spec)
    assert phi == Until(Atom(0), Until(Atom(1), Atom(2)))
    assert phi.size == 5


def test_subword_shape_and_size():
    spec = TaskSpec("subword", 2, params={"word": [0, 1]})
    phi = gen_formula(spec)
    assert phi == Finally(And(Atom(0), StrongNext(Finally(Atom(1)))))
    assert phi.size == 6


def test_subword_letters_may_repeat():
    spec = TaskSpec("subword", 1, params={"word": [0, 0]})
    assert gen_formula(spec).size == 6


def test_subset_shape_and_size():
    spec = TaskSpec("subset", 2, params={"subset": [0, 1]})
    phi = gen_formula(spec)
    assert phi == And(Finally(Atom(0)), Finally(Atom(1)))
    assert phi.size == 5


def test_random_conjuncts_uses_the_basis():
    spec = TaskSpec("random-conjuncts", 3, params={"m": 2})
    phi = gen_formula(spec)
    assert isinstance(phi, And)
    assert gen_formula(spec) == phi  # seeded


def test_random_boolcomb_builds_patterns():
    spec = TaskSpec("random-boolcomb", 3, seed=4, params={"n_patterns": 3})
    phi = gen_formula(spec)
    assert phi.size == 3 * 8 + 2
    assert gen_formula(spec) == phi


def test_default_basis_has_three_shapes():
    basis = default_basis(3)
    assert len(basis) == 3
    assert isinstance(basis[0], Until)


def test_formula_parameter_validation():
    with pytest.raises(ValueError):
        gen_formula(TaskSpec("ordered-sequence", 2, params={"n": 3}))
    with pytest.raises(ValueError):
        gen_formula(TaskSpec("subword", 2, params={"word": []}))
    with pytest.raises(ValueError):
        gen_formula(TaskSpec("subset", 2, params={"subset": [0, 0]}))
    with pytest.raises(ValueError):
        gen_formula(TaskSpec("random-conjuncts", 2, params={"m": 9}))
    with pytest.raises(ValueError, match="no target formula"):
        gen_formula(TaskSpec("hamming", 2, n_pos=1))


def test_spec_validation():
    with pytest.raises(ValueError):
        TaskSpec("no-such-family", 2)
    with pytest.raises(ValueError):
        TaskSpec("subset", 0)
    with pytest.raises(ValueError):
        TaskSpec("subset", 2, trace_len=0)
    # The task format needs both classes.
    with pytest.raises(ValueError, match="n_neg"):
        TaskSpec("subset", 2, n_neg=0)


@pytest.mark.parametrize("spec,takes", [
    (dict(family="subset", n_props=3, params={"subsets": [0, 1, 2]}),
     "only the params key 'subset'"),
    (dict(family="random-conjuncts", n_props=3, params={"m": 2, "basis": []}),
     "only the params key 'm'"),
    (dict(family="hamming", n_props=3, n_pos=1, params={"n": 2}), "no params"),
])
def test_spec_rejects_a_params_key_its_family_does_not_read(spec, takes):
    # Ignored, a misspelt key would quietly give the family's default target.
    with pytest.raises(ValueError, match=f"family takes {takes}, not '"):
        TaskSpec(**spec)


# --- task generation -----------------------------------------------------------

@pytest.mark.parametrize("family", [f for f in FAMILIES if f != "hamming"])
def test_labels_are_sound(family):
    spec = TaskSpec(family, 3, trace_len=16, n_pos=5, n_neg=5, seed=1)
    phi = gen_formula(spec)
    sample = gen_task(spec)
    assert sample.n_pos == 5 and sample.n_neg == 5
    assert all(eval_reference(phi, w, 1) for w in sample.positives)
    assert not any(eval_reference(phi, w, 1) for w in sample.negatives)


def test_generation_is_deterministic():
    spec = TaskSpec("ordered-sequence", 3, params={"n": 3}, seed=9)
    assert serialize_sample(gen_task(spec)) == serialize_sample(gen_task(spec))


def test_trace_counts_do_not_disturb_the_formula():
    few = TaskSpec("random-boolcomb", 3, n_pos=5, n_neg=5, seed=2)
    many = TaskSpec("random-boolcomb", 3, n_pos=20, n_neg=20, seed=2)
    assert gen_formula(few) == gen_formula(many)


def test_hamming_task_shape():
    spec = TaskSpec("hamming", 3, trace_len=16, n_pos=1, n_neg=5, seed=7)
    sample = gen_task(spec)
    assert sample.n_pos == 1 and sample.n_neg == 5
    positive = sample.positives[0]

    def distance(a, b):
        return sum((x ^ y).bit_count() for x, y in zip(a.letters, b.letters))

    distances = [distance(positive, w) for w in sample.negatives]
    assert all(1 <= d <= 3 for d in distances)
    assert len({w.letters for w in sample.negatives}) == 5


def test_hamming_insists_on_one_positive():
    with pytest.raises(ValueError, match="exactly one positive"):
        TaskSpec("hamming", 3, n_pos=5)


@pytest.mark.parametrize("trace_len,n_props,reach", [
    (1, 1, 1),  # one bit: one flip
    (2, 1, 3),  # two bits: 2 single flips, 1 double
    (1, 3, 7),  # three bits: 3 + 3 + 1
    (5, 1, 25),  # five bits: 5 + 10 + 10, at most 3 flips
])
def test_hamming_rejects_more_negatives_than_it_can_reach(trace_len, n_props, reach):
    # The generator flips 1 to 3 bits (all of them if fewer), so it
    # reaches sum(C(bits, d) for d in 1..min(3, bits)) distinct negatives.
    spec = TaskSpec("hamming", n_props, trace_len=trace_len, n_pos=1, n_neg=reach)
    assert len({w.letters for w in gen_task(spec).negatives}) == reach
    with pytest.raises(ValueError, match=f"reaches {reach} distinct negatives"):
        TaskSpec("hamming", n_props, trace_len=trace_len, n_pos=1, n_neg=reach + 1)


@pytest.mark.parametrize("family", FAMILIES)
def test_the_smallest_tasks_parse_back_to_their_sample(family):
    # One trace of each class, the fewest TaskSpec accepts: what the
    # generator writes, the parser reads.
    sample = gen_task(TaskSpec(family, 2, trace_len=6, n_pos=1, n_neg=1, seed=3))
    assert (sample.n_pos, sample.n_neg) == (1, 1)
    assert parse_task(serialize_sample(sample)).sample == sample


def test_budget_exhaustion_is_reported():
    # All-props subset at length 16: negatives are vanishingly rare.
    spec = TaskSpec("subset", 12, trace_len=16, n_pos=2, n_neg=5, seed=0,
                    params={"subset": list(range(12))})
    with pytest.raises(SamplingBudgetError, match="negatives"):
        gen_task(spec, max_tries=2000)


# --- manifests -------------------------------------------------------------------

def test_manifest_round_trip(tmp_path):
    spec = TaskSpec("subword", 2, params={"word": [0, 1]}, seed=3)
    row = manifest_row(spec, gen_formula(spec), "tasks/t0.trace")
    path = tmp_path / "manifest.csv"
    write_manifest(str(path), [row])
    rows = read_manifest(str(path))
    assert len(rows) == 1
    assert rows[0]["family"] == "subword"
    assert rows[0]["formula"] == render_formula(gen_formula(spec), spec.alphabet)
    assert spec_from_manifest_row(rows[0]) == TaskSpec(
        "subword", 2, params={"word": [0, 1]}, seed=3
    )


def test_write_task_emits_a_parsable_file(tmp_path):
    spec = TaskSpec("subset", 2, seed=5)
    path = tmp_path / "t.trace"
    row = write_task(spec, str(path))
    sample = parse_task(path.read_text()).sample
    assert sample.n_pos == 5 and sample.n_neg == 5
    assert row["path"] == str(path)
    # rerun is byte-identical
    before = path.read_text()
    write_task(spec, str(path))
    assert path.read_text() == before


def test_write_task_writes_nothing_for_a_row_the_manifest_cannot_hold(tmp_path):
    path = tmp_path / "t.trace"
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_task(TaskSpec("subset", 3, params={"subset": {0, 1}}), str(path))
    assert not path.exists()


def test_manifest_header_is_the_documented_one(tmp_path):
    path = tmp_path / "manifest.csv"
    write_manifest(str(path), [])
    assert path.read_text() == "family,n_props,trace_len,n_pos,n_neg,seed,params,formula,path\n"


def test_default_max_tries_is_large():
    assert DEFAULT_MAX_TRIES == 10**6


# One small spec per family and the sha256 of its task text: any change
# to the RNG stream, the drawing of traces, their labels or their text
# shows.
GOLDEN_TASKS = [
    (TaskSpec("ordered-sequence", 3, trace_len=8, n_pos=4, n_neg=4, seed=7),
     "a2e675790b26c17f1cc0b875621ac910376345ea175b377d9481dfcf8a940afe"),
    (TaskSpec("subword", 2, trace_len=10, n_pos=4, n_neg=4, seed=7),
     "2bd6ad6d707191bd9bc63fb52f09f5e47704f2b7221b91be26ac5148b34fcc02"),
    (TaskSpec("subset", 3, trace_len=6, n_pos=4, n_neg=4, seed=7),
     "b5cffeed24d363cb15389a19bf5be9fb5f925ca377d68a04e4ca2c21a4e8e967"),
    (TaskSpec("hamming", 2, trace_len=12, n_pos=1, n_neg=5, seed=7),
     "c89183b9056e971b50c417cdc35f7744c56296ea3bb47d93a90a4da247c5f063"),
    (TaskSpec("random-conjuncts", 3, trace_len=8, n_pos=4, n_neg=4, seed=11),
     "3ebf3ddb140f622e6151ba931eb2a577160129ea7723258a23abd48db360862c"),
    (TaskSpec("random-boolcomb", 2, trace_len=12, n_pos=4, n_neg=4, seed=7),
     "0db7bbf73dd3c76aace50d42229683068c6fee4e10004d2f209ed96ff93bb828"),
]


def test_golden_tasks_cover_every_family():
    assert sorted(spec.family for spec, _ in GOLDEN_TASKS) == sorted(FAMILIES)


@pytest.mark.parametrize("spec,digest", GOLDEN_TASKS, ids=[s.family for s, _ in GOLDEN_TASKS])
def test_generated_task_text_is_pinned(spec, digest):
    text = serialize_sample(gen_task(spec))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# Digests taken with a getrandbits call per letter, on the shapes whose
# letters take the two ways of drawing a batch: enum-wide's one
# proposition at length 32 a byte each, nine propositions a call each.
GOLDEN_DRAW_TASKS = [
    (TaskSpec("random-boolcomb", 1, trace_len=32, n_pos=50, n_neg=50, seed=3,
              params={"n_patterns": 1}),
     "79313be85587aba214f1bb1cc522e1f40090fbfb6c5396aeded7a598aeac902f"),
    (TaskSpec("subset", 9, trace_len=8, n_pos=4, n_neg=4, seed=7, params={"subset": [0, 4, 8]}),
     "ed3d8fdc84c627adc4f90c884f604a8996f64da68326c6e2f30421c9dcc34e21"),
    (TaskSpec("hamming", 9, trace_len=6, n_pos=1, n_neg=4, seed=7),
     "6d63126e568a81053d8774fd0480f3421323a416176b8a2112c2504957af387b"),
]


@pytest.mark.parametrize("spec,digest", GOLDEN_DRAW_TASKS,
                         ids=[f"{s.family}-{s.n_props}" for s, _ in GOLDEN_DRAW_TASKS])
def test_task_text_is_pinned_on_both_ways_of_drawing(spec, digest):
    text = serialize_sample(gen_task(spec))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@given(n_props=st.integers(1, 10), trace_len=st.integers(1, 40), count=st.integers(1, 130),
       seed=st.integers(0, 2**32))
def test_a_batch_draws_what_a_call_per_letter_draws(n_props, trace_len, count, seed):
    rng, one_by_one = random.Random(seed), random.Random(seed)
    letters = _draw(rng, trace_len, n_props, count)
    assert list(letters) == [one_by_one.getrandbits(n_props) for _ in range(trace_len * count)]
    assert rng.getstate() == one_by_one.getstate()


def family_params(family: str, n_props: int):
    """A strategy for the params of a formula family, within its bounds."""
    props = st.integers(0, n_props - 1)
    return {
        "ordered-sequence": st.integers(1, n_props),
        "subword": st.lists(props, min_size=1, max_size=3),
        "subset": st.lists(props, min_size=1, max_size=3, unique=True),
        "random-conjuncts": st.integers(1, 3),
        "random-boolcomb": st.integers(1, 3),
    }[family].map(lambda value: {FAMILY_TABLE[family].param: value})


@st.composite
def formula_specs(draw):
    family = draw(st.sampled_from([f for f in FAMILIES if f != "hamming"]))
    n_props = draw(st.integers(1, 10))
    return TaskSpec(family, n_props, trace_len=draw(st.integers(1, 40)),
                    n_pos=draw(st.integers(1, 12)), n_neg=draw(st.integers(1, 12)),
                    seed=draw(st.integers(0, 999)), params=draw(family_params(family, n_props)))


def outcome(generate, spec, max_tries):
    """The task text, or the budget error's message."""
    try:
        return serialize_sample(generate(spec, max_tries))
    except SamplingBudgetError as exc:
        return f"SamplingBudgetError: {exc}"


@given(formula_specs(), st.integers(1, 400))
@settings(max_examples=200, deadline=None)
def test_tasks_and_budget_errors_match_a_draw_at_a_time(spec, max_tries):
    assert outcome(gen_task, spec, max_tries) == outcome(reference_gen_task, spec, max_tries)
