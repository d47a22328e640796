"""Seeded benchmark-task generation.

Each family pairs a target formula shape with a trace sampler. The
formula families: ordered-sequence is the right-nested until chain
a0 U (a1 U (... U a_{n-1})); subword asks for the letters of a word in
order, F(a0 & X!(F(a1 & ...))); subset requires each chosen proposition
eventually, as a conjunction of F atoms; random-conjuncts conjoins a
seeded choice of basis formulas under seeded variable permutations;
random-boolcomb combines seeded F(p & X!(q & X! r)) patterns with
random conjunctions and disjunctions. The hamming family has no
formula: one random positive trace, negatives a few bit flips away.

Traces for formula families come from rejection sampling: every
proposition is an independent fair coin at each position, the draws
are classified by the reference evaluator a batch at a time, and
sampling stops once enough positives and negatives accumulated (or the
try budget runs out, which is reported as an error rather than retried
silently). The draws are used in the order drawn, so the output is
byte-identical to classifying them one at a time.

Two independent RNG streams per task seed, "<seed>:formula" and
"<seed>:traces", keep the target formula stable when only trace counts
change. Identical specs serialize to byte-identical task files.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import asdict, dataclass, field, fields
from itertools import repeat
from typing import NamedTuple, Optional, Sequence

from .formulas import (
    And,
    Atom,
    Finally,
    Formula,
    Or,
    StrongNext,
    Until,
    compile_reference,
    render_formula,
)
from .traces import Alphabet, Sample, Trace, serialize_sample


class Family(NamedTuple):
    """A family's one size parameter, and what `generate --n` makes of it."""

    param: Optional[str]  # the one params key gen_formula reads; hamming has none
    as_props: bool = False  # --n sets param to the first n propositions, not to n
    props_from_n: bool = False  # the alphabet defaults to n propositions, not 3


# --n is the one size knob each family has: chain, word, or subset
# length (these default the alphabet to n propositions), conjunct count
# for random-conjuncts, pattern count for random-boolcomb.
FAMILY_TABLE = {
    "ordered-sequence": Family("n", props_from_n=True),
    "subword": Family("word", as_props=True, props_from_n=True),
    "subset": Family("subset", as_props=True, props_from_n=True),
    "hamming": Family(None),
    "random-conjuncts": Family("m"),
    "random-boolcomb": Family("n_patterns"),
}
FAMILIES = tuple(FAMILY_TABLE)

DEFAULT_MAX_TRIES = 10**6
# Draws classified by one run of the reference program.
DRAW_BATCH = 128


class SamplingBudgetError(RuntimeError):
    """The rejection sampler ran out of tries (formula too skewed)."""


@dataclass(frozen=True)
class TaskSpec:
    """Everything a task generation needs; the seed pins the output."""

    family: str
    n_props: int
    trace_len: int = 16
    n_pos: int = 5
    n_neg: int = 5
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        for name in ("n_props", "trace_len", "n_pos", "n_neg"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        param = FAMILY_TABLE[self.family].param
        for key in self.params:
            if key != param:
                takes = "no params" if param is None else f"only the params key {param!r}"
                raise ValueError(f"the {self.family} family takes {takes}, not {key!r}")
        if self.family == "hamming":
            if self.n_pos != 1:
                raise ValueError("the hamming family has exactly one positive trace (n_pos 1)")
            # The generator flips 1 to 3 of the trace's bits, all of them if fewer.
            bits = self.trace_len * self.n_props
            reach = sum(math.comb(bits, d) for d in range(1, min(3, bits) + 1))
            if self.n_neg > reach:
                raise ValueError(f"the hamming family reaches {reach} distinct negatives "
                                 f"at {bits} bits (trace_len x n_props), not n_neg {self.n_neg}")

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet.default(self.n_props)


def _fold_right(make, parts: Sequence[Formula]) -> Formula:
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = make(part, out)
    return out


def _subword(word: Sequence[int]) -> Formula:
    head = Atom(word[0])
    if len(word) == 1:
        return Finally(head)
    return Finally(And(head, StrongNext(_subword(word[1:]))))


def _pattern(rng: random.Random, n_props: int) -> Formula:
    p, q, r = (rng.randrange(n_props) for _ in range(3))
    return Finally(And(Atom(p), StrongNext(And(Atom(q), StrongNext(Atom(r))))))


def _permute(phi: Formula, perm: Sequence[int]) -> Formula:
    if isinstance(phi, Atom):
        return Atom(perm[phi.prop])
    if hasattr(phi, "arg"):
        return type(phi)(_permute(phi.arg, perm))
    if hasattr(phi, "left"):
        return type(phi)(_permute(phi.left, perm), _permute(phi.right, perm))
    return phi  # constants


def default_basis(n_props: int) -> tuple[Formula, ...]:
    """The three deterministic family shapes at small parameters."""
    chain = [Atom(i) for i in range(min(3, n_props))]
    word = tuple(range(min(2, n_props)))
    subset = [Finally(Atom(i)) for i in range(min(2, n_props))]
    return (_fold_right(Until, chain), _subword(word), _fold_right(And, subset))


def gen_formula(spec: TaskSpec) -> Formula:
    """The family's target formula; deterministic given the spec."""
    if spec.family == "hamming":
        raise ValueError("the hamming family has no target formula")
    n = spec.n_props
    rng = random.Random(f"{spec.seed}:formula")

    if spec.family == "ordered-sequence":
        chain_len = spec.params.get("n", min(3, n))
        if not 1 <= chain_len <= n:
            raise ValueError("ordered-sequence needs 1 <= n <= n_props")
        return _fold_right(Until, [Atom(i) for i in range(chain_len)])

    if spec.family == "subword":
        word = tuple(spec.params.get("word", range(min(2, n))))
        if not word:
            raise ValueError("subword needs a non-empty word")
        if any(not 0 <= a < n for a in word):
            raise ValueError("subword letters must be proposition indices")
        return _subword(word)

    if spec.family == "subset":
        subset = tuple(spec.params.get("subset", range(min(2, n))))
        if not subset:
            raise ValueError("subset needs at least one proposition")
        if len(set(subset)) != len(subset) or any(not 0 <= a < n for a in subset):
            raise ValueError("subset must be distinct proposition indices")
        return _fold_right(And, [Finally(Atom(a)) for a in subset])

    if spec.family == "random-conjuncts":
        basis = default_basis(n)
        m = spec.params.get("m", min(2, len(basis)))
        if not 1 <= m <= len(basis):
            raise ValueError("random-conjuncts needs 1 <= m <= |basis|")
        conjuncts = []
        for phi in rng.sample(list(basis), m):
            perm = rng.sample(range(n), n)
            conjuncts.append(_permute(phi, perm))
        return _fold_right(And, conjuncts)

    # random-boolcomb
    n_patterns = spec.params.get("n_patterns", 3)
    if n_patterns < 1:
        raise ValueError("random-boolcomb needs n_patterns >= 1")
    out = _pattern(rng, n)
    for _ in range(n_patterns - 1):
        make = And if rng.random() < 0.5 else Or
        out = make(out, _pattern(rng, n))
    return out


def _random_letters(rng: random.Random, trace_len: int, n_props: int) -> tuple[int, ...]:
    return tuple(map(rng.getrandbits, repeat(n_props, trace_len)))


def _hamming_task(spec: TaskSpec, rng: random.Random, max_tries: int) -> Sample:
    positive = Trace(_random_letters(rng, spec.trace_len, spec.n_props))
    total_bits = spec.trace_len * spec.n_props
    negatives: list[Trace] = []
    seen = {positive.letters}
    tries = 0
    while len(negatives) < spec.n_neg:
        tries += 1
        if tries > max_tries:
            raise SamplingBudgetError(
                f"hamming: could not draw {spec.n_neg} distinct negatives"
            )
        d = rng.choice((1, 2, 3))
        letters = list(positive.letters)
        for bit in rng.sample(range(total_bits), min(d, total_bits)):
            position, prop = divmod(bit, spec.n_props)
            letters[position] ^= 1 << prop
        candidate = tuple(letters)
        if candidate in seen:
            continue
        seen.add(candidate)
        negatives.append(Trace(candidate))
    return Sample(spec.alphabet, (positive,), tuple(negatives))


def gen_task(spec: TaskSpec, max_tries: int = DEFAULT_MAX_TRIES) -> Sample:
    """Generate the sample for a spec; deterministic given the spec.

    Formula families use rejection sampling classified by the reference
    evaluator, compiled once per task, so label soundness holds by
    construction. Draws are classified DRAW_BATCH per run of the program
    and used in the order drawn; those past the last one used only
    advance this task's "<seed>:traces" stream, so the sample is the
    one a draw at a time gives. Raises SamplingBudgetError after
    max_tries used draws; at the default trace lengths that signals a
    formula too skewed for this family, not bad luck.
    """
    rng = random.Random(f"{spec.seed}:traces")
    if spec.family == "hamming":
        return _hamming_task(spec, rng, max_tries)

    values = compile_reference(gen_formula(spec))
    positives: list[Trace] = []
    negatives: list[Trace] = []
    tries = 0
    while len(positives) < spec.n_pos or len(negatives) < spec.n_neg:
        if tries >= max_tries:
            raise SamplingBudgetError(
                f"{spec.family}: {len(positives)}/{spec.n_pos} positives and "
                f"{len(negatives)}/{spec.n_neg} negatives after {max_tries} draws"
            )
        batch = [
            _random_letters(rng, spec.trace_len, spec.n_props)
            for _ in range(min(DRAW_BATCH, max_tries - tries))
        ]
        holds = values(batch)[0]  # bit d: the formula holds on draw d
        for d, letters in enumerate(batch):
            tries += 1
            if holds >> d & 1:
                if len(positives) < spec.n_pos:
                    positives.append(Trace(letters))
            elif len(negatives) < spec.n_neg:
                negatives.append(Trace(letters))
            if len(positives) == spec.n_pos and len(negatives) == spec.n_neg:
                break
    return Sample(spec.alphabet, tuple(positives), tuple(negatives))


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------

MANIFEST_FIELDS = (*(f.name for f in fields(TaskSpec)), "formula", "path")


def manifest_row(spec: TaskSpec, formula: Optional[Formula], path: str) -> dict:
    """Each TaskSpec field by name, params as sorted JSON; then the
    target formula's text ("" for none) and the task's path."""
    return {**asdict(spec), "params": json.dumps(spec.params, sort_keys=True),
            "formula": "" if formula is None else render_formula(formula, spec.alphabet),
            "path": path}


def write_manifest(path: str, rows: Sequence[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=MANIFEST_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def read_manifest(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def write_task(spec: TaskSpec, path: str, max_tries: int = DEFAULT_MAX_TRIES,
               sample: Optional[Sample] = None) -> dict:
    """Serialize the spec's sample to path, generated unless given, and
    return the manifest row, built first: a spec the manifest cannot
    hold raises before the file is written."""
    row = manifest_row(spec, None if spec.family == "hamming" else gen_formula(spec), path)
    if sample is None:
        sample = gen_task(spec, max_tries)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_sample(sample))
    return row
