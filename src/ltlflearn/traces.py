"""Finite traces, labeled samples, and the on-disk task format.

A trace is a non-empty sequence of letters; each letter is the set of
atomic propositions holding at that position, packed into an int bitmask
(bit c set iff proposition c holds). A sample partitions traces into
positives P and negatives N.

Task file grammar (UTF-8, LF or CRLF):

    file      := block "---" NL block [ "---" NL ops_line ] [ "---" NL names_line ]
    block     := (trace_line NL)+
    trace_line:= letter (";" letter)*
    letter    := bit ("," bit)*      # one bit per proposition, no spaces
    bit       := "0" | "1"
    ops_line  := name ("," name)*    # operator restriction, e.g. F,G,X!,U,&,|
    names_line:= name ("," name)*    # proposition names

The first block is the positives, the second the negatives. Blank lines
are ignored. A lone extra section is an ops_line iff every token is an
operator token, otherwise a names_line. Proposition names may not collide
with the words of the formula grammar, which `formulas` declares; that
keeps the rule unambiguous.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .formulas import OPERATOR_TOKENS, Value, is_valid_prop_name


class TaskFormatError(ValueError):
    """Raised for malformed task files; carries a 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Alphabet(Value):
    """Ordered atomic propositions; a proposition's index is its position."""

    __slots__ = _fields = ("props",)
    props: tuple[str, ...]

    def __init__(self, props: tuple[str, ...]):
        if not props:
            raise ValueError("alphabet must be non-empty")
        if len(set(props)) != len(props):
            raise ValueError("proposition names must be unique")
        for name in props:
            if not is_valid_prop_name(name):
                raise ValueError(f"invalid proposition name {name!r} "
                                 "(names are identifiers and may not be operator tokens)")
        object.__setattr__(self, "props", props)

    @staticmethod
    def default(n: int) -> "Alphabet":
        return Alphabet(tuple(f"p{i}" for i in range(n)))

    def __len__(self) -> int:
        return len(self.props)

    def index(self, name: str) -> int:
        return self.props.index(name)


class Trace(Value):
    """A finite non-empty word; letters[i] is the bitmask at position i+1."""

    __slots__ = _fields = ("letters",)
    letters: tuple[int, ...]

    def __init__(self, letters: tuple[int, ...]):
        if not letters:
            raise ValueError("traces must be non-empty")
        if min(letters) < 0:
            raise ValueError("letter bitmasks must be non-negative")
        object.__setattr__(self, "letters", letters)

    @property
    def length(self) -> int:
        return len(self.letters)


class Sample(Value):
    """Positive and negative traces over a shared alphabet.

    Duplicates within one class are kept; a trace occurring in both
    classes is rejected, since no formula could separate it from itself.
    """

    __slots__ = _fields = ("alphabet", "positives", "negatives")
    alphabet: Alphabet
    positives: tuple[Trace, ...]
    negatives: tuple[Trace, ...]

    def __init__(self, alphabet: Alphabet, positives: tuple[Trace, ...],
                 negatives: tuple[Trace, ...]):
        width = len(alphabet)
        for trace in positives + negatives:
            if max(trace.letters) >> width:
                letter = next(letter for letter in trace.letters if letter >> width)
                raise ValueError(
                    f"letter {letter:#x} uses bits beyond the {width}-proposition alphabet"
                )
        overlap = set(t.letters for t in positives) & set(t.letters for t in negatives)
        if overlap:
            raise ValueError("a trace occurs in both the positive and negative set")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "positives", positives)
        object.__setattr__(self, "negatives", negatives)

    @property
    def traces(self) -> tuple[Trace, ...]:
        """All traces, positives first; row order for characteristic tables."""
        return self.positives + self.negatives

    @property
    def n_pos(self) -> int:
        return len(self.positives)

    @property
    def n_neg(self) -> int:
        return len(self.negatives)


class Task(NamedTuple):
    """A parsed task file: the sample plus its optional operator restriction."""

    sample: Sample
    op_names: Optional[tuple[str, ...]] = None


def _parse_trace_line(
    text: str, lineno: int, width: Optional[int], masks: dict[str, int]
) -> tuple[Trace, int]:
    """One trace and the letter width. `masks` maps each letter text seen
    so far in the task to its bitmask: a text is checked on first sight
    only, against the width, which never changes once set. A line of
    texts all seen before is looked up in one pass."""
    letter_texts = text.split(";")
    try:
        return Trace(tuple(map(masks.__getitem__, letter_texts))), width
    except KeyError:
        pass
    letters = []
    for letter_text in letter_texts:
        mask = masks.get(letter_text)
        if mask is None:
            bits = letter_text.split(",")
            if width is None:
                width = len(bits)
            elif len(bits) != width:
                raise TaskFormatError(
                    f"inconsistent letter width: expected {width} bits, got {len(bits)}",
                    lineno,
                )
            mask = 0
            for i, b in enumerate(bits):
                if b == "1":
                    mask |= 1 << i
                elif b != "0":
                    raise TaskFormatError(f"expected bit 0 or 1, got {b!r}", lineno)
            masks[letter_text] = mask
        letters.append(mask)
    return Trace(tuple(letters)), width


def _split_sections(text: str) -> list[list[tuple[int, str]]]:
    """Split into ---separated sections of (lineno, content) pairs."""
    sections: list[list[tuple[int, str]]] = [[]]
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r").strip()
        if not line:
            continue
        if line == "---":
            sections.append([])
        else:
            sections[-1].append((lineno, line))
    return sections


def parse_task(text: str) -> Task:
    """Parse a task file into a sample and its optional operator restriction."""
    sections = _split_sections(text)
    if len(sections) < 2:
        raise TaskFormatError("expected a '---' separating positives from negatives")
    if len(sections) > 4:
        raise TaskFormatError("too many '---' sections")

    blocks = []
    width: Optional[int] = None
    masks: dict[str, int] = {}
    for section in sections[:2]:
        traces = []
        for lineno, line in section:
            trace, width = _parse_trace_line(line, lineno, width, masks)
            traces.append(trace)
        blocks.append(traces)
    for which, section, traces in zip(("positives", "negatives"), sections, blocks):
        if not traces:
            start = section[0][0] if section else 1
            raise TaskFormatError(f"empty trace block ({which})", start)

    op_names: Optional[tuple[str, ...]] = None
    alphabet: Optional[Alphabet] = None
    for section in sections[2:]:
        if len(section) != 1:
            lineno = section[0][0] if section else 1
            raise TaskFormatError("expected a single ops or names line", lineno)
        lineno, line = section[0]
        tokens = tuple(tok.strip() for tok in line.split(","))
        if all(tok in OPERATOR_TOKENS for tok in tokens):
            if op_names is not None:
                raise TaskFormatError("duplicate ops section", lineno)
            if alphabet is not None:
                raise TaskFormatError("ops section must precede the names section", lineno)
            op_names = tokens
        else:
            if alphabet is not None:
                raise TaskFormatError("duplicate names section", lineno)
            try:
                alphabet = Alphabet(tokens)
            except ValueError as exc:  # an invalid name, or one given twice
                raise TaskFormatError(str(exc), lineno) from exc

    alphabet = alphabet or Alphabet.default(width)
    if len(alphabet) != width:
        raise TaskFormatError(
            f"names section has {len(alphabet)} names but letters have {width} bits"
        )
    try:
        sample = Sample(alphabet, tuple(blocks[0]), tuple(blocks[1]))
    except ValueError as exc:  # a trace in both classes, named at its negative
        positives = {trace.letters for trace in blocks[0]}
        at = [n for (n, _), trace in zip(sections[1], blocks[1]) if trace.letters in positives]
        raise TaskFormatError(str(exc), at[0] if at else None) from exc
    return Task(sample, op_names)


def serialize_sample(sample: Sample, op_names: Optional[Iterable[str]] = None) -> str:
    """Render a sample (and optional ops restriction) in the task file grammar.

    The names section is omitted when the alphabet is the default p0, p1, ...
    so that parse(serialize(s)) == s and re-serialization is byte-identical.
    """
    width = len(sample.alphabet)
    # Each distinct letter of the sample is spelled once.
    texts = {
        letter: ",".join("1" if letter >> i & 1 else "0" for i in range(width))
        for letter in set().union(*[t.letters for t in sample.traces])
    }
    spell = texts.__getitem__
    lines = [";".join(map(spell, t.letters)) for t in sample.positives]
    lines.append("---")
    lines.extend(";".join(map(spell, t.letters)) for t in sample.negatives)
    if op_names is not None:
        lines.append("---")
        lines.append(",".join(op_names))
    if sample.alphabet != Alphabet.default(width):
        lines.append("---")
        lines.append(",".join(sample.alphabet.props))
    return "\n".join(lines) + "\n"
