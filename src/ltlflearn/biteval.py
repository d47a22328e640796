"""Bit-parallel evaluation of formulas over a whole sample at once.

A formula's value on a sample is one Python int, its packed value. The
traces lie end to end, positives first and in sample order: trace i
starts at bit offset o_i, and bit o_i + p - 1 is set iff the suffix of
trace i from position p satisfies the formula. Bits beyond the last
trace are always zero, so equal ints are equal valuations: the packed
value is itself the observational-equivalence key.

A `Layout` holds where the traces sit, as three masks:

    full     every position of every trace
    first    the first position of each trace
    notlast  every position except the last of each trace

With them every operator is one big-int expression over the whole
sample, and no shift carries a bit from one trace into the next:

    !s       = s ^ full
    X! s     = (s >> 1) & notlast          (the last position becomes 0)
    X s      = !(X!(!s))                    (the last position becomes 1)
    s1 U s2  = until(s1 & notlast, s2)
    F s      = until(notlast, s)
    G s      = !(F(!s))
    s1 R s2  = !((!s1) U (!s2))

`until(acc, out)` is a doubling recurrence: for d = 1, 2, 4, ... while
d is below the longest trace's length, out |= (out >> d) & acc and
acc &= acc >> d. After the round with shift d, acc holds at p iff s1
holds and p is not a last position on all of [p, p + 2d); so a shift by
d only ever reads positions of p's own trace.

A formula separates the sample iff `s & first` equals the first bits of
the positive traces. The characteristic vector compresses `s & first`
to one bit per trace, bit i = trace i.

`table_of` evaluates a formula tree bottom-up into a `CharTable`, its
packed value with the layout to read it; `first_bits` gives the
vector. An operator node picks its kernel by its class's `token` from
`UNARY_KERNELS` or `BINARY_KERNELS`, the tables enumeration uses too.
Trace i's row is `bits >> offsets[i]`, masked to `lengths[i]` bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

from .formulas import Atom, Bottom, Formula, Top
from .traces import Sample, Trace


class Layout:
    """Where each trace of a sample sits in a packed value."""

    __slots__ = ("lengths", "offsets", "full", "first", "notlast", "pos_first", "max_len")

    def __init__(self, lengths: Sequence[int], n_pos: int):
        offsets = list(accumulate(lengths, initial=0))
        total = offsets.pop()
        self.lengths = tuple(lengths)
        self.offsets = tuple(offsets)
        self.full = (1 << total) - 1
        self.first = sum(1 << o for o in offsets)
        self.notlast = self.full ^ sum(1 << (o + n - 1) for o, n in zip(offsets, lengths))
        self.pos_first = sum(1 << o for o in offsets[:n_pos])
        self.max_len = max(lengths, default=0)

    @staticmethod
    def of(sample: Sample) -> "Layout":
        return Layout([w.length for w in sample.traces], sample.n_pos)

    def vector(self, bits: int) -> int:
        """The characteristic vector: bit i is the first bit of trace i."""
        return sum((bits >> o & 1) << i for i, o in enumerate(self.offsets))


def pack_atom(traces: Sequence[Trace], prop: int) -> int:
    """The packed value of proposition `prop` over the traces, in order."""
    bits = 0
    for w in reversed(traces):
        for letter in reversed(w.letters):
            bits = bits << 1 | (letter >> prop & 1)
    return bits


# ---------------------------------------------------------------------------
# Kernels: packed values in, packed value out.
# ---------------------------------------------------------------------------

def _until(acc: int, out: int, max_len: int) -> int:
    shift = 1
    while shift < max_len:
        out |= (out >> shift) & acc
        acc &= acc >> shift
        shift <<= 1
    return out


def k_not(s: int, lay: Layout) -> int:
    return s ^ lay.full


def k_strong_next(s: int, lay: Layout) -> int:
    return (s >> 1) & lay.notlast


def k_weak_next(s: int, lay: Layout) -> int:
    return (((s ^ lay.full) >> 1) & lay.notlast) ^ lay.full


def k_finally(s: int, lay: Layout) -> int:
    return _until(lay.notlast, s, lay.max_len)


def k_globally(s: int, lay: Layout) -> int:
    return _until(lay.notlast, s ^ lay.full, lay.max_len) ^ lay.full


def k_and(s1: int, s2: int, lay: Layout) -> int:
    return s1 & s2


def k_or(s1: int, s2: int, lay: Layout) -> int:
    return s1 | s2


def k_until(s1: int, s2: int, lay: Layout) -> int:
    return _until(s1 & lay.notlast, s2, lay.max_len)


def k_release(s1: int, s2: int, lay: Layout) -> int:
    full = lay.full
    return _until((s1 ^ full) & lay.notlast, s2 ^ full, lay.max_len) ^ full


UNARY_KERNELS = {
    "!": k_not,
    "X!": k_strong_next,
    "X": k_weak_next,
    "F": k_finally,
    "G": k_globally,
}
BINARY_KERNELS = {
    "&": k_and,
    "|": k_or,
    "U": k_until,
    "R": k_release,
}

# ---------------------------------------------------------------------------
# Tables and vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharTable:
    """A formula's packed value on a sample, with the layout to read it."""

    layout: Layout
    bits: int


@dataclass(frozen=True)
class CharVector:
    """First bit of each table row, packed; bit i = row i."""

    n: int
    bits: int

    def __post_init__(self):
        if self.bits >> self.n:
            raise ValueError("non-canonical vector: padding bits set")


def table_of(
    phi: Formula, sample: Sample, cache: Optional[dict] = None
) -> CharTable:
    """The characteristic table of phi, computed bottom-up.

    `cache` maps already-computed subformulas to their tables, and the
    key `Layout` to the sample's layout; it is reused across calls when
    shared by the caller.
    """
    if cache is None:
        cache = {}
    layout = cache.get(Layout)
    if layout is None:
        layout = cache[Layout] = Layout.of(sample)
    return _table(phi, sample.traces, layout, cache)


def _table(phi: Formula, traces, layout: Layout, cache: dict) -> CharTable:
    hit = cache.get(phi)
    if hit is not None:
        return hit
    cls = type(phi)
    tok = getattr(cls, "token", None)  # operator nodes only
    if cls is Atom:
        bits = pack_atom(traces, phi.prop)
    elif cls is Top:
        bits = layout.full
    elif cls is Bottom:
        bits = 0
    elif tok in BINARY_KERNELS:
        left = _table(phi.left, traces, layout, cache).bits
        right = _table(phi.right, traces, layout, cache).bits
        bits = BINARY_KERNELS[tok](left, right, layout)
    elif tok in UNARY_KERNELS:
        bits = UNARY_KERNELS[tok](_table(phi.arg, traces, layout, cache).bits, layout)
    else:
        raise TypeError(f"not a formula node: {phi!r}")
    table = cache[phi] = CharTable(layout, bits)
    return table


def first_bits(t: CharTable) -> CharVector:
    return CharVector(len(t.layout.offsets), t.layout.vector(t.bits))

