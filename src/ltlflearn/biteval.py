"""Bit-parallel evaluation of formulas over a whole sample at once.

A formula's value on a sample is one Python int, its packed value. The
traces lie end to end, positives first and in sample order: trace i
occupies bits [o_i, o_i + n_i), and inside its slice the positions run
downwards. Bit o_i + n_i - p is set iff the suffix of trace i from
position p satisfies the formula. For two traces of lengths 3 and 2:

    bit              4    3    2    1    0
    trace.position  1.1  1.2  0.1  0.2  0.3

Bits beyond the last trace are always zero, so equal ints are equal
valuations: the packed value is itself the observational-equivalence
key.

A `Layout` holds where the traces sit, as four masks:

    full     every position of every trace
    first    the first position of each trace (the top bit of its slice)
    last     the last position of each trace (the bottom bit)
    notlast  every position except the last of each trace: full ^ last

With them every operator is a fixed handful of big-int operations over
the whole sample, whatever the trace lengths, and no bit moves from one
trace into the next:

    !s       = s ^ full
    X! s     = (s << 1) & notlast          (the last position becomes 0)
    X s      = (X! s) | last                (the last position becomes 1)
    s1 U s2  = until(s1 & notlast, s2)
    F s      = until(notlast, s)
    G s      = !(F(!s))
    s1 R s2  = !((!s1) U (!s2))

`until(p, g)` reads the carries of one addition. With a = p | g, the
carry out of bit b in s = a + g is

    c_b = (a_b & g_b) | ((a_b ^ g_b) & c_{b-1}) = g_b | (p_b & c_{b-1}),

which is U's backward recurrence, since bit b - 1 is the next position.
The sum's bit is s_b = a_b ^ g_b ^ c_{b-1}. Where g_b = 1, c_b = 1.
Where g_b = 0, a_b = p_b and s_b = p_b ^ c_{b-1}, so p_b & c_{b-1} =
p_b & ~s_b. Hence c = g | (p & ~s) = g | ((p | s) ^ s), read in place
with no shift. p is 0 at the bottom bit of every slice, so no carry
crosses into the next trace, and at the last position U gives exactly
g.

A formula separates the sample iff `s & first` equals the first bits of
the positive traces. The characteristic vector compresses `s & first`
to one bit per trace, bit i = trace i.

`table_of` is the library's tree evaluator: it evaluates a formula
bottom-up into a `CharTable`, its packed value with the layout to read
it, and `first_bits` gives the vector. An operator node picks its
kernel by its class's `token` from `UNARY_KERNELS` or `BINARY_KERNELS`,
the tables enumeration uses too. The benchmark, the demos and the tests
call it; `learn` does not, as every answer's value is at hand where it
is built.
"""

from __future__ import annotations

from itertools import accumulate
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .formulas import Atom, Bottom, Formula, Top, Value
from .traces import Sample, Trace


class Layout:
    """Where each trace of a sample sits in a packed value.

    Trace i occupies bits [offsets[i], offsets[i] + lengths[i]), position
    p at bit offsets[i] + lengths[i] - p: position 1 at the top of the
    slice, the last position at its bottom. `first` and `pos_first` hold
    the top bit of every trace's slice and of every positive trace's,
    `last` the bottom bit of every slice, and `notlast` the rest of `full`.
    """

    __slots__ = ("lengths", "offsets", "full", "first", "last", "notlast", "pos_first",
                 "_spec", "_pick")

    def __init__(self, lengths: Sequence[int], n_pos: int):
        offsets = list(accumulate(lengths, initial=0))
        total = offsets.pop()
        tops = [1 << (o + n - 1) for o, n in zip(offsets, lengths)]
        self.lengths = tuple(lengths)
        self.offsets = tuple(offsets)
        self.full = (1 << total) - 1
        self.first = sum(tops)
        self.last = sum(1 << o for o in offsets)
        self.notlast = self.full ^ self.last
        self.pos_first = sum(tops[:n_pos])
        # `vector` spells a value as total + 1 digits, bit b at digit
        # total - b, and picks digit 0 (always 0, so there is an index even
        # with no traces), then the first bits, last trace first.
        self._spec = f"0{total + 1}b"
        self._pick = itemgetter(0, *reversed([total - o - n + 1 for o, n in zip(offsets, lengths)]))

    @staticmethod
    def of(sample: Sample) -> "Layout":
        return Layout([w.length for w in sample.traces], sample.n_pos)

    def vector(self, bits: int) -> int:
        """The characteristic vector of a packed value over the layout:
        bit i is the first bit of trace i.

        The bits are spelled out once and their first bits picked and
        parsed as one string, as in `pack_atom`.
        """
        return int("".join(self._pick(format(bits, self._spec))), 2)


def pack_atom(traces: Sequence[Trace], prop: int) -> int:
    """The packed value of proposition `prop` over the traces, in order.

    The bits are spelled out as one string, most significant first, and
    parsed once: shifting a growing int letter by letter is quadratic.
    """
    digits = ["01"[letter >> prop & 1] for w in reversed(traces) for letter in w.letters]
    return int("".join(digits) or "0", 2)


# ---------------------------------------------------------------------------
# Kernels: packed values in, packed value out.
# ---------------------------------------------------------------------------

def _until(p: int, g: int) -> int:
    s = (p | g) + g
    return g | ((p | s) ^ s)


def k_not(s: int, lay: Layout) -> int:
    return s ^ lay.full


def k_strong_next(s: int, lay: Layout) -> int:
    return (s << 1) & lay.notlast


def k_weak_next(s: int, lay: Layout) -> int:
    return ((s << 1) & lay.notlast) | lay.last


def k_finally(s: int, lay: Layout) -> int:
    return _until(lay.notlast, s)


def k_globally(s: int, lay: Layout) -> int:
    return _until(lay.notlast, s ^ lay.full) ^ lay.full


def k_and(s1: int, s2: int, lay: Layout) -> int:
    return s1 & s2


def k_or(s1: int, s2: int, lay: Layout) -> int:
    return s1 | s2


def k_until(s1: int, s2: int, lay: Layout) -> int:
    return _until(s1 & lay.notlast, s2)


def k_release(s1: int, s2: int, lay: Layout) -> int:
    full = lay.full
    return _until((s1 ^ full) & lay.notlast, s2 ^ full) ^ full


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

class CharTable(NamedTuple):
    """A formula's packed value on a sample, with the layout to read it."""

    layout: Layout
    bits: int


class CharVector(Value):
    """First bit of each table row, packed; bit i = row i."""

    __slots__ = _fields = ("n", "bits")
    n: int
    bits: int

    def __init__(self, n: int, bits: int):
        if bits >> n:
            raise ValueError("non-canonical vector: padding bits set")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bits)


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
    tok = getattr(cls, "token", None)  # None for atoms
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

