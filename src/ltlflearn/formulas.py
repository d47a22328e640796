"""LTLf abstract syntax, size measure, textual grammar, reference evaluator.

Formulas are interpreted over finite non-empty traces with 1-based
positions. The shortcut operators expand as

    X phi   ==  !X!(!phi)          (weak next: true at the last position)
    F phi   ==  true U phi
    G phi   ==  !F(!phi)
    phi R psi  ==  !((!phi) U (!psi))

and every operator, shortcuts included, counts as one node toward a
formula's size.

Each operator class carries its text token as the class attribute
`token`, and every operator table is keyed by it.

`eval_reference` is the correctness oracle for the bit-parallel engine
and shares nothing with it: no packed layout, no carries between
traces. `compile_reference` turns a formula into a program once: its
distinct subformulas in post-order, equal subtrees sharing one step. A
run of the program takes a batch of equal-length traces and gives each
step a list of ints, one per position, with bit d for trace d of the
batch, through the per-token tables `UNARY_REFERENCE` and
`BINARY_REFERENCE`: an atom builds each position's int from its bit of
the letters, a string of digits at a time; ! is xor with the batch's
all-ones, & and | map over the lists, X! and X shift the list in
with 0 or the all-ones, F and G accumulate it backwards, and U and R
are one backward scan each. Callers that test many traces against one
formula compile it once and run it on each batch of one length;
`eval_reference` runs a batch of one.

Text grammar: the prefix unary operators bind tightest, then the infix
binary operators, and parentheses are always accepted. Each binary
class declares its binding strength `prec` and its associativity
`right_assoc` beside its token, and Top and Bottom declare the literal
words as their `token`. The parser, the renderer and the rule for
proposition names (`is_valid_prop_name`) all read these declarations.
"""

from __future__ import annotations

import re
from itertools import accumulate, chain
from operator import and_, or_
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

if TYPE_CHECKING:
    from .traces import Alphabet, Trace


class Value:
    """Base of the package's validated immutable value types.

    A subclass names its fields in `_fields`, keeps them in slots and
    fills them in its `__init__` through `object.__setattr__`, after
    validating them. Two values are equal when they are of one class
    and their fields are equal; the hash and the repr read the fields
    too, and a value pickles and copies as its class called on them.
    Assigning an attribute raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Formula(Value):
    """Base class for formula nodes, immutable values compared by class
    and operands; `size` is not an operand.

    A node's hash combines a fixed tag for its class with the hashes of
    its operands, so F(x), G(x) and !x hash apart, and so do the binary
    nodes over the same operands. It is computed on first use and cached
    on the node, and it does not depend on PYTHONHASHSEED.
    """

    __slots__ = ("size", "_hash")
    size: int

    def __init__(self):  # a leaf
        object.__setattr__(self, "size", 1)
        object.__setattr__(self, "_hash", None)  # set by the first __hash__ call


def _set_size(node: Formula, size: int) -> None:
    object.__setattr__(node, "size", size)
    object.__setattr__(node, "_hash", None)


class Atom(Formula):
    __slots__ = _fields = ("prop",)

    def __init__(self, prop: int):
        object.__setattr__(self, "prop", prop)
        super().__init__()


class Top(Formula):
    __slots__ = ()
    token = "true"


class Bottom(Formula):
    __slots__ = ()
    token = "false"


class _Unary(Formula):
    """An operator node with one argument; size 1 + the argument's."""

    __slots__ = _fields = ("arg",)

    def __init__(self, arg: Formula):
        object.__setattr__(self, "arg", arg)
        _set_size(self, 1 + arg.size)


class _Binary(Formula):
    """An operator node with two arguments; size 1 + both sizes.

    Each subclass declares its binding strength `prec` (higher binds
    tighter) and whether it is right-associative.
    """

    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        _set_size(self, 1 + left.size + right.size)


class Not(_Unary):
    """!phi."""
    __slots__ = ()
    token = "!"


class StrongNext(_Unary):
    """X! phi: there is a next position and phi holds there."""
    __slots__ = ()
    token = "X!"


class WeakNext(_Unary):
    """X phi: phi holds at the next position if there is one."""
    __slots__ = ()
    token = "X"


class Finally(_Unary):
    """F phi: phi holds at some position from here on."""
    __slots__ = ()
    token = "F"


class Globally(_Unary):
    """G phi: phi holds at every position from here on."""
    __slots__ = ()
    token = "G"


class And(_Binary):
    """phi & psi."""
    __slots__ = ()
    token, prec, right_assoc = "&", 3, False


class Or(_Binary):
    """phi | psi."""
    __slots__ = ()
    token, prec, right_assoc = "|", 2, False


class Until(_Binary):
    """phi U psi: psi holds at some position, and phi at every one before."""
    __slots__ = ()
    token, prec, right_assoc = "U", 1, True


class Release(_Binary):
    """phi R psi, the standard dual of Until: !((!phi) U (!psi))."""
    __slots__ = ()
    token, prec, right_assoc = "R", 1, True


def _node_hash(node: Formula) -> int:
    h = node._hash
    if h is None:
        tag, names = _HASH_KEYS[type(node)]
        h = hash((tag, *[getattr(node, name) for name in names]))
        object.__setattr__(node, "_hash", h)
    return h


# __subclasses__() lists classes in definition order, which fixes the hash tags.
_UNARY_CLASSES: dict[str, type] = {cls.token: cls for cls in _Unary.__subclasses__()}
_BINARY_CLASSES: dict[str, type] = {cls.token: cls for cls in _Binary.__subclasses__()}

# Per node class: its tag and the operand slots its hash reads (those == compares).
_HASH_KEYS: dict[type, tuple[int, tuple[str, ...]]] = {}
for _tag, _cls in enumerate((Atom, Top, Bottom, *_UNARY_CLASSES.values(),
                             *_BINARY_CLASSES.values())):
    _HASH_KEYS[_cls] = (_tag, _cls._fields)
    _cls.__hash__ = _node_hash


def build_unary(token: str, arg: Formula) -> Formula:
    return _UNARY_CLASSES[token](arg)


def build_binary(token: str, left: Formula, right: Formula) -> Formula:
    return _BINARY_CLASSES[token](left, right)


class OperatorSet(Value):
    """The operators the enumerator may use, in declaration order
    whatever the order given, so reorderings enumerate identically.

    R is not in the default set; it stays available through task files'
    ops_line and everywhere else in the library.
    """

    __slots__ = _fields = ("unary", "binary")
    unary: tuple[str, ...]
    binary: tuple[str, ...]

    def __init__(self, unary: tuple[str, ...] = tuple(_UNARY_CLASSES),
                 binary: tuple[str, ...] = (And.token, Or.token, Until.token)):
        for tok in unary:
            if tok not in _UNARY_CLASSES:
                raise ValueError(f"unknown unary operator {tok!r}")
        for tok in binary:
            if tok not in _BINARY_CLASSES:
                raise ValueError(f"unknown binary operator {tok!r}")
        if len(set(unary)) != len(unary) or len(set(binary)) != len(binary):
            raise ValueError("duplicate operator")
        if not unary and not binary:
            raise ValueError("operator set must be non-empty")
        object.__setattr__(self, "unary", tuple(t for t in _UNARY_CLASSES if t in unary))
        object.__setattr__(self, "binary", tuple(t for t in _BINARY_CLASSES if t in binary))

    @staticmethod
    def from_names(names: Iterable[str]) -> "OperatorSet":
        """Partition a mixed token list (e.g. a task's ops_line) by arity."""
        given = set(names)
        unknown = given - _UNARY_CLASSES.keys() - _BINARY_CLASSES.keys()
        if unknown:
            raise ValueError(f"unknown operator {sorted(unknown)[0]!r}")
        unary, binary = given & _UNARY_CLASSES.keys(), given & _BINARY_CLASSES.keys()
        return OperatorSet(tuple(unary), tuple(binary))

    def names(self) -> tuple[str, ...]:
        return self.unary + self.binary


DEFAULT_OPERATORS = OperatorSet()


# ---------------------------------------------------------------------------
# Reference evaluation
# ---------------------------------------------------------------------------

def _until_scan(left: list[int], right: list[int], ones: int) -> list[int]:
    # Backwards: U holds at p iff right does, or left does and U holds at p+1.
    out, acc = [], 0
    for a, b in zip(reversed(left), reversed(right)):
        acc = b | a & acc
        out.append(acc)
    return out[::-1]


def _release_scan(left: list[int], right: list[int], ones: int) -> list[int]:
    # Backwards: R holds at p iff right does, and left does or R holds at p+1.
    out, acc = [], ones
    for a, b in zip(reversed(left), reversed(right)):
        acc = b & (a | acc)
        out.append(acc)
    return out[::-1]


# Per operator token: the argument values at every position and the
# batch's all-ones in, the operator's values at every position out. A
# value holds bit d for trace d of the batch. Each is one pass at C
# level, except the backward scans of U and R.
UNARY_REFERENCE = {
    Not.token: lambda v, ones: list(map(ones.__xor__, v)),
    StrongNext.token: lambda v, ones: v[1:] + [0],
    WeakNext.token: lambda v, ones: v[1:] + [ones],
    Finally.token: lambda v, ones: list(accumulate(reversed(v), or_))[::-1],
    Globally.token: lambda v, ones: list(accumulate(reversed(v), and_))[::-1],
}
BINARY_REFERENCE = {
    And.token: lambda v1, v2, ones: list(map(and_, v1, v2)),
    Or.token: lambda v1, v2, ones: list(map(or_, v1, v2)),
    Until.token: _until_scan,
    Release.token: _release_scan,
}


def _atom_values(prop: int):
    # Per byte value: the ASCII digit of its bit `prop`.
    table = bytes(b"01"[c >> prop & 1] for c in range(256))

    def values(rows, ones: int) -> list[int]:
        letters, length = rows
        if isinstance(letters, bytes):
            digits = letters.translate(table)
        else:  # a letter above 255: a digit per distinct letter
            digit = {c: "01"[c >> prop & 1] for c in set(letters)}
            digits = "".join(map(digit.__getitem__, letters))
        # Row-major from the last trace up: position p's column is every
        # length-th digit from p, and the first trace's digit comes last.
        return [int(digits[p::length], 2) for p in range(length)]

    return values


def _constant_values(value: bool):
    return lambda rows, ones: [ones if value else 0] * rows[1]


def _compile(phi: Formula, slots: dict, steps: list) -> int:
    """Append phi's step, after those of its arguments, unless an equal
    subformula has one; its slot, where a run keeps its values."""
    slot = slots.get(phi)
    if slot is None:
        cls = type(phi)
        if cls is Atom:
            step = (_atom_values(phi.prop), 0, None)
        elif cls is Top or cls is Bottom:
            step = (_constant_values(cls is Top), 0, None)
        elif isinstance(phi, _Unary):
            step = (UNARY_REFERENCE[phi.token], _compile(phi.arg, slots, steps), None)
        elif isinstance(phi, _Binary):
            left = _compile(phi.left, slots, steps)
            step = (BINARY_REFERENCE[phi.token], left, _compile(phi.right, slots, steps))
        else:
            raise TypeError(f"not a formula node: {phi!r}")
        steps.append(step)
        slot = slots[phi] = len(steps)
    return slot


def compile_reference(phi: Formula) -> Callable[[Sequence[tuple[int, ...]]], list[int]]:
    """phi's values at every position of a batch of equal-length traces,
    given their letters: one int per position, bit d for trace d.

    phi's distinct subformulas become a program of steps in post-order,
    once. A step is a function and the slots of its one or two
    arguments; a run keeps the batch's letters in slot 0 and each
    step's values in the next slot.
    """
    steps: list = []
    _compile(phi, {}, steps)

    def values(batch: Sequence[tuple[int, ...]]) -> list[int]:
        lengths = set(map(len, batch))
        if len(lengths) != 1:
            raise ValueError(f"a batch is one or more traces of one length, not {sorted(lengths)}")
        ones = (1 << len(batch)) - 1
        try:  # every letter below 256: one byte each
            letters = b"".join(map(bytes, reversed(batch)))
        except ValueError:
            letters = tuple(chain.from_iterable(reversed(batch)))
        slots: list = [(letters, lengths.pop())]
        for step, a, b in steps:
            slots.append(step(slots[a], ones) if b is None else step(slots[a], slots[b], ones))
        return slots[-1]

    return values


def eval_reference(phi: Formula, w: Trace, k: int) -> bool:
    """Whether the suffix w[k..] satisfies phi, by `compile_reference`
    on a batch of one."""
    if not 1 <= k <= w.length:
        raise ValueError(f"position {k} out of range 1..{w.length}")
    return compile_reference(phi)((w.letters,))[k - 1] == 1


# ---------------------------------------------------------------------------
# Text grammar
# ---------------------------------------------------------------------------

class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"at offset {pos}: {message}")


_LITERAL_CLASSES: dict[str, type] = {cls.token: cls for cls in (Top, Bottom)}
OPERATOR_TOKENS = frozenset((*_UNARY_CLASSES, *_BINARY_CLASSES))

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# The grammar's words that are identifiers, and so could pass for names.
RESERVED_NAMES = frozenset(
    word for word in (*OPERATOR_TOKENS, *_LITERAL_CLASSES) if _NAME_RE.match(word)
)


def is_valid_prop_name(name: str) -> bool:
    return bool(_NAME_RE.match(name)) and name not in RESERVED_NAMES


# Parentheses and the operator tokens that do not start with a letter.
_SYMBOLS = "()" + "".join(t for t in OPERATOR_TOKENS if not t[0].isalpha())


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in _SYMBOLS:
            tokens.append((c, i))
            i += 1
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if text[j:j + 1] and word + text[j] in _UNARY_CLASSES:  # X!
                tokens.append((word + text[j], i))
                i = j + 1
            else:
                tokens.append((word, i))
                i = j
        else:
            raise FormulaSyntaxError(f"unexpected character {c!r}", i)
    return tokens


class _Parser:
    def __init__(self, text: str, alphabet: Alphabet):
        self.tokens = _tokenize(text) + [(None, len(text))]  # None: end of input
        self.pos = 0
        self.alphabet = alphabet

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos][0]

    def next(self) -> tuple[str, int]:
        tok, at = self.tokens[self.pos]
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", at)
        self.pos += 1
        return tok, at

    def parse(self) -> Formula:
        phi = self.binary(0)
        tok, at = self.tokens[self.pos]
        if tok is not None:
            raise FormulaSyntaxError(f"unexpected token {tok!r}", at)
        return phi

    def binary(self, min_prec: int) -> Formula:
        """Operands joined by binary operators that bind at least min_prec."""
        left = self.unary()
        while True:
            cls = _BINARY_CLASSES.get(self.peek())
            if cls is None or cls.prec < min_prec:
                return left
            self.next()
            # Right-associative: an equally strong chain is the right operand.
            left = cls(left, self.binary(cls.prec if cls.right_assoc else cls.prec + 1))

    def unary(self) -> Formula:
        tok = self.peek()
        if tok in _UNARY_CLASSES:
            self.next()
            return build_unary(tok, self.unary())
        return self.atom()

    def atom(self) -> Formula:
        tok, at = self.next()
        if tok == "(":
            phi = self.binary(0)
            closing, cat = self.next()
            if closing != ")":
                raise FormulaSyntaxError(f"expected ')', got {closing!r}", cat)
            return phi
        if tok in _LITERAL_CLASSES:
            return _LITERAL_CLASSES[tok]()
        if is_valid_prop_name(tok):
            try:
                return Atom(self.alphabet.index(tok))
            except ValueError:
                raise FormulaSyntaxError(f"unknown proposition {tok!r}", at) from None
        raise FormulaSyntaxError(f"unexpected token {tok!r}", at)


def parse_formula(text: str, alphabet: Alphabet) -> Formula:
    return _Parser(text, alphabet).parse()


_PREC_TIGHT = 4  # atoms and prefix operators, which self-delimit


def _render(phi: Formula, alphabet: Alphabet) -> tuple[str, int]:
    cls = type(phi)
    if cls is Atom:
        return alphabet.props[phi.prop], _PREC_TIGHT
    if cls in _LITERAL_CLASSES.values():
        return phi.token, _PREC_TIGHT
    if isinstance(phi, _Unary):
        arg, _ = _render(phi.arg, alphabet)
        return f"{phi.token}({arg})", _PREC_TIGHT
    prec = cls.prec
    left, lp = _render(phi.left, alphabet)
    right, rp = _render(phi.right, alphabet)
    # A child of equal strength is parenthesized on the side the operator
    # does not associate to.
    if lp < prec or (lp == prec and cls.right_assoc):
        left = f"({left})"
    if rp < prec or (rp == prec and not cls.right_assoc):
        right = f"({right})"
    return f"{left} {phi.token} {right}", prec


def render_formula(phi: Formula, alphabet: Alphabet) -> str:
    """Render in the text grammar; parse(render(phi)) reproduces phi."""
    return _render(phi, alphabet)[0]
