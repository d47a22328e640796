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
and shares nothing with it. On one trace it gives every subformula a
list of bools, one per position, bottom-up through the per-token
tables `UNARY_REFERENCE` and `BINARY_REFERENCE`: X! and X shift the
list, and F, G, U and R are one backward scan each.

Text grammar: prefix unary operators X!, X, F, G, ! and infix binary
&, |, U, R with precedence unary > & > | > U = R; the binary temporal
operators are right-associative, & and | left-associative; parentheses
are always accepted. `true` and `false` are literals.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import accumulate
from operator import and_, or_
from typing import Iterable, Optional

from .traces import Alphabet, Trace, is_valid_prop_name


class Formula:
    """Base class for formula nodes; all subclasses are frozen dataclasses.

    A node's hash combines a fixed tag for its class with the hashes of
    its fields, so F(x), G(x) and !x hash apart, and so do the binary
    nodes over the same operands. It is computed on first use and cached
    on the node, and it does not depend on PYTHONHASHSEED.
    """

    size: int
    _hash = None  # set by the first __hash__ call


def _set_size(node: Formula, size: int) -> None:
    object.__setattr__(node, "size", size)


@dataclass(frozen=True)
class Atom(Formula):
    prop: int
    size: int = field(default=1, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class Top(Formula):
    size: int = field(default=1, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class Bottom(Formula):
    size: int = field(default=1, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class _Unary(Formula):
    """An operator node with one argument; size 1 + the argument's."""

    arg: Formula
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _set_size(self, 1 + self.arg.size)


@dataclass(frozen=True)
class _Binary(Formula):
    """An operator node with two arguments; size 1 + both sizes."""

    left: Formula
    right: Formula
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _set_size(self, 1 + self.left.size + self.right.size)


class Not(_Unary):
    """!phi."""
    token = "!"


class StrongNext(_Unary):
    """X! phi: there is a next position and phi holds there."""
    token = "X!"


class WeakNext(_Unary):
    """X phi: phi holds at the next position if there is one."""
    token = "X"


class Finally(_Unary):
    """F phi: phi holds at some position from here on."""
    token = "F"


class Globally(_Unary):
    """G phi: phi holds at every position from here on."""
    token = "G"


class And(_Binary):
    """phi & psi."""
    token = "&"


class Or(_Binary):
    """phi | psi."""
    token = "|"


class Until(_Binary):
    """phi U psi: psi holds at some position, and phi at every one before."""
    token = "U"


class Release(_Binary):
    """phi R psi, the standard dual of Until: !((!phi) U (!psi))."""
    token = "R"


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

# Per node class: its tag and the fields its hash reads (those == compares).
_HASH_KEYS: dict[type, tuple[int, tuple[str, ...]]] = {}
for _tag, _cls in enumerate((Atom, Top, Bottom, *_UNARY_CLASSES.values(),
                             *_BINARY_CLASSES.values())):
    _HASH_KEYS[_cls] = (_tag, tuple(f.name for f in fields(_cls) if f.compare))
    _cls.__hash__ = _node_hash


def build_unary(token: str, arg: Formula) -> Formula:
    return _UNARY_CLASSES[token](arg)


def build_binary(token: str, left: Formula, right: Formula) -> Formula:
    return _BINARY_CLASSES[token](left, right)


@dataclass(frozen=True)
class OperatorSet:
    """The operators the enumerator may use, in declaration order.

    R is not in the default set; it stays available through task files'
    ops_line and everywhere else in the library.
    """

    unary: tuple[str, ...] = tuple(_UNARY_CLASSES)
    binary: tuple[str, ...] = (And.token, Or.token, Until.token)

    def __post_init__(self):
        for tok in self.unary:
            if tok not in _UNARY_CLASSES:
                raise ValueError(f"unknown unary operator {tok!r}")
        for tok in self.binary:
            if tok not in _BINARY_CLASSES:
                raise ValueError(f"unknown binary operator {tok!r}")
        if len(set(self.unary)) != len(self.unary) or len(set(self.binary)) != len(
            self.binary
        ):
            raise ValueError("duplicate operator")
        if not self.unary and not self.binary:
            raise ValueError("operator set must be non-empty")

    @staticmethod
    def from_names(names: Iterable[str]) -> "OperatorSet":
        """Partition a mixed token list (e.g. a task's ops_line) by arity.

        Tokens are normalized to declaration order, so reorderings of
        the same set enumerate identically.
        """
        given = set(names)
        unknown = given - _UNARY_CLASSES.keys() - _BINARY_CLASSES.keys()
        if unknown:
            raise ValueError(f"unknown operator {sorted(unknown)[0]!r}")
        unary = tuple(t for t in _UNARY_CLASSES if t in given)
        binary = tuple(t for t in _BINARY_CLASSES if t in given)
        return OperatorSet(unary, binary)

    def names(self) -> tuple[str, ...]:
        return self.unary + self.binary


DEFAULT_OPERATORS = OperatorSet()


# ---------------------------------------------------------------------------
# Reference evaluation
# ---------------------------------------------------------------------------

def _until_scan(left: list[bool], right: list[bool]) -> list[bool]:
    # Backwards: U holds at p iff right does, or left does and U holds at p+1.
    out, acc = [], False
    for a, b in zip(reversed(left), reversed(right)):
        acc = b or (a and acc)
        out.append(acc)
    return out[::-1]


def _release_scan(left: list[bool], right: list[bool]) -> list[bool]:
    # Backwards: R holds at p iff right does, and left does or R holds at p+1.
    out, acc = [], True
    for a, b in zip(reversed(left), reversed(right)):
        acc = b and (a or acc)
        out.append(acc)
    return out[::-1]


# Per operator token: the argument values at every position in, the
# operator's values at every position out.
UNARY_REFERENCE = {
    Not.token: lambda v: [not x for x in v],
    StrongNext.token: lambda v: v[1:] + [False],
    WeakNext.token: lambda v: v[1:] + [True],
    Finally.token: lambda v: list(accumulate(reversed(v), or_))[::-1],
    Globally.token: lambda v: list(accumulate(reversed(v), and_))[::-1],
}
BINARY_REFERENCE = {
    And.token: lambda v1, v2: [a and b for a, b in zip(v1, v2)],
    Or.token: lambda v1, v2: [a or b for a, b in zip(v1, v2)],
    Until.token: _until_scan,
    Release.token: _release_scan,
}


def _values(phi: Formula, letters: tuple[int, ...]) -> list[bool]:
    cls = type(phi)
    if cls is Atom:
        return [bool(letter >> phi.prop & 1) for letter in letters]
    if cls is Top or cls is Bottom:
        return [cls is Top] * len(letters)
    if isinstance(phi, _Unary):
        return UNARY_REFERENCE[phi.token](_values(phi.arg, letters))
    if isinstance(phi, _Binary):
        return BINARY_REFERENCE[phi.token](_values(phi.left, letters), _values(phi.right, letters))
    raise TypeError(f"not a formula node: {phi!r}")


def eval_reference(phi: Formula, w: Trace, k: int) -> bool:
    """Whether the suffix w[k..] satisfies phi.

    Each subformula's values at every position of w are computed
    bottom-up, through the per-token tables above.
    """
    if not 1 <= k <= w.length:
        raise ValueError(f"position {k} out of range 1..{w.length}")
    return _values(phi, w.letters)[k - 1]


# ---------------------------------------------------------------------------
# Text grammar
# ---------------------------------------------------------------------------

class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"at offset {pos}: {message}")


# Parentheses and the operator tokens that do not start with a letter.
_SYMBOLS = "()" + "".join(t for t in (*_UNARY_CLASSES, *_BINARY_CLASSES) if not t[0].isalpha())


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
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.alphabet = alphabet

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, int]:
        if self.pos >= len(self.tokens):
            raise FormulaSyntaxError("unexpected end of input", len(self.text))
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        phi = self.temporal()
        if self.pos < len(self.tokens):
            tok, at = self.tokens[self.pos]
            raise FormulaSyntaxError(f"unexpected token {tok!r}", at)
        return phi

    def temporal(self) -> Formula:
        left = self.disjunction()
        if self.peek() in (Until.token, Release.token):
            tok, _ = self.next()
            right = self.temporal()  # right-associative
            return build_binary(tok, left, right)
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.peek() == Or.token:
            self.next()
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.unary()
        while self.peek() == And.token:
            self.next()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok in _UNARY_CLASSES:
            self.next()
            return build_unary(tok, self.unary())
        return self.atom()

    def atom(self) -> Formula:
        tok, at = self.next()
        if tok == "(":
            phi = self.temporal()
            closing, cat = self.next()
            if closing != ")":
                raise FormulaSyntaxError(f"expected ')', got {closing!r}", cat)
            return phi
        if tok == "true":
            return Top()
        if tok == "false":
            return Bottom()
        if is_valid_prop_name(tok):
            try:
                return Atom(self.alphabet.index(tok))
            except ValueError:
                raise FormulaSyntaxError(f"unknown proposition {tok!r}", at) from None
        raise FormulaSyntaxError(f"unexpected token {tok!r}", at)


def parse_formula(text: str, alphabet: Alphabet) -> Formula:
    return _Parser(text, alphabet).parse()


_PREC_TEMPORAL = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_TIGHT = 4  # atoms and prefix operators, which self-delimit


def _render(phi: Formula, alphabet: Alphabet) -> tuple[str, int]:
    cls = type(phi)
    if cls is Atom:
        return alphabet.props[phi.prop], _PREC_TIGHT
    if cls is Top:
        return "true", _PREC_TIGHT
    if cls is Bottom:
        return "false", _PREC_TIGHT
    if isinstance(phi, _Unary):
        arg, _ = _render(phi.arg, alphabet)
        return f"{phi.token}({arg})", _PREC_TIGHT
    prec = _PREC_AND if cls is And else _PREC_OR if cls is Or else _PREC_TEMPORAL
    left, lp = _render(phi.left, alphabet)
    right, rp = _render(phi.right, alphabet)
    # & and | are left-associative, U and R right-associative: a child of
    # equal precedence is parenthesized on the side it does not bind to.
    if lp < prec or (lp == prec and cls not in (And, Or)):
        left = f"({left})"
    if rp < prec or (rp == prec and cls in (And, Or)):
        right = f"({right})"
    return f"{left} {phi.token} {right}", prec


def render_formula(phi: Formula, alphabet: Alphabet) -> str:
    """Render in the text grammar; parse(render(phi)) reproduces phi."""
    return _render(phi, alphabet)[0]
