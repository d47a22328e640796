"""LTLf abstract syntax, size measure, textual grammar, reference evaluator.

Formulas are interpreted over finite non-empty traces with 1-based
positions. The shortcut operators expand as

    X phi   ==  !X!(!phi)          (weak next: true at the last position)
    F phi   ==  true U phi
    G phi   ==  !F(!phi)
    phi R psi  ==  !((!phi) U (!psi))

and every operator, shortcuts included, counts as one node toward a
formula's size.

`eval_reference` is the correctness oracle for the bit-parallel engine:
it follows the defining clauses directly, with plain position scans for
the quantifiers, and shares nothing with the word-level implementation.

Text grammar: prefix unary operators X!, X, F, G, ! and infix binary
&, |, U, R with precedence unary > & > | > U = R; the binary temporal
operators are right-associative, & and | left-associative; parentheses
are always accepted. `true` and `false` are literals.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
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


class StrongNext(_Unary):
    """X! phi: there is a next position and phi holds there."""


class WeakNext(_Unary):
    """X phi: phi holds at the next position if there is one."""


class Finally(_Unary):
    """F phi: phi holds at some position from here on."""


class Globally(_Unary):
    """G phi: phi holds at every position from here on."""


class And(_Binary):
    """phi & psi."""


class Or(_Binary):
    """phi | psi."""


class Until(_Binary):
    """phi U psi: psi holds at some position, and phi at every one before."""


class Release(_Binary):
    """phi R psi, the standard dual of Until: !((!phi) U (!psi))."""


def _node_hash(node: Formula) -> int:
    h = node._hash
    if h is None:
        tag, names = _HASH_KEYS[type(node)]
        h = hash((tag, *[getattr(node, name) for name in names]))
        object.__setattr__(node, "_hash", h)
    return h


# Per node class: its tag and the fields its hash reads (those == compares).
_HASH_KEYS: dict[type, tuple[int, tuple[str, ...]]] = {}
for _tag, _cls in enumerate((Atom, Top, Bottom, Not, StrongNext, WeakNext, Finally, Globally,
                             And, Or, Until, Release)):
    _HASH_KEYS[_cls] = (_tag, tuple(f.name for f in fields(_cls) if f.compare))
    _cls.__hash__ = _node_hash

_UNARY_CLASSES: dict[str, type] = {
    "!": Not,
    "X!": StrongNext,
    "X": WeakNext,
    "F": Finally,
    "G": Globally,
}
_BINARY_CLASSES: dict[str, type] = {
    "&": And,
    "|": Or,
    "U": Until,
    "R": Release,
}
_UNARY_TOKEN = {cls: tok for tok, cls in _UNARY_CLASSES.items()}
_BINARY_TOKEN = {cls: tok for tok, cls in _BINARY_CLASSES.items()}


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

    unary: tuple[str, ...] = ("!", "X!", "X", "F", "G")
    binary: tuple[str, ...] = ("&", "|", "U")

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

def _eval(phi: Formula, w: Trace, k: int, memo: dict) -> bool:
    key = (id(phi), k)
    cached = memo.get(key)
    if cached is not None:
        return cached
    length = w.length
    if isinstance(phi, Atom):
        val = bool(w.letters[k - 1] >> phi.prop & 1)
    elif isinstance(phi, Top):
        val = True
    elif isinstance(phi, Bottom):
        val = False
    elif isinstance(phi, Not):
        val = not _eval(phi.arg, w, k, memo)
    elif isinstance(phi, And):
        val = _eval(phi.left, w, k, memo) and _eval(phi.right, w, k, memo)
    elif isinstance(phi, Or):
        val = _eval(phi.left, w, k, memo) or _eval(phi.right, w, k, memo)
    elif isinstance(phi, StrongNext):
        val = k < length and _eval(phi.arg, w, k + 1, memo)
    elif isinstance(phi, WeakNext):
        val = k == length or _eval(phi.arg, w, k + 1, memo)
    elif isinstance(phi, Finally):
        val = any(_eval(phi.arg, w, i, memo) for i in range(k, length + 1))
    elif isinstance(phi, Globally):
        val = all(_eval(phi.arg, w, i, memo) for i in range(k, length + 1))
    elif isinstance(phi, Until):
        # Exists i in [k, length] with right at i and left on [k, i-1].
        val = False
        for i in range(k, length + 1):
            if _eval(phi.right, w, i, memo):
                val = True
                break
            if not _eval(phi.left, w, i, memo):
                break
    elif isinstance(phi, Release):
        # !((!left) U (!right)): right holds up to and including the first
        # position where left holds, or throughout if left never does.
        val = True
        for i in range(k, length + 1):
            if not _eval(phi.right, w, i, memo):
                val = False
                break
            if _eval(phi.left, w, i, memo):
                break
    else:
        raise TypeError(f"not a formula node: {phi!r}")
    memo[key] = val
    return val


def eval_reference(phi: Formula, w: Trace, k: int) -> bool:
    """Whether the suffix w[k..] satisfies phi, by direct recursion."""
    if not 1 <= k <= w.length:
        raise ValueError(f"position {k} out of range 1..{w.length}")
    return _eval(phi, w, k, {})


# ---------------------------------------------------------------------------
# Text grammar
# ---------------------------------------------------------------------------

class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"at offset {pos}: {message}")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()&|!":
            tokens.append((c, i))
            i += 1
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word == "X" and j < n and text[j] == "!":
                tokens.append(("X!", i))
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
        if self.peek() in ("U", "R"):
            tok, _ = self.next()
            right = self.temporal()  # right-associative
            return build_binary(tok, left, right)
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.peek() == "|":
            self.next()
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.unary()
        while self.peek() == "&":
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
    if cls in _UNARY_TOKEN:
        arg, _ = _render(phi.arg, alphabet)
        return f"{_UNARY_TOKEN[cls]}({arg})", _PREC_TIGHT
    tok = _BINARY_TOKEN[cls]
    if cls is And:
        prec = _PREC_AND
    elif cls is Or:
        prec = _PREC_OR
    else:
        prec = _PREC_TEMPORAL
    left, lp = _render(phi.left, alphabet)
    right, rp = _render(phi.right, alphabet)
    if cls in (And, Or):
        # Left-associative: parenthesize an equal-precedence right child.
        if lp < prec:
            left = f"({left})"
        if rp <= prec:
            right = f"({right})"
    else:
        # Right-associative: parenthesize an equal-precedence left child.
        if lp <= prec:
            left = f"({left})"
        if rp < prec:
            right = f"({right})"
    return f"{left} {tok} {right}", prec


def render_formula(phi: Formula, alphabet: Alphabet) -> str:
    """Render in the text grammar; parse(render(phi)) reproduces phi."""
    return _render(phi, alphabet)[0]
