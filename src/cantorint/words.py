"""Digit sequences over consecutive-integer alphabets.

Finite words, eventually periodic sequences (canonicalised at
construction), lazy sequences driven by a pure index function, plus the
combinatorial operations everything else builds on: lexicographic
comparison, reflection, zero densities, alphabet substitution, and the
strongly-eventually-periodic test.
"""

from __future__ import annotations

import re
import struct
from enum import Enum
from fractions import Fraction
from functools import cache
from math import lcm
from typing import Callable, NamedTuple, Optional, Union

from .exactnum import CantorintError


class WordsError(CantorintError):
    pass


class AlphabetMismatch(WordsError):
    pass


class SizeMismatch(WordsError):
    pass


class _AlphabetFields(NamedTuple):
    low: int
    size: int


class Alphabet(_AlphabetFields):
    """Digits {low, ..., low + size - 1}.  A named tuple, so equality,
    hashing and field access run in C; ``in`` is the digit range."""

    __slots__ = ()

    def __new__(cls, low: int, size: int):
        if size < 2:
            raise WordsError("alphabet needs at least two digits")
        return tuple.__new__(cls, (low, size))

    @property
    def high(self) -> int:
        return self.low + self.size - 1

    def __contains__(self, d: int) -> bool:
        return self.low <= d <= self.high


TERNARY = Alphabet(-1, 3)
BINARY = Alphabet(0, 2)


def _check_digits(digits, alphabet):
    """Raise ``WordsError`` on the first digit outside ``alphabet``.  One
    pass builds the set of digits, and its bounds are read off that set;
    only a failing word is scanned again, for the digit to name."""
    seen = set(digits)
    if not seen or (alphabet.low <= min(seen) and max(seen) <= alphabet.high):
        return
    for d in digits:
        if d not in alphabet:
            raise WordsError(f"digit {d} outside alphabet "
                             f"[{alphabet.low}, {alphabet.high}]")


@cache
def _alphabet_bytes(alphabet) -> bytes:
    """The bytes of ``alphabet``'s digits as signed bytes (0xff is -1)."""
    return bytes(d & 0xFF for d in range(max(alphabet.low, -128),
                                         min(alphabet.high, 127) + 1))


def _signed_digits(b, alphabet) -> tuple:
    """The digits of a bytes or bytearray string of signed digits (0xff is
    -1), read by one ``struct.unpack`` and checked by one ``translate``
    that deletes every byte of ``alphabet``; a byte left over raises
    :func:`_check_digits`'s error, naming the first digit outside."""
    digits = struct.unpack(f"{len(b)}b", b)
    if b.translate(None, _alphabet_bytes(alphabet)):
        _check_digits(digits, alphabet)
    return digits


class FiniteWord:
    """A finite word, its digits a tuple.  ``digits`` may be any iterable
    of ints, or a bytes or bytearray string of signed digits.  Immutable,
    so a cached word is one object for every caller."""

    __slots__ = ("digits", "alphabet")

    def __init__(self, digits, alphabet: Alphabet = TERNARY):
        if isinstance(digits, (bytes, bytearray)):
            digits = _signed_digits(digits, alphabet)
        else:
            digits = tuple(digits)
            _check_digits(digits, alphabet)
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "alphabet", alphabet)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"FiniteWord is immutable: {name}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not FiniteWord:
            return NotImplemented
        return (self.digits, self.alphabet) == (other.digits, other.alphabet)

    def __hash__(self):
        return hash((self.digits, self.alphabet))

    def __reduce__(self):  # copy and pickle through __init__
        return FiniteWord, (self.digits, self.alphabet)

    def __len__(self):
        return len(self.digits)

    def __iter__(self):
        return iter(self.digits)

    def digit(self, i: int) -> int:
        """1-indexed digit access."""
        return self.digits[i - 1]

    def concat(self, other: "FiniteWord") -> "FiniteWord":
        if other.alphabet != self.alphabet:
            raise AlphabetMismatch("cannot concatenate across alphabets")
        return FiniteWord(self.digits + other.digits, self.alphabet)

    def zeros(self) -> int:
        return sum(1 for d in self.digits if d == 0)

    def __repr__(self):
        return f"FiniteWord({format_seq(self)!r})"


class EPSeq:
    """Eventually periodic sequence ``preperiod . period^infinity``.

    Stored in canonical form: the period is primitive (no shorter repeating
    block) and the preperiod is as short as possible, which makes structural
    equality coincide with sequence equality.  The d with ``per ==
    per[:d] * (n // d)``, n = len(per), are the multiples of the root's
    length r that divide n, so stripping each prime factor q of n from
    d = n while d // q is one of them leaves d = r.  ``pre`` and ``per``
    are iterables of ints, whose ``pre + per`` one pass checks, or both
    bytes or bytearray strings of signed digits, made canonical as bytes,
    then read and checked as one string of the same digits.
    """

    __slots__ = ("pre", "per", "alphabet")

    def __init__(self, pre, per, alphabet: Alphabet = TERNARY):
        signed = isinstance(per, (bytes, bytearray))  # and so is pre
        if not signed:
            pre, per = tuple(pre), tuple(per)
            if per:  # an empty period is refused before any digit
                _check_digits(pre + per, alphabet)
        if not per:
            raise WordsError("period must be nonempty")
        # primitive period
        n = m = d = len(per)
        q = 2
        while m > 1:
            if q * q > m:
                q = m  # what is left of n is prime
            if m % q == 0:
                while m % q == 0:
                    m //= q
                while d % q == 0 and per == per[:d // q] * (n * q // d):
                    d //= q
            q += 1
        per = per[:d]
        # minimal preperiod: absorb matching tail digits into a rotation
        k = len(pre)
        while k and pre[k - 1] == per[-1]:
            per = per[-1:] + per[:-1]
            k -= 1
        pre = pre[:k]
        if signed:  # the canonical bytes, read and checked at once
            digits = _signed_digits(pre + per, alphabet)
            pre, per = digits[:k], digits[k:]
        self.pre, self.per, self.alphabet = pre, per, alphabet

    def digit(self, i: int) -> int:
        """1-indexed digit access."""
        if i <= len(self.pre):
            return self.pre[i - 1]
        return self.per[(i - 1 - len(self.pre)) % len(self.per)]

    def __eq__(self, other):
        if not isinstance(other, EPSeq):
            return NotImplemented
        return (self.pre, self.per, self.alphabet) == \
               (other.pre, other.per, other.alphabet)

    def __hash__(self):
        return hash((self.pre, self.per, self.alphabet))

    def __repr__(self):
        return f"EPSeq({format_seq(self)!r})"


class LazySeq:
    """Infinite sequence given by a pure function of the (1-based) index,
    and a ``grammar`` if known: a digit graph with every tail as a path.
    ``digit`` calls ``fn`` and stores nothing; costly sources keep tables."""

    __slots__ = ("fn", "alphabet", "description", "grammar")

    def __init__(self, fn: Callable[[int], int], alphabet: Alphabet = TERNARY,
                 description: str = "", grammar: Optional[list] = None):
        self.fn, self.alphabet = fn, alphabet
        self.description, self.grammar = description, grammar

    def __eq__(self, other):
        if other.__class__ is not LazySeq:
            return NotImplemented
        return (self.fn, self.alphabet, self.description, self.grammar) == \
            (other.fn, other.alphabet, other.description, other.grammar)

    def digit(self, i: int) -> int:
        return self.fn(i)

    def __repr__(self):
        return f"LazySeq<{self.description or 'anonymous'}>"


SeqLike = Union[FiniteWord, EPSeq, LazySeq]


class FreqReport(NamedTuple):
    """A zero density: exact, or the estimate a prefix gives."""

    lower: Fraction
    exact: bool

    @property
    def value(self) -> Fraction:
        if not self.exact:
            raise WordsError("density is only an estimate")
        return self.lower


class Lex(Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    UNDECIDED_AT_DEPTH = "undecided-at-depth"


def _ep_equality_bound(a: EPSeq, b: EPSeq) -> int:
    """Depth after which two EPSeq that agree must agree forever."""
    return max(len(a.pre), len(b.pre)) + lcm(len(a.per), len(b.per))


def lex_compare(a: SeqLike, b: SeqLike, depth_cap: int) -> Lex:
    """First-differing-digit comparison.

    EPSeq-vs-EPSeq is decided exactly.  Comparisons involving a LazySeq scan
    at most ``depth_cap`` digits and report UNDECIDED_AT_DEPTH when no
    difference shows up.  Finite words compare as ordinary words (a proper
    prefix is smaller).
    """
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch("sequences over different alphabets")
    if depth_cap < 1:
        raise ValueError("depth_cap must be at least 1")
    if isinstance(a, FiniteWord) != isinstance(b, FiniteWord):
        raise WordsError("cannot lex-compare a finite word with an "
                         "infinite sequence")
    if isinstance(a, FiniteWord):
        if a.digits == b.digits:
            return Lex.EQUAL
        return Lex.LESS if a.digits < b.digits else Lex.GREATER

    # an EPSeq pair that agrees up to its equality bound agrees forever
    exact = isinstance(a, EPSeq) and isinstance(b, EPSeq)
    stop = _ep_equality_bound(a, b) if exact else depth_cap
    for i in range(1, stop + 1):
        da, db = a.digit(i), b.digit(i)
        if da != db:
            return Lex.LESS if da < db else Lex.GREATER
    return Lex.EQUAL if exact else Lex.UNDECIDED_AT_DEPTH


def _map_digits(s: SeqLike, f: Callable[[int], int], alphabet: Alphabet,
                name: str) -> SeqLike:
    """s with f applied to every digit, over ``alphabet``; a lazy result
    is described as ``name(description)``, its grammar's labels mapped.
    f is a bijection from s's alphabet onto ``alphabet``, so it keeps an
    EPSeq's primitive period primitive and its minimal preperiod minimal,
    and puts every digit in ``alphabet``: the image is built as it stands,
    with no canonical search and no digit check."""
    if isinstance(s, FiniteWord):
        return FiniteWord(tuple(map(f, s.digits)), alphabet)
    if isinstance(s, EPSeq):
        image = object.__new__(EPSeq)
        image.pre, image.per = tuple(map(f, s.pre)), tuple(map(f, s.per))
        image.alphabet = alphabet
        return image
    if isinstance(s, LazySeq):
        grammar = s.grammar and [[(v, f(d)) for v, d in out]
                                 for out in s.grammar]
        return LazySeq(lambda i: f(s.digit(i)), alphabet,
                       f"{name}({s.description})", grammar)
    raise TypeError(f"not a sequence: {s!r}")


def reflect(s: SeqLike) -> SeqLike:
    """Digitwise map d -> low + high - d (negation for {-1,0,1})."""
    total = s.alphabet.low + s.alphabet.high
    return _map_digits(s, total.__sub__, s.alphabet, "reflect")


def zero_density(s: Union[FiniteWord, EPSeq]) -> FreqReport:
    """Exact zero density; the preperiod of an EPSeq does not matter."""
    if isinstance(s, FiniteWord):
        if len(s) == 0:
            raise WordsError("empty word has no density")
        d = Fraction(s.zeros(), len(s))
        return FreqReport(d, exact=True)
    if isinstance(s, EPSeq):
        zeros = sum(1 for x in s.per if x == 0)
        d = Fraction(zeros, len(s.per))
        return FreqReport(d, exact=True)
    raise TypeError("zero_density needs a FiniteWord or EPSeq; "
                    "use zero_density_prefix for lazy sequences")


def zero_density_prefix(s: SeqLike, n: int) -> FreqReport:
    """Zero proportion over the first n digits (an estimate, exact=False)."""
    if n < 1:
        raise ValueError("prefix length must be at least 1")
    zeros = sum(1 for i in range(1, n + 1) if s.digit(i) == 0)
    d = Fraction(zeros, n)
    return FreqReport(d, exact=False)


def substitute_alphabet(s: SeqLike, frm: Alphabet, to: Alphabet) -> SeqLike:
    """Order-preserving digit shift between equal-size alphabets."""
    if frm.size != to.size:
        raise SizeMismatch("alphabets must have the same size")
    if s.alphabet != frm:
        raise AlphabetMismatch("sequence is not over the source alphabet")
    shift = to.low - frm.low
    return _map_digits(s, shift.__add__, to, "shift")


def strongly_eventually_periodic(s: EPSeq):
    """Witness (I, J) with s = I J^inf, |I| = |J|, I lex-<= J, else None.

    With p, q the canonical preperiod and period, |I| = |J| = k works as a
    factorisation iff q divides k and k >= max(p, 1), since every eventual
    period is a multiple of q.  Only the least such k0 is tried: for any
    other k, I(k) starts with I(k0), and J(k) starts with J(k0) because both
    read the periodic part at offsets differing by a multiple of q; and
    I(k0) = J(k0) makes s = I(k0)^inf, so I(k) = J(k).  So I(k) <= J(k) iff
    I(k0) <= J(k0), and k0 gives the witness if any k does.  I is ``pre``
    and the first k - p digits of the repeated period, J the next k.
    """
    if not isinstance(s, EPSeq):
        raise TypeError("strongly_eventually_periodic needs an EPSeq")
    if s.alphabet.size != 2:
        raise WordsError("test is defined over two-letter alphabets")
    pre, per = s.pre, s.per
    p, q = len(pre), len(per)
    k = q * -(-max(p, 1) // q)
    rep = per * (k // q + 1)  # 2k - p <= k + q digits are read
    word_i = pre + rep[:k - p]
    word_j = rep[k - p:2 * k - p]
    if word_i <= word_j:
        return (FiniteWord(word_i, s.alphabet), FiniteWord(word_j, s.alphabet))
    return None


# ---------------------------------------------------------------------------
# text format: '+', '-', '0' over {-1,0,1}; comma-separated ints otherwise,
# written only; a parenthesised suffix repeats forever, e.g. "+0(0)", "2(1)"
# ---------------------------------------------------------------------------

_TERNARY_RE = re.compile(r"^(?P<pre>[+\-0]*)(\((?P<per>[+\-0]+)\))?$")
_TO_SIGNED = bytes.maketrans(b"+-0", b"\x01\xff\x00")
_DIGIT_TO_CHAR = {1: "+", -1: "-", 0: "0"}


def parse_seq(text: str) -> Union[FiniteWord, EPSeq]:
    """Parse a sequence over the ternary alphabet {-1, 0, 1}, written with
    '+', '-' and '0'.  One ``translate`` turns the matched text into
    signed-digit bytes, which the words read as they are."""
    text = text.strip()
    m = _TERNARY_RE.match(text)
    if not m:
        raise WordsError(f"cannot parse ternary sequence {text!r}")
    signed = text.encode("ascii").translate(_TO_SIGNED)
    pre = signed[:m.end("pre")]
    if m.start("per") < 0:
        if not pre:
            raise WordsError("empty sequence")
        return FiniteWord(pre, TERNARY)
    return EPSeq(pre, signed[m.start("per"):m.end("per")], TERNARY)


def format_seq(s: Union[FiniteWord, EPSeq]) -> str:
    if s.alphabet == TERNARY:
        char = _DIGIT_TO_CHAR.__getitem__
        if isinstance(s, FiniteWord):
            return "".join(map(char, s.digits))
        return ("".join(map(char, s.pre))
                + "(" + "".join(map(char, s.per)) + ")")
    if isinstance(s, FiniteWord):
        return ",".join(map(str, s.digits))
    pre = ",".join(map(str, s.pre))
    per = ",".join(map(str, s.per))
    return f"{pre}({per})" if pre else f"({per})"
