"""Cyclic words of partial quotients and their reflection symmetries.

A period word is viewed as a bi-infinite periodic sequence.  A reflection
axis either fixes a letter (an even or odd center, by the letter's parity)
or a gap between two neighbouring letters (an intermediate center).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .cfrac import PeriodicCF
from .errors import ResourceLimit

_ALPHABET_CAP = 0x110000  # chr(i) is one character for 0 <= i < 0x110000


class CenterKind(Enum):
    EVEN_ELEMENT = "even"
    ODD_ELEMENT = "odd"
    GAP = "gap"


@dataclass(frozen=True)
class Center:
    """A reflection axis: through the letter at `position`, or through the gap
    between positions `position` and `position + 1` (mod the word length)."""

    kind: CenterKind
    position: int

    def to_json(self) -> dict:
        return {"kind": self.kind.value, "pos": self.position}


@dataclass(frozen=True)
class CyclicWord:
    """Primitive word of positive integers, read up to rotation."""

    letters: tuple[int, ...]

    def __init__(self, letters):
        object.__setattr__(self, "letters", PeriodicCF((), letters).period)  # checks the period invariants

    def __len__(self):
        return len(self.letters)

    def rotated(self, offset: int) -> tuple[int, ...]:
        """The rotation starting at index offset."""
        t = len(self.letters)
        offset %= t
        return self.letters[offset:] + self.letters[:offset]


def is_regular_palindrome(word: Sequence[int]) -> bool:
    """True iff the finite word equals its own reversal."""
    if not word:
        raise ValueError("word must be nonempty")
    w = tuple(word)
    return w == w[::-1]


def _reflection(letters: tuple[int, ...]) -> Optional[int]:
    """The least r whose rotation letters[r:] + letters[:r] equals the reversal.

    That rotation maps letter j to letter r - 1 - j (mod t).  A primitive
    word has at most one such r: two reflections would compose to a
    nontrivial rotation fixing the word.

    r is the offset of the reversal in the doubled word, each distinct letter
    coded as one character: one str.find, linear time on CPython >= 3.10 (the
    two-way search of Crochemore and Perrin, 1991).  More than _ALPHABET_CAP
    (0x110000) distinct letters raise ResourceLimit; a walk's period has at
    most 10**6 letters.
    """
    alphabet = set(letters)
    if len(alphabet) > _ALPHABET_CAP:
        raise ResourceLimit(f"no reflection search past the limit of {_ALPHABET_CAP} distinct letters")
    code = {a: chr(i) for i, a in enumerate(alphabet)}
    s = "".join(map(code.__getitem__, letters))
    r = (s + s).find(s[::-1])
    return r if 0 <= r < len(s) else None


def is_cyclic_palindrome(word: CyclicWord | Sequence[int]) -> bool:
    """True iff some rotation equals the reversal."""
    letters = word.letters if isinstance(word, CyclicWord) else tuple(word)
    return _reflection(letters) is not None


def centers(word: CyclicWord) -> list[Center]:
    """All reflection axes of the bi-infinite periodic extension.

    In half positions mod 2t (letter i at 2i, the gap after it at 2i + 1),
    the one reflection j <-> r - 1 - j is k <-> 2r - 2 - k, fixing k = r - 1
    and r - 1 + t: both axes are solved mod t, not scanned for.  Letter centers
    come first; there are none exactly when the word is not a cyclic palindrome.
    """
    return _centers(word.letters)


def _centers(w: tuple[int, ...]) -> list[Center]:
    """centers() of a primitive word of letters >= 1, given as its tuple."""
    r = _reflection(w)
    if r is None:
        return []
    half = ((r - 1) % len(w), (r - 1) % len(w) + len(w))
    found = [Center(CenterKind.EVEN_ELEMENT if w[k // 2] % 2 == 0 else CenterKind.ODD_ELEMENT, k // 2)
             for k in half if k % 2 == 0]
    return found + [Center(CenterKind.GAP, k // 2) for k in half if k % 2]


@dataclass(frozen=True)
class ShapeDecomposition:
    """Rotation offsets (if any) exhibiting the three symmetric shapes:
    a regular palindrome; a regular palindrome followed by one even letter;
    a regular palindrome followed by one odd letter.  The palindrome part may
    be empty for one-letter words."""

    regular_rotation: Optional[int]
    even_extra: Optional[int]
    odd_extra: Optional[int]


def shape_decompose(word: CyclicWord) -> ShapeDecomposition:
    """Scan all rotations for the palindrome / palindrome-plus-letter shapes."""
    t = len(word.letters)
    regular = even_extra = odd_extra = None
    for r in range(t):
        rot = word.rotated(r)
        if regular is None and rot == rot[::-1]:
            regular = r
        head = rot[:-1]
        if head == head[::-1]:
            if rot[-1] % 2 == 0:
                if even_extra is None:
                    even_extra = r
            elif odd_extra is None:
                odd_extra = r
    return ShapeDecomposition(regular, even_extra, odd_extra)


def canonical_rotation(word: CyclicWord) -> tuple[int, ...]:
    """Lexicographically least rotation; a stable dictionary key.

    Two candidate starts i < j are compared letter by letter over the doubled
    word; every other start below j is already ruled out.  A mismatch after k
    equal letters rules out the larger one's start and the k starts after it,
    which raises i + j by at least k + 1; as i + j < 2t, the scan is linear.
    A primitive word has one least rotation, the start i left when j passes t.
    """
    w = word.letters
    t, ww = len(w), w + w
    i, j, k = 0, 1, 0
    while j < t and k < t:
        a, b = ww[i + k], ww[j + k]
        if a == b:
            k += 1
        else:
            i, j, k = (j, max(i + k + 1, j + 1), 0) if a > b else (i, j + k + 1, 0)
    return word.rotated(i)


def centers_record(word: CyclicWord) -> dict:
    """JSON record of a word and its reflection axes."""
    return {
        "word": list(word.letters),
        "centers": [c.to_json() for c in centers(word)],
    }
