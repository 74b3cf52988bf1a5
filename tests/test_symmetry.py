import time
from itertools import product
from math import isqrt

import pytest

from surd_sails import symmetry
from surd_sails.arith import QuadraticSurd
from surd_sails.cfrac import expand
from surd_sails.errors import InvalidPeriod, ResourceLimit
from surd_sails.symmetry import (
    Center,
    CenterKind,
    CyclicWord,
    _reflection,
    canonical_rotation,
    centers,
    centers_record,
    is_cyclic_palindrome,
    is_regular_palindrome,
    shape_decompose,
)

from conftest import LONG_PERIOD_SURDS


def primitive_words(max_len, alphabet):
    for length in range(1, max_len + 1):
        for letters in product(alphabet, repeat=length):
            try:
                yield CyclicWord(letters)
            except InvalidPeriod:
                continue


# letters past one str character, and words in which most offsets share a long prefix
# with the reversal; cyclic palindromes and not
EXTRA_WORDS = [
    (10**30, 1, 10**30 + 1),
    (10**30, 1, 10**30),
    (2**64, 3, 2**64, 0x110001, 5),
    (1,) * 200 + (2,) + (1,) * 199 + (3,),
    (1,) * 200 + (2,) + (1,) * 200 + (3,),
]


def brute_cyclic_palindrome(letters):
    t = len(letters)
    rev = letters[::-1]
    return any(letters[i:] + letters[:i] == rev for i in range(t))


def scan_centers(word):
    """Reference axes: test every letter and every gap as a reflection center."""
    w = word.letters
    t = len(w)
    found = []
    for i in range(t):
        if all(w[j] == w[(2 * i - j) % t] for j in range(t)):
            kind = CenterKind.EVEN_ELEMENT if w[i] % 2 == 0 else CenterKind.ODD_ELEMENT
            found.append(Center(kind, i))
    for i in range(t):
        if all(w[j] == w[(2 * i + 1 - j) % t] for j in range(t)):
            found.append(Center(CenterKind.GAP, i))
    return found


class TestCyclicWord:
    def test_rejects_imprimitive(self):
        with pytest.raises(InvalidPeriod):
            CyclicWord((1, 2, 1, 2))
        with pytest.raises(InvalidPeriod):
            CyclicWord((3, 3))

    def test_rejects_bad_letters(self):
        with pytest.raises(InvalidPeriod):
            CyclicWord(())
        with pytest.raises(InvalidPeriod):
            CyclicWord((1, 0))

    def test_rotation(self):
        w = CyclicWord((1, 2, 3))
        assert w.rotated(1) == (2, 3, 1)
        assert w.rotated(-1) == (3, 1, 2)


class TestRegularPalindrome:
    def test_examples(self):
        assert is_regular_palindrome((1, 2, 1))
        assert not is_regular_palindrome((1, 2))
        assert is_regular_palindrome((5,))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            is_regular_palindrome(())


class TestCyclicPalindrome:
    def test_examples(self):
        assert is_cyclic_palindrome(CyclicWord((1, 2)))
        assert is_cyclic_palindrome(CyclicWord((1, 1, 1, 2)))
        assert not is_cyclic_palindrome(CyclicWord((1, 2, 3)))

    def test_matches_rotation_brute_force(self):
        for word in [*primitive_words(7, (1, 2, 3)), *map(CyclicWord, EXTRA_WORDS)]:
            assert is_cyclic_palindrome(word) == brute_cyclic_palindrome(word.letters)
            assert is_cyclic_palindrome(word.letters) == is_cyclic_palindrome(word)
        assert not is_cyclic_palindrome(())

    def test_alphabet_limit(self, monkeypatch):
        monkeypatch.setattr(symmetry, "_ALPHABET_CAP", 3)
        assert is_cyclic_palindrome((1, 2, 3, 2))
        with pytest.raises(ResourceLimit, match="limit of 3 distinct letters"):
            is_cyclic_palindrome((1, 2, 3, 4))


class TestCenters:
    def test_single_even_letter(self):
        assert centers(CyclicWord((2,))) == [
            Center(CenterKind.EVEN_ELEMENT, 0),
            Center(CenterKind.GAP, 0),
        ]

    def test_two_letter_word(self):
        assert centers(CyclicWord((1, 2))) == [
            Center(CenterKind.ODD_ELEMENT, 0),
            Center(CenterKind.EVEN_ELEMENT, 1),
        ]

    def test_even_length_palindrome(self):
        assert centers(CyclicWord((1, 2, 2, 1))) == [
            Center(CenterKind.GAP, 1),
            Center(CenterKind.GAP, 3),
        ]

    def test_nonempty_iff_cyclic_palindrome(self):
        for word in primitive_words(7, (1, 2, 3)):
            assert bool(centers(word)) == brute_cyclic_palindrome(word.letters)

    def test_exactly_two_axes(self):
        # verified observation: a primitive cyclic palindrome has exactly 2 axes
        for word in primitive_words(7, (1, 2, 3)):
            axes = centers(word)
            if axes:
                assert len(axes) == 2

    def test_matches_center_scan(self):
        for word in primitive_words(8, (1, 2, 3)):
            assert centers(word) == scan_centers(word), word.letters
        # periods of sqrt(n) and long periods, with t of both parities and r = 0
        radicands = [n for n in range(2, 2001) if isqrt(n) ** 2 != n]
        periods = [expand(QuadraticSurd(0, 1, 1, n)).period for n in radicands]
        periods += [expand(alpha).period for alpha in LONG_PERIOD_SURDS] + EXTRA_WORDS
        shapes = set()
        for letters in periods:
            word = CyclicWord(letters)
            assert centers(word) == scan_centers(word), letters
            shapes.add((len(letters) % 2, _reflection(letters) == 0))
        assert {(0, False), (1, False), (1, True)} <= shapes

    def test_reversal_mirror(self):
        for word in primitive_words(6, (1, 2, 3)):
            t = len(word.letters)
            mirrored = set()
            for c in centers(word):
                if c.kind is CenterKind.GAP:
                    mirrored.add(Center(c.kind, (t - 2 - c.position) % t))
                else:
                    mirrored.add(Center(c.kind, (t - 1 - c.position) % t))
            assert set(centers(CyclicWord(word.letters[::-1]))) == mirrored


class TestShapeDecompose:
    def test_single_even(self):
        shape = shape_decompose(CyclicWord((2,)))
        assert shape.even_extra is not None
        assert shape.regular_rotation is not None
        assert shape.odd_extra is None

    def test_one_two(self):
        shape = shape_decompose(CyclicWord((1, 2)))
        assert shape.regular_rotation is None
        # rotation (1, 2): palindrome (1) + even extra 2
        assert shape.even_extra == 0
        # rotation (2, 1): palindrome (2) + odd extra 1
        assert shape.odd_extra == 1

    def test_even_palindrome(self):
        shape = shape_decompose(CyclicWord((1, 2, 2, 1)))
        assert shape.regular_rotation is not None
        assert shape.even_extra is None and shape.odd_extra is None

    def test_rotations_exhibit_shapes(self):
        for word in primitive_words(6, (1, 2, 3)):
            shape = shape_decompose(word)
            if shape.regular_rotation is not None:
                rot = word.rotated(shape.regular_rotation)
                assert rot == rot[::-1]
            if shape.even_extra is not None:
                rot = word.rotated(shape.even_extra)
                assert rot[-1] % 2 == 0 and rot[:-1] == rot[-2::-1]
            if shape.odd_extra is not None:
                rot = word.rotated(shape.odd_extra)
                assert rot[-1] % 2 == 1 and rot[:-1] == rot[-2::-1]

    def test_shapes_match_axis_kinds(self):
        # gap axis <=> full palindrome rotation; element axis <=> extra letter
        for word in primitive_words(7, (1, 2, 3)):
            shape = shape_decompose(word)
            kinds = {c.kind for c in centers(word)}
            assert (shape.regular_rotation is not None) == (CenterKind.GAP in kinds)
            assert (shape.even_extra is not None) == (CenterKind.EVEN_ELEMENT in kinds)
            assert (shape.odd_extra is not None) == (CenterKind.ODD_ELEMENT in kinds)


class TestJsonRecord:
    def test_schema(self):
        record = centers_record(CyclicWord((1, 2, 2, 1)))
        assert record == {
            "word": [1, 2, 2, 1],
            "centers": [{"kind": "gap", "pos": 1}, {"kind": "gap", "pos": 3}],
        }


class TestCanonicalRotation:
    def test_examples(self):
        assert canonical_rotation(CyclicWord((2, 1))) == (1, 2)
        assert canonical_rotation(CyclicWord((3,))) == (3,)
        assert canonical_rotation(CyclicWord((2, 1, 1))) == (1, 1, 2)

    def test_rotation_invariant(self):
        for word in primitive_words(6, (1, 2)):
            expected = canonical_rotation(word)
            for r in range(len(word.letters)):
                assert canonical_rotation(CyclicWord(word.rotated(r))) == expected

    def test_matches_least_of_all_rotations(self):
        for word in primitive_words(7, (1, 2, 3)):
            least = min(word.rotated(r) for r in range(len(word.letters)))
            assert canonical_rotation(word) == least, word.letters

    def test_long_period_is_fast(self):
        # period 377,066: the scan is linear, where building every rotation is quadratic
        word = CyclicWord(expand(QuadraticSurd(-195, 2, 1646, 21673543)).period)
        start = time.perf_counter()
        least = canonical_rotation(word)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.5, elapsed
        t = len(word.letters)
        text, doubled = (f",{','.join(map(str, w))}," for w in (least, word.letters * 2))
        assert len(least) == t and text in doubled  # a rotation
        assert all(least <= word.rotated(r) for r in range(0, t, t // 40))
