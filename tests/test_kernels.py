"""The bit-parallel kernels against the oracles in tests/oracles.py."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import levenshtein_memo, oracle_lcs_length
from scenetext.kernels import lcs_length, levenshtein

# several symbols each, so random strings repeat them; two outside the BMP
ALPHABET = "abcäö日本 😀𝄞"


def random_text(rng, max_len):
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, max_len)))


def random_ids(rng, max_len, vocab=6):
    return [rng.randrange(vocab) for _ in range(rng.randint(0, max_len))]


def test_levenshtein_matches_oracle_on_random_pairs():
    rng = random.Random(5)
    for _ in range(500):
        a, b = random_text(rng, 40), random_text(rng, 40)
        assert levenshtein(a, b) == levenshtein_memo(a, b), (a, b)


def test_lcs_matches_oracle_on_random_pairs():
    rng = random.Random(6)
    for _ in range(500):
        a, b = random_ids(rng, 30), random_ids(rng, 30)
        assert lcs_length(a, b) == oracle_lcs_length(a, b), (a, b)


@pytest.mark.parametrize("length", [63, 64, 65, 127, 128, 129, 200])
def test_kernels_across_machine_words(length):
    rng = random.Random(length)
    for _ in range(5):
        a = "".join(rng.choice(ALPHABET) for _ in range(length))
        b = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(length // 2, length + 10)))
        assert levenshtein(a, b) == levenshtein_memo(a, b)
        assert levenshtein(b, a) == levenshtein_memo(a, b)
        x = [rng.randrange(4) for _ in range(length)]
        y = [rng.randrange(4) for _ in range(rng.randint(length // 2, length + 10))]
        assert lcs_length(x, y) == lcs_length(y, x) == oracle_lcs_length(x, y)


def test_empty_and_equal_inputs():
    for s in ["", "a", "😀", "abcabc" * 30]:
        assert levenshtein(s, s) == 0
        assert levenshtein(s, "") == levenshtein("", s) == len(s)
        ids = [ord(c) for c in s]
        assert lcs_length(ids, ids) == len(ids)
        assert lcs_length(ids, []) == lcs_length([], ids) == 0


def test_repeated_symbols():
    assert levenshtein("a" * 100, "a" * 70) == 30
    assert levenshtein("ab" * 50, "ba" * 50) == 2
    assert levenshtein("a" * 130, "b" * 130) == 130
    assert lcs_length([1] * 100, [1] * 70) == 70
    assert lcs_length([1, 2] * 50, [2, 1] * 50) == 99
    assert lcs_length([1] * 130, [2] * 130) == 0


def test_non_bmp_characters():
    assert levenshtein("😀😀", "😀") == 1
    assert levenshtein("𝄞a😀", "a😀𝄞") == 2
    assert lcs_length("𝄞a😀", "a😀𝄞") == 2


def test_lcs_basics():
    assert lcs_length([], [1]) == 0
    assert lcs_length([1, 2, 3], [1, 2, 3]) == 3
    assert lcs_length([1, 2, 3, 4], [2, 4]) == 2
    assert lcs_length([1, 2], [3, 4]) == 0
    assert lcs_length(["a", "b", "c"], ["b", "c", "d"]) == 2


def test_levenshtein_unicode():
    assert levenshtein("日本", "日本語") == 1
    assert levenshtein("naïve", "naive") == 1


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=80), st.text(max_size=80))
def test_levenshtein_property(a, b):
    assert levenshtein(a, b) == levenshtein_memo(a, b)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=80), st.text(max_size=80))
def test_lcs_property(a, b):
    assert lcs_length(a, b) == oracle_lcs_length(a, b)
