import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from scenetext.ordering import order_tokens

from conftest import make_token, random_layout_record


def texts(ordered):
    return [t.text for t in ordered]


def test_two_lines_grouped_by_vertical_overlap():
    # first two boxes share >= 50% vertical overlap, third is far below
    tokens = [
        make_token("THE", x=10, y=5, w=30, h=10),
        make_token("END", x=200, y=8, w=30, h=10),
        make_token("NOW", x=15, y=100, w=30, h=10),
    ]
    assert texts(order_tokens(tokens)) == ["THE", "END", "NOW"]


def test_singleton():
    assert texts(order_tokens([make_token("X")])) == ["X"]


def test_identical_boxes_tiebreak_on_text():
    tokens = [make_token("b"), make_token("a")]
    assert texts(order_tokens(tokens)) == ["a", "b"]


def test_ties_follow_the_full_field_order(rng):
    # one line: every box covers [2, 100]. Tokens tie on x and differ in y,
    # or tie on (x, y, text) and differ in w, h or confidence
    tokens = [make_token(text, x=x, y=y, w=w, h=h, confidence=c)
              for x in (5, 0) for y in (2, 1, 0) for text in ("b", "a")
              for w in (20, 10) for h in (101, 100) for c in (1.0, 0.5)]
    expected = sorted(tokens, key=lambda t: (t.x, t.y, t.text, t.w, t.h, t.confidence))
    for _ in range(50):
        rng.shuffle(tokens)
        assert list(order_tokens(tokens)) == expected


def test_empty_input():
    assert order_tokens([]) == ()


def test_lines_top_to_bottom_and_x_sorted_within_line(rng):
    # layouts with a known line structure: every token of line i covers
    # [100 i + 3, 100 i + 15], so it overlaps its line fully and no other
    for _ in range(200):
        lines = []
        for i in range(rng.randint(1, 5)):
            lines.append([make_token(f"l{i}t{j}", x=rng.uniform(0, 900),
                                     y=100 * i + rng.uniform(0, 3),
                                     w=rng.uniform(5, 90), h=rng.uniform(15, 25))
                          for j in range(rng.randint(1, 6))])
        tokens = [t for line in lines for t in line]
        rng.shuffle(tokens)
        expected = [t for line in lines for t in sorted(line, key=lambda t: t.x)]
        assert list(order_tokens(tokens)) == expected


def test_permutation_property(rng):
    for _ in range(200):
        record = random_layout_record(rng)
        ordered = order_tokens(record.ocr)
        assert Counter(texts(ordered)) == Counter(t.text for t in record.ocr)


def test_order_independent_of_input_order(rng):
    for _ in range(200):
        record = random_layout_record(rng)
        tokens = list(record.ocr)
        base = order_tokens(tokens)
        shuffled = tokens[:]
        rng.shuffle(shuffled)
        assert order_tokens(shuffled) == base


def test_idempotence(rng):
    for _ in range(200):
        record = random_layout_record(rng)
        once = order_tokens(record.ocr)
        assert order_tokens(once) == once


def test_raster_degeneration_disjoint_vertical_intervals(rng):
    # stack tokens with strictly disjoint [y, y+h] intervals
    for _ in range(100):
        y = 0.0
        tokens = []
        for _ in range(rng.randint(1, 10)):
            h = rng.uniform(5, 20)
            tokens.append(make_token("t", x=rng.uniform(0, 500), y=y, w=10, h=h))
            y += h + rng.uniform(0.5, 30)
        shuffled = tokens[:]
        rng.shuffle(shuffled)
        ordered = order_tokens(shuffled)
        expected = sorted(tokens, key=lambda t: (t.y, t.x))
        assert list(ordered) == expected


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0, 900), st.floats(0, 900),
            st.floats(1, 100), st.floats(1, 50),
            st.sampled_from(["a", "b", "cd", "ef"]),
        ),
        max_size=12,
    ),
    st.randoms(use_true_random=False),
)
def test_hypothesis_permutation_and_determinism(boxes, rnd):
    tokens = [make_token(text, x=x, y=y, w=w, h=h) for x, y, w, h, text in boxes]
    base = order_tokens(tokens)
    assert Counter(texts(base)) == Counter(t.text for t in tokens)
    shuffled = tokens[:]
    rnd.shuffle(shuffled)
    assert order_tokens(shuffled) == base
