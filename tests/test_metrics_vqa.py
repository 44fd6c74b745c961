import random
import string
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scenetext.metrics.vqa as vqa
from scenetext.errors import ContractError
from scenetext.kernels import levenshtein
from scenetext.metrics import MetricReport, VqaItem, anls, normalize_answer, vqa_accuracy

from oracles import levenshtein_memo, oracle_anls, vqa_accuracy_leave_one_out


def test_normalize_answer():
    assert normalize_answer("The STOP sign.") == "stop sign"
    assert normalize_answer("two") == "2"
    assert normalize_answer("") == ""
    assert normalize_answer("  A   big\tdog ") == "big dog"
    assert normalize_answer('"ten"') == "10"
    assert normalize_answer("an apple!") == "apple"


def ten_answers(match, pred="yes", filler=None):
    filler = filler or [f"other{i}" for i in range(10)]
    return tuple([pred] * match + filler[: 10 - match])


def test_vqa_accuracy_spot_values():
    assert vqa_accuracy(VqaItem("yes", ten_answers(0))) == 0.0
    assert vqa_accuracy(VqaItem("yes", ten_answers(3))) == pytest.approx(0.9)
    for m in range(4, 11):
        assert vqa_accuracy(VqaItem("yes", ten_answers(m))) == 1.0


def test_vqa_accuracy_matches_brute_force_all_match_counts():
    for m in range(11):
        item = VqaItem("yes", ten_answers(m))
        expected = vqa_accuracy_leave_one_out("yes", [normalize_answer(a) for a in item.answers])
        assert vqa_accuracy(item) == pytest.approx(expected)


def test_accuracy_table_is_the_exact_leave_one_out_mean_rounded_once():
    for m in range(11):
        # m subsets hold m-1 matches and 10-m hold m, each scoring min(matches/3, 1)
        exact = (m * min(Fraction(max(m - 1, 0), 3), Fraction(1))
                 + (10 - m) * min(Fraction(m, 3), Fraction(1))) / 10
        assert vqa._ACCURACY_BY_MATCHES[m] == float(exact)
        answers = ten_answers(m)
        assert vqa_accuracy(VqaItem("yes", answers)) == vqa_accuracy_leave_one_out("yes", answers)


def test_vqa_accuracy_normalizes_both_sides():
    item = VqaItem("The Dog.", ("dog",) * 5 + ("cat",) * 5)
    assert vqa_accuracy(item) == 1.0


_ANSWER = st.sampled_from(["two", "2", "Two.", "the two", "dog", "Dog", "a dog", "", " ", "cat!"])


@settings(max_examples=200, deadline=None)
@given(_ANSWER, st.lists(_ANSWER, min_size=10, max_size=10))
def test_vqa_accuracy_normalizes_each_distinct_answer_once(pred, answers):
    # with the real normal form and with others, so the count does not
    # depend on what normalize_answer does
    for normal in (normalize_answer, str.upper, lambda text: text[:1]):
        calls = []

        def counting(text):
            calls.append(text)
            return normal(text)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(vqa, "normalize_answer", counting)
            got = vqa_accuracy(VqaItem(pred, tuple(answers)))
        assert sorted(calls[1:]) == sorted(set(answers))
        assert got == vqa_accuracy_leave_one_out(normal(pred), [normal(a) for a in answers])


def test_vqa_item_requires_ten_answers():
    for count in (2, 9, 11):
        with pytest.raises(ContractError):
            VqaItem("x", ("a",) * count)
    assert VqaItem("x", ("a",) * 10).answers == ("a",) * 10


def test_metric_reports_share_no_per_item_list():
    first, second = MetricReport({"accuracy": 1.0}), MetricReport({"accuracy": 0.5})
    first.per_item.append({"example_id": "e0", "accuracy": 1.0})
    assert (first.n_items, second.n_items) == (1, 0)


def test_levenshtein_spot_values():
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("", "abc") == 3
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("abc", "") == 3


def test_levenshtein_matches_memo_oracle():
    rng = random.Random(99)
    alphabet = string.ascii_lowercase[:6]
    for _ in range(2000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
        assert levenshtein(a, b) == levenshtein_memo(a, b)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=25), st.text(max_size=25), st.text(max_size=25))
def test_levenshtein_metric_axioms(a, b, c):
    assert levenshtein(a, b) == levenshtein(b, a)
    assert (levenshtein(a, b) == 0) == (a == b)
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


def test_anls_exact_match():
    assert anls("stop", ["stop", "halt"]) == 1.0


def test_anls_hello_hallo():
    assert anls("hello", ["hallo"]) == pytest.approx(0.8)


def test_anls_threshold_zeroing():
    assert anls("ab", ["xy"]) == 0.0
    # similarity 0.4 < tau=0.5 -> floored
    assert anls("abcde", ["vwxyz"]) == 0.0


def test_anls_lowercase_trim_normalization():
    assert anls("  Stop ", ["stop"]) == 1.0


def test_anls_both_empty():
    assert anls("", [""]) == 1.0


def test_anls_requires_golds():
    with pytest.raises(ContractError):
        anls("x", [])


def test_anls_monotone_in_edit_distance():
    golds = ["abcdefgh"]
    preds = ["abcdefgh", "abcdefgx", "abcdefxy", "abcdexyz"]
    scores = [anls(p, golds) for p in preds]
    assert scores == sorted(scores, reverse=True)


def test_anls_range(rng):
    for _ in range(500):
        a = "".join(rng.choice("abcde") for _ in range(rng.randint(0, 10)))
        b = "".join(rng.choice("abcde") for _ in range(rng.randint(0, 10)))
        assert 0.0 <= anls(a, [b]) <= 1.0


_ANSWER = st.text(alphabet="abAB c", max_size=8)


@settings(max_examples=300, deadline=None)
@given(_ANSWER, st.lists(_ANSWER, min_size=1, max_size=6), st.data())
def test_anls_matches_oracle_with_duplicate_case_variant_and_empty_golds(pred, golds, data):
    # add copies of golds, case-swapped and padded variants, and an empty gold
    variants = [g.swapcase() for g in golds] + [f" {g.upper()} " for g in golds] + golds + [""]
    golds = golds + data.draw(st.lists(st.sampled_from(variants), max_size=6))
    golds = data.draw(st.permutations(golds))
    for tau in (0.0, 0.5, 1.0):
        assert anls(pred, golds, tau=tau) == oracle_anls(pred, golds, tau=tau)


def test_anls_skips_edit_distances_that_cannot_change_the_score(monkeypatch):
    pairs = []

    def counting(a, b):
        pairs.append((a, b))
        return levenshtein(a, b)

    monkeypatch.setattr(vqa, "levenshtein", counting)
    # "stop" twice (once in capitals), then a gold whose length alone
    # bounds its similarity below tau, then one that cannot beat 1.0
    assert anls("stop", ["stop", " STOP", "stopping signs", "stoq"]) == 1.0
    assert pairs == [("stop", "stop")]


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), -0.1, 1.5])
def test_anls_rejects_tau_outside_unit_interval(tau):
    with pytest.raises(ContractError, match="tau"):
        anls("stop", ["stop"], tau=tau)
