import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scenetext.metrics.captioning as captioning
from scenetext.errors import ContractError
from scenetext.metrics import (CaptionItem, EvalTask, bleu4, caption_scores, cider,
                               evaluate, rouge_l, tokenize)
from scenetext.metrics.captioning import caption_scorer

from oracles import (exact_bleu4, exact_cider, exact_rouge_l, oracle_bleu4,
                     oracle_caption_scorer, oracle_cider_d, oracle_tokenize)

_POOL = ("a red stop sign on the corner of a street "
         "two dogs play in a green park near the old cafe "
         "people wait for the morning train at the station").split()


def toy_corpus(n_items=50, n_refs=3, seed=42):
    rng = random.Random(seed)

    def sentence():
        return " ".join(rng.choice(_POOL) for _ in range(rng.randint(4, 12)))

    items = []
    for _ in range(n_items):
        refs = tuple(sentence() for _ in range(n_refs))
        # mix exact matches, near misses, and unrelated candidates
        roll = rng.random()
        if roll < 0.2:
            cand = refs[0]
        elif roll < 0.6:
            cand = " ".join(refs[0].split()[:-1] + [rng.choice(_POOL)])
        else:
            cand = sentence()
        items.append(CaptionItem(cand, refs))
    return items


def test_tokenize():
    assert tokenize("A red, STOP-sign!") == ["a", "red", "stop", "sign"]
    assert tokenize("") == []
    assert tokenize("x2 4x") == ["x2", "4x"]


def test_tokenize_matches_oracle(rng):
    for _ in range(300):
        s = " ".join(rng.choice(_POOL + ["it's", "no.1", "--", "Ωmega"])
                     for _ in range(rng.randint(0, 8)))
        assert tokenize(s) == oracle_tokenize(s)


def test_cider_exact_match_scores_ten():
    items = [
        CaptionItem("a red stop sign", ("a red stop sign",)),
        CaptionItem("two dogs in the park", ("dogs play in a green park",)),
        CaptionItem("people wait for a train", ("people wait at the station",)),
    ]
    _, per_item = cider(items)
    assert per_item[0] == pytest.approx(10.0, abs=1e-6)


def test_cider_disjoint_candidate_scores_zero():
    items = [
        CaptionItem("zzz qqq www", ("a red stop sign",)),
        CaptionItem("a red stop sign", ("a red stop sign here",)),
    ]
    corpus, per_item = cider(items)
    assert per_item[0] == 0.0
    assert corpus == pytest.approx(sum(per_item) / len(per_item))


def test_cider_corpus_is_mean_of_items():
    items = toy_corpus(20)
    corpus, per_item = cider(items)
    assert corpus == pytest.approx(sum(per_item) / len(per_item))


def test_cider_matches_oracle_on_toy_corpus():
    items = toy_corpus(50)
    _, per_item = cider(items)
    expected = oracle_cider_d([i.candidate for i in items],
                              [list(i.references) for i in items])
    for got, want in zip(per_item, expected):
        assert got == pytest.approx(want, abs=1e-4)


def test_caption_item_requires_a_reference():
    with pytest.raises(ContractError, match="at least one reference"):
        CaptionItem("a red sign", ())
    assert CaptionItem("a red sign", ("a sign",)).references == ("a sign",)


def test_cider_needs_two_items():
    with pytest.raises(ContractError):
        cider([CaptionItem("a", ("a",))])


def test_cider_permutation_invariant():
    items = toy_corpus(20)
    corpus_a, _ = cider(items)
    corpus_b, _ = cider(list(reversed(items)))
    assert corpus_a == pytest.approx(corpus_b)


def test_bleu_perfect_match():
    items = [
        CaptionItem("a red stop sign on the corner", ("a red stop sign on the corner",)),
        CaptionItem("two dogs play in a green park", ("two dogs play in a green park",)),
    ]
    assert bleu4(items) == pytest.approx(1.0)


def test_bleu_no_fourgram_overlap_is_zero():
    items = [CaptionItem("a b c d e", ("a x c y e z q w",))]
    assert bleu4(items) == 0.0


def test_bleu_matches_oracle_on_toy_corpus():
    items = toy_corpus(50)
    got = bleu4(items)
    want = oracle_bleu4([i.candidate for i in items],
                        [list(i.references) for i in items])
    assert got == pytest.approx(want, abs=1e-6)


def test_bleu_three_sentence_corpus_matches_oracle():
    items = [
        CaptionItem("the cat sat on the mat", ("the cat sat on a mat", "a cat on the mat")),
        CaptionItem("dogs run fast in the park", ("the dogs run in the park",)),
        CaptionItem("a red sign", ("a red stop sign", "the red sign")),
    ]
    got = bleu4(items)
    want = oracle_bleu4([i.candidate for i in items],
                        [list(i.references) for i in items])
    assert got == pytest.approx(want, abs=1e-6)


def test_bleu_permutation_invariant():
    items = toy_corpus(30)
    assert bleu4(items) == pytest.approx(bleu4(list(reversed(items))))


def test_rouge_exact_match():
    assert rouge_l(CaptionItem("a red sign", ("a red sign",))) == pytest.approx(1.0)


def test_rouge_disjoint_tokens():
    assert rouge_l(CaptionItem("x y z", ("a b c",))) == 0.0


def test_rouge_hand_computed_value():
    # candidate "a b c d" vs reference "a c d": LCS=3, P=3/4, R=1
    beta = 1.2
    p, r = 3 / 4, 1.0
    expected = (1 + beta**2) * p * r / (r + beta**2 * p)
    assert rouge_l(CaptionItem("a b c d", ("a c d",))) == pytest.approx(expected)


def test_rouge_max_over_references():
    item = CaptionItem("a b c", ("x y z", "a b c"))
    assert rouge_l(item) == pytest.approx(1.0)


def test_metrics_ignore_trailing_whitespace():
    base = toy_corpus(10)
    padded = [CaptionItem(i.candidate + "  ", tuple(r + " \t" for r in i.references))
              for i in base]
    assert bleu4(base) == pytest.approx(bleu4(padded))
    assert cider(base)[0] == pytest.approx(cider(padded)[0])
    for a, b in zip(base, padded):
        assert rouge_l(a) == pytest.approx(rouge_l(b))


# Few distinct words, so n-grams repeat within and across strings; non-ASCII
# words (one lowercases to two code points); separators that tokenize away,
# so a string may be empty or punctuation-only.
_WORD = st.sampled_from(["a", "red", "sign", "Red", "straße", "Ωmega", "日本", "İstanbul", "x2"])
_SEP = st.sampled_from([" ", " ", ", ", "-", "!? ", "_"])
_CAPTION = st.one_of(
    st.sampled_from(["", " ", "!?", "-- ..."]),
    st.lists(st.tuples(_WORD, _SEP), max_size=14).map(lambda ws: "".join(w + s for w, s in ws)),
)
_ITEMS = st.lists(
    st.builds(CaptionItem, _CAPTION, st.lists(_CAPTION, min_size=1, max_size=6).map(tuple)),
    min_size=2, max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(_ITEMS)
def test_one_pass_equals_exact_order_references(items):
    scores = caption_scores(items)
    corpus, per_item = exact_cider(items)
    assert scores.cider == corpus
    assert scores.cider_per_item == per_item
    assert scores.bleu4 == exact_bleu4(items)
    assert scores.rouge_l == [exact_rouge_l(item) for item in items]
    assert (scores.cider, scores.cider_per_item) == cider(items)
    assert scores.bleu4 == bleu4(items)
    assert [rouge_l(item) for item in items] == scores.rouge_l


def test_evaluate_tokenizes_each_caption_string_once(monkeypatch):
    items = toy_corpus(20, n_refs=4)
    calls = []

    def counting(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(captioning, "tokenize", counting)
    predictions = {f"e{i}": item.candidate for i, item in enumerate(items)}
    golds = {f"e{i}": {"references": list(item.references)} for i, item in enumerate(items)}
    evaluate(predictions, golds, EvalTask.CAPTION)
    assert sorted(calls) == sorted([i.candidate for i in items]
                                   + [r for i in items for r in i.references])


def test_evaluate_caption_needs_two_items():
    with pytest.raises(ContractError, match="at least 2 items"):
        evaluate({"e0": "a sign"}, {"e0": {"references": ["a sign"]}}, EvalTask.CAPTION)


def _document_frequencies(items):
    """n-gram -> number of items whose references hold it, by the oracle's tokenizer."""
    df = {}
    for item in items:
        grams = set()
        for ref in item.references:
            tokens = oracle_tokenize(ref)
            grams.update(tuple(tokens[i:i + n]) for n in range(1, 5) for i in range(len(tokens) - n + 1))
        for gram in grams:
            df[gram] = df.get(gram, 0) + 1
    return df


def _unseen_candidate_ngrams():
    return [CaptionItem("zebra quokka", ("a red sign", "the red sign")),
            CaptionItem("a red sign by the zebra", ("a red sign", "two dogs in a park")),
            CaptionItem("two dogs", ("two dogs in a park",))]


def _ngram_in_every_item():
    return [CaptionItem("the sign is red", ("the sign is red", "a sign")),
            CaptionItem("a sign on a pole", ("a sign on a pole",)),
            CaptionItem("sign", ("dogs near the sign", "sign sign"))]


def _more_items_than_small_ints():
    rng = random.Random(7)
    items = []
    for i in range(300):
        refs = ["the " + " ".join(rng.choice(_POOL) for _ in range(rng.randint(2, 8))),
                "street corner" if i < 270 else "old cafe"]
        items.append(CaptionItem(rng.choice(refs) + " " + rng.choice(_POOL), tuple(refs)))
    return items


def _repeated_non_ascii_tokens():
    return [CaptionItem("Straße straße café CAFÉ café ÇA", ("straße café ça ça", "café café")),
            CaptionItem("ÿes ÿes ÿes", ("ÿes ÿes", "straße ÿes")),
            CaptionItem("日本 日本 語", ("日本 語 日本", "語"))]


@pytest.mark.parametrize("make,check", [
    (_unseen_candidate_ngrams,
     lambda items, df: ("zebra",) not in df and ("quokka",) not in df),
    (_ngram_in_every_item, lambda items, df: df[("sign",)] == len(items)),
    (_more_items_than_small_ints,
     lambda items, df: df[("the",)] == 300 and 256 < df[("street",)] < 300),
    (_repeated_non_ascii_tokens,
     lambda items, df: df[("straße",)] == 2 and oracle_tokenize(items[0].candidate).count("café") == 3),
], ids=["df-0", "df-N", "df-over-256", "repeated-non-ascii"])
def test_one_pass_equals_exact_on_document_frequency_edges(make, check):
    items = make()
    assert check(items, _document_frequencies(items))  # the corpus has the edge it is named for
    scores = caption_scores(items)
    assert (scores.cider, scores.cider_per_item) == exact_cider(items)
    assert scores.bleu4 == exact_bleu4(items)
    assert scores.rouge_l == [exact_rouge_l(item) for item in items]


def assert_same_rows(items):
    """caption_scorer's rows are the tuple-keyed oracle's, float for float."""
    score, oracle = caption_scorer(items), oracle_caption_scorer(items)
    rows = [score(i) for i in range(len(items))]
    expected = [oracle(i) for i in range(len(items))]
    assert rows == expected
    assert repr(rows) == repr(expected)  # -0.0 and 0.0 differ here


@pytest.mark.parametrize("items", [toy_corpus(50), toy_corpus(20, n_refs=5, seed=3),
                                   toy_corpus(2, n_refs=1, seed=9)],
                         ids=["toy-50", "toy-20x5", "toy-2"])
def test_rows_equal_the_tuple_keyed_oracle_on_toy_corpora(items):
    assert_same_rows(items)


@settings(max_examples=100, deadline=None)
@given(_ITEMS)
def test_rows_equal_the_tuple_keyed_oracle(items):
    assert_same_rows(items)


def test_rows_equal_the_oracle_past_two_to_the_64():
    # Over 2**16 distinct tokens, all in the first candidates, so the ids of
    # the words that follow pass 2**16 and their 4-gram ints pass 2**64; the
    # last items share such 4-grams, so they get document frequencies.
    filler = [f"w{i}" for i in range(2**16 + 500)]
    items = [CaptionItem(" ".join(filler[start:start + 10_000]), ("a red sign",))
             for start in range(0, len(filler), 10_000)]
    late = "zeta eta theta iota kappa lambda"
    items += [CaptionItem(late, (late, "kappa lambda zeta eta theta")),
              CaptionItem("theta iota kappa lambda mu", ("zeta eta theta iota", late + " mu")),
              CaptionItem("mu nu", (late,))]
    assert len({t for item in items for s in (item.candidate, *item.references)
                for t in tokenize(s)}) > 2**16 + 500
    assert_same_rows(items)
    assert caption_scores(items).cider_per_item[-3] > 0


def test_rows_equal_the_oracle_on_empty_and_repeated_strings():
    items = [CaptionItem("", ("!?", "a red sign")),
             CaptionItem("-- ...", ("",)),
             CaptionItem("a a a a a b a a", ("a a a b", "b a a a a", "")),
             CaptionItem("b a a a b a a a", ("a a a a a a", "a b a b a b")),
             CaptionItem("sign sign red", ("red sign sign sign", "a a a"))]
    assert_same_rows(items)
    assert_same_rows(items[:2])  # every candidate and every n-gram empty but one


def test_one_item_rouge_l_equals_the_oracle():
    for item in (CaptionItem("a b c d", ("a c d", "x")), CaptionItem("", ("a",)),
                 CaptionItem("a a b", ("a b a b",))):
        assert_same_rows([item])
        assert rouge_l(item) == oracle_caption_scorer([item])(0)[1]


def _footprint(make_scorer, items) -> tuple[int, int]:
    """(retained, peak) tracemalloc bytes of make_scorer(items)."""
    gc.collect()
    tracemalloc.start()
    try:
        score = make_scorer(items)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert callable(score)
    return retained, peak


def _same_sized_corpora(n_items=1000, ref_lengths=(9, 11, 13, 15, 17)):
    """Two corpora whose strings have the same token counts: in one every
    item has the same five references; in the other, every n-gram beyond a
    unigram holds the item's own token, so no 3-gram recurs across items."""
    rng = random.Random(11)
    words = [f"word{k}" for k in range(300)]
    cand_lengths = [rng.randint(6, 20) for _ in range(n_items)]

    def common(length):
        return " ".join(rng.choice(words) for _ in range(length))

    def own(i, length):
        return " ".join(f"own{i}" if k % 2 else rng.choice(words) for k in range(length))

    shared_refs = tuple(common(length) for length in ref_lengths)
    shared = [CaptionItem(common(length), shared_refs) for length in cand_lengths]
    distinct = [CaptionItem(own(i, length), tuple(own(i, r) for r in ref_lengths))
                for i, length in enumerate(cand_lengths)]
    return {"shared-references": shared, "no-recurring-3-gram": distinct}


@pytest.mark.parametrize("name", ["shared-references", "no-recurring-3-gram"])
def test_scorer_holds_less_than_the_tuple_keyed_oracle(name):
    items = _same_sized_corpora()[name]
    caption_scorer(items[:2])  # any first-call allocations outside the trace
    retained, peak = _footprint(caption_scorer, items)
    oracle_retained, oracle_peak = _footprint(oracle_caption_scorer, items)
    # the oracle is the tuple-keyed design itself, which holds the same as
    # it to within a few bytes: a tenth less is a saving, not noise
    assert retained < 0.9 * oracle_retained, (retained, oracle_retained)
    assert peak < 0.9 * oracle_peak, (peak, oracle_peak)
