"""Caption metrics: CIDEr-D, corpus BLEU@4, ROUGE-L.

All three share one tokenizer (lowercase, split on non-alphanumerics) so
scores are comparable across metrics, and one pass computes them:
`caption_scores` tokenizes each string once, counts each string's n-grams
once, and feeds those counts to all three. `cider`, `bleu4` and `rouge_l`
are views of that pass. The pass is split at the item: `caption_scorer`
does the corpus-wide work and scores one item at a time, and
`combine_caption_rows` makes the corpus scores of the items' rows, so
`evaluate` can score the items in worker processes.

The scores work on ints, not strings. Each distinct token gets an id of 1
or more, in first-occurrence order, and each n-gram is the int whose
base-(vocabulary + 1) digits are its ids, so no n-gram tuple is built or
hashed and no two n-grams of any orders share an int. Every dict fills in
the order the strings' n-grams occur, as it did with tuple keys, so every
float is the same operation in the same order. The document frequencies
keep only the n-grams that two or more items' references share: any other
n-gram counts as df = 1, as one that no reference holds always did. What
`caption_scorer` holds for the scoring, and what forked workers inherit, is
each string's token ids, the vocabulary size, those shared document
frequencies and the idf table: no token string and no unshared n-gram.
"""

import itertools
import math
import re
from collections import Counter, defaultdict
from operator import add, mul
from typing import NamedTuple

from ..errors import ContractError
from ..kernels import lcs_length

_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)

# The values CIDEr-D, BLEU@4 and ROUGE-L define: n-gram orders 1-4, the
# CIDEr-D length penalty's sigma, and the ROUGE-L F-measure's recall weight.
MAX_N = 4
SIGMA = 6.0
BETA = 1.2


class CaptionItem:
    """A candidate caption and its gold references, at least one."""

    __slots__ = ("candidate", "references")

    def __init__(self, candidate: str, references: tuple[str, ...]):
        if not references:
            raise ContractError("caption items require at least one reference")
        self.candidate = candidate
        self.references = references


class CaptionScores(NamedTuple):
    cider: float
    cider_per_item: list[float]
    bleu4: float
    rouge_l: list[float]


def tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


def _longer(grams, ids, n: int, base: int):
    """The (n+1)-grams of the token ids `ids`, from its n-grams `grams`:
    each n-gram's int times `base` plus the id that follows it."""
    return map(add, map(mul, grams, itertools.repeat(base)), itertools.islice(ids, n, None))


def _ngrams(ids, n: int, base: int):
    """The n-grams of token ids, in order, each as the int whose base-`base`
    digits are its ids: every id is at least 1 and below `base`, so an
    n-gram's int has exactly n digits and no two n-grams of any orders
    share one."""
    grams = ids
    for k in range(1, n):
        grams = _longer(grams, ids, k, base)
    return grams


def _ngram_counts(ids, base: int) -> list[Counter]:
    """Counters of `_ngrams` for n = 1..MAX_N (index 0 holds unigrams),
    each order made from the one below."""
    grams = ids
    counts = [Counter(grams)]
    for n in range(1, MAX_N):
        grams = list(_longer(grams, ids, n, base))
        counts.append(Counter(grams))
    return counts


def caption_scores(items) -> CaptionScores:
    """CIDEr-D (corpus and per item, 0-10 scale), corpus BLEU@4 and
    per-item ROUGE-L in one pass over the items.

    CIDEr-D: TF-IDF n-gram vectors with document frequency over the
    reference corpus, clipped candidate counts, and a gaussian penalty on
    the candidate/reference length difference. BLEU: modified n-gram
    precision, geometric mean over n = 1..4, and brevity penalty against
    the closest reference length. ROUGE-L: LCS F-measure, max over
    references.

    With one item every document frequency equals the corpus size, so
    every CIDEr-D weight and score is 0; `cider` and `evaluate` reject such
    a corpus with `require_cider_corpus`.
    """
    score = caption_scorer(items)
    return combine_caption_rows([score(i) for i in range(len(items))])


def caption_scorer(items):
    """The corpus-wide part of `caption_scores`: tokenize every string once,
    encode its tokens as ids, and count the document frequencies. Returns
    score(i), item i's row: (CIDEr-D, ROUGE-L, BLEU's clipped n-gram matches
    and n-gram totals for n = 1..MAX_N, candidate length, closest reference
    length). A row depends on the corpus only through what this call
    computed, so rows may be scored in any process that holds it, in any
    order."""
    if not items:
        raise ContractError("caption metrics need at least one item")

    # token ids 1, 2, ... in first-occurrence order; the token strings are
    # freed once every string is encoded
    ids = defaultdict(itertools.count(1).__next__)
    encode = ids.__getitem__
    cand_ids = [tuple(map(encode, tokenize(it.candidate))) for it in items]
    ref_ids = [[tuple(map(encode, tokenize(r))) for r in it.references] for it in items]
    base = len(ids) + 1
    del ids, encode

    # document frequency: number of items whose references contain the
    # n-gram; idf[df] is log(N / df). Only the n-grams that two or more
    # items share are kept; any other counts as df = 1, one that no
    # reference contains included. Counted one order at a time, so only
    # one order's distinct n-grams are held at once.
    df = {}
    for n in range(1, MAX_N + 1):
        order_df = Counter()
        for refs in ref_ids:
            order_df.update(set().union(*(_ngrams(ref, n, base) for ref in refs)))
        df.update((ng, d) for ng, d in order_df.items() if d > 1)
    log_corpus = math.log(float(len(items)))
    idf = [0.0] + [log_corpus - math.log(d) for d in range(1, len(items) + 1)]

    # Every float below is the same operation, in the same order, as in
    # the textbook form with one TF-IDF dict per string: a reference's
    # weights are its counts times idf, and the n-grams a reference lacks
    # only add +0.0 terms to the dot product, so they are not visited.
    def score(i: int) -> tuple:
        cand, refs = cand_ids[i], ref_ids[i]
        cand_counts = _ngram_counts(cand, base)
        ref_counts = [_ngram_counts(r, base) for r in refs]

        cvecs = [{ng: count * idf[df.get(ng, 1)] for ng, count in counts.items()}
                 for counts in cand_counts]
        cnorms = [math.sqrt(sum(w * w for w in vec.values())) for vec in cvecs]
        total = 0.0
        for ref, rcounts in zip(refs, ref_counts):
            penalty = math.exp(-((len(cand) - len(ref)) ** 2) / (2 * SIGMA**2))
            sim = 0.0
            for n in range(MAX_N):
                if cnorms[n] == 0:
                    continue
                rc = rcounts[n]
                rweights = (count * idf[df.get(ng, 1)] for ng, count in rc.items())
                rnorm = math.sqrt(sum(w * w for w in rweights))
                if rnorm > 0:
                    shared = [(w, rc[ng] * idf[df.get(ng, 1)]) for ng, w in cvecs[n].items() if ng in rc]
                    dot = sum(min(w, rw) * rw for w, rw in shared)
                    sim += dot / (cnorms[n] * rnorm) * penalty
            total += sim / MAX_N

        matched = tuple(sum(min(count, max(rc[n].get(ng, 0) for rc in ref_counts))
                            for ng, count in counts.items())
                        for n, counts in enumerate(cand_counts))
        totals = tuple(sum(counts.values()) for counts in cand_counts)
        ref_len = min((abs(len(r) - len(cand)), len(r)) for r in refs)[1]
        return (10.0 * total / len(refs), _rouge_l(cand, refs), matched, totals,
                len(cand), ref_len)

    return score


def combine_caption_rows(rows: list[tuple]) -> CaptionScores:
    """The scores of a corpus from its `caption_scorer` rows, in item order:
    the floats are summed in that order and BLEU's counts are integers, so
    the scores do not depend on where each row was computed."""
    cider_per_item = [row[0] for row in rows]
    matched = [sum(counts) for counts in zip(*(row[2] for row in rows))]
    totals = [sum(counts) for counts in zip(*(row[3] for row in rows))]
    cand_len = sum(row[4] for row in rows)
    ref_len = sum(row[5] for row in rows)
    if any(t == 0 or m == 0 for m, t in zip(matched, totals)):
        bleu = 0.0
    else:
        log_prec = sum(math.log(m / t) for m, t in zip(matched, totals)) / len(totals)
        bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / max(cand_len, 1))
        bleu = bp * math.exp(log_prec)
    return CaptionScores(sum(cider_per_item) / len(cider_per_item), cider_per_item,
                         bleu, [row[1] for row in rows])


def _rouge_l(cand: tuple[int, ...], refs: list[tuple[int, ...]]) -> float:
    best = 0.0
    for ref in refs:
        if not cand or not ref:
            continue
        lcs = lcs_length(cand, ref)
        if lcs == 0:
            continue
        prec = lcs / len(cand)
        rec = lcs / len(ref)
        score = (1 + BETA**2) * prec * rec / (rec + BETA**2 * prec)
        best = max(best, score)
    return best


def require_cider_corpus(items) -> None:
    if len(items) < 2:
        raise ContractError("CIDEr needs at least 2 items for document frequencies")


def cider(items) -> tuple[float, list[float]]:
    """CIDEr-D corpus score and per-item scores on the 0-10 scale."""
    require_cider_corpus(items)
    return caption_scores(items)[:2]


def bleu4(items) -> float:
    """Corpus-level BLEU@4."""
    return caption_scores(items).bleu4


def rouge_l(item: CaptionItem) -> float:
    """LCS F-measure, max over references."""
    return caption_scores([item]).rouge_l[0]
