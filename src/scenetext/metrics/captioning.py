"""Caption metrics: CIDEr-D, corpus BLEU@4, ROUGE-L.

All three share one tokenizer (lowercase, split on non-alphanumerics) so
scores are comparable across metrics.
"""

import math
import re
from collections import Counter
from dataclasses import dataclass

from ..errors import ContractError
from ..kernels import lcs_length

_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class CaptionItem:
    candidate: str
    references: tuple[str, ...]

    def __post_init__(self):
        if not self.references:
            raise ContractError("caption items require at least one reference")


def tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


def _ngram_counts(tokens: list[str], max_n: int) -> list[Counter]:
    """Counters for n = 1..max_n (index 0 holds unigrams)."""
    return [Counter(zip(*(tokens[k:] for k in range(n)))) for n in range(1, max_n + 1)]


def cider(items, max_n: int = 4, sigma: float = 6.0) -> tuple[float, list[float]]:
    """CIDEr-D corpus score and per-item scores on the 0-10 scale.

    TF-IDF n-gram vectors with document frequency over the reference
    corpus, clipped candidate counts, and a gaussian penalty on the
    candidate/reference length difference.
    """
    if len(items) < 2:
        raise ContractError("CIDEr needs at least 2 items for document frequencies")

    cand_tokens = [tokenize(it.candidate) for it in items]
    ref_tokens = [[tokenize(r) for r in it.references] for it in items]

    # document frequency: number of items whose references contain the
    # n-gram, turned in place into log(N / df); an n-gram that no reference
    # contains counts as df = 1
    idf: Counter = Counter()
    for refs in ref_tokens:
        idf.update({ng for ref in refs for counts in _ngram_counts(ref, max_n) for ng in counts})
    log_corpus = math.log(float(len(items)))
    for ngram, df in idf.items():
        idf[ngram] = log_corpus - math.log(df)

    def tfidf_vec(tokens: list[str]):
        vecs, norms = [], []
        for counts in _ngram_counts(tokens, max_n):
            vec = {ng: count * idf.get(ng, log_corpus) for ng, count in counts.items()}
            vecs.append(vec)
            norms.append(math.sqrt(sum(w * w for w in vec.values())))
        return vecs, norms

    per_item = []
    for cand, refs in zip(cand_tokens, ref_tokens):
        cvecs, cnorms = tfidf_vec(cand)
        total = 0.0
        for ref in refs:
            rvecs, rnorms = tfidf_vec(ref)
            penalty = math.exp(-((len(cand) - len(ref)) ** 2) / (2 * sigma**2))
            sim = 0.0
            for n in range(max_n):
                dot = sum(
                    min(w, rvecs[n].get(ng, 0.0)) * rvecs[n].get(ng, 0.0)
                    for ng, w in cvecs[n].items()
                )
                if cnorms[n] > 0 and rnorms[n] > 0:
                    sim += dot / (cnorms[n] * rnorms[n]) * penalty
            total += sim / max_n
        per_item.append(10.0 * total / len(refs))
    return sum(per_item) / len(per_item), per_item


def bleu4(items, max_n: int = 4) -> float:
    """Corpus-level BLEU with modified n-gram precision, geometric mean over
    n = 1..4, and brevity penalty against the closest reference length."""
    if not items:
        raise ContractError("BLEU needs at least one item")

    matched = [0] * max_n
    totals = [0] * max_n
    cand_len = 0
    ref_len = 0
    for it in items:
        cand = tokenize(it.candidate)
        refs = [tokenize(r) for r in it.references]
        cand_len += len(cand)
        ref_len += min((abs(len(r) - len(cand)), len(r)) for r in refs)[1]

        cand_counts = _ngram_counts(cand, max_n)
        ref_counts = [_ngram_counts(r, max_n) for r in refs]
        for n in range(max_n):
            max_ref: Counter = Counter()
            for counts in ref_counts:
                max_ref |= counts[n]
            totals[n] += sum(cand_counts[n].values())
            matched[n] += sum((cand_counts[n] & max_ref).values())

    if any(t == 0 or m == 0 for m, t in zip(matched, totals)):
        return 0.0
    log_prec = sum(math.log(m / t) for m, t in zip(matched, totals)) / max_n
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / max(cand_len, 1))
    return bp * math.exp(log_prec)


def rouge_l(item: CaptionItem, beta: float = 1.2) -> float:
    """LCS F-measure, max over references."""
    cand = tokenize(item.candidate)
    vocab: dict[str, int] = {}
    cand_ids = [vocab.setdefault(t, len(vocab)) for t in cand]
    best = 0.0
    for ref in item.references:
        rtoks = tokenize(ref)
        ref_ids = [vocab.setdefault(t, len(vocab)) for t in rtoks]
        if not cand_ids or not ref_ids:
            continue
        lcs = lcs_length(cand_ids, ref_ids)
        if lcs == 0:
            continue
        prec = lcs / len(cand_ids)
        rec = lcs / len(ref_ids)
        score = (1 + beta**2) * prec * rec / (rec + beta**2 * prec)
        best = max(best, score)
    return best
