"""Independent oracle implementations used only by the tests.

These deliberately take the slow, direct-from-definition route so they
share no code path with the library implementations they check.
"""

import math
from functools import lru_cache

import numpy as np


def levenshtein_memo(a: str, b: str) -> int:
    """Recursive edit distance with memoization."""

    @lru_cache(maxsize=None)
    def dist(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        cost = 0 if a[i - 1] == b[j - 1] else 1
        return min(dist(i - 1, j) + 1, dist(i, j - 1) + 1, dist(i - 1, j - 1) + cost)

    return dist(len(a), len(b))


def oracle_lcs_length(seq_a, seq_b) -> int:
    """Longest common subsequence length by the row-by-row DP."""
    row = [0] * (len(seq_b) + 1)
    for ta in seq_a:
        diag = 0
        for j, tb in enumerate(seq_b, 1):
            above = row[j]
            row[j] = diag + 1 if ta == tb else max(above, row[j - 1])
            diag = above
    return row[-1]


def vqa_accuracy_leave_one_out(prediction_norm: str, answers_norm: list[str]) -> float:
    """Brute-force enumeration over all ten leave-one-out nine-answer
    subsets, in exact rational arithmetic."""
    from fractions import Fraction

    assert len(answers_norm) == 10
    total = Fraction(0)
    for leave in range(10):
        subset = [a for i, a in enumerate(answers_norm) if i != leave]
        occurrences = sum(1 for a in subset if a == prediction_norm)
        total += min(Fraction(occurrences, 3), Fraction(1))
    return float(total / 10)


def oracle_tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumeric characters (loop-based)."""
    out, cur = [], []
    for ch in text.lower():
        if ch.isalnum():
            cur.append(ch)
        elif cur:
            out.append("".join(cur))
            cur = []
    if cur:
        out.append("".join(cur))
    return out


def _grams(tokens, n):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def oracle_cider_d(candidates: list[str], references: list[list[str]],
                   max_n: int = 4, sigma: float = 6.0) -> list[float]:
    """CIDEr-D per-item scores via dense numpy TF-IDF vectors."""
    n_items = len(candidates)
    cand_toks = [oracle_tokenize(c) for c in candidates]
    ref_toks = [[oracle_tokenize(r) for r in refs] for refs in references]

    scores = []
    for n in range(1, max_n + 1):
        # vocabulary and document frequency for this n
        vocab = sorted({g for refs in ref_toks for r in refs for g in _grams(r, n)}
                       | {g for c in cand_toks for g in _grams(c, n)})
        index = {g: i for i, g in enumerate(vocab)}
        df = np.zeros(len(vocab))
        for refs in ref_toks:
            present = {g for r in refs for g in _grams(r, n)}
            for g in present:
                df[index[g]] += 1.0
        idf = np.log(n_items) - np.log(np.maximum(df, 1.0))

        def vec(tokens):
            v = np.zeros(len(vocab))
            for g in _grams(tokens, n):
                v[index[g]] += 1.0
            return v * idf

        sims_n = []
        for cand, refs in zip(cand_toks, ref_toks):
            cv = vec(cand)
            cnorm = np.linalg.norm(cv)
            item = 0.0
            for r in refs:
                rv = vec(r)
                rnorm = np.linalg.norm(rv)
                if cnorm > 0 and rnorm > 0:
                    dot = float(np.minimum(cv, rv) @ rv)
                    penalty = math.exp(-((len(cand) - len(r)) ** 2) / (2 * sigma**2))
                    item += dot / (cnorm * rnorm) * penalty
            sims_n.append(item / len(refs))
        scores.append(sims_n)

    arr = np.array(scores)  # shape (max_n, n_items)
    return list(arr.mean(axis=0) * 10.0)


def oracle_bleu4(candidates: list[str], references: list[list[str]],
                 max_n: int = 4) -> float:
    """Corpus BLEU directly from the definition."""
    cand_toks = [oracle_tokenize(c) for c in candidates]
    ref_toks = [[oracle_tokenize(r) for r in refs] for refs in references]

    precisions = []
    for n in range(1, max_n + 1):
        clipped = total = 0
        for cand, refs in zip(cand_toks, ref_toks):
            cgrams = _grams(cand, n)
            total += len(cgrams)
            for g in set(cgrams):
                count = cgrams.count(g)
                max_ref = max((_grams(r, n).count(g) for r in refs), default=0)
                clipped += min(count, max_ref)
        if total == 0 or clipped == 0:
            return 0.0
        precisions.append(clipped / total)

    c = sum(len(t) for t in cand_toks)
    r = 0
    for cand, refs in zip(cand_toks, ref_toks):
        best = None
        for ref in refs:
            diff = abs(len(ref) - len(cand))
            if best is None or diff < best[0] or (diff == best[0] and len(ref) < best[1]):
                best = (diff, len(ref))
        r += best[1]
    bp = 1.0 if c > r else math.exp(1 - r / c)
    return bp * math.exp(sum(math.log(p) for p in precisions) / max_n)
