"""VQA accuracy and ANLS scoring.

VQA accuracy is the annotator-agreement score min(occurrences/3, 1)
averaged over the ten leave-one-out subsets of nine answers. ANLS is the
edit-distance similarity with a threshold that zeroes low-similarity
answers; it stays character-level, so its normalization is only
lowercase + trim.
"""

import re
from collections import Counter

from ..errors import ContractError
from ..kernels import levenshtein

_DIGIT_WORDS = {
    "zero": "0", "one": "1", "two": "2", "three": "3", "four": "4",
    "five": "5", "six": "6", "seven": "7", "eight": "8", "nine": "9",
    "ten": "10",
}
_ARTICLES = {"a", "an", "the"}
_PUNCT = ".,!?\"'"
_WS = re.compile(r"\s+")


class VqaItem:
    """A prediction and its ten gold answers."""

    __slots__ = ("prediction", "answers")

    def __init__(self, prediction: str, answers: tuple[str, ...]):
        if len(answers) != 10:
            raise ContractError(f"VQA items require exactly 10 answers, got {len(answers)}")
        self.prediction = prediction
        self.answers = answers


def normalize_answer(text: str) -> str:
    """Lowercase, collapse whitespace, strip surrounding punctuation, map
    digit words zero..ten to digits, and drop articles."""
    words = []
    for word in _WS.split(text.lower().strip()):
        word = word.strip(_PUNCT)
        if not word or word in _ARTICLES:
            continue
        words.append(_DIGIT_WORDS.get(word, word))
    return " ".join(words)


# Closed form in the match count m: m of the ten leave-one-out subsets hold
# m-1 matches and 10-m hold m, each scoring min(matches, 3) / 3. The mean
# is one int-by-int true division, which Python rounds correctly, so each
# entry is the exact rational mean rounded once.
_ACCURACY_BY_MATCHES = tuple(
    (m * min(max(m - 1, 0), 3) + (10 - m) * min(m, 3)) / 30 for m in range(11)
)


def vqa_accuracy(item: VqaItem) -> float:
    """Mean of min(matches/3, 1) over the ten leave-one-out nine-answer
    subsets, looked up by the total match count m: the summed counts of the
    distinct answers whose normal form is the prediction's, each distinct
    answer normalized once."""
    pred = normalize_answer(item.prediction)
    m = sum(count for answer, count in Counter(item.answers).items()
            if normalize_answer(answer) == pred)
    return _ACCURACY_BY_MATCHES[m]


def _anls_normalize(text: str) -> str:
    return text.lower().strip()


def require_tau(tau: float) -> None:
    """ContractError unless the ANLS threshold tau is in [0, 1]."""
    if not 0.0 <= tau <= 1.0:  # NaN fails too
        raise ContractError(f"ANLS threshold tau must be in [0, 1], got {tau}")


def anls(prediction: str, gold_answers, tau: float = 0.5) -> float:
    """Best normalized-Levenshtein similarity over the golds, floored to 0
    below tau, which must be in [0, 1]."""
    if not gold_answers:
        raise ContractError("ANLS requires at least one gold answer")
    require_tau(tau)
    pred = _anls_normalize(prediction)
    best = 0.0
    for g in dict.fromkeys(map(_anls_normalize, gold_answers)):
        denom = max(len(pred), len(g))
        if denom == 0:
            s = 1.0
        else:
            # The distance is at least the length difference, so this bound
            # is at least the similarity: below tau or not above best, the
            # gold cannot change the score.
            bound = 1.0 - abs(len(pred) - len(g)) / denom
            if bound < tau or bound <= best:
                continue
            s = 1.0 - levenshtein(pred, g) / denom
        best = max(best, s if s >= tau else 0.0)
    return best
