"""VQA accuracy and ANLS scoring.

VQA accuracy is the annotator-agreement score min(occurrences/3, 1)
averaged over the ten leave-one-out subsets of nine answers. ANLS is the
edit-distance similarity with a threshold that zeroes low-similarity
answers; it stays character-level, so its normalization is only
lowercase + trim.
"""

import re
from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class VqaItem:
    prediction: str
    answers: tuple[str, ...]

    def __post_init__(self):
        if len(self.answers) != 10:
            raise ContractError(f"VQA items require exactly 10 answers, got {len(self.answers)}")


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
# m-1 matches and 10-m hold m. Rational arithmetic, so each entry equals
# the subset enumeration bit-for-bit.
_ACCURACY_BY_MATCHES = tuple(
    float((m * min(Fraction(max(m - 1, 0), 3), Fraction(1))
           + (10 - m) * min(Fraction(m, 3), Fraction(1))) / 10)
    for m in range(11)
)


def vqa_accuracy(item: VqaItem) -> float:
    """Mean of min(matches/3, 1) over the ten leave-one-out nine-answer
    subsets, looked up by the total match count m."""
    pred = normalize_answer(item.prediction)
    m = sum(1 for a in item.answers if normalize_answer(a) == pred)
    return _ACCURACY_BY_MATCHES[m]


def _anls_normalize(text: str) -> str:
    return text.lower().strip()


def anls(prediction: str, gold_answers, tau: float = 0.5) -> float:
    """Best normalized-Levenshtein similarity over the golds, floored to 0
    below tau."""
    if not gold_answers:
        raise ContractError("ANLS requires at least one gold answer")
    pred = _anls_normalize(prediction)
    best = 0.0
    for gold in gold_answers:
        g = _anls_normalize(gold)
        denom = max(len(pred), len(g))
        s = 1.0 if denom == 0 else 1.0 - levenshtein(pred, g) / denom
        best = max(best, s if s >= tau else 0.0)
    return best
