from .captioning import CaptionItem, CaptionScores, bleu4, caption_scores, cider, rouge_l, tokenize
from .report import EvalTask, MetricReport, evaluate, read_golds, read_predictions
from .vqa import VqaItem, anls, normalize_answer, vqa_accuracy

__all__ = [
    "CaptionItem",
    "CaptionScores",
    "bleu4",
    "caption_scores",
    "cider",
    "rouge_l",
    "tokenize",
    "EvalTask",
    "MetricReport",
    "evaluate",
    "read_golds",
    "read_predictions",
    "VqaItem",
    "anls",
    "normalize_answer",
    "vqa_accuracy",
]
