"""Prediction/gold alignment and task-level metric reports."""

import json
from enum import Enum

from .. import workers
from ..errors import AlignmentError, ContractError, ParseError
from .captioning import CaptionItem, caption_scorer, combine_caption_rows, require_cider_corpus
from .vqa import VqaItem, anls, require_tau, vqa_accuracy


class EvalTask(str, Enum):
    VQA = "VQA"
    VQA_ANLS = "VQA_ANLS"
    CAPTION = "CAPTION"


class MetricReport:
    __slots__ = ("aggregate", "per_item")

    def __init__(self, aggregate: dict[str, float], per_item: list[dict] | None = None):
        self.aggregate = aggregate
        self.per_item = [] if per_item is None else per_item

    @property
    def n_items(self) -> int:
        return len(self.per_item)


def _align(predictions: dict[str, str], golds: dict[str, dict]) -> list[str]:
    missing = sorted(set(golds) - set(predictions))
    extra = sorted(set(predictions) - set(golds))
    if missing or extra or not golds:
        orphans = missing + extra
        raise AlignmentError(
            f"prediction/gold mismatch: {len(missing)} gold ids without "
            f"predictions, {len(extra)} predictions without gold",
            orphans=orphans,
        )
    return sorted(golds)


def _gold_texts(ex_id: str, texts, what: str) -> list[str]:
    if not isinstance(texts, (list, tuple)) or not texts or not all(isinstance(t, str) for t in texts):
        raise ContractError(f"{ex_id}: gold entry needs a non-empty list of string {what}")
    return texts


def _scored(score, count: int) -> list:
    """[score(i) for i in range(count)], scored in chunks of CHUNK_ITEMS
    items by forked workers, one per CPU and chunk at most, or here when
    that is one (`workers.map`). A worker inherits all that `score` reads,
    so only the rows cross a pipe."""
    size = workers.CHUNK_ITEMS

    def chunks():
        return (range(start, min(start + size, count)) for start in range(0, count, size))

    def job(chunk: range) -> list:
        return [score(i) for i in chunk]

    return [row for _, rows in workers.map(job, chunks, -(-count // size)) for row in rows]


def evaluate(predictions: dict[str, str], golds: dict[str, dict],
             task: EvalTask, tau: float = 0.5) -> MetricReport:
    """Score aligned predictions against gold entries.

    Gold entries carry "answers" (VQA tasks) or "references" (CAPTION).
    `tau` must be in [0, 1] for every task, also where ANLS does not run.

    Everything that reads the whole input or can reject it runs here
    first; then the items are scored one by one (`_scored`), possibly in
    worker processes, and their scores summed here in item order, so the
    report is the same wherever they ran.
    """
    require_tau(tau)
    ids = _align(predictions, golds)

    if task in (EvalTask.VQA, EvalTask.VQA_ANLS):
        answer_lists = [_gold_texts(ex_id, golds[ex_id].get("answers"), "answers") for ex_id in ids]
        # VQA accuracy is defined on ten answers (TextVQA, VizWiz); ST-VQA
        # golds carry one or two, so VQA_ANLS scores accuracy only when
        # every gold has ten, and VQA lets VqaItem reject the rest.
        with_accuracy = task is EvalTask.VQA or all(len(a) == 10 for a in answer_lists)
        if with_accuracy:
            items = [VqaItem(predictions[ex_id], tuple(answers))
                     for ex_id, answers in zip(ids, answer_lists)]

        def score(i: int) -> dict:
            row = {}
            if with_accuracy:
                row["accuracy"] = vqa_accuracy(items[i])
            if task is EvalTask.VQA_ANLS:
                row["anls"] = anls(predictions[ids[i]], answer_lists[i], tau=tau)
            return row

        per_item = [{"example_id": ex_id, **row}
                    for ex_id, row in zip(ids, _scored(score, len(ids)))]
        aggregate = {metric: sum(r[metric] for r in per_item) / len(per_item)
                     for metric in per_item[0] if metric != "example_id"}
        return MetricReport(aggregate=aggregate, per_item=per_item)

    if task is EvalTask.CAPTION:
        items = []
        for ex_id in ids:
            gold = golds[ex_id]
            refs = _gold_texts(ex_id, gold.get("references") or gold.get("answers"), "references")
            items.append(CaptionItem(predictions[ex_id], tuple(refs)))
        require_cider_corpus(items)
        scores = combine_caption_rows(_scored(caption_scorer(items), len(items)))
        per_item = [
            {"example_id": ex_id, "cider": c, "rougeL": r}
            for ex_id, c, r in zip(ids, scores.cider_per_item, scores.rouge_l)
        ]
        aggregate = {
            "bleu4": scores.bleu4,
            "rougeL": sum(r["rougeL"] for r in per_item) / len(per_item),
            "cider": scores.cider,
        }
        return MetricReport(aggregate=aggregate, per_item=per_item)

    raise ContractError(f"unknown evaluation task {task!r}")


def _read_jsonl(path, fields: tuple[str, ...]) -> dict[str, dict]:
    """Objects keyed by example_id; every one must carry `fields` as strings.

    A malformed line raises ParseError and a repeated example_id raises
    AlignmentError, both naming the file and line.
    """
    rows = {}
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except ValueError as exc:
                raise ParseError(f"{where}: malformed JSON: {exc}") from None
            if not isinstance(obj, dict) or not all(isinstance(obj.get(f), str) for f in fields):
                raise ParseError(f"{where}: expected a JSON object with string "
                                 + " and ".join(f'"{f}"' for f in fields))
            ex_id = obj["example_id"]
            if ex_id in rows:
                raise AlignmentError(f"{where}: duplicate example_id {ex_id!r}", orphans=[ex_id])
            rows[ex_id] = obj
    return rows


def read_predictions(path) -> dict[str, str]:
    """Predictions JSONL: {"example_id": str, "prediction": str}."""
    return {ex_id: obj["prediction"]
            for ex_id, obj in _read_jsonl(path, ("example_id", "prediction")).items()}


def read_golds(path) -> dict[str, dict]:
    """Gold JSONL: fine-tune eval examples or {"example_id", "answers"/"references"}."""
    return _read_jsonl(path, ("example_id",))
