"""Command-line surface: validate, stats, build-pretrain, build-finetune,
subsample, evaluate.

Human-readable summaries go to stderr; machine-readable JSON goes to
stdout when --json is set. Exit codes: 0 success, 1 runtime failure,
2 usage error.
"""

import argparse
import json
import os
import sys
from collections import Counter

from .errors import SceneTextError
from .metrics import EvalTask, evaluate, read_golds, read_predictions
from .pipeline import (
    PipelineConfig,
    compute_stats,
    ingest,
    kept_records,
    run,
    run_finetune,
    subsample,
)
from .pretrain import Objective
from .finetune import Task


def uint64(text: str) -> int:
    """A --seed keys a 64-bit hash, so it must be an integer in [0, 2**64)."""
    if not 0 <= (value := int(text)) < 2**64:
        raise argparse.ArgumentTypeError(f"{value} is not in [0, 2**64)")
    return value


def _add_io(parser, needs_out=False):
    parser.add_argument("--in", dest="inputs", nargs="+", required=True,
                        metavar="FILE", help="input JSONL file(s)")
    if needs_out:
        parser.add_argument("--out-dir", required=True, help="output directory")


def _add_build_flags(parser):
    parser.add_argument("--seed", type=uint64, default=0)
    parser.add_argument("--fraction", type=float, default=1.0,
                        help="hash-threshold subsample fraction in (0,1]")
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--overlap-threshold", type=float, default=0.5,
                        help="vertical overlap fraction for line grouping")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker processes: up to N forked workers, capped at the "
                             "CPUs available; 1 builds in this process. Output is "
                             "byte-identical for any N")
    parser.add_argument("--compress", action="store_true",
                        help="gzip-compress output shards")
    parser.add_argument("--resolution", type=int, default=None,
                        help="image resolution tag recorded in the manifest")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenetext",
        description="Deterministic scene-text corpus construction and evaluation.",
    )
    parser.add_argument("--json", action="store_true",
                        help="print machine-readable JSON to stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a corpus")
    _add_io(p)

    p = sub.add_parser("stats", help="corpus statistics")
    _add_io(p)
    p.add_argument("--seed", type=uint64, default=0)
    p.add_argument("--fraction", type=float, default=1.0)

    p = sub.add_parser("build-pretrain", help="build pre-training example shards")
    _add_io(p, needs_out=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--objective", choices=["ocr", "splitocr", "cap", "splitcap"])
    group.add_argument("--stages", help="comma-separated stage plan, e.g. splitocr,cap")
    p.add_argument("--passes", type=int, default=1,
                   help="epoch passes; each pass resamples split points")
    _add_build_flags(p)

    p = sub.add_parser("build-finetune", help="build fine-tuning example shards")
    _add_io(p, needs_out=True)
    p.add_argument("--task", choices=["vqa", "caption"], required=True)
    p.add_argument("--no-ocr-input", action="store_true",
                   help="drop OCR tokens from fine-tune inputs")
    _add_build_flags(p)

    p = sub.add_parser("subsample", help="hash-threshold record subsample")
    _add_io(p)
    p.add_argument("--out", required=True, help="output JSONL file")
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--seed", type=uint64, default=0)

    p = sub.add_parser("evaluate", help="score predictions against gold")
    p.add_argument("--task", choices=["vqa", "vqa_anls", "caption"], required=True)
    p.add_argument("--pred", required=True, help="predictions JSONL")
    p.add_argument("--gold", required=True, help="gold JSONL")
    p.add_argument("--tau", type=float, default=0.5, help="ANLS threshold")
    p.add_argument("--per-item", action="store_true",
                   help="include per-item scores in JSON output")
    return parser


def _emit(summary: str, payload: dict, as_json: bool) -> None:
    print(summary, file=sys.stderr)
    if as_json:
        print(json.dumps(payload, ensure_ascii=False, sort_keys=True))


def _cmd_validate(args) -> dict:
    counters: Counter = Counter()
    violations: Counter = Counter()
    for _ in ingest(args.inputs, counters, violations):
        pass
    counts = {"lines": counters["lines"], "parse_errors": counters["parse_errors"],
              "valid": counters["valid_records"], "invalid": counters["validation_skips"]}
    return {"counts": counts, "violations": dict(violations)}


def _pipeline_config(args, stages=None) -> PipelineConfig:
    return PipelineConfig(
        inputs=tuple(args.inputs),
        out_dir=args.out_dir,
        stages=tuple(stages or ()),
        seed=args.seed,
        fraction=args.fraction,
        shard_count=args.shards,
        overlap_threshold=args.overlap_threshold,
        passes=getattr(args, "passes", 1),
        threads=args.threads,
        compress=args.compress,
        resolution=args.resolution,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            payload = _cmd_validate(args)
            _emit(f"validated {payload['counts']['lines']} lines: "
                  f"{payload['counts']['valid']} valid, "
                  f"{payload['counts']['invalid']} invalid, "
                  f"{payload['counts']['parse_errors']} parse errors",
                  payload, args.json)

        elif args.command == "stats":
            counters: Counter = Counter()
            stats = compute_stats(kept_records(args.inputs, args.fraction, args.seed, counters))
            payload = {"counters": dict(counters), "stats": stats.to_dict()}
            _emit(f"{stats.record_count} records, "
                  f"empty-OCR fraction {stats.empty_ocr_fraction:.4f}",
                  payload, args.json)

        elif args.command == "build-pretrain":
            if args.stages:
                stages = [Objective.from_tag(s) for s in args.stages.split(",") if s]
            else:
                stages = [Objective.from_tag(args.objective)]
            manifest = run(_pipeline_config(args, stages))
            total = sum(s["example_count"] for s in manifest["stages"])
            _emit(f"built {len(manifest['stages'])} stage(s), {total} examples "
                  f"-> {args.out_dir}", manifest, args.json)

        elif args.command == "build-finetune":
            task = Task.VQA if args.task == "vqa" else Task.CAPTION
            manifest = run_finetune(_pipeline_config(args), task,
                                    ocr_included=not args.no_ocr_input)
            _emit(f"built {manifest['example_count']} {task.value} examples "
                  f"-> {args.out_dir}", manifest, args.json)

        elif args.command == "subsample":
            counters = Counter()
            pairs = subsample(ingest(args.inputs, counters), args.fraction, args.seed,
                              key=lambda pair: pair[1].image_id)
            kept = 0
            out = open(args.out, "wb")
            try:
                with out:
                    for line, _ in pairs:
                        out.write(line if line.endswith(b"\n") else line + b"\n")
                        kept += 1
            except BaseException:
                os.remove(args.out)  # no partial sample is left behind
                raise
            total = counters["lines"]
            payload = {"total": total, "kept": kept, "counters": dict(counters),
                       "fraction": args.fraction, "seed": args.seed, "out": args.out}
            _emit(f"kept {kept}/{total} records at fraction {args.fraction}",
                  payload, args.json)

        elif args.command == "evaluate":
            task = EvalTask(args.task.upper())
            report = evaluate(read_predictions(args.pred), read_golds(args.gold),
                              task, tau=args.tau)
            payload = json.loads(report.to_json(include_per_item=args.per_item))
            scores = ", ".join(f"{k}={v:.4f}" for k, v in report.aggregate.items())
            _emit(f"{report.n_items} items: {scores}", payload, args.json)

        else:  # pragma: no cover - argparse enforces the choices
            parser.error(f"unknown command {args.command}")
        return 0
    except (SceneTextError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
