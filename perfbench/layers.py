"""Per-layer tracing from outside the program.

The traced run replaces each layer function with a wrapper, under the name
its caller looks it up by (for example `scenetext.pretrain.order_tokens`),
then calls the CLI unchanged. A wrapper records one span per call (name,
start, end, parent span, thread) and the layer's counters. Spans stay in
memory until the run writes them out. Busy time is summed across threads;
self time is a span's duration minus the time its traced children took.
"""

import functools
import importlib
import os
import threading
from collections import Counter
from time import perf_counter


def _len0(args, result, counts, key):
    counts[key] += len(args[0])


def _cells(args, result, counts, key):
    counts[key] += len(args[0]) * len(args[1])


def _result_len(args, result, counts, key):
    counts[key] += len(result)


def _utf8_bytes(args, result, counts, key):
    counts[key] += len(result.encode("utf-8"))


def _not_ok(args, result, counts, key):
    counts[key] += not result.ok


def _shard_bytes(args, result, counts, key):
    counts[key] += sum(os.path.getsize(os.path.join(args[1], info["file"])) for info in result)


# (owner, attribute, layer name, kind, counter)
# kind "span" times each call; its counter is None or (quantity, hook), the
# hook adding to the quantity from the call's arguments and result.
# kind "iter" times each step of the returned generator; its counter names
# the quantity that counts the items. kind "count" only counts calls.
TARGETS = [
    ("scenetext.pipeline", "iter_lines", "pipeline.iter_lines", "iter", "lines"),
    ("scenetext.pipeline", "parse_record", "records.parse_record", "span", None),
    ("scenetext.records:CorpusValidator", "validate", "records.validate", "span", ("skips", _not_ok)),
    ("scenetext.pipeline", "subsample", "pipeline.subsample", "iter", "kept"),
    ("scenetext.pipeline", "compute_stats", "pipeline.compute_stats", "span", None),
    ("scenetext.pretrain", "order_tokens", "ordering.order_tokens", "span", ("tokens", _len0)),
    ("scenetext.finetune", "order_tokens", "ordering.order_tokens", "span", ("tokens", _len0)),
    ("scenetext.pretrain", "derive_rng", "hashing.derive_rng", "span", None),
    ("scenetext.hashing", "hash64", "hashing.hash64", "count", None),
    ("scenetext.pipeline", "hash64", "hashing.hash64", "count", None),
    ("scenetext.pipeline", "build_example", "pretrain.build_example", "span", None),
    ("scenetext.pretrain:PretrainExample", "to_json", "pretrain.to_json", "span", ("bytes", _utf8_bytes)),
    ("scenetext.pipeline", "build_vqa_examples", "finetune.build_vqa_examples", "span",
     ("examples", _result_len)),
    ("scenetext.finetune:FinetuneExample", "to_json", "finetune.to_json", "span", None),
    ("scenetext.pipeline", "shuffle_and_shard", "pipeline.shuffle_and_shard", "span", ("examples", _len0)),
    ("scenetext.pipeline", "_write_shards", "pipeline._write_shards", "span", ("bytes", _shard_bytes)),
    ("scenetext.cli", "run", "pipeline.run", "span", None),
    ("scenetext.cli", "run_finetune", "pipeline.run_finetune", "span", None),
    ("scenetext.cli", "read_predictions", "metrics.read_predictions", "span", None),
    ("scenetext.cli", "read_golds", "metrics.read_golds", "span", None),
    ("scenetext.cli", "evaluate", "metrics.evaluate", "span", None),
    ("scenetext.metrics.report", "vqa_accuracy", "metrics.vqa_accuracy", "span", None),
    ("scenetext.metrics.report", "anls", "metrics.anls", "span", None),
    ("scenetext.metrics.vqa", "levenshtein", "kernels.levenshtein", "span", ("cells", _cells)),
    ("scenetext.metrics.report", "cider", "metrics.cider", "span", None),
    ("scenetext.metrics.report", "bleu4", "metrics.bleu4", "span", None),
    ("scenetext.metrics.report", "rouge_l", "metrics.rouge_l", "span", None),
    ("scenetext.metrics.captioning", "tokenize", "metrics.tokenize", "count", None),
    ("scenetext.metrics.captioning", "lcs_length", "kernels.lcs_length", "span", ("cells", _cells)),
]


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class _ThreadState:
    def __init__(self):
        self.ident = threading.get_ident()
        self.stack = []  # [span index, child seconds] per open span
        self.spans = []  # (name, start, end, parent index or -1, thread)
        self.times = {}  # name -> [calls, busy seconds, self seconds]
        self.counts = Counter()


class Tracer:
    """Installs the wrappers in TARGETS and collects their spans and counts.

    Use as a context manager around one traced command; every thread that
    calls a wrapped function gets its own state, merged by totals().
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._patches = []
        self.missing = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    def _open(self):
        state = self._state()
        parent = state.stack[-1][0] if state.stack else -1
        frame = [len(state.spans), 0.0]
        state.spans.append(None)
        state.stack.append(frame)
        return state, frame, parent, perf_counter()

    def _close(self, name, state, frame, parent, start):
        end = perf_counter()
        state.stack.pop()
        duration = end - start
        state.spans[frame[0]] = (name, start, end, parent, state.ident)
        row = state.times.get(name)
        if row is None:
            row = state.times[name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - frame[1]
        if state.stack:
            state.stack[-1][1] += duration

    def _span(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = self._open()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                opened[0].counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                self._close(name, *opened)
            if counter:
                counter[1](args, result, opened[0].counts, f"{name}.{counter[0]}")
            return result
        return traced

    def _iter(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                opened = self._open()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(name, *opened)
                opened[0].counts[f"{name}.{counter}"] += 1
                yield item
        return traced

    def _count(self, fn, name, counter):
        key = f"{name}.calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._state().counts[key] += 1
            return fn(*args, **kwargs)
        return traced

    def __enter__(self):
        make = {"span": self._span, "iter": self._iter, "count": self._count}
        for owner, attr, name, kind, counter in TARGETS:
            try:
                obj = _resolve(owner)
                original = getattr(obj, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{owner}.{attr}")
                continue
            self._patches.append((obj, attr, original))
            setattr(obj, attr, make[kind](original, name, counter))
        return self

    def __exit__(self, *exc):
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)
        return False

    def totals(self) -> dict:
        """name -> {"calls", "busy_s", "self_s", <counters>} over all threads."""
        out: dict = {}
        for state in self._states:
            for name, (calls, busy, self_s) in state.times.items():
                row = out.setdefault(name, Counter())
                row["calls"] += calls
                row["busy_s"] += busy
                row["self_s"] += self_s
            for key, value in state.counts.items():
                if ".raised." in key:
                    name, _, exc = key.partition(".raised.")
                    quantity = f"raised.{exc}"
                else:
                    name, _, quantity = key.rpartition(".")
                out.setdefault(name, Counter())[quantity] += value
        return out

    def self_seconds(self) -> float:
        return sum(row[2] for state in self._states for row in state.times.values())

    def write_spans(self, path: str) -> int:
        """Write every span as a tab-separated line; returns the span count."""
        n = 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tthread\n")
            for state in self._states:
                base = n
                for name, start, end, parent, ident in state.spans:
                    parent = parent + base if parent >= 0 else -1
                    fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{ident}\n")
                    n += 1
        return n
