import json
import random

import pytest

from scenetext import pretrain
from scenetext.errors import ConfigError
from scenetext.hashing import hash64
from scenetext.pretrain import (
    Objective,
    build_example,
    build_stage_plan,
    fragments,
    layouts,
    sample_split_point,
)
from scenetext.textformat import DEFAULT_FORMAT, TextFormat

from conftest import make_record, make_token, ordered_texts, random_layout_record


def example(record, texts, objective, seed=0, fmt=DEFAULT_FORMAT, pass_index=0):
    """One pass's example of an eligible record, as the dict its line decodes to."""
    layout = layouts(objective, fmt, pass_index + 1)[pass_index]
    example_id, line = build_example(record, fragments(record.image_id, texts), seed, layout)
    obj = json.loads(line)
    assert obj["example_id"] == example_id
    return obj


def line_of(texts):
    """Tokens laid out left to right on one line."""
    return [make_token(t, x=10.0 + 100 * i, y=10, w=50, h=10) for i, t in enumerate(texts)]


class FixedRng(random.Random):
    """Always returns a fixed split point."""

    def __init__(self, k):
        super().__init__(0)
        self._k = k

    def randrange(self, *args, **kwargs):
        return self._k


@pytest.fixture
def split_at(monkeypatch):
    """Make every split draw the given point."""
    return lambda k: monkeypatch.setattr(pretrain, "derive_rng", lambda *parts: FixedRng(k))


def test_split_point_single_token_is_zero(rng):
    assert all(sample_split_point(1, rng) == 0 for _ in range(50))


def test_split_point_rejects_zero():
    with pytest.raises(ValueError):
        sample_split_point(0, random.Random(0))


def test_split_point_uniform_chi_square():
    from scipy.stats import chisquare

    rng = random.Random(7)
    counts = [0, 0, 0, 0]
    draws = 100_000
    for _ in range(draws):
        counts[sample_split_point(4, rng)] += 1
    for c in counts:
        assert abs(c / draws - 0.25) < 0.015
    assert chisquare(counts).pvalue > 0.01


def test_splitocr_four_tokens_k2(split_at):
    # split after the first two tokens: first two in, last two out
    split_at(2)
    record = make_record(ocr=line_of(["A", "B", "C", "D"]))
    ex = example(record, ordered_texts(record), Objective.SPLITOCR)
    assert ex["input_ocr"] == ["A", "B"]
    assert ex["target"] == "C D"
    assert ex["objective"] == "SPLITOCR"


def test_splitocr_single_token_forced_empty_prefix():
    record = make_record(ocr=line_of(["X"]))
    ex = example(record, ordered_texts(record), Objective.SPLITOCR)
    assert ex["input_ocr"] == []
    assert ex["target"] == "X"


def test_splitocr_skips_empty_ocr():
    assert not Objective.SPLITOCR.eligible(make_record(ocr=[]))
    assert Objective.SPLITOCR.eligible(make_record(ocr=line_of(["X"])))


def test_splitocr_concatenation_identity(rng):
    for i in range(300):
        record = random_layout_record(rng, image_id=f"r{i}")
        full = ordered_texts(record)
        ex = example(record, full, Objective.SPLITOCR, seed=5)
        # the split point is drawn from the RNG of (seed, image_id, objective, pass)
        k = random.Random(hash64(5, record.image_id, "SPLITOCR", "0")).randrange(len(full))
        assert ex["input_ocr"] == full[:k]
        joined = " ".join(ex["input_ocr"] + [ex["target"]])
        assert joined == " ".join(full)
        assert ex["target"]  # never empty


def test_ocr_objective():
    record = make_record(ocr=line_of(["STOP", "HERE"]))
    ex = example(record, ordered_texts(record), Objective.OCR)
    assert ex["input_ocr"] == []
    assert ex["target"] == "STOP HERE"


def test_ocr_target_joins_with_the_token_separator():
    record = make_record(ocr=line_of(["STOP", "HERE"]))
    fmt = TextFormat(token_separator="|")
    assert example(record, ordered_texts(record), Objective.OCR, fmt=fmt)["target"] == "STOP|HERE"


def test_ocr_target_keeps_interior_spaces():
    record = make_record(ocr=line_of(["a b", "c"]))
    assert example(record, ordered_texts(record), Objective.OCR)["target"] == "a b c"


def test_ocr_single_token():
    ex = example(make_record(ocr=line_of(["X"])), ["X"], Objective.OCR)
    assert ex["target"] == "X"


def test_ocr_skips_empty():
    assert not Objective.OCR.eligible(make_record(ocr=[], caption="a sign"))
    assert Objective.OCR.eligible(make_record(ocr=line_of(["X"])))


def test_ocr_equals_splitocr_with_forced_k0(rng, split_at):
    split_at(0)
    for i in range(100):
        record = random_layout_record(rng, image_id=f"r{i}")
        texts = ordered_texts(record)
        assert (example(record, texts, Objective.OCR)["target"]
                == example(record, texts, Objective.SPLITOCR)["target"])


def test_cap():
    record = make_record(ocr=line_of(["STOP"]), caption="a red stop sign")
    ex = example(record, ["STOP"], Objective.CAP)
    assert ex["input_ocr"] == ["STOP"]
    assert ex["prompt"] == "caption:"
    assert ex["target"] == "a red stop sign"


def test_cap_with_empty_ocr_stays_eligible():
    assert Objective.CAP.eligible(make_record(caption="a plain wall"))
    ex = example(make_record(caption="a plain wall"), [], Objective.CAP)
    assert ex["input_ocr"] == []
    assert ex["target"] == "a plain wall"


def test_cap_skips_missing_caption():
    assert not Objective.CAP.eligible(make_record(ocr=line_of(["X"])))
    assert not Objective.CAP.eligible(make_record(ocr=line_of(["X"]), caption=""))
    assert Objective.CAP.eligible(make_record(caption=" "))  # SPLITCAP is not


def test_splitcap_k1(split_at):
    split_at(1)
    record = make_record(ocr=line_of(["STOP"]), caption="a red stop sign")
    ex = example(record, ["STOP"], Objective.SPLITCAP)
    assert ex["input_caption_prefix"] == "a"
    assert ex["target"] == "red stop sign"
    assert ex["input_ocr"] == ["STOP"]


def test_splitcap_one_word_caption():
    ex = example(make_record(caption="sign"), [], Objective.SPLITCAP)
    assert ex["input_caption_prefix"] == ""
    assert ex["target"] == "sign"


def test_splitcap_concatenation(rng):
    for i in range(200):
        record = random_layout_record(rng, image_id=f"r{i}", with_caption=True)
        ex = example(record, ordered_texts(record), Objective.SPLITCAP, seed=3)
        reconstructed = (ex["input_caption_prefix"] + " " + ex["target"]).strip()
        assert reconstructed == record.caption
        assert ex["target"]


def test_splitcap_skips_missing_caption():
    for caption in (None, "", " \t "):
        assert not Objective.SPLITCAP.eligible(make_record(ocr=line_of(["X"]), caption=caption))
    assert Objective.SPLITCAP.eligible(make_record(caption="sign"))


def test_seed_determinism_independent_of_call_order(rng):
    records = [random_layout_record(rng, image_id=f"r{i}") for i in range(50)]
    a = [example(r, ordered_texts(r), Objective.SPLITOCR, seed=11) for r in records]
    b = [example(r, ordered_texts(r), Objective.SPLITOCR, seed=11) for r in reversed(records)]
    assert a == list(reversed(b))


def test_pass_index_resamples_split():
    record = make_record(image_id="r", ocr=line_of([f"t{i}" for i in range(20)]))
    splits = {
        len(example(record, ordered_texts(record), Objective.SPLITOCR, seed=1,
                    pass_index=p)["input_ocr"])
        for p in range(20)
    }
    assert len(splits) > 1
    ids = [example(record, ["t0"], Objective.SPLITOCR, pass_index=p)["example_id"] for p in range(3)]
    assert ids == ["r/splitocr/0", "r/splitocr/1", "r/splitocr/2"]


def test_splitocr_target_is_suffix_of_ocr_target(rng):
    for i in range(100):
        record = random_layout_record(rng, image_id=f"r{i}")
        texts = ordered_texts(record)
        ocr_target = example(record, texts, Objective.OCR)["target"]
        split = example(record, texts, Objective.SPLITOCR, seed=2)
        assert ocr_target.endswith(split["target"])
        # token-boundary suffix
        assert (" " + ocr_target).endswith(" " + split["target"])


def test_stage_plan():
    # the dataset names are tested on a run's manifest in test_pipeline
    plan = build_stage_plan([Objective.SPLITOCR, Objective.CAP])
    assert plan == (Objective.SPLITOCR, Objective.CAP)


def test_stage_plan_from_tags():
    # the CLI turns --stages tags into objectives before building the plan
    tags = ["ocr", "Cap", "SPLITOCR", "splitcap"]
    assert build_stage_plan([Objective.from_tag(t) for t in tags]) == (
        Objective.OCR, Objective.CAP, Objective.SPLITOCR, Objective.SPLITCAP)


def test_stage_plan_rejects_empty_and_unknown():
    with pytest.raises(ConfigError):
        build_stage_plan([])
    with pytest.raises(ConfigError, match="unknown objective 'bogus'"):
        Objective.from_tag("bogus")


def test_example_json_schema():
    record = make_record(image_id="img7", ocr=line_of(["A", "B"]))
    ex = example(record, ["A", "B"], Objective.SPLITOCR)
    assert list(ex) == ["example_id", "image_id", "objective", "prompt",
                        "input_ocr", "input_caption_prefix", "target"]
    assert ex["objective"] == "SPLITOCR"
    assert ex["image_id"] == "img7"
    assert ex["example_id"] == "img7/splitocr/0"
    assert ex["prompt"] == "read:"


def test_example_json_is_json_dumps_without_ascii_escapes():
    texts = ["café", "東京", "\u2028", '"quoted"', "back\\slash", "tab\t"]
    record = make_record(image_id="ïd", caption="ça va 東京", ocr=line_of(texts))
    frags = fragments(record.image_id, texts)
    for objective in Objective:
        [layout] = layouts(objective, DEFAULT_FORMAT)
        _, line = build_example(record, frags, 3, layout)
        assert line == json.dumps(json.loads(line), ensure_ascii=False)
