import gzip
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from scenetext.ordering import order_tokens
from scenetext.records import OcrToken, QaAnnotation, Record


def make_token(text, x=0.0, y=0.0, w=10.0, h=10.0, confidence=1.0):
    return OcrToken(x, y, text, w, h, confidence)


def make_record(image_id="img", ocr=(), caption=None, qa=None, image_size=None):
    return Record(image_id=image_id, ocr=tuple(ocr), caption=caption,
                  qa=qa, image_size=image_size)


def ordered_texts(record: Record) -> list[str]:
    """The record's OCR texts in reading order, as a build hands them to builders."""
    return [t.text for t in order_tokens(record.ocr)]


_WORDS = ["stop", "exit", "open", "sale", "cafe", "menu", "park", "slow",
          "taxi", "shop", "north", "ave", "st", "24", "7", "free", "wifi"]


def random_layout_record(rng: random.Random, image_id="img", min_tokens=1,
                         max_tokens=12, with_caption=False):
    """Record with tokens scattered over a 1000x1000 plane."""
    n = rng.randint(min_tokens, max_tokens)
    tokens = [
        make_token(
            rng.choice(_WORDS),
            x=rng.uniform(0, 900),
            y=rng.uniform(0, 900),
            w=rng.uniform(5, 90),
            h=rng.uniform(5, 40),
        )
        for _ in range(n)
    ]
    caption = None
    if with_caption:
        caption = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 12)))
    return make_record(image_id=image_id, ocr=tokens, caption=caption)


@pytest.fixture
def rng():
    return random.Random(1234)


def write_damaged_gzip(path, data: bytes, damage: str) -> None:
    """`data` gzipped, then damaged: "truncated" cuts the stream in half;
    "corrupted" gives the first half of the lines a sound gzip member and
    the rest a member whose first deflate block has the reserved type."""
    if damage == "truncated":
        stream = gzip.compress(data, mtime=0)
        path.write_bytes(stream[:len(stream) // 2])
        return
    lines = data.splitlines(keepends=True)
    half = len(lines) // 2
    second = bytearray(gzip.compress(b"".join(lines[half:]), mtime=0))
    second[10] = 0xFF  # the byte after the 10-byte header: BFINAL 1, BTYPE 11
    path.write_bytes(gzip.compress(b"".join(lines[:half]), mtime=0) + bytes(second))
