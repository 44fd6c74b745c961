"""Canonical reading order for OCR tokens.

Tokens are grouped into visual lines by vertical-interval overlap, lines are
emitted top to bottom, and tokens within a line left to right. A build
orders each record once and hands the ordered texts to every builder.
"""

from .records import OcrToken


def _overlap(lo1: float, hi1: float, lo2: float, hi2: float) -> float:
    return min(hi1, hi2) - max(lo1, lo2)


def order_tokens(tokens, overlap_threshold: float = 0.5) -> tuple[OcrToken, ...]:
    """Order tokens top-left to bottom-right.

    Tokens are first sorted by vertical center (y + h/2), then consecutive
    tokens join the current line while the overlap of their [y, y+h]
    interval with the line's running interval is at least
    overlap_threshold * min(token height, line height). Each line is then
    sorted by x. Ties break on (x, y, text) so the order is a total one.
    """
    if not tokens:
        return ()

    # (x, y, text) is the stated tie order; trailing keys only make the
    # order total for tokens that still collide on all three
    def tiebreak(t: OcrToken):
        return (t.bbox.x, t.bbox.y, t.text, t.bbox.w, t.bbox.h, t.confidence)

    by_center = sorted(tokens, key=lambda t: (t.bbox.y_center, *tiebreak(t)))

    lines: list[list[OcrToken]] = []
    line_lo = line_hi = 0.0
    for tok in by_center:
        lo, hi = tok.bbox.y, tok.bbox.y + tok.bbox.h
        if lines:
            needed = overlap_threshold * min(hi - lo, line_hi - line_lo)
            if _overlap(lo, hi, line_lo, line_hi) >= needed:
                lines[-1].append(tok)
                line_lo, line_hi = max(line_lo, lo), min(line_hi, hi)
                continue
        lines.append([tok])
        line_lo, line_hi = lo, hi

    ordered: list[OcrToken] = []
    for line in lines:
        line.sort(key=tiebreak)
        ordered.extend(line)
    return tuple(ordered)
