"""Canonical reading order for OCR tokens.

Tokens are grouped into visual lines by vertical-interval overlap, lines are
emitted top to bottom, and tokens within a line left to right. Ties break on
the tokens' own tuple order, (x, y, text, w, h, confidence), which makes the
order total. A build orders each record once and hands the ordered texts to
every builder.
"""

from .records import OcrToken


def order_tokens(tokens, overlap_threshold: float = 0.5) -> tuple[OcrToken, ...]:
    """Order tokens top-left to bottom-right.

    Tokens are first sorted by vertical center (y + h/2), then consecutive
    tokens join the current line while the overlap of their [y, y+h]
    interval with the line's running interval is at least
    overlap_threshold * min(token height, line height). Each line is then
    sorted by x. Ties break on (x, y, text), then on (w, h, confidence),
    which is an OcrToken's natural order.
    """
    if not tokens:
        return ()

    by_center = sorted(tokens, key=lambda t: (t.y + t.h / 2, t))

    lines: list[list[OcrToken]] = []
    line_lo = line_hi = 0.0
    for tok in by_center:
        lo, hi = tok.y, tok.y + tok.h
        if lines:
            needed = overlap_threshold * min(hi - lo, line_hi - line_lo)
            if min(hi, line_hi) - max(lo, line_lo) >= needed:
                lines[-1].append(tok)
                line_lo, line_hi = max(line_lo, lo), min(line_hi, hi)
                continue
        lines.append([tok])
        line_lo, line_hi = lo, hi

    ordered: list[OcrToken] = []
    for line in lines:
        line.sort()
        ordered.extend(line)
    return tuple(ordered)
