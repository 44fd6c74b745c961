"""Exact bit-parallel kernels for the metric inner loops.

Both kernels keep one DP column as Python ints used as bit-vectors. A
`{symbol: bitmask}` table marks where each symbol occurs in the shorter
sequence; each symbol of the longer sequence then advances the whole
column with a fixed number of big-int operations.

- `levenshtein`: Myers (1999) in Hyyrö's (2001) formulation. The column
  is stored as its +1/-1 vertical deltas (`pv`, `mv`).
- `lcs_length`: Allison & Dix (1986), in the form of Crochemore et al.
  (2001). A zero bit in `v` marks a row where the LCS grows by one.
"""

BACKEND = "python"


def _match_masks(seq) -> dict:
    """Bit i of table[s] is set where seq[i] == s."""
    table: dict = {}
    bit = 1
    for symbol in seq:
        table[symbol] = table.get(symbol, 0) | bit
        bit <<= 1
    return table


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance between two unicode strings."""
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    if m == 0:
        return len(a)
    peq = _match_masks(b)
    mask = (1 << m) - 1
    last = 1 << (m - 1)
    pv, mv, dist = mask, 0, m
    for ch in a:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        # row 0 of the DP grows by one per column, hence the shifted-in 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return dist


def lcs_length(seq_a, seq_b) -> int:
    """Length of the longest common subsequence of two token sequences."""
    if len(seq_a) < len(seq_b):
        seq_a, seq_b = seq_b, seq_a
    m = len(seq_b)
    if m == 0:
        return 0
    peq = _match_masks(seq_b)
    mask = (1 << m) - 1
    v = mask
    for token in seq_a:
        u = v & peq.get(token, 0)
        # carries out of bit m-1 only touch bits the final mask drops
        v = (v + u) | (v - u)
    return m - (v & mask).bit_count()
