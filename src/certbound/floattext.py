"""Python's float repr of a whole float64 array at once.

`join_reprs(x)` is `", ".join(map(repr, x.tolist()))`, the text that
`json.dumps(x.tolist())` writes between its brackets, computed in numpy,
one chunk of 2^12 entries at a time:

1. Digits.  Ryu (Adams, "Ryu: fast float-to-string conversion", PLDI
   2018), branch e2 < 0, gives the shortest round-trip digits and decimal
   exponent of each positive normal entry below 2^50.  The scaled value and
   its two interval bounds come from one 192-bit product with a 125-bit
   power of five, built from 32-bit halves; the vr/vp/vm digit removal
   keeps Ryu's trailing-zero and round-half-even rules.  Below 2^50 Ryu's q
   is at least 2, so neither bound is ever exact and the bound flags of the
   general algorithm stay false.
2. Layout.  The 17 digits fill fixed-width, NUL-padded uint8 rows through a
   4-digit table.  Byte masks per template (digit count and point position)
   keep each digit before or after the '.', and static text per decimal
   exponent adds '0.000', 'e-05' and the ', ' after each entry.
3. Compress.  One boolean compress per chunk drops the NULs.

Every other entry (-0.0, subnormals, negatives, values >= 2^50, inf, nan)
takes `repr(float(v))` and is spliced in at its place; +0.0 is laid out as
the integer 0.  The uint64 arithmetic wraps on purpose; it is done on
arrays only, which wrap silently.  The layout reads byte k of a row as bits
8k..8k+7 of its uint64 word, so it assumes a little-endian host.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 1 << 12  # ~1.5 MiB of temporaries a chunk; 2^13 ran as fast but left the CLI's peak RSS up to 5% higher
_M32 = np.uint64(0xFFFFFFFF)
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_FAST = (np.uint64(1 << 52), np.uint64(1073 << 52))  # the bits of positive normal doubles below 2^50
_WIDTH = 30  # text bytes: 2..6 '0.000', 7..24 digits and '.', 25..29 'e-308'; ', ' follows, so a row is 4 words
_NO_POINT = 99  # a '.' position that no row reaches
_SCI = 17  # the point class of scientific notation; fixed notation has -3 <= point <= 16
_POINT0 = 330  # the static text of decimal point position p is row p + _POINT0


def _scale_table():
    """Per biased exponent e <= 1072, as rows: 5^i in 125 bits and twice it (low and high 64 bits each),
    Ryu's shift j - 64 and the mask of q low bits; and the decimal exponent of vr."""
    e2 = np.maximum(np.arange(1073), 1) - 1077  # row 0 is never read
    q = ((-e2 * 732923) >> 20) - 1  # floor(log10(5^-e2)) - 1
    i = -e2 - q
    j = q - (((i * 1217359) >> 19) + 1 - 125)  # q - (bit length of 5^i - 125)
    split, power = [], 1
    for _ in range(326):
        size = power.bit_length()
        split.append((power >> size - 125 if size > 125 else power << 125 - size).to_bytes(16, "little"))
        power *= 5
    lo, hi = np.frombuffer(b"".join(split), "<u8").reshape(326, 2).astype(np.uint64)[i].T
    low_bits = (np.uint64(1) << np.minimum(q, 63).astype(np.uint64)) - np.uint64(1)
    twice = (lo << np.uint64(1), hi << np.uint64(1) | lo >> np.uint64(63))
    return np.vstack([lo, hi, *twice, (j - 64).astype(np.uint64), low_bits]), q + e2


def _row_tables():
    """Byte masks per template (digit count, point class) and static text per point, as uint64 rows."""
    b = np.arange(_WIDTH + 2)
    count = np.arange(17 * 21) // 21 + 1
    point = np.arange(17 * 21) % 21 - 3
    sci = point == _SCI
    pos = np.where(sci, np.where(count > 1, 1, _NO_POINT), np.where(point > 0, point, _NO_POINT))[:, None]
    length = np.where(~sci & (point >= count), point + 1, count)[:, None]  # integers keep their zeros and '.0'
    before = (b >= 7) & (b - 7 < np.minimum(pos, length))
    after = (b >= 8) & (b - 8 >= pos) & (b - 8 < length)
    dot = (b == 7 + pos) * ord(".")
    point = np.arange(_POINT0 + 20)[:, None] - _POINT0
    start = 5 + point  # '0.' and then -point zeros, for -3 <= point <= 0
    small = (point >= -3) & (point <= 0) & (b >= start) & (b <= 6)
    power = np.abs(point - 1)
    wide = power >= 100  # bytes 27.. hold the exponent's digits: three from 100 on, else two
    exp_digit = power // np.select([b == 27, b == 28], [np.where(wide, 100, 10), np.where(wide, 10, 1)], 1) % 10
    suffix = np.select(
        [b == 25, b == 26, (b == 27) | (b == 28) | (b == 29) & wide],
        [ord("e"), np.where(point > 0, ord("+"), ord("-")), exp_digit + ord("0")],
        0,
    )
    fixed = np.where(small, np.where(b == start + 1, ord("."), ord("0")), 0)
    static = np.where((point <= -4) | (point > 16), suffix, fixed)
    static[:, _WIDTH:] = np.frombuffer(b", ", np.uint8)
    return [a.astype(np.uint8).view(np.uint64) for a in (before * 0xFF, after * 0xFF, dot, static)]


_SCALE, _E10 = _scale_table()
_ROW_TABLES = _row_tables()
# the four ASCII digits of 0..9999 as one native uint32 each, so a row of groups views as text; 10000: four NULs
_PAIRS = (np.arange(100)[:, None] // np.array([10, 1]) % 10 + ord("0")).astype(np.uint8)
_GROUPS = np.zeros((10001, 4), np.uint8)
_GROUPS[:10000] = np.concatenate(np.broadcast_arrays(_PAIRS[:, None], _PAIRS[None, :]), axis=2).reshape(10000, 4)
_GROUPS = _GROUPS.view(np.uint32)[:, 0]


def _mul128(m0, m1, x0, x1):
    """(high, low) 64-bit halves of (m1:m0) * (x1:x0), each factor given as 32-bit halves."""
    t = m0 * x0
    u = m1 * x0 + (t >> np.uint64(32))
    v = m0 * x1 + (u & _M32)
    return m1 * x1 + (u >> np.uint64(32)) + (v >> np.uint64(32)), (v << np.uint64(32)) | (t & _M32)


def _top(high, mid, shift):
    """The low 64 bits of (high:mid) >> shift, for 0 < shift < 64."""
    return (mid >> shift) | (high << (np.uint64(64) - shift))


def _shortest(bits):
    """Shortest digits and decimal exponent (value = digits * 10^exp) of positive normal doubles below 2^50."""
    e = (bits >> np.uint64(52)).astype(np.intp)
    mantissa = bits & np.uint64((1 << 52) - 1)
    mv = (mantissa | np.uint64(1 << 52)) << np.uint64(2)
    lo, hi, twice_lo, twice_hi, shift, low_bits = _SCALE.take(e, axis=1)
    m0, m1 = mv & _M32, mv >> np.uint64(32)
    a1, a0 = _mul128(m0, m1, lo & _M32, lo >> np.uint64(32))
    p2, p1 = _mul128(m0, m1, hi & _M32, hi >> np.uint64(32))
    p1 += a1
    p2 += p1 < a1  # (p2, p1, a0) = mv * 5^i
    vr = _top(p2, p1, shift)
    # vp: (mv + 2) * 5^i
    low_carry = a0 + twice_lo < twice_lo
    mid = p1 + twice_hi
    vp = _top(p2 + ((mid < twice_hi) | ((mid == np.uint64(2**64 - 1)) & low_carry)), mid + low_carry, shift)
    # vm: (mv - 2) * 5^i, or (mv - 1) * 5^i where the bound below a power of two is nearer
    nearer = (mantissa == 0) & (e > 1)
    sub_lo, sub_hi = np.where(nearer, lo, twice_lo), np.where(nearer, hi, twice_hi)
    low_borrow = a0 < sub_lo
    mid = p1 - sub_hi
    vm = _top(p2 - ((p1 < sub_hi) | ((mid == 0) & low_borrow)), mid - low_borrow, shift)
    # removed = the largest r with vp // 10^r > vm // 10^r
    removed = np.zeros(bits.size, np.intp)
    up, down = vp, vm
    while True:
        up, down = up // np.uint64(10), down // np.uint64(10)
        more = up > down
        if not more.any():
            break
        removed += more
    scale, unit = _POW10[removed], _POW10[np.maximum(removed - 1, 0)]
    digits = vr // scale
    below = vr - digits * scale  # the removed digits of vr
    last = below // unit
    # vr is exact and its removed digits are 5 then zeros: a tie, which rounds to even
    tie = ((mv & low_bits) == 0) & (below == last * unit) & ((digits & np.uint64(1)) == 0)
    digits += (digits == vm // scale) | (last > 5) | ((last == 5) & ~tie)
    return digits, _E10[e] + removed


def _layout(digits, exp):
    """NUL-padded text rows of the values digits * 10^exp in repr's layout, each followed by ', '."""
    before, after, dot, static = _ROW_TABLES
    count = np.searchsorted(_POW10[1:18], digits, side="right") + 1
    point = count + exp  # the value is 0.d1d2... * 10^point
    template = (count - 1) * 21 + np.where((point <= -4) | (point > 16), _SCI, point) + 3
    v17 = digits * _POW10[17 - count]  # 17 digits, the first nonzero unless the value is 0
    a = v17 // np.uint64(10000)
    b = a // np.uint64(10000)
    c = b // np.uint64(10000)
    d = c // np.uint64(10000)
    groups = np.full((digits.size, 2 * before.shape[1]), 10000, np.intp)  # 4-digit groups; 10000 is four NULs
    groups[:, 1], groups[:, 2], groups[:, 3] = d, c - d * np.uint64(10000), b - c * np.uint64(10000)
    groups[:, 4], groups[:, 5] = a - b * np.uint64(10000), v17 - a * np.uint64(10000)
    text = _GROUPS.take(groups).view(np.uint64)  # the 17 digits at bytes 7..23
    later = text << np.uint64(8)  # the text one byte on: each word takes the top byte of the word before
    later.reshape(-1)[1:] |= text.reshape(-1)[:-1] >> np.uint64(56)
    rows = text & before.take(template, axis=0)
    rows |= later & after.take(template, axis=0)
    rows |= dot.take(template, axis=0)
    rows |= static.take(point + _POINT0, axis=0)
    return rows.view(np.uint8)


def join_reprs(x: np.ndarray) -> str:
    """", ".join(map(repr, x.tolist())) for a 1-D float64 array x: json.dumps's text between its brackets."""
    pieces = [_chunk_text(x[i : i + _CHUNK]) for i in range(0, x.size, _CHUNK)]
    if pieces:  # every row ends in ', '; the text does not
        pieces[-1] = pieces[-1][:-2]
    return "".join(pieces)


def _chunk_text(x):
    """The reprs of one chunk, each followed by ', '."""
    chunk = np.ascontiguousarray(x, dtype=np.float64)
    bits = chunk.view(np.uint64)
    fast = (bits >= _FAST[0]) & (bits < _FAST[1])
    digits, exp = _shortest(np.where(fast, bits, _FAST[0]))
    zero = bits == 0
    digits[zero], exp[zero] = 0, 0
    rows = _layout(digits, exp)
    other = np.flatnonzero(~(fast | zero))
    rows[other, :_WIDTH] = 0  # these rows keep only ', '; repr's text goes in front of it
    text = rows[rows != 0].tobytes().decode("ascii")
    if not other.size:
        return text
    pieces, done = [], 0
    at = np.cumsum(np.count_nonzero(rows, axis=1))[other] - 2
    for k, cut in zip(other.tolist(), at.tolist()):
        pieces += [text[done:cut], repr(float(chunk[k]))]
        done = cut
    return "".join([*pieces, text[done:]])
