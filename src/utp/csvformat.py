"""CSV rows whose fields are byte for byte ``"%.12g" % x``, written by numpy.

``format_rows`` takes each value's 12-digit mantissa from one scaled product,
``rint(|x| 10^(11 - e))``, and its characters from lookup tables.  Python's own
``%`` writes, in one batch, every value that product cannot decide exactly:
values near a rounding tie, zeros, non-finite values and magnitudes outside
``RANGE``.

Each value becomes a fixed-width row of bytes, and the NULs are deleted at the
end.  The columns are

    sign | "0.000" | d0 . d1 . ... d10 . d11 _ | "e+XX" | separator

Which of them show depends only on the sign, the decimal exponent and the
position of the last nonzero digit.  So one template row per such triple holds
the fixed characters, with 0xFF over each digit that shows.  The 24 bytes from
d0 are three 64-bit words: three 4-digit groups, each read from a 10^4-entry
table and ANDed with the template's word.
"""

from __future__ import annotations

import functools

import numpy as np

WIDTH = 35
_ROW = np.dtype({"names": ["digits"], "formats": ["V24"], "offsets": [6], "itemsize": WIDTH})
EXPONENTS = (-33, 33)  # decimal exponents the kernel writes; Python's % writes the rest
RANGE = (1e-32, 1e32)  # magnitudes the kernel scales; their exponents stay in EXPONENTS
# The scaled product m errs by < 2.3e-4 in units of the last digit: at most two roundings by
# 2^-53 (the product's, and an inexact power of ten's) on m < 1e12.  Beyond this margin from
# a .5 tie, rint(m) is the correctly rounded 12-digit mantissa.
TIE_MARGIN = 1e-3
# Rows per kernel pass.  A pass's ~1 MB of temporaries stays in malloc's heap for the next;
# the ~4 MB of a 4096-row pass were unmapped and faulted back in every time (+0.3 s at 10^6
# rows of five fields).
PASS_ROWS = 1024


@functools.cache
def _tables():
    """(templates, digit masks, digit pairs, trailing zeros, scale heads, scale tails).

    Built on first use, not at import, and read-only.  ``templates`` has one row per
    (sign, exponent, last digit), and ``digit masks`` its 24 digit bytes as three words.
    ``digit pairs`` holds each 4-digit group 0000..9999 as (digit, 0xFF) byte pairs in
    one word.  Scale entry j multiplies by 10^(11 - e), e = j + EXPONENTS[0], through two
    factors: exact powers of ten up to 10^44, and 10^(11 - e) rounded once below 1.
    """
    lo, hi = EXPONENTS
    x = np.arange(lo, hi + 1)[:, None, None]  # axes: exponent, last nonzero digit, column
    last = np.arange(12)[:, None]
    digit = np.arange(12)
    fixed = (-4 <= x) & (x < 12)  # %g's choice between 0.00ddd / ddd.ddd and d.ddde+XX
    leading = fixed & (x < 0)
    point = np.where(fixed, x, 0)  # the digit the point follows
    shown = np.where(fixed & (x > 0), np.maximum(x, last), last)  # digits 0..shown show
    rows = np.zeros((x.size, 12, WIDTH), np.uint8)
    zeros = np.frombuffer(b"0.000", np.uint8)
    rows[..., 1:6] = np.where(leading & (np.arange(5) < 1 - x), zeros, 0)
    rows[..., 6:30:2] = np.where(digit <= shown, 0xFF, 0)
    rows[..., 7:30:2] = np.where((digit == point) & (last > point) & ~leading, ord("."), 0)
    exponents = np.frombuffer(b"".join(b"e%+03d" % e for e in range(lo, hi + 1)), np.uint8)
    rows[..., 30:34] = np.where(fixed, 0, exponents.reshape(-1, 1, 4))
    rows[..., -1] = ord(",")
    positive = rows.reshape(-1, WIDTH)
    negative = positive.copy()
    negative[:, 0] = ord("-")
    templates = np.concatenate([positive, negative])
    masks = templates[:, 6:30].copy().view(np.uint64)
    groups = np.indices((10,) * 4, np.uint8).reshape(4, -1).T  # the digits of 0000..9999
    pairs = np.full((10**4, 8), 0xFF, np.uint8)
    pairs[:, ::2] = groups + ord("0")
    z = groups == 0  # the trailing zeros of d0 d1 d2 d3 are z3 (1 + z2 (1 + z1 (1 + z0)))
    trailing_zeros = z[:, 3] * (1 + z[:, 2] * (1 + z[:, 1] * (1 + z[:, 0].astype(np.uint8))))
    k = 11 - np.arange(lo, hi + 1)
    head = np.clip(k, -22, 22)
    scales = 10.0**head, 10.0**(k - head)
    tables = templates, masks, pairs.view(np.uint64).ravel(), trailing_zeros, *scales
    for table in tables:  # shared by every caller
        table.flags.writeable = False
    return tables


def _format_pass(cells: np.ndarray) -> str:
    """``format_rows`` of at most PASS_ROWS rows."""
    templates, masks, digit_pairs, trailing_zeros, head, tail = _tables()
    n, k = cells.shape
    x = cells.ravel()
    a = np.abs(x)
    fast = (a >= RANGE[0]) & (a < RANGE[1])  # NaN fails both
    a[~fast] = 1.0  # a stand-in: Python's % writes these
    j = np.floor(np.log10(a)).astype(np.intp) - EXPONENTS[0]  # the exponent, as an index
    m = a * head[j] * tail[j]
    mantissa = np.rint(m)
    # where log10 rounded across a power of ten, m misses [1e11, 1e12): Python's % writes it
    fast &= (np.abs(m - mantissa) < 0.5 - TIE_MARGIN) & (m >= 1e11) & (m < 1e12)
    carry = mantissa == 1e12  # 9.99999999999|6 rounds to 10.0000000000
    mantissa[carry] = 1e11
    j += carry
    hi, rest = np.divmod(mantissa.astype(np.int64), 10**8)
    mid, lo = np.divmod(rest, 10**4)
    tz = trailing_zeros
    last = 11 - tz.take(lo) - (lo == 0) * (tz.take(mid) + (mid == 0) * tz.take(hi))
    row = j * 12 + last + np.signbit(x) * (templates.shape[0] // 2)
    out = templates.take(row, axis=0)
    digits = digit_pairs.take(np.stack([hi, mid, lo], axis=1))
    digits &= masks.take(row, axis=0)
    out.view(_ROW)["digits"] = digits.view("V24")
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = ("%.12g\0" * slow.size % tuple(x[slow].tolist())).encode().split(b"\0")[:-1]
        out[slow, :-1] = np.array(text, f"S{WIDTH - 1}").view(np.uint8).reshape(slow.size, -1)
    out.reshape(n, k, WIDTH)[:, -1, -1] = ord("\n")
    return out.tobytes().translate(None, b"\0").decode("ascii")


def format_rows(cells: np.ndarray) -> str:
    """``"%.12g" % x`` of every value of the (n, k) float array, as n CSV rows of k fields.

    Fields are joined by "," and every row ends in "\\n".
    """
    passes = range(0, len(cells), PASS_ROWS)
    return "".join(_format_pass(cells[i:i + PASS_ROWS]) for i in passes)
