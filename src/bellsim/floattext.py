"""``float.__repr__`` text of a float64 array at numpy speed.

``reprs(x)`` equals ``[float.__repr__(v) for v in x.tolist()]``.  The text of
a positive x is the shortest decimal that reads back as x, the one nearest x
among those (Gay, "Correctly rounded binary-decimal and decimal-binary
conversions", AT&T 1990), laid out positionally for 1e-4 <= x < 1e16 and as
``d.ddde±XX`` otherwise.

Following Loitsch's Grisu3 (PLDI 2010), a fast path in extended precision
settles each element it can prove and hands the rest to ``float.__repr__``:

- y = x * 10**(16 - k), with k = floor(log10 x), is a double-double (Dekker's
  exact product with an exact hi + lo table of powers of ten), so that y lies
  in [1e16, 1e17) and its integer part holds x's first 17 digits;
- every decimal within U = ulp(x) / 2 * 10**(16 - k) of y reads back as x;
  the text has 17 - r digits for the largest r that puts a multiple of 10**r
  there, and its digits are the multiple of 10**r nearest y.

An element falls back when a decision lies within 1e-9 of an interval end
or a rounding tie (where ``repr`` reads the last bit of x), when x is a power
of two (its interval is lopsided), and when x is outside [1e-270, 1e270),
which holds 0, negatives, subnormals and non-finite values.  Every quantity
a decision reads is off by less than 1e-11, so every text the fast path
writes is exact.
"""

import numpy as np

_KMAX = 270  # decimal exponents -_KMAX.._KMAX - 1 take the fast path
_EPS = 1e-9  # decisions closer than this to an interval end or a tie fall back
_SPLIT = 2.0**27 + 1  # Veltkamp's splitter: halves of 26 bits multiply exactly
_R = 4  # powers 10**r, r < _R, tested at once in floats; longer runs loop
_WIDTH = 23  # "d.dddddddddddddddde-XXX" and the exponent's trailing NUL


def _powers() -> tuple:
    """10**p for p = 16 - k, k = _KMAX..-_KMAX: its nearest double hi (with
    hi's two halves) and the rounded rest lo, from exact integer ratios."""
    hi, lo = [], []
    for p in range(16 - _KMAX, 17 + _KMAX):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        h = num / den  # int / int rounds correctly
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi)
    c = _SPLIT * hi
    hh = c - (c - hi)
    return hi, hh, hi - hh, np.array(lo)


def _groups() -> np.ndarray:
    """Each 3-digit group as 12 bytes of code points; from 1000 on, without
    its trailing zeros (NUL in their place)."""
    v = np.arange(1000)[:, None]
    places = np.array([100, 10, 1])
    digits = (v // places % 10 + ord("0")).astype(np.uint32)
    stripped = np.where(v % (10 * places) == 0, 0, digits).astype(np.uint32)
    return np.concatenate([digits, stripped]).view("V12").ravel()  # take copies V12 fast


_TABLE = _powers()
_GROUPS = _groups()
#: "e±XX" of each k, indexed by k + _KMAX, as 5 code points with NUL padding
_EXPONENTS = np.array([f"e{k:+03d}" for k in range(-_KMAX, _KMAX)],
                      "U5").view(np.uint32).reshape(-1, 5)
#: per digit count n, 1000 (the stripped texts) for each group from the one
#: that holds digit n of the 18 on
_STRIPPED = (np.arange(6) >= np.arange(18)[:, None] // 3) * 1000
_STEPS = np.array([[10.0**r] for r in range(_R)])  # no numpy power kernel to page in
_MANTISSA = np.uint64(2**52 - 1)
_EXPONENT = np.uint64(0x7FF << 52)
_SCIENTIFIC = 20  # the layout key of d.ddde±XX; positional k = -4..15 are k + 4


def reprs(x: np.ndarray) -> list[str]:
    """The ``float.__repr__`` text of each element of a 1-D float64 array."""
    x = np.ascontiguousarray(x, np.float64)
    texts, fast = _fast_texts(x)
    slow = np.flatnonzero(~fast)
    for i, v in zip(slow.tolist(), x[slow].tolist()):
        texts[i] = float.__repr__(v)
    return texts


def _fast_texts(x: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The fast path's text of each element, and whether it holds: where it
    does not, the text is junk."""
    fast = (x >= 10.0**-_KMAX) & (x < 10.0**_KMAX) & (x.view(np.uint64) & _MANTISSA != 0)
    k, yi, yf, u = _scaled(np.where(fast, x, 1.5))
    fast &= (yi >= 10**16) & (yi < 10**17)  # else log10 missed k
    d, r = _shortest(yi, yf, u, fast)
    return _layout(k, d, 17 - r), fast


def _scaled(x: np.ndarray) -> tuple:
    """k, then y = x * 10**(16 - k) as its integer part and fraction, and
    the round-trip radius U on y's scale."""
    k = np.floor(np.log10(x)).astype(np.int64)
    hi, hh, hl, lo = (t.take(_KMAX - k, mode="clip") for t in _TABLE)
    # y = p + e: Dekker's two-product of x and hi, plus x * lo
    c = _SPLIT * x
    xh = c - (c - x)
    xl = x - xh
    p = x * hi
    e = ((xh * hh - p) + xh * hl + xl * hh) + xl * hl + x * lo
    f = np.floor(e)
    yi = p.astype(np.int64) + f.astype(np.int64)  # p >= 2**53 is an integer
    u = (x.view(np.uint64) & _EXPONENT).view(np.float64) * 2.0**-53 * hi
    return k, yi, e - f, u


def _shortest(yi: np.ndarray, yf: np.ndarray, u: np.ndarray, fast: np.ndarray) -> tuple:
    """The digits d, a multiple of 10**r, and r for each y; clears ``fast``
    where a decision is within _EPS of an interval end or a tie."""
    # the multiple of 10**r nearest y for each r < _R, from y's last _R
    # digits and fraction, which a float holds to ~1e-12
    low = yi - yi // 10**_R * 10**_R
    t = low + yf
    near = np.rint(t * (1.0 / _STEPS)) * _STEPS
    dist = np.abs(t - near)
    fast &= ~(np.abs(dist - u) <= _EPS).any(0)
    r = (dist < u - _EPS).sum(0, dtype=np.int8) - 1  # r = 0 always fits: U > 0.55
    cols = np.arange(len(yi))
    tie = np.abs(dist[r, cols] - 0.5 * _STEPS[r, 0]) <= _EPS
    d = yi - low + near[r, cols].astype(np.int64)
    more = np.flatnonzero(fast & (r == _R - 1))
    for s in range(_R, 18):  # texts of at most 17 - _R digits
        if not len(more):
            break
        q, rem = np.divmod(yi[more], 10**s)
        down = rem + yf[more]
        up = (10**s - rem) - yf[more]
        dist = np.minimum(down, up)
        fast[more[np.abs(dist - u[more]) <= _EPS]] = False
        fits = dist < u[more] - _EPS
        more, q, down, up = more[fits], q[fits], down[fits], up[fits]
        d[more] = (q + (up < down)) * 10**s  # no tie: it would lie 10**s / 2 > U away
        r[more] = s
    fast &= ~tie & (d < 10**17)
    return d, r


def _layout(k: np.ndarray, d: np.ndarray, n: np.ndarray) -> list[str]:
    """The text of each n-digit d with decimal exponent k, in repr's layout."""
    m = len(d)
    # 18 digits with a leading 0, in six groups of three; from the group that
    # holds the last significant digit on, groups drop their trailing zeros
    g = _STRIPPED.take(n, axis=0)
    a = d // 10**9
    b = d - a * 10**9
    for part, col in ((a, 0), (b, 3)):
        q = part // 10**6
        g[:, col] += q
        part -= q * 10**6
        q = part // 1000
        g[:, col + 1] += q
        g[:, col + 2] += part - q * 1000
    digits = _GROUPS.take(g, mode="clip").view(np.uint32).reshape(m, 18)[:, 1:]
    del g
    text = np.zeros((m, _WIDTH), np.uint32)
    layout = np.where((k < -4) | (k > 15), _SCIENTIFIC, k + 4)
    counts = np.bincount(layout, minlength=_SCIENTIFIC + 1)
    for key in np.flatnonzero(counts).tolist():
        rows = np.flatnonzero(layout == key) if counts[key] < m else np.arange(m)
        if rows[-1] - rows[0] == len(rows) - 1:  # a run of rows: write in place
            rows = slice(rows[0], rows[-1] + 1)
        out = text[rows]
        _place(out, digits[rows], key, k[rows], n[rows])
        if not isinstance(rows, slice):
            text[rows] = out
    del digits
    return text.view(f"U{_WIDTH}").ravel().tolist()


def _place(out: np.ndarray, digits: np.ndarray, key: int, k: np.ndarray, n: np.ndarray) -> None:
    """Write the rows of one layout key as code points into ``out``."""
    if key == _SCIENTIFIC:  # d.ddd, then e±XX after the last digit
        out[:, 0], out[:, 1], out[:, 2:18] = digits[:, 0], ord("."), digits[:, 1:]
        np.put_along_axis(out, (n + (n > 1))[:, None] + np.arange(5),
                          _EXPONENTS.take(k + _KMAX, axis=0, mode="clip"), 1)
    elif key < 4:  # 0.000ddd
        z = 5 - key
        out[:, :z] = np.array([ord(ch) for ch in "0.000"[:z]], np.uint32)
        out[:, z:z + 17] = digits
    else:  # ddd.ddd, a zero where a part has no digit
        point = key - 3
        out[:, :point] = np.maximum(digits[:, :point], ord("0"))
        out[:, point], out[:, point + 1:18] = ord("."), digits[:, point:]
        out[:, point + 1] = np.maximum(out[:, point + 1], ord("0"))
