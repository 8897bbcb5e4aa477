"""Exact `'%.17g' % v` text of float64 arrays, written by numpy.

write_g17 writes each value of an array into a 24-byte cell: the bytes of
`'%.17g' % v` in order, with NUL bytes among or after them, so deleting the
NULs (bytes.translate(None, b"\\0")) leaves exactly that text.  24 bytes hold
the longest such text, `-2.2250738585072014e-308`.

Digits.  A finite nonzero value has a decimal exponent X = floor(log10|x|)
in [-324, 308], and its 17 significant digits are R = round(|x| * 10**p)
with p = 16 - X.  X is exact: the binary exponent gives X or X + 1, and one
comparison with the smallest double >= 10**X settles which, so y lies in
[1e16, 1e17).  y = |x| * 10**p is one product in longdouble, whose
significand has at least 64 bits, by 10**p rounded to 64 bits.  For p in
[0, 27] (X in [-11, 16]) 10**p is exact, the product's one rounding is the
only error, and y is within y * 2**-64 < 1e17 * 2**-64 < 0.0055 of the exact
product; otherwise the two roundings leave it within 1e17 * 2**-63 < 0.011.
Rounding y to an integer therefore gives the correctly rounded R unless the
fraction of y lies within that error of 1/2; the path refuses every value
whose fraction lies within 1/128 (exact power) or 2/128 of 1/2, which covers
that and every exact tie (about 1 value in 64, or 1 in 32).  A value that
rounds up to R = 10**17 is refused too.  R is split into 4-digit chunks that
index a table of their ASCII digits, with the trailing zeros of the last
nonzero chunk and of every chunk after it held as NUL.  Zero is R = 0 and
prints `0` or `-0`, the sign from signbit.

Layouts.  X in [-4, 16] prints in fixed notation: an 8-byte lead table,
indexed by sign, leading digit and the place of the point, writes the sign,
the `0.` and zeros of |x| < 1, and the point after the leading digit; the
chunks fill bytes 8..23.  Values with X >= 1 (|x| >= 10) take a second,
per-digit layout that puts the point after digit X.  Other X print as
`d.ddde-XX`: sign, leading digit and point in bytes 0..2, the chunks the
fixed layout wrote in bytes 3..18, then `e`, the exponent's sign and its two
or three digits.  Both notations are laid out by numpy, so the cost of a
block does not depend on the magnitudes in it.

Fallback.  A value that is not finite, or that the digit path refuses, is
formatted by `'%.17g' % v`, one Python call per value.  So is every value
when EXTENDED is false: the module probes at import that a longdouble
product of two doubles is really rounded to 64 or more bits, with exact
integer arithmetic, because finfo alone does not show how products round.
"""

from __future__ import annotations

import numpy as np

CELL_BYTES = 24
# Decimal exponents of finite nonzero doubles (5e-324 to 1.8e308), those
# printed in fixed notation, and those whose 10**(16 - X) is exact in
# longdouble (5**27 < 2**64).
_LO_EXP, _HI_EXP = -324, 308
_FIXED_LO, _FIXED_HI = -4, 16
_EXACT_LO = -11


def _probe() -> bool:
    """Whether 0.1 * 1e20 in longdouble lies within 2**-64 of the exact
    product, as it must when products round to 64 or more bits."""
    y = np.multiply(0.1, 1e20, dtype=np.longdouble)
    yn, yd = y.as_integer_ratio()
    xn, xd = (0.1).as_integer_ratio()
    exact = xn * 10**20 * yd
    return abs(yn * xd - exact) << 64 <= exact


EXTENDED = _probe()


def _powers_of_ten() -> tuple[np.ndarray, np.ndarray]:
    """10**k for k = _LO_EXP..16 - _LO_EXP, indexed by k - _LO_EXP, in
    longdouble rounded to 64 bits (exact for k in [0, 27]), and whether that
    rounding went down.  10**k = 2**k * 5**k, 5**k an exact integer."""
    size = 17 - 2 * _LO_EXP
    N, s, below = [0] * size, [0] * size, [False] * size
    five = 1
    for k in range(17 - _LO_EXP):
        b = five.bit_length()
        i = k - _LO_EXP
        if b <= 64:
            N[i], s[i] = five << (64 - b), k - 64 + b
        else:
            shift = b - 64
            n = (five + (1 << (shift - 1))) >> shift
            below[i] = n << shift < five
            if n >> 64:
                n, shift = n >> 1, shift + 1
            N[i], s[i] = n, k + shift
        if 0 < k <= -_LO_EXP:
            # 10**-k = 2**(63 + b) / 5**k * 2**(-k - 63 - b), the quotient
            # in (2**63, 2**64].
            i = -k - _LO_EXP
            n = ((1 << (64 + b)) + five) // (2 * five)
            below[i] = n * five < 1 << (63 + b)
            e = -k - 63 - b
            if n >> 64:
                n, e = n >> 1, e + 1
            N[i], s[i] = n, e
        five *= 5
    T = np.ldexp(np.array(N, np.uint64).astype(np.longdouble), np.array(s))
    return T, np.array(below)


def _tables() -> tuple[np.ndarray, np.ndarray]:
    """Indexed by X - _LO_EXP: 128 * 10**(16 - X) rounded to 64 bits (exact
    for X >= _EXACT_LO), for X = _LO_EXP.._HI_EXP; and the smallest double
    >= 10**X, for X = _LO_EXP.._HI_EXP + 1 (inf for the last)."""
    T, below = _powers_of_ten()
    p128 = T[16 - np.arange(_LO_EXP, _HI_EXP + 1) - _LO_EXP] * 128
    T, below = T[:_HI_EXP + 2 - _LO_EXP], below[:_HI_EXP + 2 - _LO_EXP]
    # No double lies strictly between 10**X and T, the 64-bit value nearest
    # to it, so the smallest double >= T is the answer unless T is itself a
    # double below 10**X.
    with np.errstate(over="ignore"):
        d = T.astype(np.float64)
    up = (d < T) | ((d == T) & below)
    return p128, np.where(up, np.nextafter(d, np.inf), d)


_P128, _P10 = _tables()


def _digit_table() -> np.ndarray:
    """Four ASCII digits of each chunk 0..9999 as one uint32, then the same
    with trailing zeros as NUL (entry 10**4 + c)."""
    table = np.empty((2, 10, 10, 10, 10, 4), np.uint8)
    for k in range(4):
        table[..., k] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - k))
        # Digit k is a trailing zero where it and every later digit are 0.
        table[(1,) + (slice(None),) * k + (0,) * (4 - k) + (k,)] = 0
    return table.view(np.uint32).ravel()


def _lead_table() -> np.ndarray:
    """Bytes 0..7 of a fixed-notation cell as two uint32, at key c0 + 10*kind
    + 60*negative: kind 0 is `d.`, kinds 1..4 are `0.`, kind - 1 zeros and d
    (X = -kind), kind 5 is `d` alone."""
    lead = np.zeros((2, 6, 10, 8), np.uint8)
    lead[1, ..., 0] = ord("-")
    d0 = 48 + np.arange(10)
    lead[:, 0, :, 6], lead[:, 0, :, 7] = d0, ord(".")
    for kind in range(1, 5):
        head = np.frombuffer(b"0." + b"0" * (kind - 1), np.uint8)
        lead[:, kind, :, 7 - len(head):7] = head
        lead[:, kind, :, 7] = d0
    lead[:, 5, :, 7] = d0
    return lead.reshape(120, 8).view(np.uint32)


def _exp_tail_table() -> np.ndarray:
    """Bytes 19..23 of a cell in exponent notation for X = _LO_EXP..
    _HI_EXP: `e`, the exponent's sign, its hundreds digit (NUL when zero),
    tens and ones."""
    X = np.arange(_LO_EXP, _HI_EXP + 1)
    E = np.abs(X)
    tail = np.empty((len(X), 5), np.uint8)
    tail[:, 0] = ord("e")
    tail[:, 1] = np.where(X < 0, ord("-"), ord("+"))
    tail[:, 2] = (E >= 100) * (E // 100 + 48)
    tail[:, 3] = E // 10 % 10 + 48
    tail[:, 4] = E % 10 + 48
    return tail


_DIGITS = _digit_table()
_LEAD = _lead_table()
_EXP_TAIL = _exp_tail_table()


def _scaled(a: np.ndarray, X: np.ndarray) -> np.ndarray:
    """floor(128 * y) for y = a * 10**(16 - X), from one longdouble product."""
    y = a.astype(np.longdouble)
    y *= _P128[X - _LO_EXP]
    return y.astype(np.uint64)


def _wide_cells(R: np.ndarray, X: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """Cells of fixed-notation values with X >= 1: digits 0..X, the point if a
    nonzero digit follows, then the digits up to the last nonzero one."""
    k = np.arange(17)
    digits = R[:, None] // 10 ** (16 - k) % 10 + 48
    nsig = 17 - np.cumprod(digits[:, ::-1] == 48, axis=1).sum(axis=1)
    X = X[:, None]
    keep = k < np.maximum(nsig[:, None], X + 1)
    rows = np.arange(len(R))[:, None]
    cells = np.zeros((len(R), CELL_BYTES), np.uint8)
    cells[:, 0] = negative * ord("-")
    cells[rows, 1 + k + (k > X)] = np.where(keep, digits, 0)
    point = nsig > X[:, 0] + 1
    cells[point, 2 + X[point, 0]] = ord(".")
    return cells


def _exp_cells(lead: np.ndarray, digits: np.ndarray, X: np.ndarray,
               negative: np.ndarray) -> np.ndarray:
    """Cells of values printed as `d.ddde-XX`, from the leading digit and
    the 16 digit bytes the fixed layout wrote: sign, leading digit and point
    (if a nonzero digit follows) in bytes 0..2, the digits in bytes 3..18,
    then `e`, the exponent's sign and digits."""
    cells = np.empty((len(X), CELL_BYTES), np.uint8)
    cells[:, 0] = negative * ord("-")
    cells[:, 1] = lead + 48
    # The first digit byte is NUL exactly when every digit after the
    # leading one is zero.
    cells[:, 2] = (digits[:, 0] != 0) * ord(".")
    cells[:, 3:19] = digits
    cells[:, 19:] = _EXP_TAIL[X - _LO_EXP]
    return cells


def write_g17(x: np.ndarray, cells: np.ndarray) -> None:
    """Write `'%.17g' % v` of every float64 value of x into cells, an array
    of shape x.shape + (CELL_BYTES,) whose last axis is contiguous and whose
    cells start at multiples of 4 bytes.  Every byte of every cell is
    written; deleting the NULs of a cell leaves its text."""
    if not EXTENDED:
        cells[...] = _fallback(x.ravel()).reshape(cells.shape)
        return
    a = np.abs(x)
    zero = a == 0
    bad = ~np.isfinite(a)
    # Values that are not finite compute as 1, zeros as 1 until y; the
    # cells of the former are rewritten.
    a[bad] = 1
    a += zero
    # floor(e2 log10 2) is X or X + 1 for a in [2**(e2-1), 2**e2); the
    # smallest double >= 10**X settles which.
    X = (np.frexp(a)[1] * 78913) >> 18
    X -= a < _P10[X - _LO_EXP]
    a -= zero
    Z = _scaled(a, X)
    del a
    # Where 10**p is exact, y is within 0.0055 of the exact product, and its
    # rounding is exact unless the fraction lies in [1/2 - 1/128, 1/2 +
    # 1/128), Z % 128 in {63, 64}.
    refuse = (Z + 65) & 127 < 2
    refuse |= bad
    # Values in exponent notation, at flat indices `at`: outside X in
    # [-11, 16] 10**p is rounded, y is within 0.011 and the band is Z % 128
    # in {62, ..., 65}; a value that rounds up to R = 10**17 is refused.
    # No double in the fixed range does.
    expo = (X < _FIXED_LO) | (X > _FIXED_HI)
    at = np.flatnonzero(expo)
    Z += 64
    R = (Z >> 7).view(np.int64)
    if len(at):
        Xe = X.ravel()[at]
        band = (Z.ravel()[at] + 2) & 127
        far = (Xe < _EXACT_LO) | (Xe > _FIXED_HI)
        refuse.ravel()[at] |= (band < 4) & far | (R.ravel()[at] >= 10**17)
    del Z
    negative = np.signbit(x)
    wide = (X > 0) & ~(refuse | expo)
    wide_cells = _wide_cells(R[wide], X[wide], negative[wide]) if wide.any() else None

    # Bytes 0..7: sign, leading digit and point; R keeps the other digits.
    words = cells.view(np.uint32)
    lead = R // 10**16
    exp_lead = lead.ravel()[at]
    R -= lead * 10**16
    lead += 10 * np.where(X < 0, -X, (R == 0) * np.int8(5))
    lead += np.int8(60) * negative
    # Cells in exponent notation are rewritten, so their keys are clipped.
    words[..., :2] = _LEAD.take(lead, axis=0, mode="clip")
    del lead
    # Bytes 8..23: four chunks of four digits, split off R in place; a
    # chunk's trailing zeros are NUL when every later chunk is zero.
    chunk = R // 10**8
    R -= chunk * 10**8
    tail = R == 0
    high = chunk // 10**4
    chunk -= high * 10**4
    np.add(high, 10**4, out=high, where=tail & (chunk == 0))
    words[..., 2] = _DIGITS[high]
    del high
    np.add(chunk, 10**4, out=chunk, where=tail)
    words[..., 3] = _DIGITS[chunk]
    np.floor_divide(R, 10**4, out=chunk)
    R -= chunk * 10**4
    np.add(chunk, 10**4, out=chunk, where=R == 0)
    words[..., 4] = _DIGITS[chunk]
    R += 10**4
    words[..., 5] = _DIGITS[R]
    del R, chunk

    if wide_cells is not None:
        cells[wide] = wide_cells
    if len(at):
        where = np.unravel_index(at, expo.shape)
        cells[where] = _exp_cells(exp_lead, cells[where][:, 8:], Xe, negative.ravel()[at])
    if refuse.any():
        cells[refuse] = _fallback(x[refuse])


def _fallback(values: np.ndarray) -> np.ndarray:
    text = ["%.17g" % v for v in values.tolist()]
    return np.array(text, dtype=f"S{CELL_BYTES}").view(np.uint8).reshape(-1, CELL_BYTES)
