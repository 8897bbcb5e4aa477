"""numtext.write_g17 against Python's `'%.17g' % v`, value by value.

The property test draws raw float64 bit patterns and Hypothesis floats
(zeros, subnormals, infinities and NaNs among them); it runs at the default
example budget in the tier-1 suite and at 5,000 examples under the `wide`
profile (tests/conftest.py) in its own CI step.  The fixed lists hold the
edges of the digit path and its layouts.  Every check also runs with the longdouble probe
forced off, where every value takes the fallback.
"""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emconf import numtext
from emconf.numtext import CELL_BYTES, write_g17


@pytest.fixture(params=["probe", "fallback"])
def extended(request, monkeypatch):
    if request.param == "fallback":
        monkeypatch.setattr(numtext, "EXTENDED", False)
    return numtext.EXTENDED


def texts(x) -> list[str]:
    """write_g17's text of each value; the cells start as 0xFF, so a byte
    the writer leaves alone shows."""
    x = np.asarray(x, dtype=np.float64)
    cells = np.full(x.shape + (CELL_BYTES,), 0xFF, np.uint8)
    write_g17(x, cells)
    return [bytes(c).replace(b"\0", b"").decode("ascii") for c in cells.reshape(-1, CELL_BYTES)]


def assert_matches_percent(x):
    x = np.asarray(x, dtype=np.float64)
    want = ["%.17g" % v for v in x.ravel().tolist()]
    got = texts(x)
    bad = [(v, g, w) for v, g, w in zip(x.ravel().tolist(), got, want) if g != w]
    assert not bad, bad[:10]


def _decimal_powers(lo: int, hi: int) -> np.ndarray:
    return np.array([float(f"1e{k}") for k in range(lo, hi + 1)])


def _neighbours(x: np.ndarray) -> np.ndarray:
    x = np.concatenate([x, -x])
    return np.concatenate([x, np.nextafter(x, 0), np.nextafter(x, np.copysign(np.inf, x))])


def _band_values(rng, count: int, lo: float = -4, hi: float = 17, width: int = 1) -> np.ndarray:
    """Random doubles between 10**lo and 10**hi whose exact scaled value
    |x| * 10**(16 - X) has a fraction within width/128 of 1/2."""
    x = 10 ** rng.uniform(lo, hi, 200_000) * rng.choice([-1.0, 1.0], 200_000)
    keep = []
    for v in x.tolist():
        exponent = Decimal(v).adjusted()
        frac = (abs(Decimal(v)).scaleb(16 - exponent)) % 1
        if abs(frac - Decimal("0.5")) < Decimal(width) / 128:
            keep.append(v)
            if len(keep) == count:
                break
    return np.array(keep)


def test_edges_match_percent(extended):
    rng = np.random.default_rng(20)
    edges = np.concatenate([
        # powers of ten and their neighbours, inside and outside fixed notation
        _neighbours(_decimal_powers(-12, 18)),
        # both ends of fixed notation, a few steps in and out
        _neighbours(np.array([1e-4, 1e17, 9.9999999999999e16, 1.0000000000001e-4])),
        # 17 nines below a power of ten, which rounds up to it or not
        _neighbours(np.array([float(f"9.99999999999999999e{k}") for k in range(-12, 19)])),
        # exact ties of the 17th digit: n + 1/4 for n in [2**50, 2**51)
        2.0**50 + rng.integers(0, 2**50, 50) + rng.choice([0.25, 0.75], 50),
        _band_values(rng, 300),
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
         1.7976931348623157e308, np.inf, -np.inf, np.nan, 1.0, -1.0, 10.0, 1e5, 12.5],
        # integers, dyadic fractions and short decimals with inner zeros,
        # whose trailing zeros are stripped chunk by chunk
        np.arange(-2000, 2000) / 64,
        [float(f"{m}e{k}") for m, k in zip(
            rng.integers(1, 10, 400) * 10**rng.integers(4, 8, 400) + rng.integers(0, 10**4, 400),
            rng.integers(-12, 10, 400),
        )],
        np.arange(0, 10**6, 997) * 1.0,
        1 + np.arange(-500, 500) * np.finfo(float).eps,
    ])
    assert_matches_percent(edges)


def test_exponent_notation_matches_percent(extended):
    """Values printed as d.ddde-XX, over every decimal exponent."""
    rng = np.random.default_rng(22)
    values = np.concatenate([
        # every power of ten a double reaches, and its neighbours
        _neighbours(_decimal_powers(-323, 308)),
        _neighbours(np.array([float(f"9.99999999999999999e{k}") for k in range(-323, 308)])),
        # both ends of the exact powers, one-digit and three-digit exponents
        _neighbours(np.array([1e-11, 1e-12, 1e-5, 1e-99, 1e-100, 1e99, 1e100, 1e17, 1e22])),
        # roundoff residues like the ones a sweep prints
        rng.standard_normal(500) * 10 ** rng.uniform(-21, -4, 500),
        10 ** rng.uniform(-323, 308, 2000) * rng.choice([-1.0, 1.0], 2000),
        # mantissas with inner and trailing zeros
        [float(f"{m}e{k}") for m, k in zip(
            rng.integers(1, 10, 400) * 10**rng.integers(4, 8, 400) + rng.integers(0, 10**4, 400),
            rng.integers(-300, 300, 400),
        )],
        # the exact and the wider refusal band just outside fixed notation
        _band_values(rng, 100, -11, -4),
        _band_values(rng, 100, -25, -12, width=2),
        _band_values(rng, 100, 17, 40, width=2),
        # subnormals
        np.arange(1, 200) * 5e-324,
        np.array([2.2250738585072014e-308]) * rng.uniform(0, 1, 200),
    ])
    assert_matches_percent(values)


def test_decimal_exponent_guess_is_exact_or_one_high():
    """(e2 * 78913) >> 18 is X or X + 1 for every double in [2**(e2-1), 2**e2)."""

    def floor_log10(num: int, den: int) -> int:
        k = len(str(num // den)) - 1 if num >= den else -len(str(den // num))
        while num * 10 ** max(-k, 0) < den * 10 ** max(k, 0):
            k -= 1
        while num * 10 ** max(-k - 1, 0) >= den * 10 ** max(k + 1, 0):
            k += 1
        return k

    def ratio(e: int) -> tuple[int, int]:
        return (2**e, 1) if e >= 0 else (1, 2**-e)

    for e2 in range(-1073, 1025):
        guess = (e2 * 78913) >> 18
        lowest = floor_log10(*ratio(e2 - 1))
        # The largest X below 2**e2; 2**e2 is a power of ten only for e2 = 0.
        highest = floor_log10(*ratio(e2)) - (e2 == 0)
        assert guess - 1 <= lowest and highest <= guess, e2


def test_power_tables():
    from fractions import Fraction

    for X in range(numtext._LO_EXP, numtext._HI_EXP + 1):
        exact = Fraction(128) * Fraction(10) ** (16 - X)
        scale = Fraction(*numtext._P128[X - numtext._LO_EXP].as_integer_ratio())
        if X >= numtext._EXACT_LO and X <= 16:
            assert scale == exact, X
        else:
            assert abs(scale - exact) <= exact / 2**64, X
        ceil = numtext._P10[X - numtext._LO_EXP]
        assert Fraction(ceil) >= Fraction(10) ** X > Fraction(np.nextafter(ceil, 0)), X
    assert numtext._P10[-1] == np.inf


@pytest.mark.skipif(not numtext.EXTENDED, reason="longdouble products are not 64-bit here")
def test_finite_values_rarely_fall_back(monkeypatch):
    """Only the refusal bands (about 1 value in 64 or 32) take the per-value
    fallback, wherever the values lie, so the cost of a block of numbers
    does not depend on their magnitudes."""
    calls = []
    fallback = numtext._fallback

    def counted(values):
        calls.append(len(values))
        return fallback(values)

    monkeypatch.setattr(numtext, "_fallback", counted)
    rng = np.random.default_rng(23)
    for lo, hi in [(-4, 17), (-21, -4), (17, 300), (-320, -21)]:
        calls.clear()
        x = 10 ** rng.uniform(lo, hi, 4000) * rng.choice([-1.0, 1.0], 4000)
        assert_matches_percent(x)
        assert sum(calls) < len(x) / 16, (lo, hi, sum(calls))


def test_a_block_of_rows_matches_percent(extended):
    """A (rows, 13) block like a transform chunk, with zero columns."""
    rng = np.random.default_rng(21)
    x = rng.standard_normal((400, 13)) * 10 ** rng.uniform(-3, 3, (400, 13))
    x[:, 3:6] = 0.0
    x[::7, 8] = -0.0
    assert_matches_percent(x)


@settings(deadline=None, database=None)
@given(
    bits=st.lists(st.integers(0, 2**64 - 1), max_size=40),
    floats=st.lists(st.floats(width=64), max_size=40),
)
def test_property_matches_percent(bits, floats):
    x = np.concatenate([np.array(bits, dtype=np.uint64).view(np.float64), floats])
    assert_matches_percent(x)
    extended = numtext.EXTENDED
    try:
        numtext.EXTENDED = False
        assert_matches_percent(x)
    finally:
        numtext.EXTENDED = extended
