"""csvformat against Python's own ``"%.12g" % x`` on doubles chosen to break it."""

import numpy as np

from utp.csvformat import format_rows


def _hard_cases() -> np.ndarray:
    """Seeded doubles on which a %.12g kernel can go wrong, each also negated."""
    rng = np.random.default_rng(1012)
    decades = 10.0 ** np.arange(-320, 301)  # every decade from 1e-320 (subnormal) to 1e300
    exponents = rng.integers(-40, 40, 4000)
    # ties of the 12-digit rounding: 13 significant digits ending in 5, and carries 9.99..9|x
    ties = [float(f"{m}5e{e}") for m, e in zip(rng.integers(10**11, 10**12, 4000), exponents)]
    carries = [float(f"9.99999999999{d}e{e}") for d in (4, 5, 6) for e in range(-40, 40)]
    subnormals = rng.integers(1, 2**52, 500).view(np.float64)
    special = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, np.inf, np.nan,
               1.0, 10.0, 0.5, 1 / 3, 1e11, 1e12, 123456789012.0, 1234567890125.0, 1e-4, 1e-5]
    values = np.concatenate([
        rng.random(20000),
        (rng.random((decades.size, 8)) * decades[:, None]).ravel(),
        decades,
        ties,
        carries,
        subnormals,
        special,
    ])
    with np.errstate(over="ignore"):  # the largest double steps up to inf
        steps = np.nextafter(values, np.inf), np.nextafter(values, -np.inf)
    values = np.concatenate([values, *steps])
    return np.concatenate([values, -values])


def test_format_rows_is_byte_identical_to_percent_format():
    values = _hard_cases()
    want = ["%.12g" % x for x in values.tolist()]
    got = format_rows(values.reshape(-1, 1)).split("\n")
    assert got.pop() == ""
    wrong = [(x, g, w) for x, g, w in zip(values.tolist(), got, want) if g != w]
    assert wrong == [], f"{len(wrong)} values differ, e.g. {wrong[:3]}"
    rows = format_rows(values[: values.size // 5 * 5].reshape(-1, 5)).split("\n")[:-1]
    assert rows == [",".join(want[i:i + 5]) for i in range(0, values.size // 5 * 5, 5)]
