"""Exact text output: the vectorized '%.17g', its digit and exponent
tables, and the row writer."""

import io

import numpy as np
import pytest

from chaosde import textio
from chaosde.textio import _format_17g


def test_ascii8_digits():
    # the multiply-shift quotients over their whole ranges, then words of
    # 8 digits, leading zeros kept, against Python's formatting
    v = np.arange(10**4, dtype=np.uint64)
    assert np.array_equal(v * 5243 >> 19, v // 100)
    assert np.array_equal(v[:100] * 103 >> 10, v[:100] // 10)
    rng = np.random.default_rng(8)
    x = np.concatenate([rng.integers(0, 10**8, 10**5),
                        [0, 9, 10, 99, 100, 9999, 10**4, 10**7, 10**8 - 1]]).astype(np.uint64)
    words = textio._ascii8(x).astype(textio._WORD)
    assert words.view("S8").tolist() == [b"%08d" % v for v in x.tolist()]


def test_exponent_tables_are_exact():
    # _DECADES[k] is the smallest double >= 10^(k + _E_LO), and the binade
    # table's floor is floor(e log10 2) for every binary exponent e
    from fractions import Fraction

    for E, c in zip(range(textio._E_LO, textio._E_HI + 2), textio._DECADES):
        assert Fraction(float(c)) >= Fraction(10) ** E > Fraction(float(np.nextafter(c, 0.0)))
    for b in range(1, 2047):
        E = int(textio._E_FLOOR[b]) + textio._E_LO
        assert Fraction(10) ** E <= Fraction(2) ** (b - 1023) < Fraction(10) ** (E + 1)


def _assert_formats_as_python(values):
    """_format_17g gives '%.17g' % v byte for byte, NULs dropped."""
    values = np.asarray(values, dtype=float)
    rows = _format_17g(values).view(np.uint8)
    want = ["%.17g" % v for v in values.tolist()]
    assert rows.shape == (values.shape[0], textio._VALUE_WIDTH)
    assert np.count_nonzero(rows, axis=1).tolist() == [len(w) for w in want]
    assert rows[rows != 0].tobytes().decode("ascii") == "".join(want)


def test_format_17g_special_values():
    specials = [0.0, -0.0, 5e-324, -5e-324, -2.5e-310, 2.2250738585072014e-308,
                np.nan, -np.nan, np.inf, -np.inf, 1.7976931348623157e308, -1.5, -1e-6,
                -0.1, -123.25]
    _assert_formats_as_python(specials)
    assert [bytes(r[r != 0]) for r in _format_17g([-0.0, np.nan, -np.inf]).view(np.uint8)] == [
        b"-0", b"nan", b"-inf"]


def test_format_17g_exponent_boundaries_carry_and_ties():
    values = []
    # decimal exponents -7 .. 18, fixed notation for -4 <= E < 17
    for E in range(-7, 19):
        p = float(f"1e{E}")
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf), -p, 1.5 * p, 9.5 * p]
    # next to powers of ten, where rounding to 17 digits could carry
    values += [9.9999999999999999e-5, 9.99999999999999999e-5, 9.9999999999999999e16,
               99999999999999999.0, 1e16 + 2.0, 1e17 - 16.0]
    # exact ties at the 18th digit: half-even keeps ...2|5 and raises ...7|5
    values += [9 * 2.0**-23, 13 * 2.0**-23, 11 * 2.0**-23, 2.0**-20, 2.0**-19, 2.0**56]
    assert "%.17g" % (11 * 2.0**-23) == "1.3113021850585938e-06"
    _assert_formats_as_python(values)


def test_format_17g_random_bit_patterns():
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2**64, size=10**6, dtype=np.uint64)
    _assert_formats_as_python(bits.view(np.float64))
    # the same with binary exponents around the vectorized range, E in [-6, 16]
    exponent = rng.integers(1023 - 25, 1023 + 60, size=10**6, dtype=np.uint64)
    bits = (bits & np.uint64(2**52 - 1 | 2**63)) | (exponent << np.uint64(52))
    _assert_formats_as_python(bits.view(np.float64))


def test_write_rows_layout():
    # label, value and empty fields, each with its separator in its last
    # byte, and the newline in the last byte of the last field
    labels = textio.integer_field(np.arange(12))
    cells = np.array([0, 11, 7])
    empty = np.zeros((3, 1), dtype=textio._WORD)
    fh = io.BytesIO()
    textio.write_rows(fh, [labels.take(cells, axis=0), empty] + textio.value_fields(
        [[0.5, -1e-7], [np.nan, 3.0], [-0.0, 1e300]]), ";")
    assert fh.getvalue() == b"0;;0.5;-9.9999999999999995e-08\n11;;nan;3\n7;;-0;1.0000000000000001e+300\n"
    fh = io.BytesIO()
    textio.write_rows(fh, [empty[:0], empty[:0]], ",")
    assert fh.getvalue() == b""
    # write_words takes head words before the fields, whose text carries
    # its own separators and is written as it is
    fh = io.BytesIO()
    head = [textio.label_words(cells, 100), textio.label_words([1, 22, 333])]
    fields = [empty, labels.take(cells, axis=0)]
    textio.write_words(fh, np.concatenate(head + fields, axis=1), ";",
                       [f.shape[1] for f in fields])
    assert fh.getvalue() == b"0 100 1 ;0\n11 100 22 ;11\n7 100 333 ;7\n"


@pytest.mark.parametrize("columns", [[[0, 9, 10, 99999999]], [[5, 123], [7, 0], [1234, 55555]],
                                     [[2**64 - 1, 0]]])
def test_label_words_match_python_formatting(columns):
    # one or more labels a row, each with its space, in the fewest words:
    # exactly 8 bytes take one word with no NUL
    words = textio.label_words(*columns)
    texts = ["".join(f"{c} " for c in row) for row in zip(*columns)]
    assert words.shape[1] == -(-max(len(t) for t in texts) // 8)
    assert [row.tobytes().rstrip(b"\0").decode() for row in words] == texts


def test_fields_match_python_formatting():
    # random bit patterns in k columns beside 20-digit integers, against a
    # join of '%.17g' and str per value
    rng = np.random.default_rng(16)
    for k in (1, 2, 5):
        values = rng.integers(0, 2**64, size=(400, k), dtype=np.uint64).view(np.float64)
        ints = [0, 9, 10, 2**63, 2**64 - 1] + rng.integers(0, 2**64, 395, dtype=np.uint64).tolist()
        fh = io.BytesIO()
        textio.write_rows(fh, [textio.integer_field(ints)] + textio.value_fields(values), ",")
        want = "".join(f"{i}," + ",".join("%.17g" % v for v in row) + "\n"
                       for i, row in zip(ints, values.tolist()))
        assert fh.getvalue().decode() == want
