"""Exact text output: the numeric tables kernels.txt, driver.csv,
solution.csv, ensemble.csv and kde.csv are written here, as lines of word
fields (`write_words`) that hold '%.17g' of doubles (`_format_17g`),
integers and labels.
"""

import math

import numpy as np

#: Dekker's splitting constant 2^27 + 1
_SPLIT = 134217729.0
#: text is built in little-endian 64-bit words: byte j of a word is its
#: bits 8j .. 8j+7, and a word's bytes are in text order
_WORD = np.dtype("<u8")
#: bytes of one formatted value, in words: '%.17g' is at most 24 bytes
#: long, and the last byte stays NUL for the caller's separator
_VALUE_WIDTH = 32
#: the words of one value field
VALUE_WORDS = _VALUE_WIDTH // 8
#: the decimal exponents E the formatter handles in numpy: 10^(16 - E) is a
#: double; %g writes all but E < -4 in fixed notation
_E_LO, _E_HI = -6, 16


def _decade_start(k: int) -> float:
    """The smallest double >= 10^k: the correctly rounded quotient, moved up
    one ulp when the exact comparison of integers puts it below 10^k."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    c = num / den
    a, b = c.as_integer_ratio()
    return c if a * den >= num * b else math.nextafter(c, math.inf)


#: the smallest double >= 10^E for E = _E_LO .. _E_HI + 1
_DECADES = np.array([_decade_start(E) for E in range(_E_LO, _E_HI + 2)])
#: by the biased exponent b of a normal double v, 2^(b - 1023) <= |v| <
#: 2^(b - 1022): k = floor((b - 1023) log10 2) - _E_LO, so that E - _E_LO is
#: k or k + 1, and the smallest double >= 10^(_E_LO + k + 1), which |v|
#: reaches exactly when it is k + 1 (inf outside `_DECADES`)
_E_FLOOR = ((np.arange(2048) - 1023) * 78913 >> 18) - _E_LO
_E_STEP = np.where((_E_FLOOR >= -1) & (_E_FLOOR < _DECADES.shape[0] - 1),
                   _DECADES.take(np.clip(_E_FLOOR + 1, 0, _DECADES.shape[0] - 1)), np.inf)
#: 10^(16 - E) by E - _E_LO, every one exact in binary64
_SCALE = np.array([float(10 ** (16 - E)) for E in range(_E_LO, _E_HI + 1)])
_ASCII_ZEROS = int.from_bytes(b"0" * 8, "little")
#: by the exponent field f of float(z) for a word z of digit values 0..9:
#: the number of zero bytes above its highest nonzero byte
_TOP_ZERO_BYTES = np.minimum((1086 - np.arange(1087)) >> 3, 8)


def _value_tables() -> np.ndarray:
    """Words and masks that lay out a value with decimal exponent E whose
    17 digits end in T zeros, column 17 (E - _E_LO) + T: the bytes of the
    two digit words (digits 2-9 and 10-17) kept before the point, then
    those kept after it, the point in each, the "0.000" prefix after the
    sign and the exponent after the digit the point pushes out."""
    E = np.arange(_E_LO, _E_HI + 1)[:, None]
    T = np.arange(17)
    fixed = E >= -4
    # %g strips the trailing zeros after the point
    strip = np.minimum(T, np.where(fixed & (E >= 0), 16 - E, 16))
    # the point goes before digit 2 + point where a digit follows it (16: none)
    point = np.where(fixed, np.where(E >= 0, E, 16), 0)
    point = np.where(strip < 16 - point, point, 16)
    # per digit word: the number of bytes kept and of bytes before the point
    kept = [np.minimum(16 - strip, 8), np.maximum(8 - strip, 0)]
    before = [np.minimum(point, 8), np.clip(point - 8, 0, 8)]
    low = np.array([(1 << 8 * j) - 1 for j in range(9)], dtype=_WORD)  # the low j bytes
    dots = np.array([ord(".") << 8 * j for j in range(8)] + [0], dtype=_WORD)
    prefix = [b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"" for e in range(_E_LO, _E_HI + 1)]
    exponent = [b"" if e >= -4 else b"e%+03d" % e for e in range(_E_LO, _E_HI + 1)]
    rows = ([low[np.minimum(k, b)] for k, b in zip(kept, before)]
            + [low[k] ^ low[np.minimum(k, b)] for k, b in zip(kept, before)]
            + [dots[np.where((0 <= p) & (p < 8), p, 8)] for p in (point, point - 8)]
            + [np.array([[int.from_bytes(text, "little") << 8] for text in texts], dtype=_WORD)
               for texts in (prefix, exponent)])
    return np.stack([np.broadcast_to(row, strip.shape).ravel() for row in rows])


_VALUE_TABLES = _value_tables()


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple:
    """(p, e) with p = fl(a * b) and p + e = a * b exactly (Dekker, 1971)."""
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _ascii8(x: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each x < 10^8 as one word of ASCII codes,
    leading digit in byte 0.

    SWAR lane division: the word holds x // 10^4 and x % 10^4 in its two
    32-bit lanes, then each lane v holds v // 100 and v % 100 in its two
    16-bit lanes, then each of those its two digits in 8-bit lanes, the
    quotient always in the lower lane.  A quotient is a multiply and shift,
    exact in these ranges: (v * 5243) >> 19 = v // 100 for v < 10^4 and
    (v * 103) >> 10 = v // 10 for v < 100.
    """
    high = x // 10**4
    x = high | (x - high * 10**4) << 32
    x = (x << 16) - ((x * 5243 >> 19) & 0x0000007F_0000007F) * ((100 << 16) - 1)
    x = (x << 8) - ((x * 103 >> 10) & 0x000F_000F_000F_000F) * ((10 << 8) - 1)
    return x + _ASCII_ZEROS


def _format_17g(values: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """'%.17g' % v of every value, as the rows of an (N, VALUE_WORDS)
    array of words: the bytes of a row, NULs dropped, are the text, and the
    last byte of a row is NUL.  The rows are written into out when it is
    given (any (N, VALUE_WORDS) word array, a column slice of a row
    buffer say), and out is returned.

    The words of a row: the sign, the "0.000" prefix and the leading digit;
    digits 2-9 and 10-17, one ASCII word each (`_ascii8`); the digit the
    point pushes out, and the exponent.  The decimal exponent E is exact
    from the binary exponent and one comparison with `_DECADES`; for
    -6 <= E <= 16, |v| 10^(16 - E) is formed exactly as a double pair by
    one Dekker product and rounded half-even to 17 digits.  %g's trailing
    zeros are counted from the bit length of the words' zero digits, and
    `_VALUE_TABLES` gives the masks that clear them and move the digits
    after the point one byte up.  Other values (zero, subnormal,
    non-finite, E outside [-6, 16], or 17 digits that round up to 10^17)
    are formatted by Python one by one.
    """
    values = np.asarray(values, dtype=float).ravel()
    bits = values.view(np.uint64)
    x = np.abs(values)
    binade = (bits >> 52 & 0x7FF).view(np.int64)
    k = _E_FLOOR.take(binade)
    k += x >= _E_STEP.take(binade)
    fast = (k >= 0) & (k <= _E_HI - _E_LO)
    if not fast.all():  # a stand-in for the values left to Python
        x[~fast], k[~fast] = 1.0, -_E_LO
    hi, lo = _two_product(x, _SCALE.take(k))
    # hi is an even integer, so rounding lo half-even rounds hi + lo
    d = hi.astype(np.int64)
    d += np.rint(lo).astype(np.int64)
    # a carry to 10^17 needs a double within 5e-18 (relative) below a power
    # of ten; none is in range, and Python would format one
    fast &= d != 10**17
    d = d.view(np.uint64)
    lead = d // 10**16
    d -= lead * 10**16
    digits = np.empty((2, values.shape[0]), dtype=np.uint64)
    np.floor_divide(d, 10**8, out=digits[0])
    np.subtract(d, digits[0] * 10**8, out=digits[1])
    digits = _ascii8(digits)
    # the zero digits at the end of each word, from the bit length of its
    # digit values (exact as a double's exponent: no byte exceeds 9, so no
    # rounding reaches the next power of two); the second word's count goes
    # on into the first
    zeros = _TOP_ZERO_BYTES.take((digits ^ _ASCII_ZEROS).astype(np.float64).view(np.uint64) >> 52)
    k *= 17
    k += zeros[1]
    k += (zeros[1] == 8) * zeros[0]
    tables = _VALUE_TABLES.take(k, axis=1)
    after = digits & tables[2:4]
    digits &= tables[0:2]
    digits |= after << 8
    digits |= tables[4:6]
    if out is None:
        out = np.empty((values.shape[0], VALUE_WORDS), dtype=_WORD)
    out[:, 0] = tables[6] | (lead + ord("0")) << 48 | (bits >> 63) * ord("-")
    out[:, 1] = digits[0]
    out[:, 2] = digits[1] | after[0] >> 56
    out[:, 3] = tables[7] | after[1] >> 56
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array(["%.17g" % v for v in values[slow].tolist()], dtype=f"S{_VALUE_WIDTH}")
        out[slow] = text.view(_WORD).reshape(slow.size, -1)
    return out


def integer_field(values) -> np.ndarray:
    """The decimal text of each integer 0 <= v < 2^64 (at most 20 digits)
    as a field of three NUL-padded words, shape (N, 3)."""
    text = np.asarray(values, dtype=np.uint64).astype("S24")
    return text.view(_WORD).reshape(text.shape[0], 3)


def label_words(*columns) -> np.ndarray:
    """The text `c_1 c_2 .. c_k ` of each row of the nonnegative integer
    columns, every label followed by a space, as the rows of an (N, W) word
    array NUL-padded to the fewest words that hold the longest: a table to
    gather labels from, separators included."""
    columns = np.broadcast_arrays(*(np.asarray(c, dtype=np.uint64) for c in columns))
    texts = [c.astype(f"S{len(str(int(c.max())))}") for c in columns]
    out = np.zeros((columns[0].shape[0], sum(t.itemsize + 1 for t in texts) + 7), dtype=np.uint8)
    end = np.zeros(out.shape[0], dtype=np.intp)
    rows = np.arange(out.shape[0])
    for text in texts:
        # each text's NUL padding is overwritten by the space and the next text
        np.put_along_axis(out, end[:, None] + np.arange(text.itemsize),
                          text.view(np.uint8).reshape(-1, text.itemsize), axis=1)
        end += np.char.str_len(text)
        out[rows, end] = ord(" ")
        end += 1
    return np.ascontiguousarray(out[:, :-(-end.max() // 8) * 8]).view(_WORD)


def value_fields(values) -> list:
    """The %.17g fields of each column of the (N, k) values: k arrays of
    shape (N, VALUE_WORDS)."""
    values = np.asarray(values, dtype=float)
    words = _format_17g(values).reshape(values.shape + (VALUE_WORDS,))
    return list(words.transpose(1, 0, 2))


def write_words(fh, rows: np.ndarray, sep: str, widths):
    """Write one line per row of the (N, W) word array rows to the binary stream fh.

    A row is head words, whose text holds its own separators, then fields
    of the given widths in words, which end the row; each field's words end
    in a NUL byte, and an empty field is one zero word.  The line is the
    row with sep in the last byte of every field but the last and the
    newline in the last byte of the last, NULs dropped.  Only those last
    words are touched, in place.
    """
    for column in rows.shape[1] - 1 - np.cumsum(widths[:0:-1], dtype=np.intp):
        rows[:, column] |= ord(sep) << 56
    rows[:, -1] |= ord("\n") << 56
    fh.write(rows.tobytes().translate(None, b"\0"))


def write_rows(fh, fields, sep: str):
    """`write_words` of the word arrays fields side by side: a list of
    (N, w_i) word arrays, each row of each ending in a NUL byte."""
    write_words(fh, np.concatenate(fields, axis=1), sep, [f.shape[1] for f in fields])


#: data lines formatted at once: each chunk's arrays stay within a few
#: hundred kB, which keeps them in cache
EXPORT_CHUNK = 1 << 13


def export_paths(fh, columns, times, blocks):
    """CSV dump of paths to fh, an open binary stream: the header
    `seed,t,<columns>`, then for each (seed, values) pair of blocks, one row
    `seed,t,v_1,..,v_m` per draw and time for the (B, T, m) values of the
    draws of seeds seed .. seed + B - 1 at the T times.  Each block is
    written before the next is asked for.
    """
    fh.write((",".join(["seed", "t", *columns]) + "\n").encode())
    (t,) = value_fields(np.reshape(times, (-1, 1)))
    draws = max(EXPORT_CHUNK // len(t), 1)
    for seed, values in blocks:
        for lo in range(0, values.shape[0], draws):
            block = values[lo:lo + draws]
            seeds = integer_field(np.arange(seed + lo, seed + lo + len(block), dtype=np.uint64))
            write_rows(fh, [seeds.repeat(len(t), axis=0), np.tile(t, (len(block), 1))]
                       + value_fields(block.reshape(-1, block.shape[2])), ",")
