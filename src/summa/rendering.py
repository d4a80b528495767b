"""Deterministic number rendering for report and trace files.

Floats are written with 17 significant digits, which round-trips every
double exactly and keeps diffs stable across runs.  Values with magnitude
below 1e-4 or at least 1e16 switch to lowercase scientific notation, and
zero is written "0".  ``render_number`` defines the format one value at a
time, and stays the reference for everything else here.

``render_rows`` writes a block of CSV rows, with the same bytes, in a few
dozen numpy calls.  A cell with 1e-4 <= |x| < 1e16 and decimal exponent E
is written from the integer D = |x| * 10**(16 - E) rounded to nearest with
ties to even, which is how Python's correctly rounded dtoa rounds its 17
digits (D. Gay, "Correctly rounded binary-decimal and decimal-binary
conversions", 1990):

- The product is exact.  16 - E lies in 1..20, and 10**k is a double for
  every k <= 22 (5**22 < 2**53), so the scale does not round.  Dekker's
  product (Numer. Math. 18, 1971; ``cesaro._two_product``) then gives
  |x| * 10**(16 - E) = hi + lo exactly.
- Ties go to even.  hi lies near [1e16, 1e17), above 2**53, so it is an
  even integer, and ``rint`` rounds lo to nearest with ties to even, so
  D = hi + rint(lo) is the exact product so rounded.
- E is guessed from ``np.log``, which can miss by one next to a power of
  ten.  A miss puts D outside [10**16, 10**17), and those cells are redone
  once with E + 1 or E - 1.  No miss hides inside the range: no double in
  the fixed range lies within a relative 5e-17 below a power of ten, so no
  product below 10**16 rounds up to it, and none rounds up to 10**17.
- The digits are exact.  One int64 ``divmod`` splits D into two halves
  below 10**9, and floor(half / 10**j) in float64 is exact for them.
- A table indexed by E places the sign, the "0.000" prefix and the
  decimal point: each cell's bytes are gathered into a fixed-width slot of
  a NUL-padded uint8 matrix, one matrix row per CSV row, and the NULs are
  dropped from its bytes.

Cells below 1e-4 or at 1e16 and above go through ``render_number`` one by
one, and so does a non-finite value, which raises its error there.
"""

from __future__ import annotations

import math

import numpy as np

from .cesaro import _two_product

__all__ = ["render_number", "render_rows"]


def render_number(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot render non-finite value {x!r}")
    if x == 0.0:
        return "0"
    if 1e-4 <= abs(x) < 1e16:
        # '#' keeps trailing zeros: 17 significant digits, fixed point
        return f"{x:#.17g}"
    return f"{x:.16e}"


_LN10 = math.log(10.0)
# 10**k for k = 0..22, each exactly a double
_POW10 = np.array([float(10 ** k) for k in range(23)])
# a cell's field (a leading 0, then its 17 digits D) is two 9-digit halves,
# whose digits are floor(half / 10**j) - 10 * floor(half / 10**(j + 1))
# for j = 8..0
_HALF = 10 ** 9
_PLACES = _POW10[8::-1].reshape(9, 1)

# a cell's source bytes: the field's 18 digits, then these four
_DOT, _SIGN, _COMMA, _NUL = 18, 19, 20, 21
_TAIL = np.array([ord("."), 0, ord(","), 0], dtype=np.uint8).reshape(4, 1)
# a cell's slot: the comma, up to 24 characters, and room for the newline
_SLOT = 26
_CELL = 24
# |x| falls in bucket 0 (zero), 1 (below 1e-4), 2 (fixed notation) or 3
# (1e16 and above, or not finite); outside bucket 2 a stand-in takes its
# place, whose k = 16 - E marks the cell zero or left to render_number
_BUCKETS = np.array([5e-324, 1e-4, 1e16])
_STAND_INS = np.array([5e-6, 5e-5, 1.0, 5e-5])
_K_OTHER, _K_ZERO = 21, 22
# layout codes: k for a value cell, _INDEX + k for an index cell
_INDEX = 23


def _layouts() -> np.ndarray:
    """Row c: the source byte of each slot position for layout code c."""
    digits = list(range(1, 18))
    rows = []
    for k in range(_INDEX):
        e = 16 - k
        if k == _K_ZERO:
            body = [0]
        elif not 1 <= k <= 20:
            body = []
        elif e >= 0:
            body = [_SIGN, *digits[:e + 1], _DOT, *digits[e + 1:]]
        else:
            body = [_SIGN, 0, _DOT, *[0] * (-e - 1), *digits]
        rows.append([_COMMA, *body])
    for k in range(_INDEX):
        e = 16 - k
        rows.append([0] if k == _K_ZERO else digits[:e + 1] if e >= 0 else [])
    return np.array([row + [_NUL] * (_SLOT - len(row)) for row in rows],
                    dtype=np.intp)


_LAYOUTS = _layouts()


def _round_scaled(mag: np.ndarray, k: np.ndarray) -> np.ndarray:
    """mag * 10**k rounded to the nearest int64, ties to even."""
    hi, lo = _two_product(mag, _POW10[k])
    return np.add(hi, np.rint(lo), dtype=np.int64, casting="unsafe")


def _fixed_digits(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """k = 16 - E and the 17 digits D of each cell in fixed notation; the
    other cells get the k of their stand-in."""
    mag = np.abs(cells)
    bucket = np.searchsorted(_BUCKETS, mag, "right")
    mag = np.where(bucket == 2, mag, _STAND_INS[bucket])
    k = (16.0 - np.floor(np.log(mag) / _LN10)).astype(np.intp)
    digits = _round_scaled(mag, k)
    off = (digits < 10 ** 16) | (digits >= 10 ** 17)
    if off.any():
        k[off] += np.where(digits[off] < 10 ** 16, 1, -1)
        digits[off] = _round_scaled(mag[off], k[off])
    return k, digits


def _sources(cells: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """Each cell's source bytes, one row per source position."""
    n = cells.size
    halves = np.empty((2, 1, n))
    np.divmod(digits, _HALF, out=(halves[0, 0], halves[1, 0]))
    places = halves / _PLACES
    np.floor(places, out=places)
    places[:, 1:] -= places[:, :-1] * 10.0
    source = np.empty((22, n), dtype=np.uint8)
    np.add(places, ord("0"), out=source[:18].reshape(2, 9, n),
           casting="unsafe")
    source[18:] = _TAIL
    np.copyto(source[_SIGN], ord("-"), where=cells < 0.0)
    return source


def render_rows(index, columns) -> bytes:
    """CSV rows ``index[i],cell,...`` as ASCII, each ended by a newline.

    ``index`` holds integers in 0..2**53.  Each column is a float array
    that ends at the last row, its leading cells left blank, or None for an
    all-blank column.  Cells read as ``render_number`` writes them.
    """
    rows, width = len(index), len(columns) + 1
    # the cells row by row, the index first; blank cells hold 0 until
    # their layout is set
    cells = np.zeros((rows, width))
    cells[:, 0] = index
    blanks = []
    for c, col in enumerate(columns, 1):
        skip = rows - (0 if col is None else len(col))
        if skip:
            blanks.append((c, skip))
        if skip < rows:
            cells[skip:, c] = col
    cells = cells.reshape(-1)
    k, digits = _fixed_digits(cells)
    source = _sources(cells, digits).reshape(-1)

    other = k == _K_OTHER
    k = k.reshape(rows, width)
    k[:, 0] += _INDEX
    for c, skip in blanks:
        k[:skip, c] = _K_OTHER
    # slot byte p of cell i is source byte _LAYOUTS[k_i, p] of cell i
    layout = np.take(_LAYOUTS, k.reshape(-1), axis=0)
    layout *= cells.size
    layout += np.arange(cells.size)[:, None]
    chars = np.take(source, layout)
    del layout  # the block's largest temporary
    chars[width - 1::width, -1] = ord("\n")

    if other.any():
        (i,) = np.nonzero(other)
        text = b"".join(render_number(x).encode().ljust(_CELL, b"\0")
                        for x in cells[i].tolist())
        chars[i, 1:1 + _CELL] = np.frombuffer(
            text, dtype=np.uint8).reshape(-1, _CELL)
    return chars.tobytes().translate(None, b"\0")
