"""Deterministic CSV emission.

Every writer uses a header row, LF line endings, '.' as the decimal
separator, and 17 significant digits for reals, so identical inputs
produce byte-identical files; each real is written as the bytes of
format(x, '.17g').  A writer hands whole columns to `_write_table`, which
broadcasts them to one shape of rows (a grid of sections, eigenfunctions
or kernel samples is a column of prefixes against a row of nodes).  The
text of a chunk of lines is laid out as one byte array, NUL-padded, and
the NULs are squeezed out as it is written, so the text in memory is one
chunk's, however long the file.

`_reals` makes the digits with Dekker's (1971) error-free product: y =
|x| * 10**(16 - E) is formed in double-double arithmetic to within 1e-14,
so its rounding to an integer is the correctly rounded 17-digit
significand whenever frac(y) is more than 1e-9 from 1/2.  An undecided
rounding, a y within 1e-6 of a power of ten, and |x| outside
[1e-270, 1e270] (zeros, subnormals, inf and nan too) are left to format().
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .fiber import FiberDecomposition
from .grid import ScalarField, Section
from .kernel import SampledKernel
from .spectrum import _nearest

CHUNK = 3072  # lines laid out and written at a time
_SPLIT = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves
_ZERO, _POINT, _MINUS, _PLUS, _E = b"0.-+e"


@functools.cache
def _pow10(k):
    """10**k as (high half of hi, low half of hi, lo): hi + lo is 10**k to
    within 2**-106 of it, hi correctly rounded, split by Dekker."""
    if k >= 0:
        n = 10**k
        hi = float(n)
        lo = float(n - int(hi))
    else:
        n = 10**-k
        hi = 1 / n
        p, q = hi.as_integer_ratio()
        lo = (q - p * n) / (q * n)
    c = _SPLIT * hi
    h = c - (c - hi)
    return h, hi - h, lo


def _scaled(a, e):
    """a * 10**(16 - e) as p + t: p the rounded product, t the rest.

    The error of p + t is below 1e-14 while the result is below 1.1e17,
    and p is an integer once the result exceeds 2**53.
    """
    k = 16 - e.astype(np.intp)
    k0 = int(k.min())
    k -= k0
    need = np.flatnonzero(np.bincount(k)).tolist()
    powers = np.empty((3, need[-1] + 1))
    for j in need:
        powers[:, j] = _pow10(k0 + j)
    bh, bl, lo = np.take(powers, k, axis=1)
    del k
    p = bh + bl
    p *= a
    ah = a * _SPLIT
    ah -= ah - a
    al = a - ah
    # t = ((ah*bh - p) + ah*bl + al*bh) + al*bl + a*lo, in this order
    t = ah * bh
    t -= p
    ah *= bl
    t += ah
    bh *= al
    t += bh
    bl *= al
    t += bl
    lo *= a
    t += lo
    return p, t


def _digits(d):
    """The 17 decimal digits of every d in [1e16, 1e17), one row each."""
    digits = np.empty((17, d.size), np.uint8)
    # the two halves of d, of 9 and 8 digits, give their last 8 together
    halves = np.array(np.divmod(d, 10**8), dtype=np.int32)
    tails = digits[1:].reshape(2, 8, -1)
    for j in range(7, -1, -1):
        q = halves // 10
        tails[:, j] = halves - q * 10
        halves = q
    digits[0] = halves[0]
    return digits


def _reals(x):
    """The text of format(v, '.17g') for every v of x, as NUL-padded ASCII
    in an x.shape + (width,) uint8 array, the NULs standing for nothing.
    It is laid out one byte position at a time, a row across all values,
    and only the rows some value of x needs."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    n = flat.size
    if n == 0:
        return np.zeros(x.shape + (0,), np.uint8)
    a = np.abs(flat)
    exact = (a >= 1e-270) & (a <= 1e270)
    a[~exact] = 1.0
    # y = p + t in [1e16, 1e17) once e is the decimal exponent of a;
    # log10 can miss it by one next to a power of ten
    e = np.log10(a)
    np.floor(e, out=e)
    e = e.astype(np.int16)
    p, t = _scaled(a, e)
    shift = ((p - 1e17) + t >= 0).astype(np.int16) - ((p - 1e16) + t < 0)
    moved = np.flatnonzero(shift)
    if moved.size:
        e[moved] += shift[moved]
        p[moved], t[moved] = _scaled(a[moved], e[moved])
    del a, shift
    exact &= (p - 1e16) + t > 1e-6
    exact &= (p - 1e17) + t < -1e-6
    exact &= np.abs(t - np.floor(t) - 0.5) > 1e-9
    d = p.astype(np.int64)
    d += np.rint(t).astype(np.int64)
    del p, t
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    digits = _digits(d)
    del d

    fixed = (e >= -4) & (e < 17)
    whole = fixed & (e >= 0)
    small = fixed & (e < 0)
    power = ~fixed
    # kept: the digits up to the last nonzero one, and every integer one
    kept = (np.arange(1, 18, dtype=np.uint8)[:, None] * (digits != 0)).max(axis=0)
    kept = np.maximum(kept, np.where(whole, e + 1, 1).astype(np.uint8))
    digits += _ZERO
    digits *= np.arange(17, dtype=np.uint8)[:, None] < kept
    # the point follows digit `point - 1`: none (0) below 1 in fixed
    # notation, where "0." leads, nor where no digit follows it
    point = np.where(whole, e + 1, ~small)
    point[point >= kept] = 0
    slots = (np.flatnonzero(np.bincount(point)[1:]) + 1).tolist()
    negative = np.signbit(flat)
    lead = tail = 0
    if small.any():
        zeros = np.where(small, -e - 1, 0)
        lead = 2 + int(zeros.max())
    if power.any():
        ae = np.abs(e)
        # the exponent's digits, each with the values that write it
        exponent = [(ae // 10 % 10, power), (ae % 10, power)]
        hundreds = power & (ae >= 100)
        if hundreds.any():
            exponent.insert(0, (ae // 100, hundreds))
        tail = 2 + len(exponent)

    # the rows some value needs: sign, "0.000", digits and points, "e+123"
    sign = int(negative.any())
    end = int(kept.max())
    out = np.zeros((sign + lead + end + len(slots) + tail, n), np.uint8)
    if sign:
        np.copyto(out[0], _MINUS, where=negative)
    if lead:
        np.copyto(out[sign], _ZERO, where=small)
        np.copyto(out[sign + 1], _POINT, where=small)
        for i in range(lead - 2):
            np.copyto(out[sign + 2 + i], _ZERO, where=zeros > i)
    row = sign + lead
    first = 0
    for at in slots + [end]:
        out[row : row + at - first] = digits[first:at]
        row += at - first
        if at < end:
            np.copyto(out[row], _POINT, where=point == at)
            row += 1
        first = at
    if tail:
        np.copyto(out[row], _E, where=power)
        np.copyto(out[row + 1], _MINUS, where=power & (e < 0))
        np.copyto(out[row + 1], _PLUS, where=power & (e > 0))
        for i, (digit, where) in enumerate(exponent):
            np.copyto(out[row + 2 + i], digit + _ZERO, where=where, casting="unsafe")

    rest = np.flatnonzero(~exact)
    if rest.size:
        text = np.array([format(v, ".17g") for v in flat[rest].tolist()], dtype="S")
        if text.itemsize > len(out):
            out = np.concatenate([out, np.zeros((text.itemsize - len(out), n), np.uint8)])
        out[:, rest] = 0
        out[: text.itemsize, rest] = text.view(np.uint8).reshape(rest.size, -1).T
    return out.T.reshape(x.shape + (-1,))


def _text(column):
    """A column as NUL-padded ASCII, a column.shape + (width,) uint8
    array: reals through _reals, integers in decimal, strings as they are."""
    if column.dtype.kind == "f":
        return _reals(column)
    width = ""
    if column.dtype.kind in "iu" and column.size:
        # as wide as its longest value, not the 21 bytes astype("S") gives
        width = max(len(str(column.min())), len(str(column.max())))
    text = column.astype(f"S{width}")
    return text.view(np.uint8).reshape(text.shape + (text.itemsize,))


def _write_table(path, header, *columns, rows=None):
    """Write the header and one line per element of the broadcast shape of
    the columns, the texts of the columns' elements joined by ','.

    rows, if given, is a tuple of k index arrays of one length, and the
    table has lines only for the indices (rows[0][j], ..., rows[k-1][j])
    of the first k axes, in the order of j; by default it is every index
    of the first axis.  Each chunk gathers its own lines, so no column is
    gathered whole.  A real column with fewer
    elements than there are lines (nodes, or a prefix of a row of nodes)
    is formatted once, as a call of _reals costs about 0.3 ms however few
    values it is given; the others are formatted chunk by chunk.  A chunk
    is CHUNK lines along the first axis, or one index of it where that is
    more, laid out NUL-padded in file order and written without its NULs.
    """
    columns = [np.asarray(c) for c in columns]
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    parts = [c.reshape((1,) * (len(shape) - c.ndim) + c.shape) for c in columns]
    if rows is None:
        rows = (np.arange(shape[0]),)
    shape = (len(rows[0]),) + shape[len(rows) :]
    lines = math.prod(shape)
    once = [c.size < lines and c.dtype.kind == "f" for c in parts]
    parts = [(_text(c), True) if f else (c, False) for c, f in zip(parts, once)]
    inner = math.prod(shape[1:])
    step = max(1, CHUNK // max(1, inner))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        for start in range(0, shape[0], step):
            take = slice(start, start + step)
            blocks = []
            for part, formatted in parts:
                # index 0 drops an axis of length 1, which broadcasts
                lead = zip(rows, part.shape)
                part = part[tuple(i[take] if n > 1 else 0 for i, n in lead)]
                blocks.append(part if formatted else _text(part))
            count = min(step, shape[0] - start)
            width = sum(b.shape[-1] for b in blocks) + len(blocks)
            line = bytearray(width * count * inner)
            text = np.frombuffer(line, np.uint8).reshape((count,) + shape[1:] + (width,))
            pos = 0
            for block in blocks:
                text[..., pos : pos + block.shape[-1]] = block
                pos += block.shape[-1]
                text[..., pos] = ord(",")
                pos += 1
            text[..., -1] = ord("\n")
            del blocks, block, text  # the text is all in line now
            fh.write(line.translate(None, b"\0"))


def write_field(path, field: ScalarField):
    _write_table(path, ("omega", "value"), field.grid.nodes, field.values)


def write_section(path, section: Section):
    omega = section.ogrid.nodes[:, None]
    header = ("omega", "t", "value")
    _write_table(path, header, omega, section.squad.nodes, section.values)


def _retained_by_curve(d: FiberDecomposition):
    """Retained slots fiber by fiber, each fiber in ascending curve id order.

    Returns the fiber index and the slot of every retained slot; padded
    slots (label -1) sort first and are dropped.
    """
    order = np.argsort(d.labels, axis=1, kind="stable")
    fiber, pos = np.nonzero(np.take_along_axis(d.labels, order, axis=1) >= 0)
    return fiber, order[fiber, pos]


def write_eigencurves(path, d: FiberDecomposition):
    """Rows (omega, curve_id, lambda) with 1-based aligned curve ids."""
    columns = (d.ogrid.nodes[:, None], d.labels + 1, d.eigenvalues)
    header = ("omega", "curve_id", "lambda")
    _write_table(path, header, *columns, rows=_retained_by_curve(d))


def write_eigenfunctions(path, d: FiberDecomposition):
    """Rows (omega, curve_id, t, value) of every retained eigenfunction,
    fiber by fiber in curve id order; each chunk gathers its own rows of
    d.functions."""
    columns = (
        d.ogrid.nodes[:, None, None],
        d.labels[..., None] + 1,
        d.squad.nodes,
        d.functions,
    )
    header = ("omega", "curve_id", "t", "value")
    _write_table(path, header, *columns, rows=_retained_by_curve(d))


def write_bounds(path, d: FiberDecomposition):
    columns = (d.ogrid.nodes, d.m.values, d.M.values)
    _write_table(path, ("omega", "m", "M"), *columns)


def write_spectra(path, d: FiberDecomposition):
    """Rows (omega, lambda) listing each fiber spectrum in descending order."""
    spectra = d._spectra
    rows = np.nonzero(np.isfinite(spectra))
    _write_table(path, ("omega", "lambda"), d.ogrid.nodes[:, None], spectra, rows=rows)


def write_kernel(path, k: SampledKernel):
    t = k.squad.nodes
    columns = (k.ogrid.nodes[:, None, None], t[:, None], t, k.values)
    _write_table(path, ("omega", "t", "s", "value"), *columns)


def write_membership(path, d: FiberDecomposition, field: ScalarField):
    """Rows (omega, lambda, nearest_spectral_value, distance); a field on
    another grid raises GridMismatch before the file is opened."""
    columns = (d.ogrid.nodes, field.values, *_nearest(d, field))
    header = ("omega", "lambda", "nearest_spectral_value", "distance")
    _write_table(path, header, *columns)


def write_report(path, pairs):
    """Rows (metric, value) for small numeric summaries."""
    pairs = list(pairs)
    names = np.array([name for name, _ in pairs], dtype=str)
    values = np.array([value for _, value in pairs], dtype=float)
    _write_table(path, ("metric", "value"), names, values)
