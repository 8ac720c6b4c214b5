"""Boolean functions as explicit sign matrices.

A two-party Boolean function f(x, y) is stored as the matrix whose
(x, y) entry is the sign (-1)**f(x, y), so f = 0 maps to +1 and f = 1
maps to -1.  The XOR-lift of f is then literally the n-fold Kronecker
power of the sign matrix, and rank questions are questions about that
integer matrix over the rationals.

Everything here is exact: rank uses fraction-free elimination with
Python's arbitrary-precision integers, and no floating point appears
anywhere in this module.  All values are immutable after construction.

The searches see f only through its row/column classes (``classes``)
and integer bitmasks: ``BoolFun.masks(color)`` holds the masks of the
cells of sign ``color``, derived on first use and cached per color,
never written again, so the sign convention stays in this module;
``row_bits`` is the one array-to-mask encoder and ``index_bits`` the
one mask-to-indices decoder.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, ParseError, as_int, parse_count

# Desk-scale guard: matrices (lifted ones included) are capped at 2**24
# cells so that exhaustive verification stays feasible.
DESK_CELL_CAP = 2 ** 24

# f(x, y) of each fixed family, on a column x and a row y of indices.
_FIXED_FAMILIES = {
    "xor": lambda x, y: np.bitwise_count(x ^ y) & 1,
    "and": lambda x, y: (x & y) != 0,
    "eq": lambda x, y: x == y,
    "gt": lambda x, y: x > y,
    "ip": lambda x, y: np.bitwise_count(x & y) & 1,
}

FAMILIES = (*_FIXED_FAMILIES, "random", "const")

_MASK64 = (1 << 64) - 1


def splitmix64(seed: int):
    """Yield the splitmix64 stream for ``seed``.

    This is the single documented generator behind every seeded object:
    state += 0x9E3779B97F4A7C15; z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB;
    output z ^ (z >> 31).  All arithmetic mod 2**64.
    """
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


class BoolFun:
    """A total Boolean function on [rows] x [cols], held as a +-1 sign matrix."""

    __slots__ = ("sign", "label", "_masks")

    def __init__(self, sign, label=""):
        arr = np.asarray(sign, dtype=np.int8)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("sign matrix must be 2-D and non-empty")
        check_cap("matrix has", arr.shape[0] * arr.shape[1])
        if not np.all(np.abs(arr) == 1):
            raise ValueError("sign matrix entries must be exactly +1 or -1")
        arr = arr.copy()
        arr.flags.writeable = False
        self.sign = arr
        self.label = label
        self._masks = {}

    @property
    def rows(self) -> int:
        return self.sign.shape[0]

    @property
    def cols(self) -> int:
        return self.sign.shape[1]

    @property
    def cells(self) -> int:
        return self.rows * self.cols

    def f_value(self, x: int, y: int) -> int:
        """The 0/1 function value at (x, y)."""
        return 0 if self.sign[x, y] == 1 else 1

    def masks(self, color: int) -> tuple:
        """(row masks, column masks) of the cells of sign ``color`` (+1
        or -1): bit y of row mask x, and bit x of column mask y, are set
        iff the sign at (x, y) is ``color``."""
        got = self._masks.get(color)
        if got is None:
            if color not in (1, -1):
                raise ValueError("color must be +1 or -1")
            on = self.sign == color
            got = self._masks[color] = (row_bits(on), row_bits(on.T))
        return got

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"<BoolFun{tag} {self.rows}x{self.cols}>"


def check_cap(what: str, cells: int) -> None:
    """Raise CapacityError when ``cells`` is over the desk-scale cap."""
    if cells > DESK_CELL_CAP:
        raise CapacityError(f"{what} {cells} cells, over the desk-scale "
                            f"cap of {DESK_CELL_CAP}")


def row_bits(on) -> tuple:
    """The rows of the 2-D boolean array ``on`` as integer bitmasks, by
    one ``np.packbits``: bit y of mask x is set iff on[x, y]."""
    return tuple(int.from_bytes(row.tobytes(), "little")
                 for row in np.packbits(on, axis=1, bitorder="little"))


def index_bits(mask: int) -> tuple:
    """The set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def classes(f: BoolFun, rmask: int | None = None, cmask: int | None = None):
    """Row and column classes of f restricted to rmask x cmask (default:
    all of f), as (row_classes, col_classes), lists of index lists.

    Rows are grouped by their content on cmask; columns by their content
    on the first row of each row class, which is the same as on all of
    rmask.  Classes come in first-occurrence order, members ascending.
    """
    row_bits, col_bits = f.masks(-1)  # either color groups the same
    if rmask is None:
        rmask = (1 << f.rows) - 1
    if cmask is None:
        cmask = (1 << f.cols) - 1
    row_classes = _group(row_bits, rmask, cmask)
    reps = sum(1 << cls[0] for cls in row_classes)
    return row_classes, _group(col_bits, cmask, reps)


def _group(masks, members: int, within: int) -> list:
    """The indices in ``members`` grouped by ``masks[i] & within``."""
    groups = {}  # kept in first-occurrence order
    for i in index_bits(members):
        key = masks[i] & within
        if key in groups:
            groups[key].append(i)
        else:
            groups[key] = [i]
    return list(groups.values())


def make_family(name: str, m: int, seed: int | None = None,
                const_value: int | None = None) -> BoolFun:
    """Build the m x m sign matrix of a named test-fixture family.

    xor    parity of the bitwise XOR of the indices (x XOR y at m=2);
           rank 1 for every m.
    and    1 iff the indices share a set bit (bitwise AND nonzero);
           reduces to Boolean AND at m=2.
    eq     1 iff x == y.
    gt     1 iff x > y.
    ip     inner product mod 2 of the index bit-vectors; m must be a
           power of two.
    random i.i.d. bits from splitmix64(seed), row-major, one stream
           output per cell, least significant bit.
    const  constant const_value.
    """
    name = name.lower()
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; choose from {FAMILIES}")
    m = as_int(m, "m")
    if m < 1:
        raise ValueError("m must be >= 1")
    check_cap("matrix would have", m * m)  # before anything is built

    if name == "random":
        if seed is None:
            raise ValueError("family 'random' requires a seed")
        stream = splitmix64(seed)
        vals = np.fromiter((next(stream) & 1 for _ in range(m * m)),
                           dtype=np.int8, count=m * m).reshape(m, m)
        return BoolFun(1 - 2 * vals, label=f"random{m}_s{seed}")

    if name == "const":
        if const_value not in (0, 1):
            raise ValueError("family 'const' requires const_value of 0 or 1")
        return BoolFun(np.full((m, m), 1 - 2 * const_value, dtype=np.int8),
                       label=f"const{m}_{const_value}")

    if name == "ip" and m & (m - 1) != 0:
        raise ValueError("family 'ip' requires m to be a power of 2")

    x = np.arange(m)
    f = _FIXED_FAMILIES[name](x[:, None], x[None, :])
    return BoolFun(1 - 2 * f.astype(np.int8), label=f"{name}{m}")


def check_lift(f: BoolFun, n: int) -> None:
    """Raise unless the lift f^(+n) has an order n >= 1 and is within
    the desk-scale cap."""
    n = as_int(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1")
    # Past order 24 every base larger than 1x1 is over the cap; up to
    # it, f.cells ** n is a cheap integer.
    max_n = DESK_CELL_CAP.bit_length() - 1
    if n > max_n or f.cells ** n > DESK_CELL_CAP:
        raise CapacityError(f"lift of order n={n} of a {f.rows}x{f.cols} "
                            f"matrix is over the desk-scale cap of "
                            f"{DESK_CELL_CAP} cells or order {max_n}")


def xor_power(f: BoolFun, n: int) -> BoolFun:
    """Lift f to f^(+n): the parity of n independent evaluations of f.

    The lifted sign matrix is the n-fold Kronecker power of f's sign
    matrix, so lifted row i is the tuple np.unravel_index(i, (f.rows,) * n)
    of base rows, first coordinate most significant (columns likewise).
    """
    check_lift(f, n)
    sign = f.sign
    for _ in range(n - 1):
        sign = np.kron(sign, f.sign)
    label = f"{f.label or 'f'}^xor{n}"
    return BoolFun(sign, label=label)


def exact_rank(mat) -> int:
    """Rank over the rationals of an integer matrix, by fraction-free
    (Bareiss, Math. Comp. 22, 1968) elimination on Python integers.  No
    floating point: each division by the previous pivot is exact."""
    m = [[int(v) for v in row] for row in mat]  # the rows not yet pivots
    rank = 0
    prev = 1
    for c in range(len(m[0]) if m else 0):
        for piv, top in enumerate(m):
            if top[c]:
                break
        else:
            continue  # no pivot in this column
        del m[piv]
        a = top[c]
        for row in m:
            b = row[c]
            for j in range(c + 1, len(top)):
                row[j] = (a * row[j] - b * top[j]) // prev
        prev = a
        rank += 1
        if not m:
            break
    return rank


def rank(f: BoolFun) -> int:
    """Exact rank of f's sign matrix over the rationals."""
    return exact_rank(f.sign.tolist())


def distinct_row_count(f: BoolFun) -> int:
    """Number of distinct rows (always <= 2**rank for a sign matrix)."""
    return len(classes(f)[0])


def distinct_col_count(f: BoolFun) -> int:
    return len(classes(f)[1])


def sorted_indices(values) -> tuple:
    """The distinct indices in ``values``, ascending, each read by
    ``errors.as_int``."""
    return tuple(sorted({as_int(v, "index") for v in values}))


def restrict(f: BoolFun, row_subset, col_subset) -> BoolFun:
    """The sub-function on row_subset x col_subset (each sorted and
    deduplicated)."""
    rows = sorted_indices(row_subset)
    cols = sorted_indices(col_subset)
    if not rows or not cols:
        raise ValueError("restriction subsets must be non-empty")
    if rows[0] < 0 or rows[-1] >= f.rows or cols[0] < 0 or cols[-1] >= f.cols:
        raise ValueError("restriction index out of range")
    sub = f.sign[np.ix_(rows, cols)]
    label = f"{f.label}|sub" if f.label else "sub"
    return BoolFun(sub, label=label)


# ---------------------------------------------------------------------------
# .bfn file format: line 1 "<rows> <cols>", then rows lines of 0/1 f-values,
# then an optional "# label" line.  Line 1 is whitespace-strict and its
# sizes are ASCII digits; newlines may be LF or CRLF.
# ---------------------------------------------------------------------------

def parse_bfn(text: str) -> BoolFun:
    lines = text.split("\n")
    lines = [ln[:-1] if ln.endswith("\r") else ln for ln in lines]
    if not lines or not lines[0]:
        raise ParseError("empty input, expected '<rows> <cols>'", 1)
    try:
        rows, cols = map(parse_count, lines[0].split(" "))
    except ValueError:  # not two sizes, or a size not ASCII digits
        raise ParseError("header must be exactly '<rows> <cols>'",
                         1, 1) from None
    if rows < 1 or cols < 1:
        raise ParseError("rows and cols must be >= 1", 1, 1)
    check_cap("matrix has", rows * cols)
    if len(lines) < 1 + rows:
        raise ParseError(f"expected {rows} data lines", len(lines), 1)
    data = np.empty((rows, cols), dtype=np.int8)
    for i in range(rows):
        ln = lines[1 + i]
        if len(ln) != cols:
            raise ParseError(f"expected {cols} characters of 0/1", 2 + i,
                             min(len(ln) + 1, cols + 1))
        for j, ch in enumerate(ln):
            if ch == "0":
                data[i, j] = 1
            elif ch == "1":
                data[i, j] = -1
            else:
                raise ParseError(f"bad character {ch!r}, expected 0 or 1",
                                 2 + i, j + 1)
    label = None  # one optional label line
    for k in range(1 + rows, len(lines)):
        ln = lines[k]
        if not ln.strip():
            continue
        if ln.startswith("#") and label is None:
            label = ln[1:].strip()
        else:
            raise ParseError("unexpected trailing content", k + 1, 1)
    return BoolFun(data, label=label or "")


def format_bfn(f: BoolFun) -> str:
    out = [f"{f.rows} {f.cols}"]
    for i in range(f.rows):
        out.append("".join("0" if v == 1 else "1" for v in f.sign[i]))
    if f.label:
        out.append(f"# {f.label}")
    return "\n".join(out) + "\n"


def read_bfn(path) -> BoolFun:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_bfn(fh.read())
