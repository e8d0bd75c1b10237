"""The relation kernels: transitive closure, composition, cycle detection
and transposition over a relation stored as one int, in pure Python.

A relation over n events is an int whose bit i*n + j is set when (i, j) is
an edge: row i is the n bits from i*n up. The column mask COL has bit i*n
for every i, so (r >> j) & COL holds one bit per row i with (i, j) ∈ r, and
multiplying it by an n-bit value v copies v into each of those rows; the
copies do not overlap, so no carry crosses a row. Composition is that
product summed over j, and closure is Floyd-Warshall with one such product
per k. The boolean-matrix-power oracle lives in the test suite, not here.
"""

BACKEND = "pure"

_MASKS = {}


def masks(n):
    """(ROW, COL, DIAG) for universe size n: the low n bits, bit i*n for
    every i, and bit i*(n+1) for every i."""
    got = _MASKS.get(n)
    if got is None:
        row = (1 << n) - 1
        col = sum(1 << i * n for i in range(n))
        diag = sum(1 << i * (n + 1) for i in range(n))
        got = _MASKS[n] = (row, col, diag)
    return got


def transitive_closure(r, n):
    row, col, _ = masks(n)
    for k in range(n):
        into = r >> k & col
        if into:
            r |= into * (r >> k * n & row)
    return r


def compose(a, b, n):
    row, col, _ = masks(n)
    out = 0
    j = 0
    while b:
        from_j = b & row
        if from_j:
            into = a >> j & col
            if into:
                out |= into * from_j
        b >>= n
        j += 1
    return out


def has_cycle(r, n):
    return transitive_closure(r, n) & masks(n)[2] != 0


_GATHER = {}


def transpose(r, n):
    """The inverse of r. Column j of r, (r >> j) & COL, has bit i*n for each
    (i, j) ∈ r. Times the gather constant (bit k*(n-1) for each k < n),
    bit i*n lands at i + (i+k)*(n-1) for each k; no two terms share a
    place, so nothing carries, and the n bits from (n-1)² up hold exactly
    the terms k = n-1-i, at bit i: row j of the inverse. That costs n
    products whatever r holds, so an r with at most n pairs is moved pair
    by pair instead."""
    row, col, _ = masks(n)
    out = 0
    if r.bit_count() <= n:
        while r:
            low = r & -r
            i, j = divmod(low.bit_length() - 1, n)
            out |= 1 << j * n + i
            r ^= low
        return out
    gather = _GATHER.get(n)
    if gather is None:
        gather = _GATHER[n] = sum(1 << k * (n - 1) for k in range(n))
    shift = (n - 1) * (n - 1)
    for j in range(n):
        into = r >> j & col
        if into:
            out |= (into * gather >> shift & row) << j * n
    return out


def widen(r, n):
    """r with its n rows 2n bits apart: row i from bit 2*i*n up."""
    row = (1 << n) - 1
    out = 0
    for i in range(n):
        out |= (r >> i * n & row) << 2 * i * n
    return out


def narrow(r, n):
    """The inverse of widen: the low n bits of each of the first n rows of
    r, 2n bits apart, as a relation over n events. Bits of r outside them
    are dropped."""
    row = (1 << n) - 1
    out = 0
    for i in range(n):
        out |= (r >> 2 * i * n & row) << i * n
    return out
