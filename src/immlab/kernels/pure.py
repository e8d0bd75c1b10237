"""Pure-Python bitset kernels.

Rows are Python ints used as bitsets: bit j of rows[i] set means (i, j) is an
edge. Closure is bitset Floyd-Warshall; the boolean-matrix-power oracle lives
in the test suite, not here.
"""


def transitive_closure(rows, n):
    out = list(rows)
    for k in range(n):
        if not out[k]:
            continue
        kbit = 1 << k
        for i in range(n):
            if out[i] & kbit:
                out[i] |= out[k]
    return out


def compose(a_rows, b_rows, n):
    out = [0] * n
    for i in range(n):
        rest = a_rows[i]
        acc = 0
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            acc |= b_rows[j]
        out[i] = acc
    return out


def has_cycle(rows, n):
    closed = transitive_closure(rows, n)
    for i in range(n):
        if closed[i] >> i & 1:
            return True
    return False
