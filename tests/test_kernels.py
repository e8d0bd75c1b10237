import random

from immlab import kernels
from immlab.kernels import pure

from oracles import matrix_closure, matrix_compose


def random_rows(rng, n, density=0.3):
    rows = []
    for _ in range(n):
        row = 0
        for j in range(n):
            if rng.random() < density:
                row |= 1 << j
        rows.append(row)
    return rows


def rows_to_pairs(rows, n):
    out = set()
    for i in range(n):
        rest = rows[i]
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            out.add((i, j))
    return out


def test_selected_backend_matches_pure():
    rng = random.Random(17)
    for n in (1, 3, 8, 17, 65, 130):
        rows = random_rows(rng, n, density=0.15)
        assert kernels.transitive_closure(rows, n) == pure.transitive_closure(rows, n)
        other = random_rows(rng, n, density=0.15)
        assert kernels.compose(rows, other, n) == pure.compose(rows, other, n)
        assert kernels.has_cycle(rows, n) == pure.has_cycle(rows, n)


def test_backends_match_matrix_oracle():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(1, 12)
        rows = random_rows(rng, n)
        pairs = rows_to_pairs(rows, n)
        closed = rows_to_pairs(kernels.transitive_closure(rows, n), n)
        assert closed == matrix_closure(pairs, n)
        other = random_rows(rng, n)
        composed = rows_to_pairs(kernels.compose(rows, other, n), n)
        assert composed == matrix_compose(pairs, rows_to_pairs(other, n), n)


def test_empty_universe():
    assert kernels.transitive_closure([], 0) == []
    assert kernels.compose([], [], 0) == []
    assert kernels.has_cycle([], 0) is False


def test_backend_is_reported():
    assert kernels.BACKEND == "pure"
