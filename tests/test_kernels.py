import random

from immlab import kernels

from oracles import dfs_has_cycle, matrix_closure, matrix_compose


def random_pairs(rng, n, density=0.3):
    return {(i, j) for i in range(n) for j in range(n) if rng.random() < density}


def flat(pairs, n):
    """The kernels' layout: bit i*n + j for the pair (i, j)."""
    bits = 0
    for i, j in pairs:
        bits |= 1 << i * n + j
    return bits


def pairs_of_flat(bits, n):
    assert bits >= 0 and not bits >> n * n
    return {divmod(k, n) for k in range(n * n) if bits >> k & 1}


def assert_kernels_match_oracles(pairs, other, n):
    bits, other_bits = flat(pairs, n), flat(other, n)
    assert pairs_of_flat(kernels.transitive_closure(bits, n), n) == matrix_closure(pairs, n)
    assert pairs_of_flat(kernels.compose(bits, other_bits, n), n) == \
        matrix_compose(pairs, other, n)
    assert kernels.has_cycle(bits, n) == dfs_has_cycle(pairs, n)
    assert pairs_of_flat(kernels.transpose(bits, n), n) == {(j, i) for i, j in pairs}


def test_kernels_match_oracles_up_to_n130():
    rng = random.Random(17)
    for n in (1, 3, 8, 17, 65, 130):
        pairs = random_pairs(rng, n, density=0.15)
        other = random_pairs(rng, n, density=0.15)
        assert_kernels_match_oracles(pairs, other, n)
        # an acyclic relation at the same size: edges only to higher ids
        dag = {(i, j) for i, j in pairs if i < j}
        assert kernels.has_cycle(flat(dag, n), n) is False
        assert_kernels_match_oracles(dag, other, n)


def test_backends_match_matrix_oracle():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(1, 12)
        density = rng.choice((0.05, 0.3))  # sparse and dense transposes
        assert_kernels_match_oracles(random_pairs(rng, n, density),
                                     random_pairs(rng, n, density), n)


def test_empty_universe():
    assert kernels.transitive_closure(0, 0) == 0
    assert kernels.compose(0, 0, 0) == 0
    assert kernels.has_cycle(0, 0) is False
    assert kernels.transpose(0, 0) == 0


def test_backend_is_reported():
    assert kernels.BACKEND == "pure"


def test_widen_and_narrow_restride_each_row():
    rng = random.Random(29)
    for n in (0, 1, 2, 3, 5, 8, 17, 33):
        pairs = random_pairs(rng, n, density=0.4)
        wide = kernels.widen(flat(pairs, n), n)
        # the pairs over 2n events, with each row's bits in its low half
        assert pairs_of_flat(wide, 2 * n) == pairs
        # narrow reads the low halves of rows 0..n-1 and drops every other bit
        noise = random_pairs(rng, 2 * n, density=0.4) - {(i, j) for i in range(n)
                                                         for j in range(n)}
        assert kernels.narrow(wide | flat(noise, 2 * n), n) == flat(pairs, n)
