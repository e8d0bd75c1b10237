import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from immlab.relalg import Rel, UniverseMismatch, remapping, union_all

from oracles import (
    PairRel,
    dfs_has_cycle,
    hasse_oracle,
    matrix_closure,
    matrix_compose,
    pair_union_all,
)


def rel(n, *pairs):
    return Rel(n, pairs)


def random_rel(rng, n, density=0.3):
    pairs = [(a, b) for a in range(n) for b in range(n) if rng.random() < density]
    return Rel(n, pairs)


class TestCompose:
    def test_definition_unfolding(self):
        assert rel(4, (1, 2)).compose(rel(4, (2, 3))) == rel(4, (1, 3))

    def test_empty_annihilates(self):
        r = rel(4, (1, 2), (0, 3))
        assert r.compose(Rel(4)) == Rel(4)
        assert Rel(4).compose(r) == Rel(4)

    def test_matches_matrix_product(self):
        rng = random.Random(1)
        for _ in range(40):
            a, b = random_rel(rng, 6), random_rel(rng, 6)
            assert a.compose(b).pairs == matrix_compose(a.pairs, b.pairs, 6)

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatch):
            rel(3, (0, 1)).compose(rel(4, (0, 1)))


class TestClosures:
    def test_chain(self):
        assert rel(4, (1, 2), (2, 3)).plus() == rel(4, (1, 2), (2, 3), (1, 3))

    def test_empty(self):
        assert Rel(5).plus() == Rel(5)

    def test_matches_matrix_powers(self):
        rng = random.Random(2)
        for _ in range(40):
            r = random_rel(rng, 8)
            assert r.plus().pairs == matrix_closure(r.pairs, 8)

    def test_closures_triple(self):
        r = rel(3, (0, 1), (1, 2))
        refl, trans, star = r.closures()
        assert refl == r | Rel.identity(3)
        assert trans == r.plus()
        assert star == r.plus() | Rel.identity(3)


class TestImmediate:
    def test_total_order(self):
        total = rel(3, (0, 1), (0, 2), (1, 2))
        assert total.immediate() == rel(3, (0, 1), (1, 2))

    def test_empty(self):
        assert Rel(3).immediate() == Rel(3)

    def test_hasse_oracle(self):
        rng = random.Random(3)
        for _ in range(30):
            # random strict partial order: closure of a random DAG-ish relation
            base = [(a, b) for a in range(7) for b in range(a + 1, 7)
                    if rng.random() < 0.4]
            order = Rel(7, base).plus()
            assert order.immediate().pairs == hasse_oracle(order.pairs, 7)


class TestAcyclicity:
    def test_two_cycle(self):
        assert not rel(3, (1, 2), (2, 1)).is_acyclic()

    def test_empty(self):
        assert Rel(3).is_acyclic()

    def test_dfs_oracle_with_injected_back_edge(self):
        rng = random.Random(4)
        for _ in range(30):
            dag = [(a, b) for a in range(8) for b in range(a + 1, 8)
                   if rng.random() < 0.3]
            r = Rel(8, dag)
            assert r.is_acyclic() == (not dfs_has_cycle(dag, 8))
            if dag:
                a, b = dag[rng.randrange(len(dag))]
                broken = r | rel(8, (b, a))
                assert not broken.is_acyclic()
                assert dfs_has_cycle(broken.pairs, 8)

    def test_total_on(self):
        total = rel(4, (1, 2), (1, 3), (2, 3))
        assert total.is_total_on({1, 2, 3})
        assert not total.is_total_on({0, 1, 2})
        assert not rel(3, (0, 1), (1, 0)).is_total_on({0, 1})
        assert total.total_order({3, 1, 2}) == [1, 2, 3]
        assert total.total_order({0, 1, 2}) is None


class TestSetAlgebra:
    def test_dom_codom(self):
        assert rel(3, (1, 2)).dom() == {1}
        assert rel(3, (1, 2)).codom() == {2}

    def test_restrict(self):
        r = rel(5, (1, 2), (3, 4))
        assert r.restrict({1}, {2, 4}) == rel(5, (1, 2))

    def test_restrict_loc(self):
        locmap = [0, 0, 1, None]
        r = rel(4, (0, 1), (0, 2), (3, 1))
        assert r.restrict_loc(locmap) == rel(4, (0, 1))

    def test_union_minus_inverse(self):
        a, b = rel(3, (0, 1)), rel(3, (1, 2))
        assert (a | b).pairs == {(0, 1), (1, 2)}
        assert (a | b) - a == b
        assert a.inverse() == rel(3, (1, 0))

    def test_identity_composes(self):
        r = rel(4, (1, 2), (2, 3))
        assert Rel.identity(4, {1}).compose(r) == rel(4, (1, 2))

    def test_remapping_matches_pairs(self):
        # inserted, dropped and reordered ids against the mapped pair set
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(0, 10)
            r = random_rel(rng, n)
            m = n + rng.randint(0, 3)
            index = rng.sample(range(m), n)
            if rng.random() < 0.5:
                index.sort()
            index = [y if rng.random() < 0.8 else None for y in index]
            want = {(index[a], index[b]) for a, b in r.pairs
                    if index[a] is not None and index[b] is not None}
            assert remapping(index, m)(r) == Rel(m, want)


small_rels = st.builds(
    lambda n, pairs: Rel(n, {(a % n, b % n) for a, b in pairs}),
    st.integers(min_value=1, max_value=10),
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=25),
)


@settings(max_examples=80, deadline=None)
@given(small_rels)
def test_plus_is_idempotent_extensive_transitive(r):
    plus = r.plus()
    assert plus.plus() == plus
    assert r.pairs <= plus.pairs
    assert plus.compose(plus).pairs <= plus.pairs


@settings(max_examples=80, deadline=None)
@given(small_rels)
def test_acyclic_iff_plus_irreflexive(r):
    assert r.is_acyclic() == r.plus().is_irreflexive()


def test_immediate_of_total_order_regenerates():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 9)
        perm = list(range(n))
        rng.shuffle(perm)
        total = Rel(n, ((perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)))
        assert total.immediate().plus() == total


# -- differential check against the pair-set reference --------------------------


def random_pairs(rng, n):
    """Random pairs, biased towards the shapes the predicates care about:
    strict total orders on a subset, closed relations and sparse noise."""
    shape = rng.randrange(4)
    density = rng.choice((0.05, 0.15, 0.3, 0.6))
    noise = {(a, b) for a in range(n) for b in range(n) if rng.random() < density}
    if shape == 0 or n == 0:
        return noise
    members = [x for x in range(n) if rng.random() < 0.6]
    rng.shuffle(members)
    order = {(members[i], members[j])
             for i in range(len(members)) for j in range(i + 1, len(members))}
    if shape == 1:
        return order
    if shape == 2:
        return order | {p for p in noise if rng.random() < 0.1}
    return PairRel(n, noise).plus().pairs


def random_members(rng, n):
    """A member set, sometimes holding ids outside the universe."""
    out = {x for x in range(n) if rng.random() < 0.5}
    if rng.random() < 0.2:
        out.add(rng.choice((-1, n, n + 3)))
    return out


def assert_same(got, want):
    """A Rel result against its PairRel reference, by pairs and order."""
    assert isinstance(got, Rel)
    assert got.n == want.n
    assert got.pairs == want.pairs
    assert list(got) == list(want)
    assert len(got) == len(want) and bool(got) == bool(want)


def test_rel_matches_pair_set_reference():
    rng = random.Random(11)
    checked = 0
    for trial in range(400):
        n = rng.randint(0, 12)
        pa, pb = random_pairs(rng, n), random_pairs(rng, n)
        a, b = Rel(n, pa), Rel(n, pb)
        ra, rb = PairRel(n, pa), PairRel(n, pb)
        members, others = random_members(rng, n), random_members(rng, n)
        locmap = [rng.choice((None, 0, 1, 2)) for _ in range(n)]

        assert repr(a) == repr(ra)
        assert a.rows() == ra.rows()
        assert_same(Rel.from_rows(n, ra.rows()), ra)
        assert_same(Rel.identity(n), PairRel.identity(n))
        inside = {x for x in members if 0 <= x < n}
        assert_same(Rel.identity(n, inside), PairRel.identity(n, inside))
        for got, want in (
            (a | b, ra | rb), (a & b, ra & rb), (a - b, ra - rb),
            (a.inverse(), ra.inverse()), (a.inverse().inverse(), ra),
            (a.compose(b), ra.compose(rb)), (a.seq(b, a), ra.seq(rb, ra)),
            (a.plus(), ra.plus()), (a.opt(), ra.opt()), (a.star(), ra.star()),
            (a.immediate(), ra.immediate()),
            (a.restrict(members, others), ra.restrict(members, others)),
            (Rel.product(n, members, others), PairRel.product(n, members, others)),
            (a.restrict_loc(locmap), ra.restrict_loc(locmap)),
            (union_all(n, [a, b, a.inverse()]), pair_union_all(n, [ra, rb, ra.inverse()])),
            (union_all(n, []), pair_union_all(n, [])),
        ):
            assert_same(got, want)
        for got, want in zip(a.closures(), ra.closures()):
            assert_same(got, want)
        assert a.dom() == ra.dom() and a.codom() == ra.codom()
        assert a.image(members) == ra.image(members)
        assert a.preimage(members) == ra.preimage(members)
        assert a.is_irreflexive() == ra.is_irreflexive()
        assert a.is_acyclic() == ra.is_acyclic()
        assert a.is_transitive() == ra.is_transitive()
        assert a.is_total_on(members) == ra.is_total_on(members)
        assert a.is_total_on(inside) == ra.is_total_on(inside)
        assert a.find_cycle() == ra.find_cycle()
        for x in range(-2, n + 2):
            for y in range(-2, n + 2):
                assert ((x, y) in a) == ((x, y) in ra)
        assert (a == b) == (ra == rb)
        assert a == Rel(n, ra.pairs) and hash(a) == hash(Rel(n, ra.pairs))
        assert a != ra and a != Rel(n + 1, pa)
        if a == b:
            assert hash(a) == hash(b)
        checked += 1
    assert checked == 400


def test_total_on_reference_over_all_small_relations():
    # every relation over 3 events, against every member set
    n = 3
    all_pairs = [(a, b) for a in range(n) for b in range(n)]
    member_sets = [{x for x in range(n) if k >> x & 1} for k in range(1 << n)]
    for bits in range(1 << len(all_pairs)):
        pairs = [p for i, p in enumerate(all_pairs) if bits >> i & 1]
        r, ref = Rel(n, pairs), PairRel(n, pairs)
        for members in member_sets:
            assert r.is_total_on(members) == ref.is_total_on(members)
            order = r.total_order(members)
            if order is not None:
                assert sorted(order) == sorted(members)
                assert all((a, b) in ref for k, a in enumerate(order) for b in order[k + 1:])
        assert r.is_transitive() == ref.is_transitive()


def test_results_do_not_share_rows_with_operands():
    a = Rel(3, [(0, 1)])
    b = a | Rel(3)
    star = a.star()
    assert b.rows() is not a.rows() and star.rows() is not a.rows()
    assert a == Rel(3, [(0, 1)])


@pytest.mark.parametrize("pairs", [[(0, 3)], [(3, 0)], [(-1, 0)], [(0, -1)]])
def test_pairs_outside_the_universe_are_rejected(pairs):
    with pytest.raises(ValueError):
        Rel(3, pairs)


@pytest.mark.parametrize("members", [[3], [-1], [0, 5]])
def test_identity_outside_the_universe_is_rejected(members):
    with pytest.raises(ValueError):
        Rel.identity(3, members)


@pytest.mark.parametrize("rows", [[0, 0], [0, 0, 8], [0, -1, 0]])
def test_rows_outside_the_universe_are_rejected(rows):
    with pytest.raises(ValueError):
        Rel.from_rows(3, rows)


def test_set_algebra_universe_mismatch():
    for op in ("__or__", "__and__", "__sub__"):
        with pytest.raises(UniverseMismatch):
            getattr(Rel(3), op)(Rel(4))
    with pytest.raises(UniverseMismatch):
        union_all(3, [Rel(3), Rel(4)])


@pytest.mark.parametrize("bits", [-1, 1 << 9, 1 << 20])
def test_bits_outside_the_universe_are_rejected(bits):
    with pytest.raises(ValueError):
        Rel.from_bits(3, bits)


def test_bits_round_trip():
    rng = random.Random(13)
    for n in range(0, 9):
        r = random_rel(rng, n)
        assert Rel.from_bits(n, r.bits) == r
        assert Rel.from_bits(n, r.bits).rows() == Rel.from_rows(n, r.rows()).rows()
