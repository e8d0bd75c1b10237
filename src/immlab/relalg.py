"""Finite binary relations over dense integer event ids.

Every consistency predicate in the package is a formula over these. Relations
carry their universe size; ids are 0..n-1. All values are immutable.

A relation over n events is one Python int: bit i*n + j is set when (i, j)
is in the relation, so row i is the n bits from i*n up. Union, intersection,
difference, reflexive closure (against the diagonal mask, bit i*(n+1) for
every i), irreflexivity, size, emptiness and equality are one int operation
each. Composition and closure multiply a column by a row (kernels): the
column mask has bit i*n for every i, and (r >> j) & COL times row j of s
copies that row into every row i with (i, j) ∈ r, with no carry between rows.
The list of rows (`rows`) is made on the first call and kept, for callers
that test one row at a time; the set of pairs is built only when asked for
(`pairs`), for JSON, witnesses and tests.
"""

from __future__ import annotations

from . import kernels
from .kernels import masks


class UniverseMismatch(ValueError):
    pass


def _ones(mask):
    """The set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(members, n):
    """Bitset of the members inside 0..n-1; others are ignored."""
    mask = 0
    for x in members:
        if 0 <= x < n:
            mask |= 1 << x
    return mask


def _product(n, a, b):
    """The bits of A × B: B's mask copied into the row of each member of A."""
    bmask = _mask(b, n)
    bits = 0
    if bmask:
        for x in a:
            if 0 <= x < n:
                bits |= bmask << x * n
    return bits


def _new(n, bits):
    rel = Rel.__new__(Rel)
    rel.n = n
    rel.bits = bits
    rel._rows = None
    rel._inv = None
    return rel


class Rel:
    """A binary relation over {0..n-1}, stored as one int (bit i*n + j for
    the pair (i, j))."""

    __slots__ = ("n", "bits", "_rows", "_inv")

    def __init__(self, n, pairs=()):
        bits = 0
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"pair ({x},{y}) outside universe of size {n}")
            bits |= 1 << x * n + y
        self.n = n
        self.bits = bits
        self._rows = None
        self._inv = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def identity(n, members=None):
        if members is None:
            return _new(n, masks(n)[2])
        bits = 0
        for x in members:
            if not 0 <= x < n:
                raise ValueError(f"pair ({x},{x}) outside universe of size {n}")
            bits |= 1 << x * (n + 1)
        return _new(n, bits)

    @staticmethod
    def product(n, a, b):
        """A × B."""
        return _new(n, _product(n, a, b))

    @staticmethod
    def from_rows(n, rows):
        rows = list(rows)
        if len(rows) != n or rows and (min(rows) < 0 or max(rows) >> n):
            raise ValueError(f"rows do not describe a relation over {n} events")
        bits = 0
        for i, row in enumerate(rows):
            if row:
                bits |= row << i * n
        rel = _new(n, bits)
        rel._rows = rows
        return rel

    @staticmethod
    def from_bits(n, bits):
        """The relation whose int is bits: bit i*n + j for the pair (i, j)."""
        if bits < 0 or bits >> n * n:
            raise ValueError(f"bits do not describe a relation over {n} events")
        return _new(n, bits)

    def rows(self):
        """The bitset rows (bit j of row i for the pair (i, j)); made once
        and shared, so callers must not modify them."""
        if self._rows is None:
            n = self.n
            row = (1 << n) - 1
            bits = self.bits
            self._rows = [bits >> i * n & row for i in range(n)]
        return self._rows

    @property
    def pairs(self):
        return frozenset(self)

    # -- set algebra -----------------------------------------------------------

    def _check(self, other):
        if self.n != other.n:
            raise UniverseMismatch(f"universes differ: {self.n} vs {other.n}")

    def __or__(self, other):
        self._check(other)
        return _new(self.n, self.bits | other.bits)

    def __and__(self, other):
        self._check(other)
        return _new(self.n, self.bits & other.bits)

    def __sub__(self, other):
        self._check(other)
        return _new(self.n, self.bits & ~other.bits)

    def __eq__(self, other):
        return isinstance(other, Rel) and self.n == other.n and self.bits == other.bits

    def __hash__(self):
        return hash((self.n, self.bits))

    def __contains__(self, pair):
        x, y = pair
        return 0 <= x < self.n and 0 <= y < self.n and self.bits >> x * self.n + y & 1 == 1

    def __len__(self):
        return self.bits.bit_count()

    def __bool__(self):
        return self.bits != 0

    def __iter__(self):
        """Pairs in ascending order, row by row."""
        n = self.n
        row = (1 << n) - 1
        bits = self.bits
        x = 0
        while bits:
            if bits & row:
                for y in _ones(bits & row):
                    yield (x, y)
            bits >>= n
            x += 1

    def __repr__(self):
        return f"Rel({self.n}, {list(self)})"

    def inverse(self):
        if self._inv is None:
            # cached one way only: a cycle back would outlive refcounting
            self._inv = _new(self.n, kernels.transpose(self.bits, self.n))
        return self._inv

    def dom(self):
        n = self.n
        row = (1 << n) - 1
        bits = self.bits
        out = []
        x = 0
        while bits:
            if bits & row:
                out.append(x)
            bits >>= n
            x += 1
        return frozenset(out)

    def codom(self):
        n = self.n
        row = (1 << n) - 1
        bits = self.bits
        acc = 0
        while bits:
            acc |= bits & row
            bits >>= n
        return frozenset(_ones(acc))

    # -- composition and closures ----------------------------------------------

    def compose(self, other):
        """Left composition self;other."""
        self._check(other)
        if not self.bits:
            return self
        if not other.bits:
            return other
        return _new(self.n, kernels.compose(self.bits, other.bits, self.n))

    def seq(self, *others):
        out = self
        for r in others:
            out = out.compose(r)
        return out

    def plus(self):
        """Transitive closure (least fixpoint of r ∪ r;r)."""
        if not self.bits:
            return self
        return _new(self.n, kernels.transitive_closure(self.bits, self.n))

    def opt(self):
        """Reflexive closure: adds identity on the whole universe."""
        return _new(self.n, self.bits | masks(self.n)[2])

    def star(self):
        return self.plus().opt()

    def closures(self):
        """(reflexive, transitive, reflexive-transitive) closures."""
        return (self.opt(), self.plus(), self.star())

    def immediate(self):
        """Immediate edges: r \\ r;r."""
        return self - self.compose(self)

    # -- predicates -------------------------------------------------------------

    def is_irreflexive(self):
        return not self.bits & masks(self.n)[2]

    def is_acyclic(self):
        if not self.bits:
            return True
        return not kernels.has_cycle(self.bits, self.n)

    def is_transitive(self):
        return self.compose(self).bits & ~self.bits == 0

    def total_order(self, members):
        """The members first to last if r is a strict total order on them
        (total, and a strict order there), else None."""
        members = frozenset(members)
        n = self.n
        size = len(members)
        mask = _mask(members, n)
        if mask.bit_count() != size:
            # no pair reaches an id outside the universe
            return list(members) if size <= 1 else None
        # r is a strict total order on M iff, ranking the members by how many
        # members they precede, each precedes exactly the members ranked
        # after it
        bits = self.bits
        order = [None] * size
        for x in members:
            rank = size - 1 - (bits >> x * n & mask).bit_count()
            if rank < 0 or order[rank] is not None:
                return None
            order[rank] = x
        later = mask
        for x in order:
            later ^= 1 << x
            if bits >> x * n & mask != later:
                return None
        return order

    def is_total_on(self, members):
        return self.total_order(members) is not None

    # -- restrictions -----------------------------------------------------------

    def restrict(self, a, b):
        """[A];r;[B]."""
        return _new(self.n, self.bits & _product(self.n, a, b))

    def restrict_loc(self, locmap):
        """Pairs whose endpoints have the same (non-None) location."""
        n = self.n
        at = {}
        for x in range(n):
            if locmap[x] is not None:
                at[locmap[x]] = at.get(locmap[x], 0) | 1 << x
        mask = 0
        for x in range(n):
            if locmap[x] is not None:
                mask |= at[locmap[x]] << x * n
        return _new(n, self.bits & mask)

    def image(self, members):
        n = self.n
        row = (1 << n) - 1
        bits = self.bits
        acc = 0
        for x in members:
            if 0 <= x < n:
                acc |= bits >> x * n & row
        return frozenset(_ones(acc))

    def preimage(self, members):
        return self.inverse().image(members)

    def find_cycle(self):
        """A shortest cycle (event list, first repeated) or None. BFS per node."""
        if self.is_acyclic():
            return None
        adj = {x: list(_ones(row)) for x, row in enumerate(self.rows()) if row}
        best = None
        for start in adj:
            # BFS back to start
            parent = {start: None}
            queue = [start]
            found = False
            while queue and not found:
                nxt = []
                for u in queue:
                    for v in adj.get(u, ()):
                        if v == start:
                            cycle = [start]
                            w = u
                            while w is not None:
                                cycle.append(w)
                                w = parent[w]
                            cycle.reverse()
                            if best is None or len(cycle) < len(best):
                                best = cycle
                            found = True
                            break
                        if v not in parent:
                            parent[v] = u
                            nxt.append(v)
                    if found:
                        break
                queue = nxt
        return best


def union_all(n, rels):
    bits = 0
    for r in rels:
        if r.n != n:
            raise UniverseMismatch(f"universes differ: {n} vs {r.n}")
        bits |= r.bits
    return _new(n, bits)


def remapping(index, n):
    """The function carrying a relation to a universe of n events: id x
    becomes index[x], or is dropped where index[x] is None. Ids that stay
    consecutive move together, so a few inserted or removed events cost a
    few shifts per row."""
    runs = []  # [first old id, width mask, first new id]
    for x, y in enumerate(index):
        if y is None:
            continue
        if runs and x == last_x + 1 and y == last_y + 1:
            runs[-1][1] = runs[-1][1] << 1 | 1
        else:
            runs.append([x, 1, y])
        last_x, last_y = x, y

    def carry(rel):
        m = rel.n
        row = (1 << m) - 1
        bits = rel.bits
        out = 0
        x = 0
        while bits:
            old = bits & row
            if old and index[x] is not None:
                acc = 0
                for start, width, to in runs:
                    acc |= (old >> start & width) << to
                out |= acc << index[x] * n
            bits >>= m
            x += 1
        return _new(n, out)

    return carry


def remapping_onto(keep, n):
    """remapping from a universe of n events onto the ascending ids keep,
    renumbered 0..len(keep)-1; every other id is dropped."""
    index = [None] * n
    for new, old in enumerate(keep):
        index[old] = new
    return remapping(index, len(keep))
