"""Finite binary relations over dense integer event ids.

Every consistency predicate in the package is a formula over these. Relations
carry their universe size; ids are 0..n-1. All values are immutable.

A relation is stored as a list of bitset rows: bit j of row i is set when
(i, j) is in the relation. Every operation works on the rows; the set of
pairs is built only when asked for (`pairs`), for JSON, witnesses and tests.
"""

from __future__ import annotations

from . import kernels


class UniverseMismatch(ValueError):
    pass


def _bits(mask):
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


def _new(n, rows):
    """A relation over rows the caller hands over and no longer touches."""
    rel = Rel.__new__(Rel)
    rel.n = n
    rel._rows = rows
    rel._inv = None
    return rel


class Rel:
    """A binary relation over {0..n-1}, stored as a list of int bitset rows."""

    __slots__ = ("n", "_rows", "_inv")

    def __init__(self, n, pairs=()):
        rows = [0] * n
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"pair ({x},{y}) outside universe of size {n}")
            rows[x] |= 1 << y
        self.n = n
        self._rows = rows
        self._inv = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def identity(n, members=None):
        if members is None:
            return _new(n, [1 << x for x in range(n)])
        rows = [0] * n
        for x in members:
            if not 0 <= x < n:
                raise ValueError(f"pair ({x},{x}) outside universe of size {n}")
            rows[x] = 1 << x
        return _new(n, rows)

    @staticmethod
    def product(n, a, b):
        """A × B."""
        amask, bmask = _mask(a, n), _mask(b, n)
        return _new(n, [bmask if amask >> x & 1 else 0 for x in range(n)])

    @staticmethod
    def from_rows(n, rows):
        rows = list(rows)
        if len(rows) != n or rows and (min(rows) < 0 or max(rows) >> n):
            raise ValueError(f"rows do not describe a relation over {n} events")
        return _new(n, rows)

    def rows(self):
        """The bitset rows; shared, so callers must not modify them."""
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
        return _new(self.n, [a | b for a, b in zip(self._rows, other._rows)])

    def __and__(self, other):
        self._check(other)
        return _new(self.n, [a & b for a, b in zip(self._rows, other._rows)])

    def __sub__(self, other):
        self._check(other)
        return _new(self.n, [a & ~b for a, b in zip(self._rows, other._rows)])

    def __eq__(self, other):
        return isinstance(other, Rel) and self.n == other.n and self._rows == other._rows

    def __hash__(self):
        return hash((self.n, tuple(self._rows)))

    def __contains__(self, pair):
        x, y = pair
        return 0 <= x < self.n and 0 <= y < self.n and self._rows[x] >> y & 1 == 1

    def __len__(self):
        return sum(r.bit_count() for r in self._rows)

    def __bool__(self):
        return any(self._rows)

    def __iter__(self):
        """Pairs in ascending order."""
        for x, row in enumerate(self._rows):
            for y in _bits(row):
                yield (x, y)

    def __repr__(self):
        return f"Rel({self.n}, {list(self)})"

    def inverse(self):
        if self._inv is None:
            cols = [0] * self.n
            for x, row in enumerate(self._rows):
                bit = 1 << x
                for y in _bits(row):
                    cols[y] |= bit
            # cached one way only: a cycle back would outlive refcounting
            self._inv = _new(self.n, cols)
        return self._inv

    def dom(self):
        return frozenset(x for x, row in enumerate(self._rows) if row)

    def codom(self):
        acc = 0
        for row in self._rows:
            acc |= row
        return frozenset(_bits(acc))

    # -- composition and closures ----------------------------------------------

    def compose(self, other):
        """Left composition self;other."""
        self._check(other)
        if not any(self._rows) or not any(other._rows):
            return _new(self.n, [0] * self.n)
        return _new(self.n, kernels.compose(self._rows, other._rows, self.n))

    def seq(self, *others):
        out = self
        for r in others:
            out = out.compose(r)
        return out

    def plus(self):
        """Transitive closure (least fixpoint of r ∪ r;r)."""
        if not any(self._rows):
            return self
        return _new(self.n, kernels.transitive_closure(self._rows, self.n))

    def opt(self):
        """Reflexive closure: adds identity on the whole universe."""
        return _new(self.n, [row | 1 << x for x, row in enumerate(self._rows)])

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
        return not any(row >> x & 1 for x, row in enumerate(self._rows))

    def is_acyclic(self):
        if not any(self._rows):
            return True
        return not kernels.has_cycle(self._rows, self.n)

    def is_transitive(self):
        return all(c & ~r == 0 for c, r in zip(self.compose(self)._rows, self._rows))

    def total_order(self, members):
        """The members first to last if r is a strict total order on them
        (total, and a strict order there), else None."""
        members = frozenset(members)
        if any(not 0 <= x < self.n for x in members):
            # no pair reaches an id outside the universe
            return list(members) if len(members) <= 1 else None
        # r is a strict total order on M iff, ranking the members by how many
        # members they precede, each precedes exactly the members ranked
        # after it
        rows = self._rows
        mask = _mask(members, self.n)
        later = mask
        order = [x for _, x in sorted((-(rows[x] & mask).bit_count(), x) for x in members)]
        for x in order:
            later ^= 1 << x
            if rows[x] & mask != later:
                return None
        return order

    def is_total_on(self, members):
        return self.total_order(members) is not None

    # -- restrictions -----------------------------------------------------------

    def restrict(self, a, b):
        """[A];r;[B]."""
        amask = _mask(a, self.n)
        bmask = _mask(b, self.n)
        return _new(self.n, [row & bmask if amask >> x & 1 else 0
                             for x, row in enumerate(self._rows)])

    def restrict_loc(self, locmap):
        """Pairs whose endpoints have the same (non-None) location."""
        at = {}
        for x in range(self.n):
            if locmap[x] is not None:
                at[locmap[x]] = at.get(locmap[x], 0) | 1 << x
        return _new(self.n, [row & at[locmap[x]] if locmap[x] is not None else 0
                             for x, row in enumerate(self._rows)])

    def image(self, members):
        acc = 0
        rows = self._rows
        for x in members:
            if 0 <= x < self.n:
                acc |= rows[x]
        return frozenset(_bits(acc))

    def preimage(self, members):
        return self.inverse().image(members)

    def find_cycle(self):
        """A shortest cycle (event list, first repeated) or None. BFS per node."""
        if self.is_acyclic():
            return None
        adj = {x: list(_bits(row)) for x, row in enumerate(self._rows) if row}
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
    rows = [0] * n
    for r in rels:
        if r.n != n:
            raise UniverseMismatch(f"universes differ: {n} vs {r.n}")
        rows = [a | b for a, b in zip(rows, r._rows)]
    return _new(n, rows)


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
        rows = [0] * n
        for x, row in enumerate(rel._rows):
            if row and index[x] is not None:
                acc = 0
                for start, width, to in runs:
                    acc |= (row >> start & width) << to
                rows[index[x]] = acc
        return _new(n, rows)

    return carry


def remapping_onto(keep, n):
    """remapping from a universe of n events onto the ascending ids keep,
    renumbered 0..len(keep)-1; every other id is dropped."""
    index = [None] * n
    for new, old in enumerate(keep):
        index[old] = new
    return remapping(index, len(keep))
