"""Finite unital rings, their left ideals, and ideal arithmetic.

Rings are given by explicit addition / multiplication tables over the
element indices ``0..n-1`` and are fully validated at construction:
each axiom is decided on additive generators, and only an axiom whose
decision failed is scanned, to name its first witness, by whole rows in
one route at every order.  Ideals are immutable bitsets over the same
index space, ordered as little-endian integers (bit ``i`` = element
``i``), which fixes a canonical order on every ideal family the package
emits.
"""

import operator
from functools import reduce
from itertools import chain, product, repeat

from . import kernels
from .errors import InvariantError, RingSpecError, TableError


# the stored flat tables and the byte rows of ``_composition`` need every
# element index in a byte
BYTE_ORDER_LIMIT = 256


def _first_diff(a, b):
    """Index of the first position where the equal-length ``a``, ``b`` differ."""
    return next(i for i, (p, q) in enumerate(zip(a, b)) if p != q)


def is_json_int(v):
    """Whether a parsed JSON value is an integer; ``bool`` is an ``int``
    subclass in Python, but ``true`` is no order or element index."""
    return isinstance(v, int) and not isinstance(v, bool)


def all_index_entries(entries, indices):
    """Whether every entry of the sequence ``entries`` is an ``int`` (or
    ``bool``) in the set ``indices`` of 0..size-1, at C level: for ints,
    set membership is the range test, and the sum of the entries is an
    ``int`` only when none of them is a float or another kind of number
    equal to an index.  An ``int`` subclass entry may fail it: callers
    then name the first bad entry in a loop, which accepts that one."""
    try:
        return indices.issuperset(entries) and type(sum(entries)) is int
    except TypeError:  # an unhashable entry, or numbers that do not add
        return False


def flat_table(values, order):
    """The flat table of the entries ``values``, indices into a structure
    of ``order`` elements, as stored: ``bytes`` up to ``BYTE_ORDER_LIMIT``
    (one byte per entry, read by ``translate`` without a copy), a tuple
    above it.  A table already of that type is returned as it is."""
    return bytes(values) if order <= BYTE_ORDER_LIMIT else tuple(values)


def _as_table(raw, rows, cols, what):
    """The ring or module table ``raw``, ``rows`` rows of ``cols`` indices
    0..cols-1, as a tuple of tuples, else ``TableError`` ``{what}-shape``
    or ``{what}-range``.  The row count is checked before the index set is
    built.  Then the whole table is decided at once: every row length,
    and ``all_index_entries`` over the entries of every row, read in place
    by ``chain`` with no flattened copy.  Only a table that fails goes
    through the row loop, which names the first bad row length or (i, j),
    or accepts a row whose entries are an ``int`` subclass in range."""
    if len(raw) != rows:
        raise TableError(f"{what}-shape", (len(raw),), f"{what} table must have {rows} rows")
    indices = frozenset(range(cols))
    try:
        whole = ({*map(len, raw)} <= {cols}
                 and indices.issuperset(chain.from_iterable(raw))
                 and type(sum(chain.from_iterable(raw))) is int)
    except TypeError:  # a row without a length, or entries that do not hash or add
        whole = False
    if whole:
        return tuple(map(tuple, raw))
    out = []
    for i, row in enumerate(raw):
        if len(row) != cols:
            raise TableError(f"{what}-shape", (i,), f"{what} row {i} must have {cols} entries")
        if not all_index_entries(row, indices):
            for j, v in enumerate(row):
                if not isinstance(v, int) or not 0 <= v < cols:
                    raise TableError(f"{what}-range", (i, j),
                                     f"{what}[{i}][{j}] = {v!r} out of range")
        out.append(tuple(row))
    return tuple(out)


def check_abelian_group(order, add, zero, what="add"):
    """Abelian-group check of the rows ``add``; raises TableError on failure.

    Identity, commutativity and inverses are decided on whole rows (see
    ``_composition``): zero's row against the identity row, each row
    against its column, a slice of the joined table, and each row holding
    zero.  Only when that fails do the entry loops run, in their order,
    to name the first witness.  Associativity is then decided on the
    generators of ``_generators``: the set S of a with (x+a)+z = x+(a+z)
    for all x and z holds zero, a two-sided identity, and with a and g it
    holds a+g (regroup (x+(a+g))+z through (x+a)+g, (x+a)+(g+z) and
    x+(a+(g+z))), so S is the whole table once it holds every generator.
    Only when that fails does ``_assoc_witness`` scan the triples, to name
    the first witness.
    """
    as_row, as_map, _, join = _composition(order)
    rows = list(map(as_row, add))
    flat = join(rows)
    if not (rows[zero] == as_row(range(order))
            and all(map(operator.eq, rows, (flat[i::order] for i in range(order))))
            and all(map(operator.contains, rows, repeat(zero)))):
        _group_witness(order, add, zero, what)
    # (x+g)+z = x+(g+z) over z, for each x and generator g
    gens = _generators(rows, zero)
    if all(rows[row[g]] == plus(rows[g])
           for row, plus in zip(rows, map(as_map, rows)) for g in gens):
        return
    w = _assoc_witness(rows, as_map)
    raise TableError(f"{what}-associative", w, f"({w[0]}+{w[1]})+{w[2]} != {w[0]}+({w[1]}+{w[2]})")


def _group_witness(order, add, zero, what):
    """Raise the ``TableError`` of the first identity, commutativity or
    inverse fault of the rows ``add``, found by the entry loops."""
    for i in range(order):
        if add[zero][i] != i:
            raise TableError(f"{what}-identity", (i,), f"zero + {i} != {i}")
    for i in range(order):
        row = add[i]
        for j in range(i + 1, order):
            if row[j] != add[j][i]:
                raise TableError(f"{what}-commutative", (i, j), f"{i} + {j} != {j} + {i}")
        if zero not in row:
            raise TableError(f"{what}-inverse", (i,), f"element {i} has no additive inverse")


def _composition(order):
    """``(as_row, as_map, index_row, join)`` for maps between sets of at
    most ``order`` elements.  ``as_row(values)`` stores a map as the row
    of its values; ``as_map(f)`` turns the row f into the function that
    sends a row xs to the row of f[x] over the entries x of xs (f after
    xs), so equal composites give equal rows; ``index_row(table, size)``,
    for a size of at most ``order``, is ``as_row(table)`` when every entry
    of ``table`` is an index 0..size-1, else None; ``join(rows)`` is the
    row of the rows, an iterable of rows of this kind, one after another,
    made in one call.  Up to ``BYTE_ORDER_LIMIT`` rows are bytearrays
    (made from ints faster than bytes), f acts by ``translate``, rows join
    by ``bytearray.join`` and ``index_row`` deletes the valid bytes to
    find a bad one, reading a stored ``bytes`` table (``flat_table``)
    without a copy; above it rows are lists, f acts by a list
    comprehension, which indexes a list faster than ``map`` over
    ``__getitem__`` does, rows join by ``reduce`` over in-place list
    extension (twice as fast as ``chain``, which moves one entry at a
    time) and ``index_row`` reads ``all_index_entries``."""
    return _BYTE_ROWS if order <= BYTE_ORDER_LIMIT else _LIST_ROWS


def _index_bytes(table, size):
    if type(table) is not bytes:  # a stored table is read as it is
        try:
            table = bytearray(table)
        except (TypeError, ValueError):
            return None
    return None if table.translate(None, _ALL_BYTES[:size]) else table


def _index_list(table, size):
    return list(table) if all_index_entries(table, frozenset(range(size))) else None


_ALL_BYTES = bytes(range(256))
_BYTE_ROWS = (bytearray, lambda f: operator.methodcaller("translate", f.ljust(256, b"\0")),
              _index_bytes, bytearray().join)
_LIST_ROWS = (list, lambda f: lambda xs: [f[x] for x in xs], _index_list,
              lambda rows: reduce(operator.iadd, rows, []))


def _generators(rows, zero):
    """Zero, then additive generators of the table ``rows`` (x + y at
    ``rows[x][y]``): each is the least element not yet reached from zero
    by adding generators on the right.  Every element is so reached."""
    gens, reached = [zero], {zero}
    for x in range(len(rows)):
        if x in reached:
            continue
        gens.append(x)
        todo = list(reached)
        while todo:
            row = rows[todo.pop()]
            for g in gens:
                if row[g] not in reached:
                    reached.add(row[g])
                    todo.append(row[g])
    return gens


def action_axiom_witness(n, m, radd, rmul, madd, act, one):
    """The first witness (code, i, j, k) of a scalar-action axiom on the
    flat tables, or None, when R's addition (n x n) and M's (m x m) are
    abelian groups and R's multiplication distributes over its addition
    from the left (for R acting on itself, the ``act_add`` axiom below).

    The scan order: every ``act_add`` (r, x, y), then (r, s, x) with
    ``add_act`` before ``mul_act`` at each, then ``one_act`` (x, -1, -1).
    For R acting on itself these name left distributivity, right
    distributivity, associativity of * and 1*x = x.

    Each axiom is first decided on the generators G of ``_generators``
    (zero first), by whole rows (see ``_composition``):

    * ``act_add``: r.(x+g) = r.x + r.g for every r and x and g in G of M,
    * ``add_act``: (r+s).x = r.x + s.x for every r and x and s in G of R,
    * ``mul_act``: (r*s).x = r.(s.x) for every r and x and s in G of R,
    * ``one_act``: 1.x = x for every x.

    These suffice.  If f(a+g) = f(a)+f(g) for every a, every g in G and
    zero, the set of b with f(a+b) = f(a)+f(b) for all a holds zero and
    is closed under adding a generator on the right, so f is additive.
    That makes x -> r.x and r -> r.x additive, and then both sides of
    ``mul_act`` are additive in s, so they agree on all of R once they
    agree on G.  Every equation read is an instance of an axiom, so a
    decision fails exactly when its axiom has a witness.  Only then is
    that axiom scanned, in the same route at every order: ``act_add``
    in the first row r that failed its decision, and ``add_act`` with
    ``mul_act`` one r at a time, by the columns s.x over s.
    """
    as_row, as_map, _, _ = _composition(max(n, m))
    act = as_row(act)
    msum = rows_of(as_row(madd), m)  # x + y at [x][y]
    scale = rows_of(act, m)  # r.x at [r][x]
    cols = [act[x::m] for x in range(m)]  # s.x at [x][s]
    plus = list(map(as_map, msum))  # plus[a](xs): a + x over the entries x of xs
    identity = as_row(range(m))
    mgens = _generators(msum, msum.index(identity))
    if radd is madd:  # R acting on itself: one addition serves both sides
        rsum, rgens = msum, mgens
    else:
        rsum = rows_of(as_row(radd), n)
        rgens = _generators(rsum, rsum.index(as_row(range(n))))
    # act_add over x, as r.(g+x) = r.g + r.x; row r's pair (x, y) compares
    # r.(x+y) with r.x + r.y over y
    for r, f in enumerate(scale):
        times = as_map(f)
        if not all(times(msum[g]) == plus[f[g]](f) for g in mgens):
            return ("act_add", r, *_first_mismatch(
                (times(row), plus[fx](f)) for row, fx in zip(msum, f)))
    # add_act and mul_act over r, as (s+r).x = s.x + r.x and (r*s).x = r.(s.x)
    at = list(map(as_map, cols))  # at[x](ss): s.x over the entries s of ss
    right = {s: as_row(rmul[s::n]) for s in rgens}  # r*s over r
    if not all(at_x(rsum[s]) == plus[col[s]](col) and at_x(right[s]) == cols[col[s]]
               for col, at_x in zip(cols, at) for s in rgens):
        prod = rows_of(as_row(rmul), n)  # r*s at [r][s]
        for r, f in enumerate(scale):
            times = as_map(f)
            # over s: (r+s).x against r.x + s.x, (r*s).x against r.(s.x)
            found = [(_first_diff(lhs, rhs), x, kind)
                     for x, (col, at_x) in enumerate(zip(cols, at))
                     for kind, lhs, rhs in (("add_act", at_x(rsum[r]), plus[f[x]](col)),
                                            ("mul_act", at_x(prod[r]), times(col)))
                     if lhs != rhs]
            if found:
                s, x, kind = min(found)
                return (kind, r, s, x)
    if scale[one] != identity:
        return ("one_act", _first_diff(scale[one], identity), -1, -1)
    return None


def _assoc_witness(rows, as_map):
    """First (i, j, k) with (i+j)+k != i+(j+k) in the table ``rows``
    (i + j at ``rows[i][j]``, rows made by ``_composition``), else None.
    For each i in turn, row j of each side is read whole: (i+j)+k over k
    is row i+j, and i+(j+k) over k is row j composed with row i."""
    for i, row in enumerate(rows):
        plus = as_map(row)
        w = _first_mismatch((rows[v], plus(rows[j])) for j, v in enumerate(row))
        if w is not None:
            return (i, *w)
    return None


def _first_mismatch(pairs):
    """(i, j) for the first pair i of equal-length rows that differ, at
    their first differing entry j, else None."""
    for i, (a, b) in enumerate(pairs):
        if a != b:
            return i, _first_diff(a, b)
    return None


# the ring axiom each module-axiom witness of R acting on itself names,
# with its message over the witness (i, j, k)
_REGULAR_ACTION_AXIOMS = {
    "act_add": ("left-distributive", "{0}*({1}+{2}) != {0}*{1} + {0}*{2}"),
    "add_act": ("right-distributive", "({0}+{1})*{2} != {0}*{2} + {1}*{2}"),
    "mul_act": ("mul-associative", "({0}*{1})*{2} != {0}*({1}*{2})"),
}


class FiniteRing:
    """A finite unital ring presented by operation tables.

    All invariants (abelian additive group, associative multiplication,
    two-sided distributivity, identity element) are decided in the
    constructor.  Instances are immutable; internal caches only memoize
    derived data.

    Apart from x*1 = x, the ring axioms are the module axioms of R acting
    on itself, so the tables are checked in this order: zero != one,
    the abelian group (``check_abelian_group``), then
    ``action_axiom_witness`` on the regular action, and last x*1 = x.
    The first failure raises ``TableError``.  Associativity of + and
    each module axiom are decided on additive generators; only the
    axiom whose decision failed is then scanned, to name its first
    witness in the scan order: for the regular action every
    left-distributive (r, x, y), then, over (r, s, x), right-distributive
    (r+s)*x before mul-associative (r*s)*x at the same triple, then
    1*x = x.

    ``_trusted`` skips every table check.  Only ``quotient_ring`` and
    ``product_ring`` pass it, for tables that ``check_map`` has proved
    valid through the maps that define them: the ring axioms are
    identities, so they hold in every homomorphic image of a ring and,
    coordinate by coordinate, in every product of rings.  Tables from
    input (``table:``) and the builtin formula rings are always checked.
    Trusted tables are flat and row-major, as those two build them.

    Either way the flat tables are stored by ``flat_table``: ``bytes``
    up to 256 elements, one byte per entry, which ``check_map`` and
    ``preimage`` read by ``translate`` without a copy, and tuples above.
    Each row is a slice of its flat table, so of the same type.  A
    quotient by the zero ideal is not built here: ``quotient_ring`` gives
    it the ring's checked tables, rows and negation whole, with its own
    names (``_name_elements``).
    """

    __slots__ = ("order", "add", "mul", "zero", "one", "name", "neg",
                 "add_flat", "mul_flat", "_names", "_resolve", "_cache")

    def __init__(self, order, add, mul, zero, one, name="R", element_names=None,
                 _trusted=False):
        if order < 1:
            raise TableError("order", (order,), "ring order must be positive")
        self.order = order
        if not _trusted:
            add = chain.from_iterable(_as_table(add, order, order, "add"))
            mul = chain.from_iterable(_as_table(mul, order, order, "mul"))
            if not isinstance(zero, int) or not 0 <= zero < order:
                raise TableError("zero-range", (zero,), "zero index out of range")
            if not isinstance(one, int) or not 0 <= one < order:
                raise TableError("one-range", (one,), "one index out of range")
        self.add_flat, self.mul_flat = flat_table(add, order), flat_table(mul, order)
        self.add, self.mul = rows_of(self.add_flat, order), rows_of(self.mul_flat, order)
        self.zero = zero
        self.one = one
        self._name_elements(name, element_names)
        if not _trusted:
            self._validate()
        self.neg = tuple(map(operator.indexOf, self.add, repeat(zero)))

    def _name_elements(self, name, element_names):
        """Set the name, the element names and an empty cache."""
        self.name = name
        self._names = dict(element_names or {})
        # "0" and "1" always denote the ring's zero and one; bare integer
        # tokens otherwise address elements by index.
        self._names.setdefault("0", self.zero)
        self._names.setdefault("1", self.one)
        self._resolve = {v: k for k, v in self._names.items() if not k.isdigit()}
        self._cache = {}

    def _validate(self):
        n, zero, one = self.order, self.zero, self.one
        if zero == one and n > 1:
            raise TableError("zero-one", (zero,), "zero equals one in a ring of order > 1")
        check_abelian_group(n, self.add, zero)
        w = action_axiom_witness(n, n, self.add_flat, self.mul_flat,
                                 self.add_flat, self.mul_flat, one)
        if w is not None:
            kind, i, j, k = w
            if kind == "one_act":
                raise TableError("one-identity", (i,), f"one is not an identity at {i}")
            axiom, message = _REGULAR_ACTION_AXIOMS[kind]
            raise TableError(axiom, (i, j, k), message.format(i, j, k))
        for i, row in enumerate(self.mul):
            if row[one] != i:
                raise TableError("one-identity", (i,), f"one is not an identity at {i}")

    # -- element helpers -------------------------------------------------

    def elements(self):
        return range(self.order)

    def is_commutative(self):
        got = self._cache.get("commutative")
        if got is None:
            got = all(self.mul[i][j] == self.mul[j][i]
                      for i in range(self.order) for j in range(i + 1, self.order))
            self._cache["commutative"] = got
        return got

    def element_name(self, i):
        return self._resolve.get(i, str(i))

    def resolve(self, token):
        """Map an element name or decimal index to an element index."""
        token = token.strip()
        if token in self._names:
            return self._names[token]
        try:
            idx = int(token)
        except ValueError:
            raise RingSpecError(f"unknown element {token!r} of {self.name}") from None
        if not 0 <= idx < self.order:
            raise RingSpecError(f"element index {idx} out of range for {self.name}")
        return idx

    def __repr__(self):
        return f"FiniteRing({self.name}, order={self.order})"


class Subset:
    """A subset of the ring or module ``structure`` as a bitset ``bits``.
    Subsets are equal when they have the same structure object and bits:
    a left ideal is no submodule of the regular module, another object."""

    __slots__ = ()

    def elements(self):
        return list(kernels.bits_of(self.bits))

    def __contains__(self, idx):
        return bool(self.bits >> idx & 1)

    def __iter__(self):
        return kernels.bits_of(self.bits)

    def __len__(self):
        return self.bits.bit_count()

    def __eq__(self, other):
        return (isinstance(other, Subset) and other.structure is self.structure
                and other.bits == self.bits)

    def __hash__(self):
        return hash((id(self.structure), self.bits))

    def __le__(self, other):
        return self.bits & ~other.bits == 0

    def is_zero(self):
        return self.bits == 1 << self.structure.zero

    def is_full(self):
        return self.bits == (1 << self.structure.order) - 1


class LeftIdeal(Subset):
    """A left ideal as a bitset plus a generator list, given by either: the
    generators are spanned, or the bits walked by ``greedy_generators`` for
    their canonical generators and their check (``ValueError`` if no ideal)."""

    __slots__ = ("ring", "bits", "generators")

    structure = property(operator.attrgetter("ring"))

    def __init__(self, ring, generators=None, bits=None):
        self.ring = ring
        if bits is None:
            self.generators = tuple(generators)
            check_generators(self.generators, ring.order, ring.name)
            bits = kernels.span_closure(ring.order, ring.order, ring.add_flat,
                                        ring.mul_flat, ring.zero, self.generators)
        elif generators is None:
            self.generators = greedy_generators(ring, bits)
        else:
            raise TypeError("an ideal is given by its generators or by its bits, not both")
        self.bits = bits

    def to_json(self):
        return {"generators": list(self.generators), "elements": self.elements()}

    def describe(self):
        names = ",".join(self.ring.element_name(g) for g in self.generators)
        return f"({names})"

    def __repr__(self):
        elems = ",".join(self.ring.element_name(i) for i in self)
        return f"<ideal {self.describe()} = {{{elems}}}>"


class TwoSidedIdeal(LeftIdeal):
    """A left ideal additionally closed under right multiplication."""

    __slots__ = ()

    def __init__(self, ring, generators=None, bits=None):
        super().__init__(ring, generators, bits)
        w = _right_closure_witness(self)
        if w is not None:
            a, r = w
            raise ValueError(
                f"not right-closed: {ring.element_name(a)} * {ring.element_name(r)} escapes")


def check_generators(gens, order, name, what="generator"):
    """Raise ``ValueError`` at the first generator (or other index,
    ``what``) outside 0..order-1 of the structure ``name``: the kernels
    and witness functions index tables with them."""
    for g in gens:
        if not 0 <= g < order:
            raise ValueError(f"{what} {g} out of range for {name}")


def preimage(row, bits, order):
    """The bitset of the positions x with ``row[x]`` in ``bits``, a subset
    of 0..order-1, for a nonempty ``row``.  Membership is read at C level
    through a "0"/"1" string, bit x of ``bits`` at position x, over the
    whole row at once: a ``bytes`` row (a stored table up to 256 elements,
    ``flat_table``) by one ``translate`` through that string as a 256-byte
    table, any other row by one ``itemgetter`` (over a one-entry row it
    gives a one-character string, which ``join`` reads the same)."""
    if type(row) is bytes and order <= BYTE_ORDER_LIMIT:
        member = format(bits, f"0{order}b")[::-1].encode().ljust(256, b"0")
        return int(row.translate(member)[::-1], 2)
    member = format(bits, f"0{order}b")[::-1]
    return int("".join(operator.itemgetter(*row)(member))[::-1], 2)


def _right_closure_witness(ideal):
    """``(a, r)``, a the first generator with a * r outside the left ideal
    for some r, and r the least; None if the ideal is right-closed.  The
    generators decide it: I = sum of R g, so a * r = sum of s (g r).  For
    greedy generators it is also the member scan's witness: a member that
    is no generator lies in the span of the generators below it, so the
    least member that escapes is a generator, with the same least r."""
    ring = ideal.ring
    full = (1 << ring.order) - 1
    for a in ideal.generators:
        missing = full & ~preimage(ring.mul[a], ideal.bits, ring.order)
        if missing:
            return (a, next(kernels.bits_of(missing)))
    return None


def is_two_sided(ideal):
    """True iff the left ideal is closed under right multiplication."""
    return _right_closure_witness(ideal) is None


def as_two_sided(ideal):
    """Promote to TwoSidedIdeal, or None if not right-closed."""
    if isinstance(ideal, TwoSidedIdeal):
        return ideal
    try:
        return TwoSidedIdeal(ideal.ring, ideal.generators)
    except ValueError:  # the generators of an ideal span it: not right-closed
        return None


def left_ideal_closure(ring, generators):
    """Least left ideal containing the listed elements (kept verbatim)."""
    return LeftIdeal(ring, generators)


def two_sided_closure(ring, generators):
    """Least two-sided ideal containing the listed elements: R*G*R, the
    left ideal spanned by the products g*r over g in G and r in R, as 1
    is in R."""
    generators = tuple(generators)
    check_generators(generators, ring.order, ring.name)
    products = [ring.mul[g][r] for g in generators for r in range(ring.order)]
    bits = kernels.span_closure(ring.order, ring.order, ring.add_flat,
                                ring.mul_flat, ring.zero, products)
    return TwoSidedIdeal(ring, bits=bits)


def greedy_generators(ring, bits):
    """Canonical generator list of the left ideal ``bits``: each member the
    span of the ones before it misses; ``ValueError`` if it is no left ideal."""
    return kernels.greedy_generators(ring.order, ring.order, ring.add_flat,
                                     ring.mul_flat, ring.zero, bits)


def all_left_ideals(ring):
    """Every left ideal exactly once, sorted by bitset value."""
    got = ring._cache.get("ideals")
    if got is None:
        masks = kernels.enumerate_submodules(ring.order, ring.order, ring.add_flat,
                                             ring.mul_flat, ring.zero)
        got = tuple(LeftIdeal(ring, bits=bits) for bits in masks)
        ring._cache["ideals"] = got
    return got


def ideal_sum(a, b):
    """Least left ideal containing both; generators are concatenated."""
    if a.ring is not b.ring:
        raise ValueError("ideal_sum: ideals over different rings")
    return LeftIdeal(a.ring, a.generators + b.generators)


def ideal_intersect(a, b):
    """Set intersection (always a left ideal)."""
    if a.ring is not b.ring:
        raise ValueError("ideal_intersect: ideals over different rings")
    return LeftIdeal(a.ring, bits=a.bits & b.bits)


def product_ideal(xs, ys, ring):
    """Left ideal generated by the pairwise products x*y, in input order."""
    xs, ys = tuple(xs), tuple(ys)
    if not xs or not ys:
        raise ValueError("product_ideal: generator lists must be nonempty")
    prods = tuple(ring.mul[x][y] for x in xs for y in ys)
    return LeftIdeal(ring, prods)


def _product_bits(ring, xs, ys):
    """Bitset of the product ideal; empty lists mean the zero ideal."""
    prods = [ring.mul[x][y] for x in xs for y in ys]
    return kernels.span_closure(ring.order, ring.order, ring.add_flat,
                                ring.mul_flat, ring.zero, prods)


def coset_representatives(order, add, members):
    """Cosets of the subgroup ``members`` of the additive table ``add``, each
    represented by its least element: ``(reps, proj)``, the representatives
    in increasing order and the index ``proj[x]`` in ``reps`` of x's coset.

    Walking x upward, an x not yet labelled is the least element of its
    coset x + S, which is labelled whole, so each element is labelled
    once."""
    proj = [None] * order
    reps = []
    for x in range(order):
        if proj[x] is None:
            label = len(reps)
            reps.append(x)
            row = add[x]
            for i in members:
                proj[row[i]] = label
    return reps, tuple(proj)


def rows_of(flat, m):
    """A flat table as a tuple of its rows of m entries, slices of the
    flat table and so of its type."""
    return tuple([flat[i:i + m] for i in range(0, len(flat), m)])


def check_map(what, f, m, operations, constants=(), kernel=None):
    """Raise ``InvariantError`` unless ``f`` maps onto 0..m-1 and
    preserves every operation and constant listed; ``what`` names the
    construction in the message.

    This proves a structure built from checked ones valid without its
    axiom validators: the ring and module axioms are identities (an
    inverse of x is read off as f of an inverse), so they hold in the
    image of a map that is onto and preserves the operations and
    constants, and in a product whose coordinate maps do so and pair the
    elements one to one.

    ``f`` lists the images of the M source elements.  An operation
    ``(name, g, src, dst)`` has a flat source table ``src`` of
    ``len(g)`` rows of M entries and a flat target table ``dst`` with
    rows of m entries; f preserves it when f(src[i][x]) = dst[g[i]][f(x)]
    for all i and x.  ``g`` is f itself for a binary operation and
    ``range(n)`` for the action of a ring of order n.  A constant
    ``(name, a, b)`` asks that f(a) = b.  ``kernel``, a pair ``(a, bits)``,
    asks that the elements f sends to f(a) be exactly the bitset bits.
    An entry of f or of a table that is no element index also fails the
    check.  Each operation is checked by whole-row composition, in one
    route at every order (``_operation_witness``).  Stored tables, ``bytes``
    up to 256 elements (``flat_table``), are range-checked and composed by
    ``translate`` as they are; a table of any other type is copied into
    a row first, and tuples above 256 are read as lists.
    """
    if not all_index_entries(f, frozenset(range(m))):
        _map_fault(what, "an entry of the map is no element index")
    if len(set(f)) != m:
        _map_fault(what, "the map is not onto")
    for name, a, b in constants:
        if f[a] != b:
            _map_fault(what, f"{name} is not preserved")
    if kernel is not None:
        a, bits = kernel
        if preimage(f, 1 << f[a], m) != bits:
            _map_fault(what, "the kernel differs from the submodule or ideal")
    for name, g, src, dst in operations:
        w = _operation_witness(f, m, g, src, dst)
        if w == "range":
            _map_fault(what, f"a {name} table has the wrong size or an entry out of range")
        if w is not None:
            _map_fault(what, f"{name} is not preserved at {w}")


def _map_fault(what, message):
    raise InvariantError(f"{what}: {message}")


def _operation_witness(f, m, g, src, dst):
    """First (i, x) in row-major order with f(src[i][x]) != dst[g[i]][f(x)],
    ``"range"`` when a table has the wrong size or an entry that is no
    element index, or None; ``f`` must map onto 0..m-1.

    One route at every order, by whole rows (see ``_composition``):
    ``src`` with f after it gives every left side at once, and f with row
    h of ``dst`` after it gives the right sides of each row i with
    g[i] = h, joined in the order of g by one ``join``: one composition
    per row of ``dst`` and one comparison of the whole tables.
    """
    n_src = len(f)
    if len(src) != len(g) * n_src or len(dst) != (max(g) + 1) * m:
        return "range"
    as_row, as_map, index_row, join = _composition(max(n_src, m))
    src, dst = index_row(src, n_src), index_row(dst, m)
    if src is None or dst is None:
        return "range"
    f = as_row(f)
    lhs = as_map(f)(src)
    rights = [as_map(row)(f) for row in rows_of(dst, m)]  # dst[h][f(x)] over x
    rhs = join(map(rights.__getitem__, g))
    return None if lhs == rhs else divmod(_first_diff(lhs, rhs), n_src)


def product_maps(n1, n2):
    """The coordinate maps i -> i // n2 and i -> i % n2 of a product of
    structures of orders n1 and n2, indexed i = i1 * n2 + i2; together
    they pair 0..n1*n2-1 one to one with the pairs (i1, i2)."""
    n = n1 * n2
    return [i // n2 for i in range(n)], [i % n2 for i in range(n)]


def pair_table(t1, t2):
    """The flat table of the operation on pairs i = i1 * n2 + i2 that acts
    by the square table ``t1`` (n1 x n1) on i1 and by ``t2`` (n2 x n2) on
    i2, as ``_composition`` joins rows: ``bytearray`` up to 256 pairs, a
    list above.  Row (i1, i2) is, for each entry x of row i1 of ``t1`` in
    turn, row i2 of ``t2`` shifted into the block of x (x * n2 + y over
    its entries y).  Those n1 * n2 shifted rows are made first, each by
    one composition, and the whole table is one ``join`` of them."""
    n1, n2 = len(t1), len(t2)
    as_row, as_map, _, join = _composition(n1 * n2)
    shifts = [as_map(as_row(range(x * n2, x * n2 + n2))) for x in range(n1)]
    blocks = [[shift(row) for shift in shifts] for row in map(as_row, t2)]  # [i2][x]
    return join(chain.from_iterable(map(block.__getitem__, a) for a in t1 for block in blocks))


# the checked tables that a ring shares with its quotient by zero
_SHARED_SLOTS = ("order", "add", "mul", "zero", "one", "neg", "add_flat", "mul_flat")


def quotient_ring(ring, ideal):
    """Quotient by a two-sided ideal.

    Returns ``(quotient, projection)`` where ``projection[x]`` is the
    index of the coset of ``x``.  Cosets are represented by their least
    element index.  The projection is checked to be a surjective ring
    homomorphism with the given kernel, which proves the quotient's
    tables valid (see ``check_map``).  By the zero ideal nothing is
    derived or checked: R/0 shares R's checked tables, rows and negation
    under its own name, element names and cache, and its projection is
    the identity, as M/0 does for ``modules.quotient_module``.
    """
    if not isinstance(ideal, TwoSidedIdeal):
        promoted = as_two_sided(ideal) if isinstance(ideal, LeftIdeal) else None
        if promoted is None:
            raise ValueError("quotient_ring requires a two-sided ideal")
        ideal = promoted
    if ideal.ring is not ring:
        raise ValueError("quotient_ring: ideal over a different ring")
    cached = ring._cache.get(("quot", ideal.bits))
    if cached is not None:
        return cached

    name = f"{ring.name}/{ideal.describe()}"
    if ideal.is_zero():
        proj = range(ring.order)
        quot = object.__new__(FiniteRing)
        for slot in _SHARED_SLOTS:
            setattr(quot, slot, getattr(ring, slot))
        quot._name_elements(name, _coset_names(ring, proj))
    else:
        reps, proj = coset_representatives(ring.order, ring.add, ideal.elements())
        m = len(reps)
        add = [proj[ring.add[a][b]] for a in reps for b in reps]
        mul = [proj[ring.mul[a][b]] for a in reps for b in reps]
        zero, one = proj[ring.zero], proj[ring.one]
        check_map(f"quotient ring {name}", proj, m,
                  [("+", proj, ring.add_flat, add), ("*", proj, ring.mul_flat, mul)],
                  [("zero", ring.zero, zero), ("one", ring.one, one)],
                  kernel=(ring.zero, ideal.bits))
        quot = FiniteRing(m, add, mul, zero, one, name=name,
                          element_names=_coset_names(ring, reps), _trusted=True)
    ring._cache[("quot", ideal.bits)] = (quot, proj)
    return quot, proj


def _coset_names(ring, reps):
    """The element names of a quotient: "[r]" for the coset of each
    representative r, by index in ``reps``; the first coset keeps a name
    that two share."""
    names = {}
    for k, r in enumerate(reps):
        names.setdefault(f"[{ring.element_name(r)}]", k)
    return names


def idempotent_generator(ring, ideal):
    """The idempotent e with (e) = ideal, for an idempotent ideal of a
    commutative ring.  Found by exhaustive search; by the classical fact
    about finitely generated idempotent ideals it must exist, so a failed
    search is reported as an internal fault."""
    if not ring.is_commutative():
        raise ValueError("idempotent_generator requires a commutative ring")
    square = _product_bits(ring, ideal.generators, ideal.generators)
    if square != ideal.bits:
        raise ValueError("idempotent_generator requires an idempotent ideal (A*A = A)")
    for e in ideal:
        if ring.mul[e][e] != e:
            continue
        span = kernels.span_closure(ring.order, ring.order, ring.add_flat,
                                    ring.mul_flat, ring.zero, (e,))
        if span == ideal.bits:
            return e
    raise InvariantError(
        f"no idempotent generator found for {ideal.describe()} over {ring.name}")


def format_quasiidentity(ideal):
    """Render (a1 x = 0) & ... & (am x = 0) -> (x = 0) over the generators."""
    parts = []
    for g in ideal.generators:
        name = ideal.ring.element_name(g)
        sep = "" if name.isdigit() else "·"
        parts.append(f"({name}{sep}x=0)")
    return "∧".join(parts) + "→(x=0)"


# -- builtin constructors ------------------------------------------------

def cyclic_ring(n):
    """Integers mod n."""
    if n < 1:
        raise RingSpecError("Z(n) requires n >= 1")
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    mul = [[(i * j) % n for j in range(n)] for i in range(n)]
    return FiniteRing(n, add, mul, 0, 1 % n, name=f"Z({n})")


def _require_prime(p, what):
    if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        raise RingSpecError(f"{what} requires a prime, got {p}")


def prime_field(p):
    """The field with p elements (p prime)."""
    _require_prime(p, "GF(p)")
    ring = cyclic_ring(p)  # its tables, checked once
    ring.name = f"GF({p})"
    return ring


def upper_triangular_ring(p):
    """Upper triangular 2x2 matrices over GF(p).

    Element index is ``(a*p + b)*p + c`` for the matrix [[a, b], [0, c]],
    so over GF(2): e11 = 4, e12 = 2, e22 = 1 and the identity is 5.
    """
    return _matrix_ring(p, "UT2", ((0, 0), (0, 1), (1, 1)))


def full_matrix_ring(p):
    """Full 2x2 matrix ring over GF(p); index = ((a*p+b)*p+c)*p + d."""
    return _matrix_ring(p, "M2", ((0, 0), (0, 1), (1, 0), (1, 1)))


def _matrix_ring(p, ctor, cells):
    """The ring ``ctor(p)`` of the 2x2 matrices over GF(p) that are zero
    off ``cells``, product-closed positions that hold the diagonal.  An
    element's index reads its entries at ``cells`` as base-p digits, most
    significant first.  Row i of x + y and of x*y depends on x only through
    row i of x, so each table row adds two row parts made once by C-level
    maps over the entry columns of all y."""
    _require_prime(p, f"{ctor}(p)")
    n = p ** len(cells)
    weight = {cell: n // p ** (c + 1) for c, cell in enumerate(cells)}
    # col[i, j][y]: y's entry at (i, j)
    col = {cell: [0] * n for cell in product((0, 1), repeat=2)}
    col.update((cell, [y // w % p for y in range(n)]) for cell, w in weight.items())

    def part(i, entries):
        # the index part of row i of the matrices whose entry (i, j) is entries[j] mod p
        terms = [map(weight[i, j].__mul__, map(p.__rmod__, entries[j]))
                 for j in (0, 1) if (i, j) in weight]
        return list(map(sum, zip(*terms)))

    # sums[i][a, b], prods[i][a, b]: the parts of row i of x + y and of x*y
    # over all y, for the x whose row i is (a, b)
    sums, prods = ({}, {}), ({}, {})
    for i in (0, 1):
        for a, b in product(*(range(p) if (i, j) in weight else (0,) for j in (0, 1))):
            sums[i][a, b] = part(i, [map(a.__add__, col[i, 0]), map(b.__add__, col[i, 1])])
            prods[i][a, b] = part(i, [map(operator.add, map(a.__mul__, col[0, j]),
                                          map(b.__mul__, col[1, j])) for j in (0, 1)])
    xs = list(zip(col[0, 0], col[0, 1], col[1, 0], col[1, 1]))
    add = [list(map(operator.add, sums[0][a, b], sums[1][c, d])) for a, b, c, d in xs]
    mul = [list(map(operator.add, prods[0][a, b], prods[1][c, d])) for a, b, c, d in xs]
    units = [f"e{i + 1}{j + 1}" for i, j in cells]
    ring = FiniteRing(n, add, mul, 0, weight[0, 0] + weight[1, 1], name=f"{ctor}({p})",
                      element_names=dict(zip(units, weight.values())))
    ring._resolve = {x: _matrix_name(entries, units)
                     for x, entries in enumerate(zip(*(col[cell] for cell in cells)))}
    return ring


def _matrix_name(coeffs, units):
    terms = []
    for c, unit in zip(coeffs, units):
        if c == 1:
            terms.append(unit)
        elif c > 1:
            terms.append(f"{c}{unit}")
    return "+".join(terms) if terms else "0"


def product_ring(r1, r2):
    """Componentwise product; index = i1 * |R2| + i2.

    Both coordinate maps are checked to preserve +, *, zero and one,
    which proves the product's tables valid (see ``check_map``).
    """
    n1, n2 = r1.order, r2.order
    n = n1 * n2
    add, mul = pair_table(r1.add, r2.add), pair_table(r1.mul, r2.mul)
    zero, one = r1.zero * n2 + r2.zero, r1.one * n2 + r2.one
    name = f"prod({r1.name},{r2.name})"
    for p, factor in zip(product_maps(n1, n2), (r1, r2)):
        check_map(f"product ring {name}", p, factor.order,
                  [("+", p, add, factor.add_flat), ("*", p, mul, factor.mul_flat)],
                  [("zero", zero, factor.zero), ("one", one, factor.one)])
    ring = FiniteRing(n, add, mul, zero, one, name=name, _trusted=True)
    ring._resolve = {i: f"({r1.element_name(i // n2)},{r2.element_name(i % n2)})"
                     for i in range(n)}
    return ring


def json_object(doc, what, keys, where):
    """Raise ``RingSpecError`` at ``where`` unless ``doc`` is a JSON object with every key."""
    if not isinstance(doc, dict):
        raise RingSpecError(f"{what} must be a JSON object", where)
    for key in keys:
        if key not in doc:
            raise RingSpecError(f"missing key {key!r}", where)


def table_document(doc, kind, tables, indices):
    """The order of the parsed ``kind`` table document ``doc`` once its
    JSON form holds: an object with every key, ``order`` an integer of at
    least 1, each of ``tables`` an array of arrays of integers and each of
    ``indices`` an integer, else ``RingSpecError`` at the JSON path.  Row
    counts, row lengths and ranges are left to the constructor."""
    json_object(doc, f"{kind} table document", ("order", *tables, *indices), "$")
    if not is_json_int(doc["order"]) or doc["order"] < 1:
        raise RingSpecError("order must be a positive integer", "$.order")
    for key in tables:
        if not isinstance(doc[key], list):
            raise RingSpecError("must be an array of rows", f"$.{key}")
        for i, row in enumerate(doc[key]):
            if not isinstance(row, list):
                raise RingSpecError("row must be an array", f"$.{key}[{i}]")
            if not set(map(type, row)) <= {int}:  # no bool, float, string or null
                j = next(j for j, v in enumerate(row) if not is_json_int(v))
                raise RingSpecError("entry must be an element index", f"$.{key}[{i}][{j}]")
    for key in indices:
        if not is_json_int(doc[key]):
            raise RingSpecError("must be an element index", f"$.{key}")
    return doc["order"]


def ring_from_table(doc, name="table"):
    """Build a ring from a parsed document ``{"order": n, "add": [[...]],
    "mul": [[...]], "zero": z, "one": o}``: ``table_document`` checks its
    JSON form, then ``FiniteRing`` shape, range and axioms, once."""
    order = table_document(doc, "ring", ("add", "mul"), ("zero", "one"))
    return FiniteRing(order, doc["add"], doc["mul"], doc["zero"], doc["one"], name=name)
