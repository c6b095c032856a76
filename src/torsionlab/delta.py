"""Delta axioms for modules: reduction, evaluation, and the encoded ideal.

A delta axiom is presented by difference rows

    D_j(x, y, u, v, z) = a_j x + b_j y + sum_i c_ij u_i
                         + sum_i d_ij v_i + sum_i e_ij z_i

and asserts (1) every D_j vanishes identically under x = y, u = v, and
(2) the joint vanishing of all D_j under u = v forces x = y.  Over a
class whose generated variety is all modules, (1) forces b = -a,
d = -c, e = 0 coefficientwise; the reduced rows E_j(X, U) = a_j X +
sum_i c_ij U_i are then encoded by the left ideal generated by the a_j.

Both conditions are evaluated exhaustively here, with no kernel.  Row
j's value splits into its x/y terms and its u/z part, the base w_j; the
distinct bases are built once per call, and for each base a row vanishes
exactly where its x/y terms take the value -w_j.  Those positions are a
fiber of the x/y terms, kept as a bitset, so both conditions are read off
bitsets in one route at every order.

The fibers depend only on the module and the scalars, so they are kept
in a ``_FiberTable``, built as it is read.  The census sweep evaluates
all of its axioms on one module before it moves to the next, through
one table per module that lives only for that batch; the public entry
points build a table per call.  The evaluation uses the module axiom
``add_act``, (r + s) x = r x + s x, to merge each u_i's two terms into
(c_ij + d_ij) u_i and, under x = y, a_j x + b_j x into (a_j + b_j) x.
Every ``FiniteModule`` satisfies it: untrusted tables are validated,
derived ones proved through ``check_map``.  A step whose scalars are all
zero (every step of a reducible axiom) adds 0 to every row, so it
extends each base's tuple by 0 without walking t.
"""

from functools import reduce
from operator import and_

from .errors import InputError, InvariantError, ReductionError, RingSpecError
from .modules import satisfies_quasiidentity
from .rings import check_generators, is_json_int, json_object, left_ideal_closure
from .ringspec import document_ring
from .torsion import _require_torsion_free, relative_closure


class DeltaRow:
    __slots__ = ("a", "b", "c", "d", "e")

    def __init__(self, a, b, c=(), d=(), e=()):
        self.a = a
        self.b = b
        self.c = tuple(c)
        self.d = tuple(d)
        self.e = tuple(e)


class DeltaAxiom:
    """A delta axiom over a ring, with shared u/z arities across rows."""

    __slots__ = ("ring", "u_arity", "z_arity", "rows")

    def __init__(self, ring, rows, u_arity=None, z_arity=None):
        rows = tuple(rows)
        if not rows:
            raise ValueError("a delta axiom needs at least one row")
        if u_arity is None:
            u_arity = len(rows[0].c)
        if z_arity is None:
            z_arity = len(rows[0].e)
        self.ring = ring
        self.u_arity = u_arity
        self.z_arity = z_arity
        self.rows = rows
        for j, row in enumerate(rows):
            if len(row.c) != u_arity or len(row.d) != u_arity:
                raise ValueError(f"row {j}: c/d must have arity {u_arity}")
            if len(row.e) != z_arity:
                raise ValueError(f"row {j}: e must have arity {z_arity}")
            for coef in (row.a, row.b, *row.c, *row.d, *row.e):
                if not 0 <= coef < ring.order:
                    raise InputError(f"row {j}: coefficient {coef} out of range")

    def __repr__(self):
        return (f"<DeltaAxiom over {self.ring.name}: {len(self.rows)} rows, "
                f"u_arity={self.u_arity}, z_arity={self.z_arity}>")


class ReducedDelta:
    """Reduced rows (a_j, c_j) plus the encoding left ideal."""

    __slots__ = ("ring", "rows", "ideal")

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = tuple(rows)
        self.ideal = left_ideal_closure(ring, [a for a, _ in self.rows])

    def induced_delta(self):
        """The delta axiom obtained by reading each reduced row back as a
        difference row (b = -a, d = -c, no z block)."""
        ring = self.ring
        rows = [DeltaRow(a, ring.neg[a], c, tuple(ring.neg[x] for x in c), ())
                for a, c in self.rows]
        return DeltaAxiom(ring, rows)


def reduce_delta(axiom):
    """Verify the coefficient conditions and emit the reduced form.

    Over a class generating all modules of the ring, condition (1) holds
    only if a + b, c + d and e all vanish coefficientwise; a violation
    names the offending row and coefficient.
    """
    ring = axiom.ring
    reduced = []
    for j, row in enumerate(axiom.rows):
        if ring.add[row.a][row.b] != ring.zero:
            raise ReductionError(
                j, "b", f"row {j}: b = {ring.element_name(row.b)} is not the additive "
                f"inverse of a = {ring.element_name(row.a)}; the sentence is not a "
                f"delta axiom over a class generating all {ring.name}-modules")
        for i in range(axiom.u_arity):
            if ring.add[row.c[i]][row.d[i]] != ring.zero:
                raise ReductionError(
                    j, f"d[{i}]", f"row {j}: d[{i}] is not the additive inverse of c[{i}]")
        for i in range(axiom.z_arity):
            if row.e[i] != ring.zero:
                raise ReductionError(
                    j, f"e[{i}]", f"row {j}: e[{i}] = {ring.element_name(row.e[i])} "
                    "must be zero")
        reduced.append((row.a, row.c))
    return ReducedDelta(ring, reduced)


def _delta_bases(module, axiom):
    """Each distinct u/z base, mapped to the first (u, z) tuple in
    odometer order that reaches it, as a dict in the order of those
    tuples.

    ``base[j]`` is row j's u/z part summed from zero: the whole of row
    j's value except its x/y terms.  The bases are built one variable at
    a time.  The partial sums after v variables are kept with their
    odometer-first prefix, and only those prefixes are extended by t =
    0..m-1: a prefix p reaches the same partial sum as the kept prefix
    q <= p, so p + (t,) reaches what q + (t,) does, and q + (t,) comes
    first.  Walking the kept prefixes in insertion order therefore meets
    every sum first at its odometer-first tuple.  The cost is the sum
    over v of |B_v| * m * rows, with B_v the partial sums after v
    variables, instead of m**(u+z) tuples.  A variable whose scalars are
    all zero adds 0 at every t, so each kept prefix is extended by 0
    alone.  A reducible axiom (d = -c, e = 0) has one base, all zero,
    reached at the all-zero tuple.
    """
    add, act, rows = module.add, module.act, axiom.rows
    radd, zero = module.ring.add, module.ring.zero
    # scalars[v][j]: variable v = t adds scalars[v][j] t to row j; u_i
    # adds c_ij u_i + d_ij u_i = (c_ij + d_ij) u_i, by add_act
    scalars = [[radd[row.c[i]][row.d[i]] for row in rows] for i in range(axiom.u_arity)]
    scalars += [[row.e[i] for row in rows] for i in range(axiom.z_arity)]
    bases = {(module.zero,) * len(rows): ()}
    for step in scalars:
        if step.count(zero) == len(step):
            bases = {base: (*tup, 0) for base, tup in bases.items()}
            continue
        step = [act[r] for r in step]
        grown = {}
        for base, tup in bases.items():
            sums = zip(*[map(add[w].__getitem__, terms) for w, terms in zip(base, step)])
            for t, new in enumerate(sums):
                if new not in grown:
                    grown[new] = (*tup, t)
        bases = grown
    return bases


def _fibers(values):
    """Each value, mapped to the bitset of the positions that hold it."""
    fibers = {}
    for pos, value in enumerate(values):
        fibers[value] = fibers.get(value, 0) | 1 << pos
    return fibers


def _low_bit(bits):
    return (bits & -bits).bit_length() - 1


class _FiberTable:
    """The fibers of one module's scalar actions, each built when it is
    first read: ``of(r)`` the fibers of x -> r x, ``pair(a, b, v)`` the
    (x, y) with a x + b y = v, and ``off_diagonal()`` the x != y.  Pairs
    are bitsets over x * m + y, so the lowest set bit is the first (x, y)
    in (x, y) order.  A table serves the axioms evaluated on one module
    and is dropped with that batch; it is never kept in the module."""

    __slots__ = ("module", "_of", "_pairs", "_off_diagonal")

    def __init__(self, module):
        self.module = module
        self._of = {}
        self._pairs = {}
        self._off_diagonal = None

    def of(self, r):
        fibers = self._of.get(r)
        if fibers is None:
            fibers = self._of[r] = _fibers(self.module.act[r])
        return fibers

    def pair(self, a, b, v):
        key = a, b, v
        bits = self._pairs.get(key)
        if bits is None:
            module = self.module
            m, minus, fibers = module.order, module.neg, self.of(b)
            to_v = module.add[v]
            # row x: the y with b y = v - a x
            bits = 0
            for shift, t in zip(range(0, m * m, m), module.act[a]):
                bits |= fibers.get(to_v[minus[t]], 0) << shift
            self._pairs[key] = bits
        return bits

    def off_diagonal(self):
        if self._off_diagonal is None:
            m = self.module.order
            diagonal = sum(1 << x for x in range(0, m * m, m + 1))
            self._off_diagonal = ((1 << m * m) - 1) ^ diagonal
        return self._off_diagonal


def delta_condition_witnesses(module, axiom):
    """Exhaustively evaluate both conditions; returns (w1, w2) witnesses.

    ``w1 = (x, *u, *z, row)`` is the first (x, u-tuple, z-tuple) in
    odometer order, u and z outermost, at which some row fails to vanish
    under x = y, u = v, the least row among ties; ``w2 = (x, y, *u,
    *z)`` is the first (u-tuple, z-tuple, x, y) with x != y at which
    every row vanishes under u = v.  Either is ``None`` when its
    condition holds.

    Row j's value is ``(a_j x + b_j y) + w_j`` for its base w_j (see
    ``_delta_bases``), and each distinct base is tested in turn.  The
    addition is an abelian group, so the value is zero exactly when the
    x/y part equals ``neg[w_j]``: a fiber of the x/y part, read off a
    bitset over x of (a_j + b_j) x (cond1, by add_act) or over the pairs
    (x, y) (cond2).  Each call reads a fresh ``_FiberTable``.
    """
    return _condition_witnesses(module, axiom, _FiberTable(module))


def _condition_witnesses(module, axiom, table):
    """``delta_condition_witnesses`` reading the fibers off ``table``,
    the ``_FiberTable`` of ``module``."""
    if axiom.ring is not module.ring:
        raise ValueError("delta axiom over a different ring")
    bases = _delta_bases(module, axiom)
    return _cond1_witness(module, axiom, bases, table), _cond2_witness(module, axiom, bases, table)


def _cond1_witness(module, axiom, bases, table):
    """The witness ``w1`` of ``delta_condition_witnesses``."""
    radd, neg = module.ring.add, module.neg
    full = (1 << module.order) - 1
    # the fibers of x -> a_j x + b_j x = (a_j + b_j) x
    fibers = [table.of(radd[row.a][row.b]) for row in axiom.rows]
    for base, tup in bases.items():
        fails = [(_low_bit(bad), j) for j, bad in enumerate(
                     full & ~fib.get(neg[w], 0) for fib, w in zip(fibers, base)) if bad]
        if fails:
            x, j = min(fails)
            return (x, *tup, j)
    return None


def _cond2_witness(module, axiom, bases, table):
    """The witness ``w2`` of ``delta_condition_witnesses``."""
    a = [row.a for row in axiom.rows]
    b = [row.b for row in axiom.rows]
    off, minus = table.off_diagonal(), module.neg.__getitem__
    for base, tup in bases.items():
        # the x != y at which every row j vanishes: a_j x + b_j y = -w_j
        hits = reduce(and_, map(table.pair, a, b, map(minus, base)), off)
        if hits:
            return (*divmod(_low_bit(hits), module.order), *tup)
    return None


def delta_satisfied(module, axiom):
    """Whether the module satisfies the delta axiom (both conditions),
    decided by exhaustive quantification over all variable tuples."""
    w1, w2 = delta_condition_witnesses(module, axiom)
    return w1 is None and w2 is None


def delta_equiv_quasiidentity(module, axiom):
    """Evaluate the axiom and cross-check against its encoded ideal.

    The two routes are independent: the left side quantifies over the
    original rows, the right side tests the one-variable quasiidentity of
    the encoding ideal.  Disagreement is a hard fault.
    """
    return _delta_equiv(module, axiom, reduce_delta(axiom), _FiberTable(module))


def _delta_equiv(module, axiom, red, table):
    """``delta_equiv_quasiidentity`` with the axiom already reduced to
    ``red`` and the fibers read off ``table``, the module's
    ``_FiberTable``, so that a sweep reduces each axiom once and builds
    each fiber once per module.  The quasiidentity reads no table: it is
    the independent route."""
    w1, w2 = _condition_witnesses(module, axiom, table)
    via_delta = w1 is None and w2 is None
    via_ideal = satisfies_quasiidentity(module, red.ideal)
    if via_delta != via_ideal:
        raise InvariantError(
            f"delta evaluation ({via_delta}) disagrees with the encoded "
            f"quasiidentity ({via_ideal}) on {module.name}")
    return via_delta


def delta_membership_witness(notion, module, sub, x, ideal):
    """Whether ``ideal * x`` lies in ``sub``, for a member ideal.

    A positive answer must place ``x`` in the relative closure of
    ``sub``; that implication is re-checked and a failure is a hard
    fault.
    """
    _require_torsion_free(notion, module)
    check_generators((x,), module.order, module.name, "element")
    if ideal not in notion:
        raise ValueError("ideal is not a member of the torsion notion")
    result = all(sub.bits >> module.act[g][x] & 1 for g in ideal.generators)
    if result:
        closure = relative_closure(notion, module, sub)
        if x not in closure:
            raise InvariantError("membership witness outside the relative closure")
    return result


def random_reducible_delta(ring, rng, max_rows=3, max_u=2, max_z=1):
    """A seeded random delta axiom satisfying the reduction conditions."""
    rows = rng.randint(1, max_rows)
    u_arity = rng.randint(0, max_u)
    z_arity = rng.randint(0, max_z)
    out = []
    for _ in range(rows):
        a = rng.randrange(ring.order)
        c = [rng.randrange(ring.order) for _ in range(u_arity)]
        out.append(DeltaRow(a, ring.neg[a], tuple(c),
                            tuple(ring.neg[x] for x in c),
                            (ring.zero,) * z_arity))
    return DeltaAxiom(ring, out, u_arity, z_arity)


def delta_from_doc(doc, ring):
    """Build a delta axiom from a parsed document ``{"ring": spec, "u_arity":
    k, "z_arity": l, "rows": [{"a": .., "b": .., "c": [..], "d": [..], "e":
    [..]}]}`` over ``ring``, or over the ring its ``"ring"`` names when
    ``ring`` is None (``ringspec.document_ring``).  Coefficients are element
    indices or names.  JSON types and arities are checked at their JSON
    paths; ``DeltaAxiom`` checks that each index is in range (``InputError``)."""
    json_object(doc, "delta axiom document", ("u_arity", "z_arity", "rows"), "$")
    ring = document_ring(doc, ring)
    for key in ("u_arity", "z_arity"):
        if not is_json_int(doc[key]) or doc[key] < 0:
            raise RingSpecError(f"{key} must be a nonnegative integer", f"$.{key}")

    def coef(v, where):
        if is_json_int(v):
            return v
        if isinstance(v, str):
            try:
                return ring.resolve(v)
            except RingSpecError as err:
                raise RingSpecError(str(err), where) from None
        raise RingSpecError("coefficient must be an index or element name", where)

    rows = []
    if not isinstance(doc["rows"], list) or not doc["rows"]:
        raise RingSpecError("rows must be a nonempty array", "$.rows")
    for j, row in enumerate(doc["rows"]):
        at = f"$.rows[{j}]"
        json_object(row, "row", ("a", "b"), at)
        for key, arity in (("c", "u_arity"), ("d", "u_arity"), ("e", "z_arity")):
            vals = row.get(key, [])
            if not isinstance(vals, list):
                raise RingSpecError(f"{key} must be an array", f"{at}.{key}")
            if len(vals) != doc[arity]:
                raise RingSpecError(f"{key} has {len(vals)} entries but {arity} is {doc[arity]}",
                                    f"{at}.{key}")
        a, b = (coef(row[key], f"{at}.{key}") for key in "ab")
        c, d, e = (tuple(coef(v, f"{at}.{key}[{i}]") for i, v in enumerate(row.get(key, [])))
                   for key in "cde")
        rows.append(DeltaRow(a, b, c, d, e))
    return DeltaAxiom(ring, rows, doc["u_arity"], doc["z_arity"])
