"""Delta axioms for modules: reduction, evaluation, and the encoded ideal.

A delta axiom is presented by difference rows

    D_j(x, y, u, v, z) = a_j x + b_j y + sum_i c_ij u_i
                         + sum_i d_ij v_i + sum_i e_ij z_i

and asserts (1) every D_j vanishes identically under x = y, u = v, and
(2) the joint vanishing of all D_j under u = v forces x = y.  Over a
class whose generated variety is all modules, (1) forces b = -a,
d = -c, e = 0 coefficientwise; the reduced rows E_j(X, U) = a_j X +
sum_i c_ij U_i are then encoded by the left ideal generated by the a_j.
"""

from . import kernels
from .errors import InvariantError, ReductionError, RingSpecError
from .modules import satisfies_quasiidentity
from .rings import is_json_int, left_ideal_closure
from .torsion import _require_validated, is_torsion_free, relative_closure


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
                    raise ValueError(f"row {j}: coefficient {coef} out of range")

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


def _coef_arrays(axiom):
    rows = len(axiom.rows)
    a = [row.a for row in axiom.rows]
    b = [row.b for row in axiom.rows]
    c = [x for row in axiom.rows for x in row.c]
    d = [x for row in axiom.rows for x in row.d]
    e = [x for row in axiom.rows for x in row.e]
    return rows, a, b, c, d, e


def delta_condition_witnesses(module, axiom):
    """Exhaustively evaluate both conditions; returns (w1, w2) witnesses."""
    if axiom.ring is not module.ring:
        raise ValueError("delta axiom over a different ring")
    rows, a, b, c, d, e = _coef_arrays(axiom)
    args = (module.order, rows, axiom.u_arity, axiom.z_arity,
            module.add_flat, module.act_flat, a, b, c, d, e, module.zero)
    w1 = kernels.delta_cond1_witness(*args)
    w2 = kernels.delta_cond2_witness(*args)
    return w1, w2


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
    red = reduce_delta(axiom)
    via_delta = delta_satisfied(module, axiom)
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
    _require_validated(notion, module)
    if ideal not in notion:
        raise ValueError("ideal is not a member of the torsion notion")
    if not is_torsion_free(notion, module):
        raise ValueError(f"{module.name} is not torsion-free for {notion.describe()}")
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
    """Build a delta axiom from a parsed axiom-file document.

    Expects ``{"ring": spec, "u_arity": k, "z_arity": l, "rows": [{"a":
    .., "b": .., "c": [..], "d": [..], "e": [..]}]}``; coefficients are
    element indices or builtin element names.
    """
    if not isinstance(doc, dict):
        raise RingSpecError("delta axiom document must be a JSON object", "$")
    for key in ("u_arity", "z_arity", "rows"):
        if key not in doc:
            raise RingSpecError(f"missing key {key!r}", "$")
    for key in ("u_arity", "z_arity"):
        if not is_json_int(doc[key]) or doc[key] < 0:
            raise RingSpecError(f"{key} must be a nonnegative integer", f"$.{key}")

    def coef(v, where):
        if is_json_int(v):
            if not 0 <= v < ring.order:
                raise RingSpecError("coefficient out of range", where)
            return v
        if isinstance(v, str):
            return ring.resolve(v)
        raise RingSpecError("coefficient must be an index or element name", where)

    rows = []
    if not isinstance(doc["rows"], list) or not doc["rows"]:
        raise RingSpecError("rows must be a nonempty array", "$.rows")
    for j, row in enumerate(doc["rows"]):
        if not isinstance(row, dict):
            raise RingSpecError("row must be an object", f"$.rows[{j}]")
        for key in ("a", "b"):
            if key not in row:
                raise RingSpecError(f"missing coefficient {key!r}", f"$.rows[{j}]")
        for key, arity in (("c", "u_arity"), ("d", "u_arity"), ("e", "z_arity")):
            vals = row.get(key, [])
            if not isinstance(vals, list):
                raise RingSpecError(f"{key} must be an array", f"$.rows[{j}].{key}")
            if len(vals) != doc[arity]:
                raise RingSpecError(f"{key} has {len(vals)} entries but {arity} is {doc[arity]}",
                                    f"$.rows[{j}].{key}")
        rows.append(DeltaRow(
            coef(row["a"], f"$.rows[{j}].a"),
            coef(row["b"], f"$.rows[{j}].b"),
            tuple(coef(v, f"$.rows[{j}].c[{i}]") for i, v in enumerate(row.get("c", []))),
            tuple(coef(v, f"$.rows[{j}].d[{i}]") for i, v in enumerate(row.get("d", []))),
            tuple(coef(v, f"$.rows[{j}].e[{i}]") for i, v in enumerate(row.get("e", []))),
        ))
    return DeltaAxiom(ring, rows, doc["u_arity"], doc["z_arity"])
