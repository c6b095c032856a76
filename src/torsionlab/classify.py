"""End-to-end classification of quasiidentity-defined module classes.

Input: a finite ring, one-variable quasiidentities (each encoded by a
left ideal A, read as "A x = 0 implies x = 0"), and linear identities.
Output: the annihilator ideal Ied by the identities and quasiidentities
jointly, the induced ideal family over R/I, and an RCM verdict obtained
by running the torsion axioms on that family.  A valid family also
yields the (I, G) descriptor with G the preimages of the members.
"""

from .errors import InvariantError
from .modules import (Submodule, annihilator, module_corpus, quasi_closure,
                      quotient_module, regular_module, satisfies_quasiidentity)
from .rings import (LeftIdeal, TwoSidedIdeal, all_left_ideals, format_quasiidentity,
                    idempotent_generator, left_ideal_closure, preimage, product_ideal,
                    quotient_ring, two_sided_closure)
from .torsion import (TorsionNotion, _require_validated, check_torsion_axioms,
                      principal_generator)


class Quasiidentity:
    """A one-variable quasiidentity "A x = 0 -> x = 0" for a left ideal A."""

    __slots__ = ("ideal",)

    def __init__(self, ideal):
        self.ideal = ideal

    @classmethod
    def from_gens(cls, ring, gens):
        return cls(left_ideal_closure(ring, gens))

    @property
    def ring(self):
        return self.ideal.ring

    @property
    def text(self):
        return format_quasiidentity(self.ideal)

    def satisfied_by(self, module):
        return satisfies_quasiidentity(module, self.ideal)

    def to_json(self):
        return {"generators": list(self.ideal.generators), "text": self.text}

    def __repr__(self):
        return f"<Quasiidentity {self.text} over {self.ring.name}>"


def compose_quasiidentities(ring, xs, ys):
    """The quasiidentity of the product ideal (XY).

    If both q_X and q_Y hold in a module then so does this composition;
    the property harness exercises that propagation over the corpus.
    """
    return Quasiidentity(product_ideal(xs, ys, ring))


def identities_to_ideal(ring, identities):
    """Two-sided ideal generated by every coefficient of the identities.

    An identity r1 x1 + ... + rk xk = 0 has the same strength as the
    one-variable identities r1 x = 0, ..., rk x = 0, so only the
    coefficient set matters.
    """
    coeffs = [c for ident in identities for c in ident]
    for c in coeffs:
        if not 0 <= c < ring.order:
            raise ValueError(f"identity coefficient {c} out of range")
    return two_sided_closure(ring, coeffs)


def annihilator_of_quasivariety(ring, quasis, sigma=None):
    """Least submodule I of the regular module, containing the identity
    ideal, whose quotient satisfies every quasiidentity.

    R/L satisfies q_A exactly when L is closed, cl_A(L) = L, so the
    passing left ideals are read off the regular module without building
    their quotients.  They are closed under intersection (the class is
    closed under subdirect products), so the least one is their common
    intersection; it is re-checked to be two-sided and to equal the
    annihilator of the quotient it defines.
    """
    if sigma is None:
        sigma = identities_to_ideal(ring, ())
    reg = regular_module(ring)
    passing = [ideal for ideal in all_left_ideals(ring)
               if not sigma.bits & ~ideal.bits
               and all(quasi_closure(reg, q.ideal, ideal.bits) == ideal.bits
                       for q in quasis)]
    acc = -1
    for ideal in passing:
        acc &= ideal.bits
    if acc not in {p.bits for p in passing}:
        raise InvariantError("passing submodules are not intersection-closed")
    try:
        result = TwoSidedIdeal(ring, bits=acc)
    except ValueError as exc:
        raise InvariantError(f"least annihilating submodule is not two-sided: {exc}") from exc
    quot = quotient_module(reg, Submodule(reg, acc, _trusted=True))
    if annihilator(quot).bits != acc:
        raise InvariantError("annihilator of the quotient differs from the least submodule")
    return result


class QuasivarietyDescriptor:
    """The (I, G) presentation: a two-sided ideal plus ideal preimages."""

    __slots__ = ("ring", "annihilator", "members")

    def __init__(self, ring, annihilator_ideal, members):
        self.ring = ring
        self.annihilator = annihilator_ideal
        self.members = tuple(members)

    def validate(self, notion, projection):
        """Check the descriptor invariants against the validated notion.

        Containment, the literal order-filter / directedness / right
        translation conditions over the ring's ideal poset, regularity
        modulo I, and product closure read through the projection.
        """
        ring, ideal_i = self.ring, self.annihilator
        members = set()
        for a in self.members:
            if ideal_i.bits & ~a.bits:
                raise InvariantError(f"member {a.describe()} does not contain I")
            members.add(a.bits)
        for a in self.members:
            for b in all_left_ideals(ring):
                if a.bits & ~b.bits == 0 and b.bits not in members:
                    raise InvariantError("preimage family is not an order filter")
        for a in self.members:
            for b in self.members:
                target = a.bits & b.bits
                if not any(c.bits & ~target == 0 for c in self.members):
                    raise InvariantError("preimage family is not downward directed")
                prod_image = left_ideal_closure(
                    notion.ring,
                    [notion.ring.mul[projection[x]][projection[y]]
                     for x in a.generators for y in b.generators])
                if prod_image not in notion:
                    raise InvariantError("product closure fails through the projection")
            for r in range(ring.order):
                if not any(all(ring.mul[g][r] in a for g in b.generators)
                           for b in self.members):
                    raise InvariantError("right translation fails for the preimages")
        for a in self.members:
            for r in range(ring.order):
                if r in ideal_i:
                    continue
                if all(ring.mul[g][r] in ideal_i for g in a.generators):
                    raise InvariantError(
                        f"regularity modulo I fails: {a.describe()} * "
                        f"{ring.element_name(r)} lies in I")

    def to_json(self):
        return {"I": self.annihilator.to_json(),
                "filter": [a.to_json() for a in self.members]}


class ClassificationVerdict:
    """Everything the classifier derives from one input system."""

    __slots__ = ("ring", "quasis", "identities", "sigma", "annihilator_ideal",
                 "quotient", "projection", "filter_quot", "filter_preimages",
                 "outcome", "notion", "violation", "descriptor",
                 "is_variety", "is_trivial", "corpus_modules", "bound")

    def __init__(self, **kw):
        for slot in self.__slots__:
            setattr(self, slot, kw[slot])

    @property
    def rcm(self):
        return self.outcome == "rcm"

    def to_json(self):
        doc = {
            "ring": self.ring.name,
            "quasiidentities": [q.to_json() for q in self.quasis],
            "identities": [list(ident) for ident in self.identities],
            "I": self.annihilator_ideal.to_json(),
            "quotient_order": self.quotient.order,
            "filter": [a.to_json() for a in self.filter_preimages],
            "rcm": self.rcm,
            "is_variety": self.is_variety,
            "is_trivial": self.is_trivial,
            "corpus_checked": {"modules": self.corpus_modules, "bound": self.bound},
        }
        if self.violation is not None:
            doc["violation"] = self.violation.to_json()
        return doc


def classify(ring, quasis, identities=(), bound=2):
    """Classify the module class cut out by the given axioms.

    Pipeline: (i) the annihilator I of the class, (ii) the quotient ring,
    (iii) the family of quotient ideals whose quasiidentity holds in the
    class (decided on cyclic members, which is sound for one-variable
    quasiidentities), (iv) the torsion-axiom check.  A cyclic module
    R/L satisfies q_A exactly when cl_A(L) = L, so steps (i) and (iii)
    read closures of left ideals and build no quotient modules.  The
    resulting class equality "members = torsion-free modules" is
    asserted over the bounded corpus in both directions; a module killed
    by I is torsion-free when it satisfies every preimage quasiidentity,
    since A x = 0 and (A/I) x = 0 say the same for A containing I.
    """
    quasis = tuple(q if isinstance(q, Quasiidentity) else Quasiidentity.from_gens(ring, q)
                   for q in quasis)
    for q in quasis:
        if q.ring is not ring:
            raise ValueError("quasiidentity over a different ring")
    identities = tuple(tuple(ident) for ident in identities)
    sigma = identities_to_ideal(ring, identities)
    ideal_i = annihilator_of_quasivariety(ring, quasis, sigma)
    quot_ring, projection = quotient_ring(ring, ideal_i)

    transported = [left_ideal_closure(quot_ring, [projection[g] for g in q.ideal.generators])
                   for q in quasis]
    reg = regular_module(quot_ring)
    quot_ideals = all_left_ideals(quot_ring)
    cyclic_members = [lbar.bits for lbar in quot_ideals
                      if all(quasi_closure(reg, t, lbar.bits) == lbar.bits
                             for t in transported)]
    filter_quot = tuple(
        abar for abar in quot_ideals
        if all(quasi_closure(reg, abar, lbits) == lbits for lbits in cyclic_members))
    for t in transported:
        if not any(t.bits == a.bits for a in filter_quot):
            raise InvariantError("an input quasiidentity escaped the induced family")
    fq_bits = {a.bits for a in filter_quot}
    for a in filter_quot:
        for b in quot_ideals:
            if a.bits & ~b.bits == 0 and b.bits not in fq_bits:
                raise InvariantError("induced family is not upward closed")

    outcome = check_torsion_axioms(quot_ring, filter_quot)
    preimages = tuple(_preimage_ideal(ring, projection, abar) for abar in filter_quot)

    corpus_modules = 0
    for mod in module_corpus(ring, bound):
        in_class = (_annihilates(sigma, mod)
                    and all(q.satisfied_by(mod) for q in quasis))
        torsion_free = (_annihilates(ideal_i, mod)
                        and all(satisfies_quasiidentity(mod, a) for a in preimages))
        if in_class != torsion_free:
            raise InvariantError(
                f"corpus module {mod.name}: class membership ({in_class}) disagrees "
                f"with torsion-freeness ({torsion_free})")
        corpus_modules += 1

    if isinstance(outcome, TorsionNotion):
        descriptor = QuasivarietyDescriptor(ring, ideal_i, preimages)
        descriptor.validate(outcome, projection)
        verdict_outcome, notion, violation = "rcm", outcome, None
    else:
        descriptor, notion = None, None
        verdict_outcome, violation = "not_rcm", outcome

    return ClassificationVerdict(
        ring=ring, quasis=quasis, identities=identities, sigma=sigma,
        annihilator_ideal=ideal_i, quotient=quot_ring, projection=projection,
        filter_quot=filter_quot, filter_preimages=preimages,
        outcome=verdict_outcome, notion=notion, violation=violation,
        descriptor=descriptor,
        is_variety=len(filter_quot) == 1,
        is_trivial=ideal_i.is_full(),
        corpus_modules=corpus_modules, bound=bound)


def _preimage_ideal(ring, projection, quot_ideal):
    bits = preimage(projection, quot_ideal.bits, quot_ideal.ring.order)
    return LeftIdeal(ring, bits=bits)


def _annihilates(ideal, module):
    return quasi_closure(module, ideal, 1 << module.zero) == (1 << module.order) - 1


def membership(module, verdict):
    """Whether the module belongs to the classified quasivariety.

    Uses the descriptor: I must annihilate the module and every member
    quasiidentity of G must hold.
    """
    if not verdict.rcm:
        raise ValueError("membership requires a verdict with an RCM outcome")
    if module.ring is not verdict.ring:
        raise ValueError("module over a different ring")
    if not _annihilates(verdict.annihilator_ideal, module):
        return False
    return all(satisfies_quasiidentity(module, a) for a in verdict.filter_preimages)


class CollapseTrace:
    """Replay of the commutative-collapse argument for one torsion notion."""

    __slots__ = ("ring", "minimal", "square_is_self", "idempotent",
                 "annihilates_complement", "idempotent_is_one", "filter_is_trivial")

    def __init__(self, ring, minimal, square_is_self, idempotent,
                 annihilates_complement, idempotent_is_one, filter_is_trivial):
        self.ring = ring
        self.minimal = minimal
        self.square_is_self = square_is_self
        self.idempotent = idempotent
        self.annihilates_complement = annihilates_complement
        self.idempotent_is_one = idempotent_is_one
        self.filter_is_trivial = filter_is_trivial

    def to_json(self):
        return {"minimal": list(self.minimal.generators),
                "square_is_self": self.square_is_self,
                "idempotent": self.idempotent,
                "annihilates_complement": self.annihilates_complement,
                "idempotent_is_one": self.idempotent_is_one,
                "filter_is_trivial": self.filter_is_trivial}


def commutative_collapse(ring, notion):
    """Replay the argument that a commutative ring admits only the
    trivial torsion notion: the minimal member A is idempotent, is
    generated by an idempotent e, A kills 1 - e, hence e = 1 and A = R.
    Any failing step is a hard fault."""
    if not ring.is_commutative():
        raise ValueError("commutative_collapse requires a commutative ring")
    _require_validated(notion)
    minimal, _ = principal_generator(notion)
    square = product_ideal(minimal.generators, minimal.generators, ring)
    if square.bits != minimal.bits:
        raise InvariantError("minimal member of a validated notion is not idempotent")
    e = idempotent_generator(ring, minimal)
    complement = ring.add[ring.one][ring.neg[e]]
    kills = all(ring.mul[a][complement] == ring.zero for a in minimal)
    if not kills:
        raise InvariantError("minimal member does not annihilate 1 - e")
    if complement != ring.zero or e != ring.one:
        raise InvariantError("idempotent of the minimal member is not one")
    if not minimal.is_full() or len(notion) != 1:
        raise InvariantError("commutative notion did not collapse to the full ideal")
    return CollapseTrace(ring, minimal, True, e, True, True, True)
