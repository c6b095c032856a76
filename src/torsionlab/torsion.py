"""Torsion filters of left ideals and the relative-submodule machinery.

A family F of left ideals is a *torsion notion* when it satisfies five
axioms, checked here by bounded-exhaustive search:

  (1) F is a nonempty order filter in the poset of left ideals,
  (2) F is downward directed,
  (3) if (X) and (Y) are in F then so is the ideal generated by the
      pairwise products XY,
  (4) for every A in F and scalar r there is B in F with B*r inside A,
  (5) no member is annihilated on the right by a nonzero element.

A validated notion induces a torsion radical on every finite module,
which in turn yields relative closures, the lattice of relative
submodules, and the weak extension principle checks.

A finite filter (1) that is downward directed (2) has a least member A
and is the set of left ideals containing A, so everything below reads A
alone: some member B has B*x inside a submodule S exactly when A*x is,
the closure of S is {x : A*x in S}, and torsion-free means satisfying
A's quasiidentity.  A has the least bitset, so it is ``ideals[0]``; the
checker confirms that it lies below every member.

``rcm_verify`` reads the whole corpus off R^k, once per notion and k.
Each corpus module is a quotient R^k/S.  It is torsion-free exactly when
S is closed, cl(S) = S, and then its relative lattice is the interval
[S, R^k] of Closed(R^k), the lattice of closed submodules of R^k,
because cl(T/S) = cl(T)/S.  Every interval of a modular lattice is
modular (Birkhoff), so one modularity check of Closed(R^k) settles them
all.  That check is one semimodularity check on the cover relation of
Closed(R^k) (``modules._modular_by_covers``), and the same up-sets give
each module's lattice size.  The closure is an intersection of
preimages, so cl(T & U) = cl(T) & cl(U); if T/S and U/S meet in zero,
then T & U = S and their closures meet in cl(S)/S = 0, which is the
weak extension principle.  That identity is checked over every pair of
Sub(R^k).  Should either check fail for some R^k, its modules take the
per-module route of ``relative_lattice``, ``modularity_witness`` and
``weak_extension_witness``, which reports the witnesses.  By the
paper's theorem a validated notion gives a relatively congruence
modular class, so that route runs only on a fault of this code.
"""

from . import kernels
from .errors import InputError, InvariantError
from .modules import (Submodule, _corpus_sources, _modular_by_covers, _not_a_closure_system,
                      all_submodules, lattice_from_family, module_corpus, modularity_witness,
                      quasi_closure, regular_module, satisfies_quasiidentity)
from .rings import (LeftIdeal, _product_bits, all_left_ideals, check_generators,
                    format_quasiidentity)


class TorsionNotion:
    """A family of left ideals; ``validated`` is set only by the checker."""

    __slots__ = ("ring", "ideals", "validated")

    def __init__(self, ring, ideals, validated=False):
        self.ring = ring
        self.ideals = tuple(sorted(ideals, key=lambda a: a.bits))
        self.validated = validated

    def key(self):
        return tuple(a.bits for a in self.ideals)

    @property
    def least(self):
        """The least member A; the notion is every left ideal containing A."""
        return self.ideals[0]

    def __contains__(self, ideal):
        return any(a.bits == ideal.bits for a in self.ideals)

    def __len__(self):
        return len(self.ideals)

    def __eq__(self, other):
        return (isinstance(other, TorsionNotion) and other.ring is self.ring
                and other.key() == self.key())

    def __hash__(self):
        return hash((id(self.ring), self.key()))

    def describe(self):
        return "{" + ", ".join(a.describe() for a in self.ideals) + "}"

    def __repr__(self):
        tag = "validated" if self.validated else "unchecked"
        return f"<TorsionNotion {self.describe()} over {self.ring.name} ({tag})>"


class AxiomViolation:
    """A falsified torsion axiom together with replayable witness data."""

    __slots__ = ("axiom", "ring", "family", "witness", "message")

    def __init__(self, axiom, ring, family, witness, message):
        self.axiom = axiom
        self.ring = ring
        self.family = tuple(family)
        self.witness = dict(witness)
        self.message = message

    def replay(self):
        """Re-evaluate the witness against the axiom it claims to falsify."""
        ring, fam = self.ring, self.family
        fam_bits = {a.bits for a in fam}
        w = self.witness
        if self.axiom == 1:
            if not fam:
                return True
            a, b = w["member"], w["superset"]
            return a.bits in fam_bits and a.bits & ~b.bits == 0 and b.bits not in fam_bits
        if self.axiom == 2:
            target = w["left"].bits & w["right"].bits
            return not any(c.bits & ~target == 0 for c in fam)
        if self.axiom == 3:
            prod = _product_bits(ring, w["left"].generators, w["right"].generators)
            if prod != w["product_bits"] or prod in fam_bits:
                return False
            if w["reading"] == "both":
                full = _product_bits(ring, w["left"].elements(), w["right"].elements())
                return full not in fam_bits
            return True
        if self.axiom == 4:
            a, r = w["member"], w["scalar"]
            return not any(
                all(ring.mul[g][r] in a for g in b.generators) for b in fam)
        if self.axiom == 5:
            a, r = w["member"], w["scalar"]
            return r != ring.zero and all(ring.mul[g][r] == ring.zero
                                          for g in a.generators)
        return False

    def to_json(self):
        doc = {"axiom": self.axiom, "message": self.message, "witness": {}}
        for k, v in self.witness.items():
            if isinstance(v, LeftIdeal):
                doc["witness"][k] = v.to_json()
            else:
                doc["witness"][k] = v
        return doc

    def __repr__(self):
        return f"<AxiomViolation({self.axiom}): {self.message}>"


def regularity_witness(ideal):
    """First nonzero r with ideal * r = 0, or None if the ideal is regular:
    the least nonzero element of cl_A(0) in R acting on itself."""
    ring = ideal.ring
    bits = quasi_closure(regular_module(ring), ideal, 1 << ring.zero) & ~(1 << ring.zero)
    return next(kernels.bits_of(bits), None)


def check_torsion_axioms(ring, family):
    """Validate the five torsion axioms for a family of left ideals.

    Returns a validated TorsionNotion, or the first AxiomViolation in
    axiom order (1)..(5) with least witnesses.  Axiom (3) is first read
    with the stored generator lists; on failure it is re-read with full
    element sets, and the verdict records which reading failed.
    """
    seen = {}
    for a in family:
        if a.ring is not ring:
            raise ValueError("family contains an ideal over a different ring")
        seen.setdefault(a.bits, a)
    fam = tuple(seen[b] for b in sorted(seen))
    if not fam:
        return AxiomViolation(1, ring, fam, {}, "family is empty")
    fam_bits = set(seen)
    ideals = all_left_ideals(ring)

    for a in fam:
        for b in ideals:
            if a.bits & ~b.bits == 0 and b.bits not in fam_bits:
                return AxiomViolation(
                    1, ring, fam, {"member": a, "superset": b},
                    f"{a.describe()} is a member but its superset {b.describe()} is not")

    for i, a in enumerate(fam):
        for b in fam[i:]:
            target = a.bits & b.bits
            if not any(c.bits & ~target == 0 for c in fam):
                return AxiomViolation(
                    2, ring, fam, {"left": a, "right": b},
                    f"no member lies inside {a.describe()} and {b.describe()}")

    for a in fam:
        for b in fam:
            prod = _product_bits(ring, a.generators, b.generators)
            if prod not in fam_bits:
                full = _product_bits(ring, a.elements(), b.elements())
                reading = "generators" if full in fam_bits else "both"
                return AxiomViolation(
                    3, ring, fam,
                    {"left": a, "right": b, "product_bits": prod,
                     "full_product_bits": full, "reading": reading},
                    f"product of {a.describe()} and {b.describe()} generates an ideal "
                    f"outside the family (reading: {reading})")

    reg = regular_module(ring)
    full = (1 << ring.order) - 1
    for a in fam:
        covered = 0  # the scalars r with B*r inside a for some member B
        for b in fam:
            covered |= quasi_closure(reg, b, a.bits)
        missing = full & ~covered
        if missing:
            r = next(kernels.bits_of(missing))
            return AxiomViolation(
                4, ring, fam, {"member": a, "scalar": r},
                f"no member B with B*{ring.element_name(r)} inside {a.describe()}")

    for a in fam:
        r = regularity_witness(a)
        if r is not None:
            return AxiomViolation(
                5, ring, fam, {"member": a, "scalar": r},
                f"{a.describe()} * {ring.element_name(r)} = 0 "
                f"but {ring.element_name(r)} != 0")

    if any(fam[0].bits & ~b.bits for b in fam):
        raise InvariantError(f"a family over {ring.name} passed the axioms "
                             f"without a least member")
    return TorsionNotion(ring, fam, validated=True)


def _require_validated(notion, module=None):
    if not isinstance(notion, TorsionNotion) or not notion.validated:
        raise ValueError("operation requires a validated torsion notion")
    if module is not None and module.ring is not notion.ring:
        raise ValueError("module ring does not match the torsion notion")


def torsion_elements(notion, module):
    """The set of elements annihilated by the least member (a submodule)."""
    _require_validated(notion, module)
    bits = quasi_closure(module, notion.least, 1 << module.zero)
    try:
        return Submodule(module, bits)
    except ValueError as exc:
        raise InvariantError(f"torsion set of {module.name} is not a submodule") from exc


def is_torsion_free(notion, module):
    """No nonzero torsion element; the ambient hypothesis for closures."""
    _require_validated(notion, module)
    return satisfies_quasiidentity(module, notion.least)


def _require_torsion_free(notion, module):
    """Raise ``InputError`` unless ``module`` is torsion-free for ``notion``."""
    if not is_torsion_free(notion, module):
        raise InputError(f"{module.name} is not torsion-free for {notion.describe()}")


def _submodule_closures(notion, module, subs):
    """Closure bits of ``subs``, the module's ``all_submodules``; computed
    once per notion and shared by the relative lattice, the WEP check and
    ``rcm_verify``'s reading of R^k."""
    key = ("closures", notion.key())
    got = module._cache.get(key)
    if got is None:
        got = tuple(quasi_closure(module, notion.least, s.bits) for s in subs)
        module._cache[key] = got
    return got


def relative_closure(notion, module, sub):
    """Least relative submodule containing ``sub``.

    Computed as the set of elements that the least member carries into
    ``sub``.  Only defined on torsion-free modules.
    """
    _require_torsion_free(notion, module)
    if sub.module is not module:
        raise ValueError("submodule of a different module")
    bits = quasi_closure(module, notion.least, sub.bits)
    try:
        return Submodule(module, bits)
    except ValueError as exc:
        raise InvariantError("relative closure is not a submodule") from exc


def closure_witness(notion, module, sub, x):
    """First member ideal carrying ``x`` into ``sub`` (the least, if any), or None."""
    _require_validated(notion, module)
    check_generators((x,), module.order, module.name, "element")
    a = notion.least
    if all(sub.bits >> module.act[g][x] & 1 for g in a.generators):
        return a
    return None


def relative_lattice(notion, module):
    """Lattice of submodules with torsion-free quotient; not cached.

    These are exactly the fixed points of the relative closure; meet is
    intersection, join is the closure of the sum (equivalently the least
    fixed point above the union).
    """
    _require_torsion_free(notion, module)
    subs = all_submodules(module)
    return lattice_from_family([s.bits for s, closed in zip(
        subs, _submodule_closures(notion, module, subs)) if closed == s.bits])


def weak_extension_witness(notion, module):
    """A pair of disjoint submodules with intersecting closures, or None."""
    _require_torsion_free(notion, module)
    subs = all_submodules(module)
    zero_bit = 1 << module.zero
    closures = _submodule_closures(notion, module, subs)
    for i, s in enumerate(subs):
        for j in range(i, len(subs)):
            t = subs[j]
            if s.bits & t.bits == zero_bit and closures[i] & closures[j] != zero_bit:
                return (s, t)
    return None


class RcmReport:
    """Outcome of verifying modularity and weak extension over a corpus."""

    __slots__ = ("notion", "bound", "entries")

    def __init__(self, notion, bound, entries):
        self.notion = notion
        self.bound = bound
        self.entries = tuple(entries)

    @property
    def modules_checked(self):
        return len(self.entries)

    @property
    def all_modular(self):
        return all(e["modular"] for e in self.entries)

    @property
    def all_wep(self):
        return all(e["wep"] for e in self.entries)

    @property
    def passed(self):
        return self.all_modular and self.all_wep

    def failures(self):
        return [e for e in self.entries if not (e["modular"] and e["wep"])]

    def to_json(self):
        entries = []
        for e in self.entries:
            doc = {"module": e["module"], "order": e["order"],
                   "lattice_size": e["lattice_size"],
                   "modular": e["modular"], "wep": e["wep"]}
            if e["modular_witness"] is not None:
                doc["modular_witness"] = list(e["modular_witness"])
            if e["wep_witness"] is not None:
                doc["wep_witness"] = [sorted(kernels.bits_of(b)) for b in e["wep_witness"]]
            entries.append(doc)
        return {"filter": [list(a.generators) for a in self.notion.ideals],
                "bound": self.bound,
                "modules_checked": self.modules_checked,
                "all_modular": self.all_modular,
                "all_wep": self.all_wep,
                "entries": entries}


def rcm_verify(notion, bound=2):
    """Check every torsion-free corpus module for a modular relative
    lattice and the weak extension principle.

    The module R^k/S is read off R^k (see the module docstring): it is
    torsion-free when cl(S) = S, its relative lattice is the interval
    [S, R^k] of Closed(R^k), so its size is the number of closed
    submodules above S, read off S's up-set, and it is modular and
    satisfies WEP once Closed(R^k) is modular and cl(T & U) =
    cl(T) & cl(U) holds over Sub(R^k).  Both are checked once per k; if either fails, the modules
    built from that R^k are checked one by one instead, witnesses
    included.
    """
    _require_validated(notion)
    ring = notion.ring
    cache_key = ("rcm", notion.key(), bound)
    got = ring._cache.get(cache_key)
    if got is not None:
        return got
    routes = {}  # each parent's _closed_route, computed once
    entries = []
    for mod, (parent, i) in zip(module_corpus(ring, bound), _corpus_sources(ring, bound)):
        if parent not in routes:
            routes[parent] = _closed_route(notion, parent)
        route = routes[parent]
        if route is None:
            if is_torsion_free(notion, mod):
                lat = relative_lattice(notion, mod)
                entries.append(_entry(mod, lat.size, modularity_witness(lat),
                                      weak_extension_witness(notion, mod)))
            continue
        bits, up = route
        above = up.get(bits[i])
        if above is not None:  # cl(S) = S
            entries.append(_entry(mod, above.bit_count()))
    got = RcmReport(notion, bound, entries)
    ring._cache[cache_key] = got
    return got


def _entry(mod, lattice_size, mw=None, ww=None):
    """One ``RcmReport`` entry; no witness means modular and WEP."""
    return {"module": mod.name, "order": mod.order, "lattice_size": lattice_size,
            "modular": mw is None, "modular_witness": mw,
            "wep": ww is None,
            "wep_witness": None if ww is None else (ww[0].bits, ww[1].bits)}


def _closed_route(notion, parent):
    """``(bits, up)`` for the parent R^k, if Closed(R^k) is modular and
    the closure preserves meets over Sub(R^k); else None.  ``bits`` are
    the bitsets of Sub(R^k), and ``up`` maps each closed one to the
    closed submodules above it, a bitset of indices into Closed(R^k).

    Modularity is one semimodularity check on the cover relation of
    Closed(R^k) (``modules._modular_by_covers``); the per-module route
    decides the same way and then searches for the witness."""
    subs = all_submodules(parent)
    bits = tuple(s.bits for s in subs)
    closures = _submodule_closures(notion, parent, subs)
    closed = [b for b, c in zip(bits, closures) if c == b]
    modular, up = _modular_by_covers(closed)
    if not modular or not _meets_preserved(bits, closures):
        return None
    return bits, dict(zip(closed, up))


def _meets_preserved(bits, closures):
    """Whether cl(T & U) == cl(T) & cl(U) for every pair of the
    intersection-closed family ``bits`` with the given ``closures``,
    compared row by row over the upper triangle.

    When every closure is its member (``closures == bits``, both tuples:
    the notion {R}), the closure is the identity and preserves meets, so
    the answer is True with no comparison.  ``_closed_route`` has then
    decided the whole family with ``_modular_by_covers``, which raises
    ``InvariantError`` unless it is closed under intersection.  Otherwise
    a pair meeting outside the family raises it here, naming the first
    such pair."""
    if closures == bits:
        return True
    closure_of = dict(zip(bits, closures))
    try:
        return all([*map(closure_of.__getitem__, map(a.__and__, bits[i:]))]
                   == [*map(c.__and__, closures[i:])]
                   for i, (a, c) in enumerate(zip(bits, closures)))
    except KeyError:
        raise _not_a_closure_system("family not closed under intersection:", bits,
                                    closure_of.__contains__) from None


def enumerate_torsion_notions(ring):
    """All torsion notions of the ring, canonically sorted.

    Every notion is the set of left ideals containing its least member A
    (see the module docstring), and A is regular by axiom (5).  So the
    search checks the family above each regular ideal A, the full ideal
    included: k + 1 checks for k regular proper ideals, where a search
    over all families of candidates would make 2**k.
    """
    got = ring._cache.get("notions")
    if got is not None:
        return got
    ideals = all_left_ideals(ring)
    out = []
    for a in ideals:
        if regularity_witness(a) is None:
            res = check_torsion_axioms(ring, [b for b in ideals if a.bits & ~b.bits == 0])
            if isinstance(res, TorsionNotion):
                out.append(res)
    out.sort(key=lambda f: (len(f), f.key()))
    got = tuple(out)
    ring._cache["notions"] = got
    return got


def principal_generator(notion):
    """The least member A and its rendered quasiidentity; the checker has
    confirmed that A lies below every member."""
    _require_validated(notion)
    return notion.least, format_quasiidentity(notion.least)


def right_translation_witness(notion, ideal, r):
    """First member B with B*r inside the given ideal (the least, if any), or None."""
    _require_validated(notion)
    ring = notion.ring
    check_generators((r,), ring.order, ring.name, "element")
    b = notion.least
    if all(ring.mul[g][r] in ideal for g in b.generators):
        return b
    return None
