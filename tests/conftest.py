import pytest

import torsionlab as tl
from torsionlab import rings
from torsionlab.errors import InvariantError

# UT2(2) element indices under the canonical encoding 4a + 2b + c.
E11, E12, E22 = 4, 2, 1
ONE = 5
# Bitsets of the seven left ideals of UT2(2), verified against the
# matrix-arithmetic oracle in test_rings.py.
UT2_IDEAL_BITS = (1, 5, 15, 17, 65, 85, 255)
A_BITS = 85       # (e11, e12) = {0, e12, e11, e11+e12}
RE22_BITS = 15    # (e22) = {0, e22, e12, e12+e22}


@pytest.fixture(scope="session")
def ut2():
    return tl.parse_ring_spec("UT2(2)")


@pytest.fixture(scope="session")
def z4():
    return tl.parse_ring_spec("Z(4)")


@pytest.fixture(scope="session")
def z6():
    return tl.parse_ring_spec("Z(6)")


@pytest.fixture(scope="session")
def z8():
    return tl.parse_ring_spec("Z(8)")


@pytest.fixture(scope="session")
def gf2():
    return tl.parse_ring_spec("GF(2)")


@pytest.fixture(scope="session")
def builtin16():
    return tl.builtin_rings(16)


@pytest.fixture(scope="session")
def builtin8():
    return tl.builtin_rings(8)


@pytest.fixture(scope="session")
def ut2_nontrivial(ut2):
    """The validated notion {(e11,e12), R} over UT2(2)."""
    family = [tl.left_ideal_closure(ut2, [E11, E12]),
              tl.left_ideal_closure(ut2, [ut2.one])]
    notion = tl.check_torsion_axioms(ut2, family)
    assert isinstance(notion, tl.TorsionNotion)
    return notion


def trivial_notion(ring):
    notion = tl.check_torsion_axioms(ring, [tl.left_ideal_closure(ring, [ring.one])])
    assert isinstance(notion, tl.TorsionNotion)
    return notion


def reference_lattice_axioms(lattice):
    """Every lattice axiom, one entry at a time, in scan order: the loops
    that once reported the witness of a faulty table, kept as the
    reference for the tables ``FiniteLattice`` builds."""
    k = lattice.size
    for name, table in (("meet", lattice.meet), ("join", lattice.join)):
        for i in range(k):
            if table[i * k + i] != i:
                _lattice_fault(f"{name}-idempotent", (i,), f"{name}(x,x) != x")
            for j in range(k):
                if table[i * k + j] != table[j * k + i]:
                    _lattice_fault(f"{name}-commutative", (i, j), f"{name} not commutative")
        w = rings._assoc_witness(k, list(table))
        if w is not None:
            _lattice_fault(f"{name}-associative", w, f"{name} not associative")
    for i in range(k):
        for j in range(k):
            if lattice.meet[i * k + lattice.join[i * k + j]] != i:
                _lattice_fault("absorption", (i, j), "x ^ (x v y) != x")
            if lattice.join[i * k + lattice.meet[i * k + j]] != i:
                _lattice_fault("absorption", (i, j), "x v (x ^ y) != x")


def _lattice_fault(axiom, witness, message):
    raise InvariantError(f"lattice axiom {axiom!r} fails at {witness}: {message}")
