"""Parser for the ring-spec mini-language and the builtin ring registry.

Grammar::

    spec  := Z(n) | GF(p) | UT2(p) | M2(p)
           | prod(spec, spec)
           | quot(spec, g1, g2, ...)    two-sided closure of the generators
           | table:PATH                 explicit-table JSON file

Generator tokens inside ``quot`` are element names of the inner ring
(e11, e12, ...) or decimal element indices.
"""

import json
import operator
import reprlib

from .errors import RingSpecError
from .rings import (cyclic_ring, full_matrix_ring, prime_field, product_ring,
                    quotient_ring, ring_from_table, two_sided_closure,
                    upper_triangular_ring)


# what the constructors of a spec build: rings, or the rings' orders,
# which a spec of Z, GF, UT2, M2 and prod gives before anything is built
_RINGS = {"Z": cyclic_ring, "GF": prime_field, "UT2": upper_triangular_ring,
          "M2": full_matrix_ring, "prod": product_ring}
_ORDERS = {"Z": int, "GF": int, "UT2": lambda p: p ** 3, "M2": lambda p: p ** 4,
           "prod": operator.mul}


def parse_ring_spec(text):
    """Parse a ring-spec expression into a validated FiniteRing."""
    return _evaluate(text, _RINGS)


def spec_order(text):
    """The order of the ring a spec of Z, GF, UT2, M2 and prod names, read
    off the spec without building it: n for Z(n), p for GF(p), p**3 for
    UT2(p), p**4 for M2(p) and the product of the factors' orders for
    prod.  The other checks of the spec (a prime p) are left to
    ``parse_ring_spec``; a ``quot`` or ``table:`` spec raises
    ``RingSpecError``, as its order is known only once it is built."""
    return _evaluate(text, _ORDERS)


def _evaluate(text, build):
    try:
        got, pos = _parse(text, _skip_ws(text, 0), build)
    except RecursionError:
        raise RingSpecError("ring spec nests too deeply") from None
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise RingSpecError(f"trailing input {text[pos:]!r}", pos)
    return got


def _skip_ws(text, pos):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse(text, pos, build):
    if build is not _RINGS and text.startswith(("table:", "quot("), pos):
        raise RingSpecError("the order of a quot or table: spec is known only once "
                            "it is built", pos)
    if text.startswith("table:", pos):
        end = pos + 6
        while end < len(text) and text[end] not in ",)":
            end += 1
        path = text[pos + 6:end].strip()
        if not path:
            raise RingSpecError("table: requires a file path", pos)
        return ring_from_table(read_json(path, "ring table"), name=f"table:{path}"), end
    head = pos
    while head < len(text) and (text[head].isalnum() or text[head] == "_"):
        head += 1
    ctor = text[pos:head]
    if not ctor:
        raise RingSpecError(f"expected a ring constructor, found {text[pos:pos+10]!r}", pos)
    if head >= len(text) or text[head] != "(":
        raise RingSpecError(f"expected '(' after {ctor!r}", head)
    pos = _skip_ws(text, head + 1)

    if ctor in ("Z", "GF", "UT2", "M2"):
        num, pos = _parse_int(text, pos)
        pos = _expect(text, pos, ")")
        return build[ctor](num), pos
    if ctor == "prod":
        left, pos = _parse(text, pos, build)
        pos = _expect(text, pos, ",")
        right, pos = _parse(text, _skip_ws(text, pos), build)
        pos = _expect(text, pos, ")")
        return build["prod"](left, right), pos
    if ctor == "quot":
        base, pos = _parse(text, pos, build)
        gens = []
        pos = _skip_ws(text, pos)
        while pos < len(text) and text[pos] == ",":
            pos = _skip_ws(text, pos + 1)
            end = pos
            while end < len(text) and text[end] not in ",)":
                end += 1
            token = text[pos:end].strip()
            if not token:
                raise RingSpecError("empty generator token", pos)
            gens.append(base.resolve(token))
            pos = end
        pos = _expect(text, pos, ")")
        ideal = two_sided_closure(base, gens)
        quot, _ = quotient_ring(base, ideal)
        return quot, pos
    raise RingSpecError(f"unknown ring constructor {ctor!r}", head - len(ctor))


def _parse_int(text, pos):
    end = pos
    while end < len(text) and text[end].isdigit():
        end += 1
    if end == pos:
        raise RingSpecError("expected an integer", pos)
    return read_int(text[pos:end]), _skip_ws(text, end)


def _expect(text, pos, ch):
    pos = _skip_ws(text, pos)
    if pos >= len(text) or text[pos] != ch:
        raise RingSpecError(f"expected {ch!r}", pos)
    return pos + 1


def read_json(path, what):
    """The JSON document in the file ``path``, the one reader of a user
    file: one that cannot be opened, is no UTF-8 JSON (``ValueError``) or
    nests too deeply raises ``RingSpecError`` naming ``what`` and ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise RingSpecError(f"cannot read {what} {path!r}: {exc}") from exc


def read_int(token):
    """``int(token)``; ``RingSpecError`` if it is no integer or too long for ``int``."""
    try:
        return int(token)
    except ValueError:
        raise RingSpecError(f"cannot read an integer from {reprlib.repr(token)}") from None


def document_ring(doc, ring):
    """The ring that the indices of the JSON object ``doc`` refer to, named by
    its ``"ring"`` spec: required when ``ring`` is None, else optional and, if
    present, a ring with ``ring``'s tables (``ring`` is returned), at ``$.ring``;
    its errors quote the spec shortened by ``reprlib.repr``."""
    if ring is not None and "ring" not in doc:
        return ring
    spec = doc.get("ring")
    if not isinstance(spec, str):
        raise RingSpecError("'ring' must be a ring spec", "$.ring")
    try:
        named = parse_ring_spec(spec)
    except RingSpecError as exc:
        raise RingSpecError(f"ring spec {reprlib.repr(spec)}: {exc}", "$.ring") from None
    if ring is not None and (named.add, named.mul, named.zero, named.one) != \
            (ring.add, ring.mul, ring.zero, ring.one):
        raise RingSpecError(f"{reprlib.repr(spec)} is not the ring {ring.name}", "$.ring")
    return named if ring is None else ring


#: Spec strings of the builtin corpus, in census order.
BUILTIN_SPECS = tuple(
    [f"Z({n})" for n in range(1, 17)]
    + ["UT2(2)", "M2(2)",
       "prod(Z(2),Z(2))", "prod(Z(2),Z(4))", "prod(Z(4),Z(4))",
       "prod(Z(2),prod(Z(2),Z(2)))", "prod(Z(2),UT2(2))"]
)

_builtin_cache = {}


def builtin_rings(max_order=16):
    """The builtin corpus: (spec string, ring) pairs with order <= max_order.
    Each spec's order is read off the spec (``spec_order``), so only the
    rings returned are built."""
    out = []
    for spec in BUILTIN_SPECS:
        if spec_order(spec) > max_order:
            continue
        ring = _builtin_cache.get(spec)
        if ring is None:
            ring = _builtin_cache[spec] = parse_ring_spec(spec)
        out.append((spec, ring))
    return out
