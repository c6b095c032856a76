"""CLI surface: exit codes, JSON schemas, determinism, witness replay."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torsionlab as tl
from torsionlab.cli import main

from conftest import reference_module_axiom_witness, reference_ring_error


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--json")
    return code, json.loads(out)


def test_torsion_enum_ut2(capsys):
    code, doc = run_json(capsys, "torsion-enum", "UT2(2)")
    assert code == 0
    assert doc["count"] == 2
    assert [len(n) for n in doc["notions"]] == [1, 2]


def test_torsion_check_z4_negative_verdict(capsys):
    code, out = run_cli(capsys, "torsion-check", "Z(4)", "--filter", "2;1")
    assert code == 1
    assert "VIOLATED" in out


def test_torsion_check_valid(capsys):
    code, doc = run_json(capsys, "torsion-check", "UT2(2)", "--filter", "e11,e12;1")
    assert code == 0
    assert doc["valid"] is True
    assert len(doc["ideals"]) == 2


def test_violation_witness_replays_from_report(capsys):
    code, doc = run_json(capsys, "torsion-check", "Z(8)", "--filter", "2;1")
    assert code == 1
    violation = doc["violation"]
    assert violation["axiom"] == 3
    ring = tl.parse_ring_spec("Z(8)")
    left = tl.left_ideal_closure(ring, violation["witness"]["left"]["generators"])
    right = tl.left_ideal_closure(ring, violation["witness"]["right"]["generators"])
    prod = tl.product_ideal(left.generators, right.generators, ring)
    assert prod.bits == violation["witness"]["product_bits"]
    family_bits = {tuple(i["elements"]) for i in
                   (violation["witness"]["left"], violation["witness"]["right"])}
    assert tuple(prod.elements()) not in family_bits


def test_classify_cli_ut2(capsys):
    code, doc = run_json(capsys, "classify", "UT2(2)", "--quasi", "e11,e12")
    assert code == 0
    assert doc["rcm"] is True
    assert doc["is_variety"] is False
    assert doc["I"]["elements"] == [0]


def test_classify_exit_code_is_zero_for_rcm(capsys):
    code, _ = run_cli(capsys, "classify", "Z(4)", "--quasi", "2")
    assert code == 0  # RCM (trivial class)


def test_closure_command(capsys):
    code, doc = run_json(capsys, "closure", "UT2(2)", "--filter", "e11,e12;1",
                         "--sub", "e11,e12")
    assert code == 0
    assert doc["closure"] == [0, 1, 2, 3, 4, 5, 6, 7]
    code, doc = run_json(capsys, "closure", "UT2(2)", "--filter", "e11,e12;1",
                         "--module", "power:2", "--sub", "")
    assert code == 0
    assert doc["closure"] == [0]


def test_wep_and_rcm_commands(capsys):
    code, doc = run_json(capsys, "wep", "UT2(2)", "--filter", "e11,e12;1")
    assert code == 0 and doc["wep"] is True
    code, doc = run_json(capsys, "rcm", "UT2(2)", "--filter", "e11,e12;1")
    assert code == 0
    assert doc["all_modular"] and doc["all_wep"]
    assert doc["modules_checked"] == 18


def test_invalid_filter_reports_violation(capsys):
    code, out = run_cli(capsys, "rcm", "UT2(2)", "--filter", "e22;1")
    assert code == 1
    assert "AXIOM 5" in out


NOT_A_NOTION = ["UT2(2)", "--filter", "e12"]  # (e12) is in it, but not its superset (e22)


@pytest.mark.parametrize("argv", [["closure", *NOT_A_NOTION, "--sub", "e12"],
                                  ["wep", *NOT_A_NOTION], ["rcm", *NOT_A_NOTION]])
def test_a_filter_that_is_no_notion_is_reported_as_torsion_check_does(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert (code, out) == run_cli(capsys, "torsion-check", *NOT_A_NOTION) == \
        (1, "AXIOM 1 VIOLATED: (e12) is a member but its superset (e22) is not\n")
    code, doc = run_json(capsys, *argv)
    assert (code, doc) == run_json(capsys, "torsion-check", *NOT_A_NOTION)
    assert (doc["ring"], doc["valid"], doc["violation"]["axiom"]) == ("UT2(2)", False, 1)


def test_ideals_and_ring_info(capsys):
    code, doc = run_json(capsys, "ideals", "UT2(2)")
    assert code == 0
    assert len(doc["ideals"]) == 7
    assert sum(1 for i in doc["ideals"] if i["two_sided"]) == 5
    code, doc = run_json(capsys, "ring-info", "UT2(2)")
    assert code == 0
    assert doc["order"] == 8 and doc["one"] == 5
    assert doc["element_names"]["e11"] == 4


def test_delta_reduce_command(tmp_path, capsys):
    path = tmp_path / "axiom.json"
    path.write_text(json.dumps({
        "ring": "UT2(2)", "u_arity": 0, "z_arity": 0,
        "rows": [{"a": "e11", "b": "e11"}, {"a": "e12", "b": "e12"}]}))
    code, doc = run_json(capsys, "delta-reduce", str(path))
    assert code == 0
    assert doc["ideal"]["elements"] == [0, 2, 4, 6]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "ring": "Z(6)", "u_arity": 0, "z_arity": 0,
        "rows": [{"a": 2, "b": 3}]}))
    code, doc = run_json(capsys, "delta-reduce", str(bad))
    assert code == 1
    assert doc["reduced"] is False and doc["row"] == 0


def test_closure_on_quotient_and_file_modules(tmp_path, capsys):
    # quotient of the regular module: R / Re22 for UT2(2)
    code, doc = run_json(capsys, "closure", "UT2(2)", "--filter", "e11,e12;1",
                         "--module", "quot:e22", "--sub", "1")
    assert code == 0
    assert doc["order"] == 2
    # module table file: Z(2) as a Z(4)-module
    path = tmp_path / "mod.json"
    path.write_text(json.dumps({
        "ring": "Z(4)", "order": 2, "add": [[0, 1], [1, 0]],
        "act": [[0, 0], [0, 1], [0, 0], [0, 1]], "zero": 0}))
    code, doc = run_json(capsys, "wep", "Z(4)", "--filter", "1",
                         "--module", f"file:{path}")
    assert code == 0 and doc["wep"] is True


def test_invalid_spec_is_exit_2(capsys):
    code, _ = run_cli(capsys, "ring-info", "GF(4)")
    assert code == 2
    code, _ = run_cli(capsys, "ideals", "Z(x)")
    assert code == 2


# more digits than int() reads from a string, and how the error shows it
LONG = "1" * 5000
LONG_SHOWN = "'111111111111...1111111111111'"


@pytest.mark.parametrize("argv", [
    ["ring-info", f"Z({LONG})"],
    ["closure", "Z(4)", "--filter", "1", "--module", f"power:{LONG}"],
    ["closure", "Z(4)", "--filter", "1", "--module", "power:2", "--sub", LONG],
    ["closure", "Z(4)", "--filter", "1", "--module", "power:2", "--sub", f"1,{LONG}"],
], ids=["ring-spec", "power", "sub", "sub-second"])
def test_an_integer_too_long_to_read_is_invalid_input(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: cannot read an integer from {LONG_SHOWN}\n"


def test_census_records_an_unreadable_spec_and_reports_the_rest(capsys):
    code, doc = run_json(capsys, "census", "Z(4)", f"Z({LONG})", "Z(2)")
    assert code == 2
    assert doc["entries"][1] == {"spec": f"Z({LONG})",
                                 "error": f"cannot read an integer from {LONG_SHOWN}"}
    _, alone = run_json(capsys, "census", "Z(4)", "Z(2)")
    assert [doc["entries"][0], doc["entries"][2]] == alone["entries"]


def test_internal_fault_exits_70(capsys, monkeypatch):
    import torsionlab.cli as cli_mod
    from torsionlab.errors import InvariantError

    def boom(ring):
        raise InvariantError("synthetic fault")

    monkeypatch.setattr(cli_mod, "enumerate_torsion_notions", boom)
    assert main(["torsion-enum", "Z(4)"]) == 70


def test_uncaught_exception_exits_70(capsys, monkeypatch):
    import torsionlab.cli as cli_mod

    def boom(ring):
        raise TypeError("synthetic bug")

    monkeypatch.setattr(cli_mod, "enumerate_torsion_notions", boom)
    assert main(["torsion-enum", "Z(4)"]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: TypeError: synthetic bug\n"


def test_an_escaped_value_error_exits_70(capsys, monkeypatch):
    # only InputError is bad input: a bug that raises a plain ValueError
    # is an internal fault like any other escape
    import torsionlab.cli as cli_mod

    def boom(ring):
        raise ValueError("synthetic bug")

    monkeypatch.setattr(cli_mod, "enumerate_torsion_notions", boom)
    assert main(["torsion-enum", "Z(4)"]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: ValueError: synthetic bug\n"


def test_input_errors_are_value_errors():
    # library callers that catch ValueError keep catching bad input
    assert issubclass(tl.InputError, ValueError)
    assert issubclass(tl.RingSpecError, tl.InputError)
    assert issubclass(tl.TableError, tl.InputError)
    assert not issubclass(tl.InvariantError, tl.InputError)


DELTA = {"ring": "Z(4)", "u_arity": 0, "z_arity": 0, "rows": [{"a": 0, "b": 0}]}
RING = {"order": 2, "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]], "zero": 0, "one": 1}
MODULE = {"order": 2, "add": [[0, 1], [1, 0]], "act": [[0, 0], [0, 1], [0, 0], [0, 1]],
          "zero": 0}


@pytest.mark.parametrize("argv, doc", [
    (["delta-reduce", "PATH"], dict(DELTA, ring=5)),
    (["delta-reduce", "PATH"], dict(DELTA, rows=[{"a": 0, "b": 0, "c": 5}])),
    (["delta-reduce", "PATH"], dict(DELTA, rows=[{"a": True, "b": 0}])),
    (["delta-reduce", "PATH"],
     dict(DELTA, u_arity=True, rows=[{"a": 0, "b": 0, "c": [0], "d": [0]}])),
    (["delta-reduce", "PATH"], dict(DELTA, z_arity="0")),
    (["ring-info", "table:PATH"],
     {"order": True, "add": [[0]], "mul": [[0]], "zero": 0, "one": 0}),
    (["ring-info", "table:PATH"], dict(RING, mul=[[0, 0], [0, True]])),
    (["ring-info", "table:PATH"], dict(RING, one=True)),
    (["wep", "Z(4)", "--filter", "1", "--module", "file:PATH"], dict(MODULE, zero=False)),
    (["wep", "Z(4)", "--filter", "1", "--module", "file:PATH"],
     dict(MODULE, act=[[0, 0], [0, True], [0, 0], [0, 1]])),
    (["delta-reduce", "PATH"], dict(DELTA, rows=[{"a": "zz", "b": 0}])),
    (["delta-reduce", "PATH"], dict(DELTA, ring="Z(x)")),
    (["delta-reduce", "PATH"], {k: v for k, v in DELTA.items() if k != "ring"}),
])
def test_mistyped_documents_are_invalid_input(tmp_path, capsys, argv, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main([arg.replace("PATH", str(path)) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "(at $" in captured.err
    assert captured.err.count("\n") == 1


def with_entry(doc, key, i, j, v):
    """``doc`` with entry (i, j) of its table ``key`` set to v."""
    table = [list(row) for row in doc[key]]
    table[i][j] = v
    return dict(doc, **{key: table})


RING_ARGV = ["ring-info", "table:PATH"]
MODULE_ARGV = ["wep", "Z(4)", "--filter", "1", "--module", "file:PATH"]


@pytest.mark.parametrize("argv, doc, message", [
    (RING_ARGV, with_entry(RING, "add", 1, 1, 5), "add[1][1] = 5 out of range"),
    (RING_ARGV, dict(RING, add=[[0, 1], [1]]), "add row 1 must have 2 entries"),
    (RING_ARGV, dict(RING, add=[[0, 1]]), "add table must have 2 rows"),
    (RING_ARGV, with_entry(RING, "add", 1, 1, True),
     "entry must be an element index (at $.add[1][1])"),
    (RING_ARGV, with_entry(RING, "add", 1, 1, 1.0),
     "entry must be an element index (at $.add[1][1])"),
    (RING_ARGV, with_entry(RING, "add", 1, 1, "x"),
     "entry must be an element index (at $.add[1][1])"),
    (RING_ARGV, dict(RING, zero=2), "zero index out of range"),
    (MODULE_ARGV, with_entry(MODULE, "act", 1, 1, 5), "act[1][1] = 5 out of range"),
    (MODULE_ARGV, dict(MODULE, add=[[0, 1], [1]]), "module-add row 1 must have 2 entries"),
    (MODULE_ARGV, dict(MODULE, act=MODULE["act"][:3]), "act table must have 4 rows"),
    (MODULE_ARGV, with_entry(MODULE, "act", 1, 1, True),
     "entry must be an element index (at $.act[1][1])"),
    (MODULE_ARGV, with_entry(MODULE, "act", 1, 1, 1.0),
     "entry must be an element index (at $.act[1][1])"),
    (MODULE_ARGV, with_entry(MODULE, "act", 1, 1, "x"),
     "entry must be an element index (at $.act[1][1])"),
    (MODULE_ARGV, dict(MODULE, zero=2), "zero index out of range"),
])
def test_a_malformed_table_document_names_its_fault(tmp_path, capsys, argv, doc, message):
    # JSON types are named at their path; shape and range by the constructor
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main([arg.replace("PATH", str(path)) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, what", [
    (RING_ARGV, "ring table"), (MODULE_ARGV, "module table"),
    (["delta-reduce", "PATH"], "delta axiom"),
], ids=["table", "file", "delta-reduce"])
@pytest.mark.parametrize("content, cause", [
    (b"[" * 100000, "maximum recursion depth exceeded"),
    (b'{"order": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
    (None, "No such file or directory"),
], ids=["nested", "not-utf-8", "missing"])
def test_an_unreadable_document_is_invalid_input_naming_its_path(tmp_path, capsys, argv,
                                                                 what, content, cause):
    path = tmp_path / "doc.json"
    if content is not None:
        path.write_bytes(content)
    code = main([arg.replace("PATH", str(path)) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: cannot read {what} {str(path)!r}: ")
    assert cause in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("ring, message", [
    ("Z(9)", "'Z(9)' is not the ring Z(4) (at $.ring)"),
    # the same order and additive group, another multiplication
    ("prod(Z(2),Z(2))", "'prod(Z(2),Z(2))' is not the ring Z(4) (at $.ring)"),
    (4, "'ring' must be a ring spec (at $.ring)"),
    (None, "'ring' must be a ring spec (at $.ring)"),
    ("Q(4)", "ring spec 'Q(4)': unknown ring constructor 'Q' (at 0) (at $.ring)"),
])
def test_a_module_document_over_another_ring_is_invalid_input(tmp_path, capsys, ring, message):
    path = tmp_path / "module.json"
    path.write_text(json.dumps(dict(MODULE, ring=ring)))
    code = main(["wep", "Z(4)", "--filter", "1", "--module", f"file:{path}"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


DEEP_SPEC = "prod(" * 3000


@pytest.mark.parametrize("argv", [["ring-info", DEEP_SPEC], MODULE_ARGV],
                         ids=["ring-info", "file"])
def test_a_deeply_nested_ring_spec_is_invalid_input(tmp_path, capsys, argv):
    path = tmp_path / "module.json"
    path.write_text(json.dumps(dict(MODULE, ring=DEEP_SPEC)))
    code = main([arg.replace("PATH", str(path)) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "ring spec nests too deeply" in captured.err


@pytest.mark.parametrize("ring, message", [
    (DEEP_SPEC, "ring spec nests too deeply"),
    ("Z(9)" + " " * 20000, "is not the ring Z(4)"),
], ids=["deep", "another-ring"])
def test_a_long_ring_key_is_quoted_short(tmp_path, capsys, ring, message):
    path = tmp_path / "module.json"
    path.write_text(json.dumps(dict(MODULE, ring=ring)))
    code = main(["wep", "Z(4)", "--filter", "1", "--module", f"file:{path}"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert message in captured.err and captured.err.count("\n") == 1
    assert len(captured.err.encode()) < 300


@pytest.mark.parametrize("ring", ["Z(4)", "quot(Z(8),4)", "omitted"])
def test_a_module_document_over_the_command_ring_is_accepted(tmp_path, capsys, ring):
    # the "ring" key may be left out; when present it must name a ring
    # with the command ring's tables, whatever its spec
    assert tl.parse_ring_spec("quot(Z(8),4)").mul == tl.parse_ring_spec("Z(4)").mul
    path = tmp_path / "module.json"
    path.write_text(json.dumps(MODULE if ring == "omitted" else dict(MODULE, ring=ring)))
    code, doc = run_json(capsys, "wep", "Z(4)", "--filter", "1", "--module", f"file:{path}")
    assert (code, doc) == (0, {"ring": "Z(4)", "module": f"file:{path}", "wep": True})


@pytest.mark.parametrize("a", [4, -1, 10 ** 30])
def test_a_delta_coefficient_out_of_range_is_invalid_input(tmp_path, capsys, a):
    path = tmp_path / "axiom.json"
    path.write_text(json.dumps(dict(DELTA, rows=[{"a": 0, "b": 0}, {"a": a, "b": 0}])))
    code = main(["delta-reduce", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == \
        (2, "", f"error: row 1: coefficient {a} out of range\n")


# -- one mutation of a valid document, through every reader --------------------

FUZZ_DOCUMENTS = [
    (RING_ARGV, RING),
    (MODULE_ARGV, dict(MODULE, ring="Z(4)")),
    (["delta-reduce", "PATH"], {"ring": "Z(4)", "u_arity": 1, "z_arity": 1,
                                "rows": [{"a": 1, "b": 3, "c": [1], "d": [3], "e": [0]}]}),
]
SCALARS = [st.booleans(), st.floats(), st.text(max_size=4), st.none()]
NON_OBJECTS = st.one_of(*SCALARS, st.lists(st.integers(-3, 5), max_size=3))
ODD_VALUES = st.one_of(NON_OBJECTS, st.dictionaries(st.text(max_size=2), st.integers(-3, 5),
                                                    max_size=2))


def json_paths(value, path=()):
    """The path of every value inside the parsed JSON ``value``, its own first."""
    yield path
    if isinstance(value, (dict, list)):
        for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from json_paths(item, (*path, key))


def json_at(value, path):
    for key in path:
        value = value[key]
    return value


def is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


# mutation -> whether it applies at a (parent, value) pair
MUTATIONS = {
    "drop": lambda parent, value: isinstance(parent, dict),
    "retype": lambda parent, value: True,
    "short": lambda parent, value: isinstance(value, list) and bool(value),
    "extra": lambda parent, value: isinstance(value, list),
    "huge": lambda parent, value: is_int(value),
    "negative": lambda parent, value: is_int(value),
    "top": None,
}


def mutate(doc, mutation, data):
    """``doc`` with one ``mutation`` drawn from ``data``."""
    if mutation == "top":
        return data.draw(NON_OBJECTS)
    applies = MUTATIONS[mutation]
    path = data.draw(st.sampled_from([p for p in json_paths(doc) if p and applies(
        json_at(doc, p[:-1]), json_at(doc, p))]))
    parent, key = json_at(doc, path[:-1]), path[-1]
    value = parent[key]
    if mutation == "drop":
        del parent[key]
    elif mutation == "retype":
        parent[key] = data.draw(ODD_VALUES)
    elif mutation == "short":
        value.pop()
    elif mutation == "extra":
        value.append(json.loads(json.dumps(value[-1])) if value else 0)
    elif mutation == "huge":
        parent[key] = 10 ** data.draw(st.integers(3, 4000))
    else:
        parent[key] = data.draw(st.integers(-10 ** 6, -1))
    return doc


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.sampled_from(FUZZ_DOCUMENTS), st.sampled_from(sorted(MUTATIONS)), st.data())
def test_a_mutated_document_is_never_an_internal_fault(tmp_path_factory, case, mutation, data):
    # a valid ring, module or delta document with one mutation: bad input
    # exits 2 with one error line and no stdout, never 70
    argv, doc = case
    doc = mutate(json.loads(json.dumps(doc)), mutation, data)
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.replace("PATH", str(path)) for arg in argv])
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def table_rows(order, op):
    return [[op(x, y) for y in range(order)] for x in range(order)]


def flat(rows):
    return [v for row in rows for v in row]


def ring_doc(add, mul, one=1):
    return {"order": len(add), "add": add, "mul": mul, "zero": 0, "one": one}


def cyclic_doc(n, mul_faults=(), one=1):
    """Z(n) as a ring table document, with the multiplication entries
    (x, y, value) of ``mul_faults`` changed."""
    mul = table_rows(n, lambda x, y: x * y % n)
    for x, y, v in mul_faults:
        mul[x][y] = v
    return ring_doc(table_rows(n, lambda x, y: (x + y) % n), mul, one)


def nonassociative_z5():
    """Z(5) with 1 + 2 = 2 + 1 = 4: identity, commutativity and inverses
    still hold."""
    doc = cyclic_doc(5)
    doc["add"][1][2] = doc["add"][2][1] = 4
    return doc


def rescaled_ut2():
    """UT2(2) with r *' x = (e11 r) x: distributive, not associative."""
    ring = tl.parse_ring_spec("UT2(2)")
    e11 = 4
    return ring_doc([list(row) for row in ring.add],
                    table_rows(8, lambda r, x: ring.mul[ring.mul[e11][r]][x]), ring.one)


@pytest.mark.parametrize("axiom, make", [
    ("add-associative", nonassociative_z5),
    ("left-distributive", lambda: cyclic_doc(4, [(2, 1, 0)])),
    ("right-distributive", lambda: ring_doc(table_rows(3, lambda x, y: (x + y) % 3),
                                            table_rows(3, lambda r, x: (0, 1, 1)[r] * x % 3))),
    ("mul-associative", rescaled_ut2),
    ("one-identity", lambda: cyclic_doc(3, one=2)),
    # above 256 elements the scan runs the loops; row 0 fails first
    ("left-distributive", lambda: cyclic_doc(257, [(0, 5, 1)])),
], ids=["add-associative", "left-distributive", "right-distributive", "mul-associative",
        "one-identity", "left-distributive-257"])
def test_a_faulty_ring_table_names_the_scan_witness(tmp_path, capsys, axiom, make):
    doc = make()
    want_axiom, _, message = reference_ring_error(doc["order"], doc["add"], doc["mul"],
                                                  doc["zero"], doc["one"])
    assert want_axiom == axiom
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(doc))
    code = main(["ring-info", f"table:{path}"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


def module_doc(add, act):
    return {"order": len(add), "add": add, "act": act, "zero": 0}


Z4_ADD = table_rows(4, lambda x, y: (x + y) % 4)
XOR4 = table_rows(4, lambda x, y: x ^ y)
SWAP = [0, 2, 1, 3]  # the coordinate swap of Z(2)^2, not idempotent


@pytest.mark.parametrize("kind, doc", [
    # Z(4) on itself with 2*1 = 0: row 2 is not additive
    ("act_add", module_doc(Z4_ADD, [[0] * 4, [0, 1, 2, 3], [0, 0, 0, 2], [0, 3, 2, 1]])),
    # r.x = f(r) x for f = (0, 1, 1, 3), which is not additive
    ("add_act", module_doc(Z4_ADD, table_rows(4, lambda r, x: (0, 1, 1, 3)[r] * x % 4))),
    # Z(2)^2 with r.x = r SWAP(x): additive on both sides, but
    # (1*1).x = SWAP(x) and 1.(1.x) = x
    ("mul_act", module_doc(XOR4, [[0] * 4, SWAP, [0] * 4, SWAP])),
    # Z(2) with the zero action
    ("one_act", module_doc([[0, 1], [1, 0]], [[0, 0]] * 4)),
], ids=["act_add", "add_act", "mul_act", "one_act"])
def test_a_faulty_module_table_names_the_scan_witness(tmp_path, capsys, kind, doc):
    ring = tl.parse_ring_spec("Z(4)")
    w = reference_module_axiom_witness(ring.order, doc["order"], ring.add_flat, ring.mul_flat,
                                       flat(doc["add"]), flat(doc["act"]), ring.one)
    assert w[0] == kind
    path = tmp_path / "module.json"
    path.write_text(json.dumps(doc))
    code = main(["wep", "Z(4)", "--filter", "1", "--module", f"file:{path}"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: scalar action axiom {kind} fails at {w[1:]}\n"


@pytest.mark.parametrize("row, where", [
    ({"a": 0, "b": 0, "c": [0, 0], "d": [0]}, "$.rows[1].c"),
    ({"a": 0, "b": 0, "c": [0], "d": []}, "$.rows[1].d"),
    ({"a": 0, "b": 0, "c": [0], "d": [0], "e": [0, 0]}, "$.rows[1].e"),
    ({"a": 0, "b": 0}, "$.rows[1].c"),
])
def test_delta_row_arity_mismatch_is_positioned(tmp_path, capsys, row, where):
    path = tmp_path / "axiom.json"
    path.write_text(json.dumps({
        "ring": "Z(4)", "u_arity": 1, "z_arity": 1,
        "rows": [{"a": 1, "b": 3, "c": [1], "d": [3], "e": [0]}, row]}))
    code = main(["delta-reduce", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f"(at {where})" in captured.err


def test_closure_outside_domain_is_invalid_input(capsys):
    # R/A is all torsion for the nontrivial filter, so the closure is
    # undefined there
    code, _ = run_cli(capsys, "closure", "UT2(2)", "--filter", "e11,e12;1",
                      "--module", "quot:e11,e12", "--sub", "")
    assert code == 2


def test_rcm_with_larger_bound(capsys):
    code, doc = run_json(capsys, "rcm", "Z(4)", "--filter", "1", "--bound", "3")
    assert code == 0
    assert doc["bound"] == 3
    assert doc["modules_checked"] > 9


@pytest.mark.parametrize("bound", ["0", "-1"])
@pytest.mark.parametrize("argv", [["rcm", "Z(4)", "--filter", "1", "--bound"],
                                  ["classify", "Z(4)", "--quasi", "2", "--bound"],
                                  ["census", "Z(4)", "--bound"],
                                  ["census", "--max-order"]])
def test_bound_below_one_is_invalid_input(capsys, argv, bound):
    code = main([*argv, bound])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{argv[-1]}: must be at least 1" in captured.err


def test_census_small(capsys):
    code, doc = run_json(capsys, "census", "Z(4)", "UT2(2)")
    assert code == 0
    assert [e["spec"] for e in doc["entries"]] == ["Z(4)", "UT2(2)"]
    assert doc["entries"][1]["notions"] == 2
    for entry in doc["entries"]:
        for pn in entry["per_notion"]:
            assert pn["rcm_pass"] is True
        if entry["commutative"]:
            assert all(pn["collapse"]["filter_is_trivial"]
                       for pn in entry["per_notion"])


def test_census_reports_bad_entries_and_continues(capsys):
    code, doc = run_json(capsys, "census", "Z(4)", "Z(oops)")
    assert code == 2
    kinds = [("error" in e) for e in doc["entries"]]
    assert kinds == [False, True]


def test_census_seeded_delta_sweep(capsys):
    code, doc = run_json(capsys, "census", "Z(4)", "--seed", "11")
    assert code == 0
    assert doc["entries"][0]["delta_instances"] > 0


def test_census_matches_golden_file(capsys):
    import pathlib
    golden = pathlib.Path(__file__).parent / "data" / "census_golden.json"
    code, out = run_cli(capsys, "census", "Z(4)", "Z(6)", "UT2(2)",
                        "--seed", "11", "--json")
    assert code == 0
    assert out == golden.read_text()


def test_census_delta_sweep_matches_pinned_digest(capsys):
    # stdout of the seeded sweep over the builtin rings of order <= 8,
    # as pinned for the census-delta workload in perfbench/workloads.json
    code, out = run_cli(capsys, "census", "--max-order", "8", "--seed", "1", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "16bdf1198b8c77a3bac8bbed7d51acff66ac645ba4a7466c2163311b051fec51"


@pytest.mark.parametrize("seed, digest", [
    ("4", "e3b7b2cc8d7302c39b8afddf507615ff806a9e4cf4802528852674ad8c9d90ee"),
    ("33", "91c42b7409515aa6f959fb4278651f9006223a2101c7c1b603739bf1149e2ec8"),
    ("61", "5969fffb107cf19b35fceed7eeb100e031f7c3b0835fc5819806493d5e0c2dc7"),
])
def test_more_census_delta_seeds_match_pinned_digests(capsys, seed, digest):
    # three more seeds of the census-delta pool in perfbench/workloads.json
    code, out = run_cli(capsys, "census", "--max-order", "8", "--seed", seed, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_delta_sweep_reads_one_fiber_table_per_module(capsys, monkeypatch):
    import torsionlab.cli as cli_mod
    from torsionlab import delta

    tables, keys, batches = [], {}, []
    init = delta._FiberTable.__init__

    def counted_init(self, module):
        tables.append(module)
        keys[id(module)] = (module, set(module._cache))
        init(self, module)

    equiv = cli_mod._delta_equiv

    def counted_equiv(module, axiom, red, plan, table, verdicts):
        assert table.module is module
        if not batches or batches[-1][0] is not table:
            batches.append((table, module))
        return equiv(module, axiom, red, plan, table, verdicts)

    monkeypatch.setattr(delta._FiberTable, "__init__", counted_init)
    monkeypatch.setattr(cli_mod, "_delta_equiv", counted_equiv)
    code, _ = run_cli(capsys, "census", "--max-order", "8", "--seed", "1", "--json")
    assert code == 0
    # at most one table per corpus module, and each module's instances
    # run in one batch through its table
    assert len(tables) == len({id(mod) for mod in tables})
    assert len(batches) == len({id(mod) for _, mod in batches}) > 100
    # the sweep leaves nothing in any module's cache
    for module, before in keys.values():
        assert set(module._cache) == before
        assert not any(isinstance(v, delta._FiberTable) for v in module._cache.values())


def test_a_delta_disagreement_is_an_internal_fault(capsys, monkeypatch):
    from torsionlab import delta

    oracle = delta.satisfies_quasiidentity
    monkeypatch.setattr(delta, "satisfies_quasiidentity",
                        lambda module, ideal: not oracle(module, ideal))
    assert main(["census", "Z(4)", "--seed", "11"]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal hard fault: delta evaluation (" in captured.err
    assert ") disagrees with the encoded quasiidentity (" in captured.err


def test_a_delta_disagreement_on_one_pair_is_an_internal_fault(capsys, monkeypatch):
    # a verdict is computed once per (module, ideal) in a batch, so a fault
    # in one pair must still reach the first instance that reads it
    from torsionlab import delta

    argv = ["census", "Z(4)", "Z(6)", "UT2(2)", "--seed", "11"]
    pairs, oracle = [], delta.satisfies_quasiidentity

    def spy(module, ideal):
        pairs.append((module.ring.name, module.name, ideal.bits))
        return oracle(module, ideal)

    monkeypatch.setattr(delta, "satisfies_quasiidentity", spy)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(pairs) == len(set(pairs)) > 3
    for target in (pairs[1], pairs[len(pairs) // 2], pairs[-1]):
        def planted(module, ideal, target=target):
            verdict = oracle(module, ideal)
            if (module.ring.name, module.name, ideal.bits) == target:
                return not verdict
            return verdict

        monkeypatch.setattr(delta, "satisfies_quasiidentity", planted)
        assert main(argv) == 70
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal hard fault: delta evaluation (")
        assert captured.err.endswith(f" on {target[1]}\n")


def test_a_delta_fault_on_an_instance_whose_verdict_is_known_is_caught(capsys, monkeypatch):
    # an instance whose ideal's verdict the batch already holds is still
    # compared with it
    import torsionlab.cli as cli_mod
    from torsionlab import delta

    argv = ["census", "Z(4)", "Z(6)", "UT2(2)", "--seed", "11"]
    calls, equiv = [], cli_mod._delta_equiv

    def spy(module, axiom, red, plan, table, verdicts):
        calls.append((module.name, red.ideal.bits in verdicts))
        return equiv(module, axiom, red, plan, table, verdicts)

    monkeypatch.setattr(cli_mod, "_delta_equiv", spy)
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli_mod, "_delta_equiv", equiv)
    known = [i for i, (_, seen) in enumerate(calls) if seen]
    assert len(known) > 3
    witnesses = delta._condition_witnesses
    for target in (known[0], known[-1]):
        seen = []

        def planted(module, axiom, table, plan=None, target=target):
            # flip the evaluation's verdict at instance ``target`` alone
            w1, w2 = witnesses(module, axiom, table, plan)
            seen.append(None)
            if len(seen) - 1 != target:
                return w1, w2
            return (None, None) if w1 is not None or w2 is not None else ((0,), None)

        monkeypatch.setattr(delta, "_condition_witnesses", planted)
        assert main(argv) == 70
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f" on {calls[target][0]}\n")


def test_delta_sweep_decides_each_quasiidentity_once_per_batch(capsys, monkeypatch):
    import torsionlab.cli as cli_mod
    from torsionlab import delta

    decided, instances, batches = [], [], []
    oracle, equiv = delta.satisfies_quasiidentity, cli_mod._delta_equiv

    def counted_oracle(module, ideal):
        decided.append((module, ideal.bits))
        return oracle(module, ideal)

    def counted_equiv(module, axiom, red, plan, table, verdicts):
        if not batches or batches[-1][0] is not verdicts:
            assert not verdicts
            batches.append((verdicts, set()))
        seen = batches[-1][1]
        before = len(decided)
        got = equiv(module, axiom, red, plan, table, verdicts)
        # the oracle runs for the first instance of each ideal in a batch
        fresh = red.ideal.bits not in seen
        assert decided[before:] == ([(module, red.ideal.bits)] if fresh else [])
        assert verdicts[red.ideal.bits] == got
        seen.add(red.ideal.bits)
        instances.append((module, axiom))
        return got

    monkeypatch.setattr(delta, "satisfies_quasiidentity", counted_oracle)
    monkeypatch.setattr(cli_mod, "_delta_equiv", counted_equiv)
    code, doc = run_json(capsys, "census", "--max-order", "8", "--seed", "1")
    assert code == 0
    # one evaluation per instance, as many as the census reports
    total = sum(entry["delta_instances"] for entry in doc["entries"])
    assert len(instances) == len({(id(m), id(a)) for m, a in instances}) == total
    assert len(decided) == sum(len(seen) for _, seen in batches) < total
    for verdicts, seen in batches:
        assert set(verdicts) == seen


def test_delta_sweep_plans_each_drawn_axiom_once(capsys, monkeypatch):
    import torsionlab.cli as cli_mod

    plans, used = {}, []
    plan_of, equiv = cli_mod._delta_plan, cli_mod._delta_equiv

    def counted_plan(axiom):
        assert id(axiom) not in plans
        plans[id(axiom)] = axiom, plan_of(axiom)
        return plans[id(axiom)][1]

    def counted_equiv(module, axiom, red, plan, table, verdicts):
        assert plans[id(axiom)][1] is plan
        used.append(id(axiom))
        return equiv(module, axiom, red, plan, table, verdicts)

    monkeypatch.setattr(cli_mod, "_delta_plan", counted_plan)
    monkeypatch.setattr(cli_mod, "_delta_equiv", counted_equiv)
    code, doc = run_json(capsys, "census", "--max-order", "8", "--seed", "1")
    assert code == 0
    # ten axioms drawn per ring, each planned once and read by every instance
    assert len(plans) == 10 * len(doc["entries"])
    assert set(used) <= set(plans) and len(used) > len(plans)


@pytest.mark.parametrize("command, valid", [
    ("ring-info", ["Z(4)"]), ("ideals", ["Z(4)"]),
    ("torsion-check", ["Z(4)", "--filter", "1"]), ("torsion-enum", ["Z(4)"]),
    ("closure", ["Z(4)", "--filter", "1"]), ("wep", ["Z(4)", "--filter", "1"]),
    ("rcm", ["Z(4)", "--filter", "1"]), ("delta-reduce", ["axiom.json"]),
    ("classify", ["Z(4)"]), ("census", [])])
def test_a_one_command_parser_reads_as_the_full_one(capsys, command, valid):
    import torsionlab.cli as cli_mod

    def outcome(parser, argv):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    full, alone = cli_mod._parser(), cli_mod._parser(command)
    assert alone is cli_mod._parser(command) and alone is not full
    help_out = outcome(alone, [command, "--help"])
    assert help_out == outcome(full, [command, "--help"]) and help_out[0] == 0
    # a missing argument (the subcommand's error), then an unknown one
    # after valid arguments (the top-level error, with its usage line)
    for argv in ([command, "--no-such-flag"], [command, *valid, "--no-such-flag"]):
        error = outcome(alone, argv)
        assert error == outcome(full, argv) and error[0] == 2 and error[1] == ""
    assert "unrecognized arguments: --no-such-flag" in error[2]


def test_main_builds_only_the_named_command_parser(capsys):
    import torsionlab.cli as cli_mod

    cli_mod._parser.cache_clear()
    assert run_cli(capsys, "ring-info", "Z(4)")[0] == 0
    assert cli_mod._parser.cache_info().currsize == 1
    (sub,) = [a for a in cli_mod._parser("ring-info")._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == ["ring-info"]
    # -h, --version and an unknown command read the full parser
    assert main(["-h"]) == 0
    listing = capsys.readouterr().out
    assert cli_mod._parser.cache_info().currsize == 2
    for command in cli_mod._COMMANDS:
        assert f"\n    {command} " in listing
    assert len(cli_mod._COMMANDS) == 10
    assert main(["no-such-command"]) == 2
    assert "invalid choice: 'no-such-command'" in capsys.readouterr().err


def test_a_failed_parse_leaves_the_parser_as_it_was(capsys):
    argv = ["classify", "UT2(2)", "--quasi", "e11,e12", "--ident", "1", "--json"]
    alone = run_cli(capsys, *argv)
    # the parse appends to --quasi before it fails
    assert main(["classify", "UT2(2)", "--quasi", "e11", "--no-such-flag"]) == 2
    assert main(["census", "--quasi", "e11"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert run_cli(capsys, *argv) == alone
    assert run_cli(capsys, "classify", "UT2(2)", "--quasi", "e11,e12", "--json") != alone


def test_census_delta_sweep_above_256_matches_pinned_digest(capsys):
    # stdout of the seeded sweep over Z(17): three of its 21 delta
    # instances run on Z(17)^2, of order 289, above what a byte holds
    code, out = run_cli(capsys, "census", "Z(17)", "--seed", "5", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "03ddfdd5df6d3a6c053fa60d719c74941eee44610dc8106c2826e1c8691f8e44"


def test_ring_info_of_a_quotient_by_zero_matches_pinned_digest(capsys):
    # R/0 shares R's tables under its own name and element names; stdout
    # is as when its tables were derived and map-checked
    code, out = run_cli(capsys, "ring-info", "quot(Z(4),0)", "--json")
    assert code == 0
    assert json.loads(out)["element_names"] == {"[0]": 0, "[1]": 1, "[2]": 2, "[3]": 3,
                                                "0": 0, "1": 1}
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "530e97e8c1f8f93b6f1d6187ff6356679efea7e7eeef761e15cc18756d08f6f6"


def test_census_rcm_matches_pinned_digest(capsys):
    # stdout of the census of the builtin rings of order <= 12 at bound 2,
    # which builds the most lattices, as pinned for the census-rcm
    # workload in perfbench/workloads.json
    code, out = run_cli(capsys, "census", "--max-order", "12", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "0324cfec4c79ef252bb4a059834d1911dd9cdf08567c99cfaf16743bb1930bd4"


def test_rcm_lattice_sizes_match_pinned_digest(capsys):
    # stdout prints the relative lattice of each of 18 corpus modules,
    # with sizes 1, 2, 5, 16 and 67
    code, out = run_cli(capsys, "rcm", "UT2(2)", "--filter", "e11,e12;1", "--bound", "2",
                        "--json")
    assert code == 0
    entries = json.loads(out)["entries"]
    assert len(entries) == 18
    assert {e["lattice_size"] for e in entries} == {1, 2, 5, 16, 67}
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "1e981e7ecd49d33f45330ff98aed966aff145672b344f7058cfb84afc16df333"


def test_census_above_256_members_matches_pinned_digest(capsys, monkeypatch):
    # the census of prod(Z(2),UT2(2)) at bound 2 decides modularity on
    # relative lattices of up to 600 members, above what a byte holds
    import torsionlab.torsion as torsion_mod
    sizes = []
    decide = torsion_mod._modular_by_covers

    def spy(members):
        sizes.append(len(members))
        return decide(members)

    monkeypatch.setattr(torsion_mod, "_modular_by_covers", spy)
    code, out = run_cli(capsys, "census", "prod(Z(2),UT2(2))", "--bound", "2", "--json")
    assert code == 0
    assert max(sizes) == 600
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "8ef5a9989f66de239b4359e8be51a8e421bbe9111cbc6184918c74bc7af06aa9"


def test_census_bound_3_matches_pinned_digest(capsys, monkeypatch):
    # Closed(R^3) of Z(6) has 448 members, above what a byte holds, so
    # the cover decision runs on a bound-3 family
    import torsionlab.torsion as torsion_mod
    sizes = []
    decide = torsion_mod._modular_by_covers

    def spy(members):
        sizes.append(len(members))
        return decide(members)

    monkeypatch.setattr(torsion_mod, "_modular_by_covers", spy)
    code, out = run_cli(capsys, "census", "Z(6)", "--bound", "3", "--json")
    assert code == 0
    assert max(sizes) == 448
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "cad3aed78465c743572a72863a0968008b43cabaab8e6e5c7ebc1f3f9a22fdb0"


def test_rcm_above_order_256_matches_pinned_digest(capsys):
    # R^2 of UT2(3) has order 729, so the corpus builds quotients above
    # what a byte holds, and each lattice size is counted on the 330
    # members of Sub(R^2)
    code, out = run_cli(capsys, "rcm", "UT2(3)", "--filter", "e11,e12;1", "--bound", "2",
                        "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "a2d6d4d56986f151263a2762b9f37189a7e0b9b5a4c044e33c73568d786bf3d2"


def test_ring_info_above_order_256_matches_pinned_digest(capsys):
    # UT2(7) has order 343, so its ring axioms are decided on tuple rows
    code, out = run_cli(capsys, "ring-info", "UT2(7)", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "444b37adabdae930a14c3c401e66726be7ce3a0c2aa01b2a5d043994e94e6489"


# the three classify-wide commands of perfbench/workloads.json, with the
# stdout sha256 pinned there
CLASSIFY_WIDE = [
    (("classify", "UT2(5)", "--quasi", "e11", "--bound", "1", "--json"),
     "b5c36c815b3c07e1ff9e6980dfc3ac4bcc9abbc85a5ff09e44fc1106c23c1313"),
    (("classify", "prod(UT2(2),UT2(2))", "--quasi", "1", "--bound", "1", "--json"),
     "0f612c66fe43a917794ac70fe8560caaf8c52ee63bbb64b1a2bee483395b41a1"),
    (("census", "M2(3)", "UT2(3)", "prod(UT2(2),UT2(2))", "--bound", "1", "--json"),
     "dce398d962ce451b53c0be19bb084bef109fd8a0e7eb7e45db7bfcc1786e80b8"),
]


@pytest.mark.parametrize("argv, digest", CLASSIFY_WIDE)
def test_classify_wide_matches_pinned_digest(capsys, argv, digest):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# commands whose output the bitset preimages decide directly: the
# two-sided flags of the ideals, axioms (4) and (5) of every candidate
# family, and a filter whose ideal has no generators (--filter ","),
# whose closure must start from the full set
PREIMAGE_DECIDED = [
    (("ideals", "UT2(3)", "--json"),
     "ad82ba287339ff763467e862deb2f619796c9ddade5a946b69177381a7fffa8b"),
    (("torsion-enum", "M2(2)", "--json"),
     "e245ccbe8dc1a29e39070fccf337a93fe5c545c58c2e26fa1e8a98ff3b1847a5"),
    (("torsion-check", "Z(1)", "--filter", ",", "--json"),
     "5535d136e2d976b834ec53cfc2797d83f3f5792c1a81a611079b10e355fb9363"),
    (("rcm", "Z(1)", "--filter", ",", "--bound", "2", "--json"),
     "65f1c71002a158ad05411eb8665f046d1d5af4061fd380a1a4cefca1fe41e7de"),
]


@pytest.mark.parametrize("argv, digest", PREIMAGE_DECIDED)
def test_preimage_decided_output_matches_pinned_digest(capsys, argv, digest):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_corrupted_quotient_projection_exits_70(capsys, monkeypatch):
    import torsionlab.modules as modules_mod

    coset_representatives = modules_mod.coset_representatives

    def corrupted(order, add, members):
        reps, proj = coset_representatives(order, add, members)
        proj = list(proj)
        proj[-1] = (proj[-1] + 1) % len(reps)
        return reps, tuple(proj)

    monkeypatch.setattr(modules_mod, "coset_representatives", corrupted)
    assert main(["closure", "Z(4)", "--filter", "1", "--module", "quot:2"]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal hard fault: quotient module R/(2)")


def test_output_is_deterministic(capsys):
    _, first = run_cli(capsys, "census", "Z(6)", "UT2(2)", "--seed", "3", "--json")
    _, second = run_cli(capsys, "census", "Z(6)", "UT2(2)", "--seed", "3", "--json")
    assert first == second
    _, third = run_cli(capsys, "classify", "UT2(2)", "--quasi", "e11,e12", "--json")
    _, fourth = run_cli(capsys, "classify", "UT2(2)", "--quasi", "e11,e12", "--json")
    assert third == fourth


def test_version_names_the_backend(capsys):
    code = main(["--version"])
    captured = capsys.readouterr()
    assert (code, captured.out) == \
        (0, f"torsionlab {tl.__version__} (backend: {tl.backend()})\n")


@pytest.mark.parametrize("argv", [["ring-info", "Z(4)"], ["ideals", "UT2(3)", "--json"]],
                         ids=["short", "long"])
def test_a_closed_stdout_exits_141_in_silence(argv):
    # the read end is closed before the command starts, so its first write
    # to stdout fails however short the output: 128 + SIGPIPE, no traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "torsionlab", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=300)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "torsionlab.cli", "ring-info", "Z(4)"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "order 4" in proc.stdout
