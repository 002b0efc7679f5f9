"""Command-line contract: exit codes 0/1/2/3 and JSON reports."""

import builtins
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from certify_oracle import builtin_footprints, footprint_to_json
from bvhy import models, serialize
from bvhy.cli import main
from bvhy.models import build_skew_gram_model, build_torus_model, \
    build_trivial_model, search_nonformal


def _write(path, doc):
    path.write_text(serialize.dump(doc))
    return str(path)


@pytest.fixture()
def torus_file(tmp_path):
    return _write(tmp_path / "torus.json",
                  serialize.algebra_to_json(build_torus_model(1, 1).algebra))


def _footprint_file(tmp_path, name):
    for nf in builtin_footprints():
        if nf.name == name:
            return _write(tmp_path / f"{name}.json",
                          footprint_to_json(nf.footprint))
    raise KeyError(name)


def test_validate_passes_on_torus(torus_file, capsys):
    assert main(["validate", torus_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True
    assert {r["title"] for r in out["results"]} == \
        {"bv-axioms", "side-conditions", "strong-trivialization"}
    assert torus_file in out["inputs"]


def test_validate_fails_on_perturbed_delta(tmp_path, capsys):
    doc = serialize.algebra_to_json(build_torus_model(1, 1).algebra)
    # tamper with one delta coefficient: still shift-valid, no longer order-2
    src, tgt, val = doc["delta"][0]
    doc["delta"][0] = [src, tgt, "7/2"]
    path = _write(tmp_path / "broken.json", doc)
    assert main(["validate", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is False


def test_malformed_bidegree_exits_2_and_names_entry(tmp_path, capsys):
    doc = serialize.algebra_to_json(build_trivial_model(1).algebra)
    doc["basis"][1] = {"name": "x1", "p": "one", "q": 0}
    path = _write(tmp_path / "bad.json", doc)
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert "basis[1] (x1)" in err and "malformed bidegree" in err


def test_product_breaking_bidegree_additivity_exits_2(tmp_path, capsys):
    doc = {"schema": 1, "unit": "e",
           "basis": [{"name": "e", "p": 0, "q": 0}, {"name": "a", "p": 1, "q": 0},
                     {"name": "b", "p": 0, "q": 1}],
           "product": [["e", "e", "e", "1"], ["e", "a", "a", "1"],
                       ["e", "b", "b", "1"], ["a", "a", "b", "1"]]}
    path = _write(tmp_path / "bad.json", doc)
    assert main(["validate", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines == ["error: product[3]: target 'b' at (0, 1) breaks "
                     "bidegree additivity: (1, 0) + (1, 0)"]


@pytest.mark.parametrize("field", ["p", "q"])
def test_bool_bidegree_exits_2(tmp_path, capsys, field):
    doc = serialize.algebra_to_json(build_trivial_model(1).algebra)
    doc["basis"][0][field] = False
    path = _write(tmp_path / "bad.json", doc)
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert "basis[0] (x)" in err and "malformed bidegree" in err


def test_bool_footprint_dimension_exits_2(tmp_path, capsys):
    doc = footprint_to_json(builtin_footprints()[0].footprint)
    doc["occupied"][0]["dim"] = True
    path = _write(tmp_path / "bad.json", doc)
    assert main(["certify", path]) == 2
    assert "occupied[0]" in capsys.readouterr().err


@pytest.mark.parametrize("convention,p,q", [
    ("polyvector", -1, 4), ("polyvector", 7, -4), ("polyvector", 4, 0),
    ("polyvector", 0, 4), ("forms", 9, 9), ("forms", -1, 2)])
def test_footprint_outside_the_hodge_diamond_exits_2(tmp_path, capsys,
                                                    convention, p, q):
    # both corners, so the footprint hypothesis would otherwise hold
    corners = [(0, 0), (3, 3)] if convention == "polyvector" else \
        [(3, 0), (0, 3)]
    doc = {"schema": 1, "n": 3, "convention": convention,
           "occupied": [{"p": a, "q": b, "dim": 1}
                        for a, b in corners + [(p, q)]]}
    path = _write(tmp_path / "bad.json", doc)
    assert main(["certify", path]) == 2
    err = capsys.readouterr().err
    assert f"occupied[2]: bidegree ({p},{q}) lies outside" in err


@pytest.mark.parametrize("schema", [True, 1.0])
@pytest.mark.parametrize("command", ["validate", "certify"])
def test_schema_other_than_the_integer_1_exits_2(tmp_path, capsys, command,
                                                 schema):
    doc = footprint_to_json(builtin_footprints()[0].footprint) \
        if command == "certify" else \
        serialize.algebra_to_json(build_trivial_model(1).algebra)
    doc["schema"] = schema
    path = _write(tmp_path / "bad.json", doc)
    assert main([command, path]) == 2
    assert f"unsupported schema {schema!r}" in capsys.readouterr().err


def test_repeated_basis_name_names_its_row(tmp_path, capsys):
    doc = serialize.algebra_to_json(build_trivial_model(3).algebra)
    first = doc["basis"][1]
    doc["basis"].append(dict(first))
    path = _write(tmp_path / "bad.json", doc)
    assert main(["validate", path]) == 2
    row = len(doc["basis"]) - 1
    assert f"basis[{row}] ({first['name']}): duplicate basis name " \
        f"{first['name']!r}" in capsys.readouterr().err


@pytest.mark.parametrize("field,row", [("product", 0), ("d", 1)])
def test_unhashable_basis_name_exits_2(tmp_path, capsys, field, row):
    doc = serialize.algebra_to_json(build_torus_model(1, 1).algebra)
    doc[field][0][row] = [doc[field][0][row]]
    path = _write(tmp_path / "bad.json", doc)
    assert main(["validate", path]) == 2
    assert f"{field}[0]: unknown basis element" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["d", "delta", "product", "gram"])
def test_repeated_entry_exits_2(tmp_path, capsys, field):
    m = build_skew_gram_model() if field == "gram" else build_torus_model(1, 1)
    doc = serialize.algebra_to_json(m.algebra, m.inner_product)
    rows = doc[field]
    if field == "gram":
        # the form is symmetric: [y, x] sets the same entry as [x, y]
        x, y, _ = next(r for r in rows if r[0] != r[1])
        rows.append([y, x, "5"])
    else:
        rows.append(rows[0][:-1] + ["5"])
    path = _write(tmp_path / "bad.json", doc)
    assert main(["validate", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {field}[{len(rows) - 1}]: repeats")


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err
    assert main(["validate", str(tmp_path / "missing.json")]) == 2


def test_transfer_trivial_model_table(tmp_path, capsys):
    path = _write(tmp_path / "trivial.json",
                  serialize.algebra_to_json(build_trivial_model(2).algebra))
    out_path = tmp_path / "table.json"
    assert main(["transfer", path, "--max-arity", "4",
                 "--out", str(out_path)]) == 0
    table = json.loads(out_path.read_text())
    nonzero = {(op["arity"], op["brackets"]) for op in table["operations"]
               if op["entries"]}
    assert nonzero == {(2, 0)}
    assert table["formal_unit"]["passed"] is True
    # the exterior algebra tops out at (2,0), not on the (n,n) diagonal
    assert "skipped" in table["top_degree"]


def test_transfer_torus_top_degree_report(tmp_path):
    path = _write(tmp_path / "torus10.json",
                  serialize.algebra_to_json(build_torus_model(1, 0).algebra))
    out_path = tmp_path / "table.json"
    assert main(["transfer", path, "--max-arity", "4",
                 "--out", str(out_path)]) == 0
    table = json.loads(out_path.read_text())
    nonzero = {(op["arity"], op["brackets"]) for op in table["operations"]
               if op["entries"]}
    assert nonzero == {(2, 0)}
    assert table["top_degree"]["passed"] is True


def test_transfer_arity_guard(torus_file, capsys):
    assert main(["transfer", torus_file, "--max-arity", "10"]) == 2
    assert "--force" in capsys.readouterr().err


def test_transfer_requires_strong_trivialization(tmp_path, capsys):
    # passes the axioms and side conditions, but delta x = y is harmonic
    # on both ends, so trees with a delta vertex do not vanish
    doc = {"schema": 1,
           "basis": [{"name": "e", "p": 0, "q": 0},
                     {"name": "x", "p": 1, "q": 0},
                     {"name": "y", "p": 0, "q": 0}],
           "unit": "e", "d": [], "delta": [["x", "y", "1"]],
           "product": [["e", "e", "e", "1"], ["e", "x", "x", "1"],
                       ["e", "y", "y", "1"]]}
    path = _write(tmp_path / "untrivialized.json", doc)
    out_path = tmp_path / "table.json"
    assert main(["transfer", path, "--max-arity", "3",
                 "--out", str(out_path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    failed = {item["name"] for r in report["results"]
              for item in r["items"] if not item["passed"]}
    assert failed == {"delta iota = 0", "pi delta = 0"}
    assert not out_path.exists()


def test_transfer_witness_model_exposes_higher_operation(tmp_path, capsys):
    m = search_nonformal(seed=0)
    path = _write(tmp_path / "witness.json",
                  serialize.algebra_to_json(m.algebra))
    out_path = tmp_path / "wtable.json"
    assert main(["transfer", path, "--max-arity", "3",
                 "--out", str(out_path)]) == 0
    table = json.loads(out_path.read_text())
    higher = [op for op in table["operations"]
              if op["arity"] == 3 and op["brackets"] == 0][0]
    assert higher["kind"] == "higher" and higher["entries"]
    # the top bidegree of the witness space is not of the form (n,n)
    assert "skipped" in table["top_degree"]


def test_certify_exit_codes(tmp_path, capsys):
    assert main(["certify", _footprint_file(tmp_path, "quintic")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "formal"
    assert main(["certify", _footprint_file(tmp_path, "hypersurface-5")]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"].startswith("not certified")
    assert main(["certify", _footprint_file(tmp_path, "violating-4")]) == 3
    out = json.loads(capsys.readouterr().out)
    assert "footprint hypothesis fails" in out["verdict"]


def test_certify_assume_top_bottom_flag(tmp_path, capsys):
    path = _footprint_file(tmp_path, "k3")
    assert main(["certify", path, "--assume-top-bottom", "false"]) == 0
    out = json.loads(capsys.readouterr().out)
    cases = {c["case"]: c["verdict"] for c in out["certificate"]["cases"]}
    assert cases["two or more formal arguments"] == "not-excluded"


def test_search_round_trip_through_validate(tmp_path, capsys):
    out_path = tmp_path / "witness.json"
    assert main(["search", "--seed", "0", "--out", str(out_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True and report["witness"]["arity"] == 3
    # the exported witness must itself validate cleanly
    assert main(["validate", str(out_path)]) == 0


def test_validate_with_separate_gram_file(tmp_path, capsys):
    m = build_skew_gram_model()
    doc = serialize.algebra_to_json(m.algebra, m.inner_product)
    gram_entries = doc.pop("gram")
    algebra_path = _write(tmp_path / "algebra.json", doc)
    gram_path = _write(tmp_path / "gram.json", {"gram": gram_entries})
    assert main(["validate", algebra_path, "--gram", gram_path]) == 0


# the minimal algebra document of the README
_README_ALGEBRA = {
    "schema": 1,
    "basis": [{"name": "e", "p": 0, "q": 0}, {"name": "x", "p": 0, "q": 0},
              {"name": "y", "p": 0, "q": 1}],
    "unit": "e", "d": [["x", "y", "1"]], "delta": [],
    "product": [["e", "e", "e", "1"], ["e", "x", "x", "1"],
                ["e", "y", "y", "1"]]}


@pytest.mark.parametrize("gram,code", [([["x", "x", "2"]], 0), ("x", 2)],
                         ids=["list", "string"])
def test_validate_gram_file_without_gram_key(tmp_path, capsys, gram, code):
    algebra_path = _write(tmp_path / "algebra.json", _README_ALGEBRA)
    gram_path = _write(tmp_path / "gram.json", gram)
    assert main(["validate", algebra_path, "--gram", gram_path]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert json.loads(captured.out)["passed"] is True
    else:
        assert captured.out == ""
        assert captured.err.splitlines() == \
            ["error: gram: gram must be a list of entries"]


@pytest.mark.parametrize("entries,deg", [
    ([["e", "x", "1"], ["x", "x", "1"]], "(0, 0)"), ([["y", "y", "-2"]], "(0, 1)")],
    ids=["singular", "negative"])
def test_gram_errors_name_the_bidegree_as_a_pair(tmp_path, capsys, entries,
                                                 deg):
    path = _write(tmp_path / "algebra.json", dict(_README_ALGEBRA,
                                                  gram=entries))
    assert main(["validate", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: gram: gram block at {deg} is not symmetric positive-definite"]


@pytest.mark.parametrize("field,value", [("d", None), ("delta", 1),
                                         ("product", True)])
def test_non_list_entries_exit_2(tmp_path, capsys, field, value):
    path = _write(tmp_path / "bad.json", dict(_README_ALGEBRA, **{field: value}))
    assert main(["validate", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == \
        [f"error: {field}: {field} must be a list of entries"]


def test_missing_entry_list_means_empty(tmp_path, capsys):
    doc = {k: v for k, v in _README_ALGEBRA.items() if k != "delta"}
    assert main(["validate", _write(tmp_path / "a.json", doc)]) == 0


def test_validate_reads_each_input_once(tmp_path, capsys, monkeypatch):
    m = build_skew_gram_model()
    doc = serialize.algebra_to_json(m.algebra, m.inner_product)
    gram_path = _write(tmp_path / "gram.json", {"gram": doc.pop("gram")})
    algebra_path = _write(tmp_path / "algebra.json", doc)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert main(["validate", algebra_path, "--gram", gram_path]) == 0
    assert (opened.count(algebra_path), opened.count(gram_path)) == (1, 1)
    assert set(json.loads(capsys.readouterr().out)["inputs"]) == \
        {algebra_path, gram_path}


@pytest.mark.parametrize("command", ["validate", "transfer", "certify"])
@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_input_exits_2(tmp_path, capsys, command, kind):
    path = tmp_path / "input.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"schema": 1, "unit": "\xff"}')
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")


@pytest.mark.parametrize("command", ["transfer", "search"])
def test_out_into_missing_directory_exits_2(tmp_path, capsys, torus_file,
                                             command):
    out = str(tmp_path / "missing" / "out.json")
    argv = ["transfer", torus_file] if command == "transfer" else ["search"]
    assert main(argv + ["--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out: ")


@pytest.mark.parametrize("arity", ["1", "-3"])
def test_transfer_rejects_arity_below_two(torus_file, capsys, arity):
    assert main(["transfer", torus_file, "--max-arity", arity]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: max-arity:")


@pytest.mark.parametrize("check", ["check_formal_unit", "top_degree_report"])
def test_transfer_exits_1_when_a_table_check_fails(tmp_path, capsys,
                                                   monkeypatch, check):
    from bvhy import engine
    from bvhy.reporting import CheckReport

    def failing(*_args, **_kwargs):
        report = CheckReport(check)
        report.add("forced failure", False, "witness")
        return report

    monkeypatch.setattr(engine, check, failing)
    path = _write(tmp_path / "torus10.json",
                  serialize.algebra_to_json(build_torus_model(1, 0).algebra))
    out_path = tmp_path / "table.json"
    assert main(["transfer", path, "--max-arity", "3",
                 "--out", str(out_path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    table = json.loads(out_path.read_text())
    key = "formal_unit" if check == "check_formal_unit" else "top_degree"
    assert table[key]["passed"] is False


def test_transfer_exits_1_when_the_unit_is_not_harmonic(tmp_path, capsys):
    # d t = e makes the unit exact, so no harmonic class includes to it
    doc = {"schema": 1, "unit": "e",
           "basis": [{"name": "e", "p": 0, "q": 0},
                     {"name": "t", "p": 0, "q": -1}],
           "d": [["t", "e", "1"]], "delta": [],
           "product": [["e", "e", "e", "1"], ["e", "t", "t", "1"]]}
    path = _write(tmp_path / "exact-unit.json", doc)
    assert main(["validate", path]) == 0
    capsys.readouterr()
    assert main(["transfer", path, "--max-arity", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["passed"] is False
    unit = report["table"]["formal_unit"]
    assert unit["passed"] is False
    assert unit["items"] == [{"name": "unit is a harmonic basis element",
                              "passed": False, "witness": "e"}]


def test_search_exhaustion_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(models, "SEARCH_ATTEMPTS", 0)
    assert main(["search", "--seed", "0"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    assert "within 0 attempts" in report["error"]


def test_transfer_without_out_prints_one_document(tmp_path, capsys):
    path = _write(tmp_path / "trivial.json",
                  serialize.algebra_to_json(build_trivial_model(1).algebra))
    out_path = tmp_path / "table.json"
    assert main(["transfer", path, "--max-arity", "3",
                 "--out", str(out_path)]) == 0
    with_out = json.loads(capsys.readouterr().out)
    assert main(["transfer", path, "--max-arity", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True and report["out"] is None
    assert report["table"] == json.loads(out_path.read_text())
    assert "table" not in with_out


@pytest.mark.parametrize("field,value,item", [
    # the first d entry is -1; -2 times it breaks the derivation rule
    ("d", "2", "d is a derivation of the product"),
    ("delta", "7/2", "delta has order <= 2 (bracket Leibniz)"),
    # one order of a product pair rescaled: every trilinear item fails
    ("product", "2", "associativity"),
], ids=["d", "delta", "product"])
def test_validate_witnesses_do_not_depend_on_hash_seed(tmp_path, field, value,
                                                       item):
    doc = serialize.algebra_to_json(build_torus_model(1, 1).algebra)
    doc[field][0] = doc[field][0][:-1] + [value]
    path = _write(tmp_path / "broken.json", doc)
    package_root = os.path.dirname(os.path.dirname(serialize.__file__))
    reports = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=package_root)
        proc = subprocess.run([sys.executable, "-m", "bvhy.cli", "validate",
                               path], capture_output=True, env=env)
        assert proc.returncode == 1 and not proc.stderr
        report = json.loads(proc.stdout)
        report.pop("timing_s")
        reports.append(report)
    assert reports[0] == reports[1]
    failed = {i["name"]: i.get("witness")
              for r in reports[0]["results"] for i in r["items"]
              if not i["passed"]}
    assert failed[item]


@pytest.mark.parametrize("argv", [
    ["frobnicate"], ["validate"], ["validate", "a.json", "b.json"],
    ["validate", "a.json", "--bogus"], ["transfer", "a.json", "--out"],
    ["transfer", "a.json", "--max-arity", "abc"],
    ["certify", "f.json", "--assume-top-bottom", "maybe"],
    ["search", "--seed", "x"]],
    ids=["unknown-command", "missing-positional", "extra-positional",
         "unknown-option", "option-without-value", "int-not-a-number",
         "bool-not-a-bool", "seed-not-a-number"])
def test_usage_errors_exit_2_with_one_error_line(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_option_value_after_equals_sign(tmp_path, capsys):
    path = _write(tmp_path / "trivial.json",
                  serialize.algebra_to_json(build_trivial_model(2).algebra))
    spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
    assert main(["transfer", path, "--max-arity", "3",
                 "--out", str(spaced)]) == 0
    assert main(["transfer", "--max-arity=3", f"--out={joined}", path]) == 0
    assert joined.read_bytes() == spaced.read_bytes()


def test_help_names_every_command(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert all(command in out
               for command in ("validate", "transfer", "certify", "search"))


def test_report_inputs_hold_the_sha256_of_the_file_bytes(torus_file, capsys):
    assert main(["validate", torus_file]) == 0
    report = json.loads(capsys.readouterr().out)
    with open(torus_file, "rb") as fh:
        assert report["inputs"] == {
            torus_file: hashlib.sha256(fh.read()).hexdigest()}


def _fresh_env():
    # stdout block-buffered, as it is into a pipe, so an exit that skipped
    # the final flush would lose the report
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(serialize.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _module_run(argv):
    """``python -m bvhy.cli`` on ``argv`` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "bvhy.cli", *argv],
                          capture_output=True, env=_fresh_env())


@pytest.mark.parametrize("case", ["validate-passes", "validate-fails",
                                  "transfer-out", "unreadable", "help"])
def test_module_entry_point_matches_main(tmp_path, capsys, torus_file, case):
    # the __main__ path runs main() without the cyclic collector and exits
    # with a frozen heap; what it writes and its exit code must not change
    broken = serialize.algebra_to_json(build_torus_model(1, 1).algebra)
    broken["delta"][0][-1] = "7/2"
    out = tmp_path / "table.json"
    argv, code = {
        "validate-passes": (["validate", torus_file], 0),
        "validate-fails": (["validate", _write(tmp_path / "b.json", broken)],
                           1),
        "transfer-out": (["transfer", torus_file, "--max-arity", "3",
                          "--out", str(out)], 0),
        "unreadable": (["validate", str(tmp_path)], 2),
        "help": (["--help"], 0)}[case]
    assert main(argv) == code
    expected = capsys.readouterr()
    table = out.read_bytes() if out.exists() else None
    if table is not None:
        out.unlink()
    proc = _module_run(argv)
    assert proc.returncode == code
    assert proc.stderr.decode() == expected.err
    if code == 2:
        assert proc.stdout == b"" and len(expected.err.splitlines()) == 1
        assert expected.err.startswith("error: ")
    elif case == "help":
        assert proc.stdout.decode() == expected.out
    else:
        assert expected.err == ""
        docs = [json.loads(proc.stdout), json.loads(expected.out)]
        for doc in docs:
            doc.pop("timing_s")
        assert docs[0] == docs[1]
    if table is not None:
        assert out.read_bytes() == table


@pytest.mark.parametrize("text,message", [
    ("1 2", "Extra data: line 1 column 3 (char 2)"),
    ("\ufeff{}", "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 "
                 "column 1 (char 0)"),
    ("[" * 100_000, "maximum recursion depth exceeded while decoding a JSON "
                    "array from a unicode string"),
    ("9" * 5000, "Exceeds the limit (4300 digits) for integer string "
                 "conversion: value has 5000 digits; use "
                 "sys.set_int_max_str_digits() to increase the limit"),
], ids=["extra-data", "bom", "deep", "long-integer"])
def test_json_errors_are_json_s_own(tmp_path, capsys, text, message):
    # serialize.loads hands these to json.loads, so the error line is
    # json's, in process and in a fresh child that has not loaded json
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    line = f"error: {path}: invalid JSON: {message}\n"
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr() == ("", line)
    proc = _module_run(["validate", str(path)])
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == \
        (2, b"", line)


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered",
                                                      "buffered"])
@pytest.mark.parametrize("argv", [["validate"], ["--help"]],
                         ids=["validate", "help"])
def test_closed_stdout_exits_2_with_one_error_line(torus_file, argv,
                                                   unbuffered):
    # the reader of stdout is gone before the command writes; a buffered
    # stdout would otherwise fail only in the flush at exit
    env = _fresh_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    if argv == ["validate"]:
        argv = argv + [torus_file]
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "bvhy.cli", *argv],
                              stdout=write, stderr=subprocess.PIPE,
                              env=env, text=True)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: stdout: cannot write: Broken pipe"]


def test_a_decimal_scalar_still_validates(tmp_path, capsys):
    # "0.5" is not a form bvhy writes; the reader hands it to Fraction
    doc = dict(_README_ALGEBRA, d=[["x", "y", "0.5"]])
    assert main(["validate", _write(tmp_path / "a.json", doc)]) == 0
    algebra, _ = serialize.algebra_from_json(doc)
    assert algebra.d.entries == {"x": {"y": Fraction(1, 2)}}


def test_witness_values_are_the_strings_of_the_rationals(tmp_path, capsys):
    # d d a = 3 c + 3/2 c2: the d^2 = 0 item names both entries, each value
    # the JSON string str(Fraction) writes
    doc = {"schema": 1, "unit": "e",
           "basis": [{"name": n, "p": 0, "q": q} for n, q in
                     (("e", 0), ("a", 0), ("b", 1), ("c", 2), ("c2", 2))],
           "d": [["a", "b", "1"], ["b", "c", "3"], ["b", "c2", "3/2"]],
           "product": [["e", n, n, "1"] for n in ("e", "a", "b", "c", "c2")]}
    assert main(["validate", _write(tmp_path / "a.json", doc)]) == 1
    out = capsys.readouterr().out
    item = json.loads(out)["results"][0]["items"][2]
    assert item["name"] == "d^2 = 0"
    assert serialize.dump(item) == """{
  "name": "d^2 = 0",
  "passed": false,
  "witness": [
    [
      "a",
      "c",
      "3"
    ],
    [
      "a",
      "c2",
      "3/2"
    ]
  ]
}
"""
    # the item sits in results[0].items, 8 spaces in
    assert serialize.dump(item).rstrip("\n").replace("\n", "\n" + " " * 8) \
        in out


_MAIN_PROBE = """
import gc, runpy, sys
sys.argv = ["bvhy.cli", "--help"]
try:
    runpy.run_module("bvhy.cli", run_name="__main__")
except SystemExit as exc:
    print(exc.code, gc.isenabled(), gc.get_freeze_count() > 0,
          file=sys.stderr)
"""


def test_module_entry_point_disables_and_freezes_the_collector():
    proc = subprocess.run([sys.executable, "-c", _MAIN_PROBE],
                          capture_output=True, text=True, env=_fresh_env())
    assert proc.stderr.split() == ["0", "False", "True"]


# main() called in process, as a library caller does: the state is taken
# before bvhy.cli is imported, so an unguarded module-level switch shows too
_IN_PROCESS_PROBE = """
import gc, sys
state = gc.isenabled(), gc.get_freeze_count()
from bvhy import cli
for argv in (sys.argv[1:], ["--help"], ["frobnicate"]):
    cli.main(argv)
print(state == (gc.isenabled(), gc.get_freeze_count()), file=sys.stderr)
"""


def test_main_in_process_leaves_the_collector_alone(torus_file):
    proc = subprocess.run([sys.executable, "-c", _IN_PROCESS_PROBE,
                           "validate", torus_file],
                          capture_output=True, text=True, env=_fresh_env())
    assert proc.stderr.splitlines()[-1] == "True"
