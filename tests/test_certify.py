"""Degree-counting formality certificates and the structural cross-check."""

from fractions import Fraction

import pytest

from certify_oracle import (builtin_footprints, certificate_cross_check,
                            classify_part, model_footprint, op_bidegree)
from bvhy.certify import (Footprint, certify_formality,
                          is_hypersurface_footprint)
from bvhy.engine import build_operation_table, top_degree_report
from bvhy.graded import Bidegree


def _named(name):
    for nf in builtin_footprints():
        if nf.name == name:
            return nf
    raise KeyError(name)


def test_op_bidegree_values_and_errors():
    assert op_bidegree(3, 0) == Bidegree(0, -1)
    assert op_bidegree(4, 2) == Bidegree(-2, -2)
    assert op_bidegree(2, 0) == Bidegree(0, 0)
    with pytest.raises(ValueError):
        op_bidegree(1, 0)
    with pytest.raises(ValueError):
        op_bidegree(4, 3)
    with pytest.raises(ValueError):
        op_bidegree(4, -1)


def test_hypersurface_footprint_detection():
    k3 = Footprint(2, {Bidegree(0, 0): 1, Bidegree(1, 1): 20,
                       Bidegree(2, 0): 1, Bidegree(0, 2): 1,
                       Bidegree(2, 2): 1})
    ok, reason = is_hypersurface_footprint(k3)
    assert ok, reason
    for nf in builtin_footprints():
        got, reason = is_hypersurface_footprint(nf.footprint)
        assert got == nf.expected_hypersurface, (nf.name, reason)
    _ok, reason = is_hypersurface_footprint(_named("violating-4").footprint)
    assert "(1,2)" in reason
    fat_corner = Footprint(2, {Bidegree(0, 0): 2, Bidegree(2, 2): 1})
    ok, reason = is_hypersurface_footprint(fat_corner)
    assert not ok and "corner" in reason


def test_main_theorem_reproduction():
    for nf in builtin_footprints():
        cert = certify_formality(nf.footprint)
        assert cert.formal == nf.expected_formal, (nf.name, cert.verdict)
    assert certify_formality(_named("k3").footprint).verdict == "formal"
    assert certify_formality(_named("quintic").footprint).verdict == "formal"
    assert certify_formality(_named("hypersurface-4").footprint).verdict == \
        "formal"
    five = certify_formality(_named("hypersurface-5").footprint)
    assert five.verdict.startswith("not certified")
    assert "one formal argument" in five.verdict
    bad4 = certify_formality(_named("violating-4").footprint)
    assert bad4.verdict == "not certified: footprint hypothesis fails"


def test_n5_boundary_inequality():
    cert = certify_formality(_named("hypersurface-5").footprint)
    case = cert.case("one formal argument")
    assert case.verdict == "not-excluded"
    # n + 3 = 8 exactly equals 2n - 2 = 8: the exclusion fails at equality
    assert "8" in case.reason


def test_top_bottom_assumption_only_touches_last_case():
    fp = _named("quintic").footprint
    with_flag = certify_formality(fp, assume_top_bottom=True)
    without = certify_formality(fp, assume_top_bottom=False)
    assert with_flag.formal and without.formal
    assert with_flag.case("two or more formal arguments").verdict == \
        "product-only"
    assert without.case("two or more formal arguments").verdict == \
        "not-excluded"
    for name in ("all-primitive inputs, primitive target",
                 "all-primitive inputs, formal target",
                 "one formal argument"):
        assert with_flag.case(name).verdict == without.case(name).verdict


def test_certificate_serialization_fields():
    cert = certify_formality(_named("k3").footprint)
    doc = cert.to_dict()
    assert doc["verdict"] == "formal"
    assert doc["n"] == 2 and doc["footprint_hypothesis"] is True
    assert len(doc["cases"]) == 4


def test_classify_part():
    fp = Footprint(4, {})
    assert classify_part(fp, Bidegree(1, 1)) == "primitive"
    assert classify_part(fp, Bidegree(2, 2)) == "primitive"  # overlap point
    assert classify_part(fp, Bidegree(1, 3)) == "formal"
    assert classify_part(fp, Bidegree(1, 2)) is None


def test_cross_check_skips_on_failed_hypothesis(tables, models):
    bad = Footprint(4, {Bidegree(0, 0): 1, Bidegree(1, 2): 1,
                        Bidegree(4, 4): 1})
    table = tables["trivial(1)"]
    report = certificate_cross_check(bad, table)
    assert report.passed
    assert "skipped" in report.items[0].name


def test_cross_check_clean_on_genuine_footprints(tables, models):
    for m in models:
        if not m.name.startswith("torus(1"):
            continue
        report = certificate_cross_check(model_footprint(m), tables[m.name])
        assert report.passed, (m.name,
                               [i.to_dict() for i in report.failures()])
        assert "skipped" not in report.items[0].name


def _torus10_table(models):
    """A fresh arity-3 table of torus(1,0) and its classes: the formal ones
    at (0,1) and (1,0), and the non-unit primitive one at (1,1)."""
    m = [x for x in models if x.name == "torus(1,0)"][0]
    table = build_operation_table(m.algebra, m.transfer_data(), 3)
    H = table.td.cohomology
    by_deg = {tuple(H.bidegree[n]): n for n in H.names}
    return m, table, by_deg[(0, 1)], by_deg[(1, 0)], by_deg[(1, 1)]


@pytest.mark.parametrize("inputs,output", [
    ("ppp", "p"), ("ppp", "a"), ("app", "p"), ("abp", "p"),
], ids=["all-primitive-primitive-target", "all-primitive-formal-target",
        "one-formal-argument", "two-formal-arguments"])
def test_cross_check_flags_planted_discrepancy(models, inputs, output):
    m, table, a, b, p = _torus10_table(models)
    names = {"a": a, "b": b, "p": p}
    key = tuple(names[c] for c in inputs)
    # plant one nonzero higher operation of the excluded case
    table.ops[(3, 0)] = {key: {names[output]: Fraction(1)}}
    report = certificate_cross_check(model_footprint(m), table)
    assert not report.passed
    assert report.items[0].witness == [(3, 0, key, [names[output]])]


def test_top_degree_report_flags_planted_output(models):
    _m, table, a, b, p = _torus10_table(models)
    assert top_degree_report(table, 1).passed
    table.ops[(3, 0)] = {(a, b, p): {p: Fraction(1)}}
    report = top_degree_report(table, 1)
    assert not report.passed
    assert report.items[0].witness == [(3, 0, (a, b, p))]
