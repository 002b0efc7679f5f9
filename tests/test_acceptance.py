"""Acceptance gate: nine exact, property-based criteria.

Every assertion is an exact rational equality or an exact structural
statement; there are no numeric tolerances anywhere.  Each test prints a
single CRITERION line on success so the gate is auditable from the log.
"""

import random
import time
from fractions import Fraction

from certify_oracle import (builtin_footprints, certificate_cross_check,
                            model_footprint, op_bidegree)
from tree_oracle import bidegree_shift, delta_trees
from bvhy.certify import certify_formality
from bvhy.engine import naive_evaluate_tree
from bvhy.graded import Bidegree
from bvhy.hodge import (check_side_conditions,
                        check_strong_trivialization_composites)
from bvhy.models import search_nonformal
from bvhy.serialize import algebra_to_json, dump
from bvhy.trees import enumerate_trees

F = Fraction


def test_criterion_1_side_conditions_on_every_model(models):
    """Retract identities and side conditions, exactly, in under 5 s."""
    started = time.monotonic()
    for m in models:
        td = m.transfer_data()
        report = check_side_conditions(td, m.algebra)
        assert report.passed, (m.name,
                               [i.to_dict() for i in report.failures()])
        names = [i.name for i in report.items]
        assert "d h + h d = id - iota pi" in names
        assert {"h iota = 0", "h h = 0", "pi h = 0"} <= set(names)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    print(f"\nCRITERION 1 PASS: side conditions exact on "
          f"{len(models)} models in {elapsed:.2f}s")


def test_criterion_2_strong_trivialization_and_delta_trees(toruses,
                                                           evaluators):
    """Trivialization composites and vanishing of all delta-decorated
    trees with k <= 4 (up to two delta vertices) on torus models; < 60 s."""
    started = time.monotonic()
    checked = 0
    for m in toruses:
        td = m.transfer_data()
        report = check_strong_trivialization_composites(td, m.algebra)
        assert report.passed, (m.name,
                               [i.to_dict() for i in report.failures()])
        evaluator = evaluators[m.name]
        for k in range(1, 5):
            for t in delta_trees(k):
                assert evaluator.operation_constants(t) == {}, \
                    (m.name, t)
                checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.2f}s"
    print(f"\nCRITERION 2 PASS: {checked} delta-tree evaluations vanish on "
          f"{len(toruses)} torus models in {elapsed:.2f}s")


def test_criterion_3_bidegree_law(models, evaluators):
    """Nonzero outputs only at bidegree (-l, -k+2) for all trivalent trees
    with k <= 6, plus, for k in [3, 64], the closed forms the certificate
    argues with: the minimal total degree -2k+5 of a higher operation, no
    higher operation on the diagonal or below output degree 5 on inputs
    of degree >= 2, and the strict operation on the diagonal."""
    started = time.monotonic()
    shifted = []
    for k in range(2, 7):
        for t in enumerate_trees(k):
            expected_shift = bidegree_shift(t)
            assert expected_shift == Bidegree(-t.count("br"), -k + 2)
            shifted.append((t, expected_shift))
    checked = 0
    for m in models:
        H = m.transfer_data().cohomology
        evaluator = evaluators[m.name]
        for t, expected_shift in shifted:
            for key, col in evaluator.operation_constants(t).items():
                in_deg = Bidegree(
                    *map(sum, zip(*(H.bidegree[n] for n in key))))
                for name, v in col.items():
                    assert v != 0
                    assert H.bidegree[name] == in_deg + expected_shift
                    checked += 1
    for k in range(3, 65):
        higher = [op_bidegree(k, l) for l in range(0, k - 2)]
        assert min(deg.total for deg in higher) == -2 * k + 5
        assert all(deg.p != deg.q for deg in higher), k
        assert all(2 * k + deg.total >= 5 for deg in higher), k
        assert op_bidegree(k, k - 2) == Bidegree(-k + 2, -k + 2)
    elapsed = time.monotonic() - started
    print(f"\nCRITERION 3 PASS: bidegree law over trivalent trees k<=6 "
          f"({checked} nonzero outputs checked) in {elapsed:.2f}s")


def test_criterion_4_main_theorem_reproduction():
    """Formal for n=2, n=3, hypersurface n=4; not certified for n=5 and
    the off-pattern n=4 footprint."""
    expected = {
        "k3": True, "quintic": True, "hypersurface-4": True,
        "violating-4": False, "hypersurface-5": False,
    }
    for nf in builtin_footprints():
        cert = certify_formality(nf.footprint)
        assert cert.formal == expected[nf.name], (nf.name, cert.verdict)
        if not expected[nf.name]:
            assert cert.verdict.startswith("not certified")
    print("\nCRITERION 4 PASS: certificates match the expected verdicts "
          "for all five reference footprints")


def test_criterion_5_formal_unit(models, tables):
    """The unit class is an exact identity for the product and kills every
    other stored operation at arities <= 5, on every model."""
    from bvhy.engine import check_formal_unit
    for m in models:
        table = tables[m.name]
        assert max(k for (k, _l) in table.ops) == 5
        report = check_formal_unit(table)
        assert report.passed, (m.name,
                               [i.to_dict() for i in report.failures()])
    print(f"\nCRITERION 5 PASS: formal unit at arities <= 5 on "
          f"{len(models)} models")


def test_criterion_6_top_degree_exclusivity(toruses, tables):
    """Only the binary product reaches bidegree (n,n), arities <= 4."""
    from bvhy.engine import top_degree_report
    started = time.monotonic()
    for m in toruses:
        table = tables[m.name]
        H = table.td.cohomology
        top = Bidegree(m.n, m.n)
        assert top in H.occupied_bidegrees()
        report = top_degree_report(table, m.n)
        assert report.passed, (m.name,
                               [i.to_dict() for i in report.failures()])
        # and the product genuinely does hit the top bidegree
        hits = [key for key, col in table.ops[(2, 0)].items()
                if any(H.bidegree[n] == top for n in col)]
        assert hits, m.name
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"criterion 6 took {elapsed:.2f}s"
    print(f"\nCRITERION 6 PASS: top-degree exclusivity on "
          f"{len(toruses)} torus models in {elapsed:.2f}s")


def test_criterion_7_nonformality_witness():
    """search_nonformal yields a deterministic witness with a nonzero
    arity-3 higher operation, re-confirmed by the naive evaluator."""
    m = search_nonformal(seed=0)
    w = m.witness
    assert w["arity"] == 3 and w["brackets"] == 0 and w["output"]
    td = m.transfer_data()
    H = td.cohomology
    args = [H.basis_element(n) for n in w["inputs"]]
    total = H.zero()
    for t in enumerate_trees(3, constraints={"bracket_count": 0}):
        total = total + naive_evaluate_tree(t, m.algebra, td, args)
    assert not total.is_zero
    assert {n: str(v) for n, v in sorted(total.coeffs.items())} == w["output"]
    again = search_nonformal(seed=0)
    assert again.witness == w
    assert dump(algebra_to_json(again.algebra)) == \
        dump(algebra_to_json(m.algebra))
    print("\nCRITERION 7 PASS: deterministic non-formality witness "
          f"{w['inputs']} -> {w['output']} re-confirmed naively")


def test_criterion_8_oracle_equivalence(models, evaluators, random_tree,
                                        random_harmonic_element):
    """Memoized evaluation equals naive recursion on 500 random
    (tree, arguments) instances per model, exactly."""
    per_model = 500
    for m in models:
        td = m.transfer_data()
        evaluator = evaluators[m.name]
        H = td.cohomology
        rng = random.Random(sum(m.name.encode()))
        agreements = 0
        for _ in range(per_model):
            k = rng.randint(2, 4)
            t = random_tree(rng, k, allow_delta=rng.random() < 0.3)
            args = [random_harmonic_element(rng, H) for _ in range(k)]
            fast = evaluator.evaluate(t, args)
            slow = naive_evaluate_tree(t, m.algebra, td, args)
            assert fast.coeffs == slow.coeffs, (m.name, t, args)
            agreements += 1
        assert agreements == per_model
    print(f"\nCRITERION 8 PASS: memoized == naive on {per_model} random "
          f"instances for each of {len(models)} models")


def test_criterion_9_certificate_cross_check(models, tables):
    """On models with genuine hypersurface footprints, every excluded
    (k, l) entry has identically zero structure constants, arities <= 4."""
    checked = []
    for m in models:
        if m.n is None:
            continue
        fp = model_footprint(m)
        from bvhy.certify import is_hypersurface_footprint
        if not is_hypersurface_footprint(fp)[0]:
            continue
        table = tables[m.name]
        report = certificate_cross_check(fp, table)
        assert report.passed, (m.name,
                               [i.to_dict() for i in report.failures()])
        assert "skipped" not in report.items[0].name
        checked.append(m.name)
    assert checked, "no model with a genuine footprint was available"
    print(f"\nCRITERION 9 PASS: certificate cross-check clean on "
          f"{checked}")
