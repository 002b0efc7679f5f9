"""Test-only certificate helpers: operation bidegrees, the reference
footprints, and the structural cross-check of a table against a
certificate.

``bvhy.certify`` argues with closed forms only.  ``op_bidegree`` gives the
bidegree of each operation ``(k, l)`` so the tests can check those closed
forms, and ``certificate_cross_check`` checks that every entry of a
computed table that the certificate excludes is zero.  The five reference
footprints and ``footprint_to_json`` feed the certificate and the
``certify`` command; ``model_footprint`` reads a built-in model's
footprint off its cohomology.
"""

from dataclasses import dataclass
from typing import List, Optional

from bvhy.certify import (Footprint, certify_formality,
                          is_hypersurface_footprint)
from bvhy.graded import Bidegree
from bvhy.models import ModelDescriptor, builtin_models
from bvhy.reporting import CheckReport
from bvhy.serialize import SCHEMA_VERSION


def op_bidegree(k: int, l: int) -> Bidegree:
    """Bidegree (-l, -k+2) of a transferred operation with l brackets."""
    if k < 2:
        raise ValueError("operations have arity >= 2")
    if not 0 <= l <= k - 2:
        raise ValueError(f"bracket count {l} out of range for arity {k}")
    return Bidegree(-l, -k + 2)


def classify_part(fp: Footprint, deg: Bidegree) -> Optional[str]:
    """"primitive" (diagonal), "formal" (anti-diagonal), or None.

    The overlap bidegree (n/2, n/2) counts as primitive, matching the
    decomposition convention used by the exclusion arguments.
    """
    if deg.p == deg.q:
        return "primitive"
    if deg.p + deg.q == fp.n:
        return "formal"
    return None


def certificate_cross_check(fp: Footprint, table) -> CheckReport:
    """Excluded certificate cases must have exactly-zero structure constants.

    ``table`` is an ``engine.OperationTable`` whose cohomology has
    footprint ``fp``.  Skipped (with reason) when the footprint hypothesis
    fails, since no exclusion is claimed there.
    """
    report = CheckReport("certificate-cross-check")
    ok, reason = is_hypersurface_footprint(fp)
    if not ok:
        report.add(f"skipped: footprint hypothesis fails ({reason})", True)
        return report

    cert = certify_formality(fp, assume_top_bottom=True)
    excluded_cases = {c.case for c in cert.cases
                      if c.verdict in ("excluded", "product-only")}
    H = table.td.cohomology
    unit = table.unit_class()
    discrepancies = []
    for (k, l), constants in sorted(table.ops.items()):
        if l >= k - 2:
            continue  # strict; the certificate only excludes higher ops
        for key, col in constants.items():
            if not col:
                continue
            if unit in key:
                continue  # unit arguments are the formal-unit lemma's case
            parts = [classify_part(fp, H.bidegree[name]) for name in key]
            if any(p is None for p in parts):
                continue
            n_formal = sum(1 for p in parts if p == "formal")
            out_parts = {classify_part(fp, H.bidegree[name]) for name in col}
            if n_formal == 0:
                applicable = set()
                if "primitive" in out_parts:
                    applicable.add("all-primitive inputs, primitive target")
                if "formal" in out_parts:
                    applicable.add("all-primitive inputs, formal target")
            elif n_formal == 1:
                applicable = {"one formal argument"}
            else:
                applicable = {"two or more formal arguments"}
            if applicable & excluded_cases:
                discrepancies.append((k, l, key, sorted(col)))
    report.add("excluded cases have zero structure constants",
               not discrepancies, discrepancies[:5] or None)
    return report


@dataclass
class NamedFootprint:
    name: str
    footprint: Footprint
    expected_hypersurface: bool
    expected_formal: bool


def _hypersurface_pattern(n: int, diag: List[int], anti: List[int]) -> Footprint:
    occupied = {}
    for j, dim in enumerate(diag):
        occupied[Bidegree(j, j)] = occupied.get(Bidegree(j, j), 0) + dim
    for i, dim in enumerate(anti):
        deg = Bidegree(i, n - i)
        occupied[deg] = occupied.get(deg, 0) + dim
    return Footprint(n, occupied)


def builtin_footprints() -> List[NamedFootprint]:
    """Reference bidegree patterns, in polyvector convention."""
    k3 = _hypersurface_pattern(2, [1, 20, 1], [1, 0, 1])
    quintic = _hypersurface_pattern(3, [1, 1, 1, 1], [1, 101, 101, 1])
    hyper4 = _hypersurface_pattern(4, [1, 1, 1, 1, 1], [1, 426, 1752, 426, 1])
    bad4 = _hypersurface_pattern(4, [1, 1, 1, 1, 1], [1, 426, 1752, 426, 1])
    bad4.occupied[Bidegree(1, 2)] = 1
    hyper5 = _hypersurface_pattern(5, [1, 1, 1, 1, 1, 1],
                                   [1, 426, 1667, 1667, 426, 1])
    return [
        NamedFootprint("k3", k3, True, True),
        NamedFootprint("quintic", quintic, True, True),
        NamedFootprint("hypersurface-4", hyper4, True, True),
        NamedFootprint("violating-4", bad4, False, False),
        NamedFootprint("hypersurface-5", hyper5, True, False),
    ]


def footprint_to_json(fp: Footprint) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "n": fp.n,
        "convention": "polyvector",
        "occupied": [{"p": deg.p, "q": deg.q, "dim": dim}
                     for deg, dim in sorted(fp.occupied.items())],
    }


def torus_models() -> List[ModelDescriptor]:
    return [m for m in builtin_models() if m.name.startswith("torus")]


def model_footprint(m: ModelDescriptor) -> Footprint:
    """The footprint of ``m``'s cohomology in its declared dimension."""
    if m.n is None:
        raise ValueError(f"model {m.name} has no declared dimension")
    H = m.transfer_data().cohomology
    occupied = {deg: len(H.names_at(deg)) for deg in H.occupied_bidegrees()}
    return Footprint(m.n, occupied)
