"""Symbolic formality certificates from bidegree footprints.

The certificate works entirely with closed-form degree inequalities, valid
for all arities k >= 3 at once, and never evaluates an operation.  A
bounded numeric sweep over k in [3, 64] double-checks the closed forms.

Conventions: bidegrees are on the polyvector side; a cohomology with a
"hypersurface footprint" of dimension n is supported on the diagonal
(j, j) (the primitive part) and the anti-diagonal (i, n-i) (the formal
part), with one-dimensional corners (0,0) and (n,n).  A higher operation
with k inputs and l brackets has bidegree (-l, -k+2) with l <= k-3; the
strict operations have l = k-2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .graded import Bidegree
from .reporting import CheckReport

NUMERIC_SWEEP_MAX_K = 64


@dataclass
class Footprint:
    n: int
    occupied: Dict[Bidegree, int]

    def __post_init__(self):
        self.occupied = {Bidegree(*k): v for k, v in self.occupied.items() if v}

    def dim_at(self, p: int, q: int) -> int:
        return self.occupied.get(Bidegree(p, q), 0)

    @property
    def corner_dims_one(self) -> bool:
        return self.dim_at(0, 0) == 1 and self.dim_at(self.n, self.n) == 1


def is_hypersurface_footprint(fp: Footprint) -> Tuple[bool, str]:
    for deg in sorted(fp.occupied):
        on_diagonal = deg.p == deg.q
        on_antidiagonal = deg.p + deg.q == fp.n
        if not (on_diagonal or on_antidiagonal):
            return False, f"({deg.p},{deg.q}) off both diagonals"
    if not fp.corner_dims_one:
        return False, "corner bidegrees (0,0) and (n,n) must be one-dimensional"
    return True, "supported on diagonal and anti-diagonal with 1-dim corners"


def op_bidegree(k: int, l: int) -> Bidegree:
    """Bidegree (-l, -k+2) of a transferred operation with l brackets."""
    if k < 2:
        raise ValueError("operations have arity >= 2")
    if not 0 <= l <= k - 2:
        raise ValueError(f"bracket count {l} out of range for arity {k}")
    return Bidegree(-l, -k + 2)


@dataclass
class CaseVerdict:
    case: str
    verdict: str          # "excluded" | "product-only" | "not-excluded"
    reason: str

    def to_dict(self):
        return {"case": self.case, "verdict": self.verdict, "reason": self.reason}


@dataclass
class FormalityCertificate:
    n: int
    footprint_ok: bool
    footprint_reason: str
    assume_top_bottom: bool
    cases: List[CaseVerdict] = field(default_factory=list)
    verdict: str = "not certified"

    @property
    def formal(self) -> bool:
        return self.verdict == "formal"

    def case(self, name: str) -> CaseVerdict:
        for c in self.cases:
            if c.case == name:
                return c
        raise KeyError(name)

    def to_dict(self):
        return {
            "n": self.n,
            "footprint_hypothesis": self.footprint_ok,
            "footprint_reason": self.footprint_reason,
            "assume_top_bottom": self.assume_top_bottom,
            "cases": [c.to_dict() for c in self.cases],
            "verdict": self.verdict,
        }


def minimal_higher_op_degree(k: int) -> int:
    """Minimal total degree of a higher operation of arity k: -2k+5."""
    return min(op_bidegree(k, l).total for l in range(0, k - 2)) if k >= 3 \
        else op_bidegree(2, 0).total


def certify_formality(fp: Footprint, assume_top_bottom: bool = True) -> FormalityCertificate:
    """Apply the four degree-counting exclusions to a footprint.

    The verdict is "formal" iff the footprint hypothesis holds and every
    higher-operation case is excluded; a failed inequality yields "not
    certified", never a claim of non-formality.
    """
    n = fp.n
    ok, reason = is_hypersurface_footprint(fp)
    cert = FormalityCertificate(n, ok, reason, assume_top_bottom)
    if not ok:
        cert.verdict = "not certified: footprint hypothesis fails"
        return cert

    _numeric_degree_sweep()

    cases = []

    # All-primitive inputs, primitive target: a higher operation has
    # off-diagonal bidegree (-l, -k+2) with l < k-2, so diagonal inputs
    # cannot produce diagonal output.  Holds for every n and every k.
    cases.append(CaseVerdict(
        "all-primitive inputs, primitive target", "excluded",
        "operation bidegree (-l,-k+2) with l < k-2 leaves the diagonal"))

    # All-primitive inputs, formal target: inputs have degree >= 2 each
    # (the degree-0 diagonal corner is the unit, covered by the formal-unit
    # lemma), so output degree >= 2k - 2k + 5 = 5; the formal part lives in
    # total degree n.
    if n < 5:
        cases.append(CaseVerdict(
            "all-primitive inputs, formal target", "excluded",
            f"minimal output degree 5 exceeds the formal part degree n = {n}"))
    else:
        cases.append(CaseVerdict(
            "all-primitive inputs, formal target", "not-excluded",
            f"minimal output degree 5 does not exceed n = {n}"))

    # One formal argument: inputs >= 2(k-1) + n, output >= n + 3; the top
    # degree a higher operation can reach is 2n - 2, because degree 2n is
    # the (n,n) corner which only the product hits.
    if n + 3 > 2 * n - 2:
        cases.append(CaseVerdict(
            "one formal argument", "excluded",
            f"minimal output degree n + 3 = {n + 3} exceeds 2n - 2 = {2 * n - 2}"))
    else:
        cases.append(CaseVerdict(
            "one formal argument", "not-excluded",
            f"minimal output degree n + 3 = {n + 3} is within reach of "
            f"2n - 2 = {2 * n - 2}"))

    # Two or more formal arguments: inputs >= 2n + 2(k-2), so a higher
    # operation outputs in degree >= 2n + 1 > 2n, above the whole space.
    # Strict non-product operations land exactly on (n,n), which only
    # accepts the product when the top-degree assumption is granted.
    if assume_top_bottom:
        cases.append(CaseVerdict(
            "two or more formal arguments", "product-only",
            "higher operations exceed degree 2n; strict ones land on (n,n), "
            "reserved for the product"))
    else:
        cases.append(CaseVerdict(
            "two or more formal arguments", "not-excluded",
            "higher operations exceed degree 2n and are excluded, but "
            "without the top-degree assumption strict non-product "
            "operations into (n,n) are not ruled out"))

    cert.cases = cases
    # the two-or-more-formal case cannot block formality: higher
    # operations there exceed degree 2n regardless of the flag
    blocking = [c for c in cases
                if c.verdict == "not-excluded"
                and c.case != "two or more formal arguments"]
    if not blocking:
        cert.verdict = "formal"
    else:
        names = "; ".join(c.case for c in blocking)
        cert.verdict = f"not certified: {names}"
    return cert


def _numeric_degree_sweep() -> None:
    """Guard the closed forms with a bounded enumeration over k; a
    violation raises ``RuntimeError``."""
    for k in range(3, NUMERIC_SWEEP_MAX_K + 1):
        if minimal_higher_op_degree(k) != -2 * k + 5:
            raise RuntimeError(f"minimal higher-operation degree wrong at k={k}")
        for l in range(0, k - 2):
            deg = op_bidegree(k, l)
            # primitive-to-primitive exclusion: never back on the diagonal
            if deg.p == deg.q:
                raise RuntimeError(f"operation ({k}, {l}) has diagonal bidegree {deg}")
            # minimal output degrees per case
            if 2 * k + deg.total < 5:
                raise RuntimeError(f"operation ({k}, {l}) outputs below degree 5")
        if op_bidegree(k, k - 2) != Bidegree(-k + 2, -k + 2):
            raise RuntimeError(f"strict operation ({k}, {k - 2}) off the diagonal")


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
