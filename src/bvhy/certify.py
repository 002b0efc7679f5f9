"""Symbolic formality certificates from bidegree footprints.

The certificate works entirely with closed-form degree inequalities, valid
for all arities k >= 3 at once, and never evaluates an operation.  The
tests check the closed forms against the operation bidegrees for k in
[3, 64], and check tables against the certificate's exclusions.

Conventions: bidegrees are on the polyvector side; a cohomology with a
"hypersurface footprint" of dimension n is supported on the diagonal
(j, j) (the primitive part) and the anti-diagonal (i, n-i) (the formal
part), with one-dimensional corners (0,0) and (n,n).  A higher operation
with k inputs and l brackets has bidegree (-l, -k+2) with l <= k-3; the
strict operations have l = k-2.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Tuple

from .graded import Bidegree
from .reporting import command_report
from .serialize import _check_schema, _is_int, _require, emit, load


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


def footprint_from_json(doc: dict) -> Footprint:
    _check_schema(doc, "footprint")
    n = doc.get("n")
    _require(_is_int(n) and n >= 1, f"invalid dimension n={n!r}", "n")
    convention = doc.get("convention", "polyvector")
    _require(convention in ("forms", "polyvector"),
             f"unknown convention {convention!r}", "convention")
    occupied: Dict[Bidegree, int] = {}
    raw = doc.get("occupied")
    _require(isinstance(raw, list), "missing occupied list", "occupied")
    for i, entry in enumerate(raw):
        loc = f"occupied[{i}]"
        _require(isinstance(entry, dict), "expected an object", loc)
        p, q, dim = entry.get("p"), entry.get("q"), entry.get("dim")
        _require(_is_int(p) and _is_int(q),
                 f"malformed bidegree p={p!r} q={q!r}", loc)
        _require(_is_int(dim) and dim >= 0,
                 f"invalid dimension {dim!r}", loc)
        if convention == "forms":
            # contraction with the volume form reverses the first index
            p = n - p
        deg = Bidegree(p, q)
        occupied[deg] = occupied.get(deg, 0) + dim
    return Footprint(n, occupied)


def is_hypersurface_footprint(fp: Footprint) -> Tuple[bool, str]:
    for deg in sorted(fp.occupied):
        on_diagonal = deg.p == deg.q
        on_antidiagonal = deg.p + deg.q == fp.n
        if not (on_diagonal or on_antidiagonal):
            return False, f"({deg.p},{deg.q}) off both diagonals"
    if not fp.corner_dims_one:
        return False, "corner bidegrees (0,0) and (n,n) must be one-dimensional"
    return True, "supported on diagonal and anti-diagonal with 1-dim corners"


@dataclass
class CaseVerdict:
    case: str
    verdict: str          # "excluded" | "product-only" | "not-excluded"
    reason: str


@dataclass
class FormalityCertificate:
    n: int
    footprint_hypothesis: bool
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


def cmd_certify(footprint: str, assume_top_bottom: bool) -> int:
    """``bvhy certify``: exit 0 if the footprint is certified formal, 3 if
    not."""
    started = time.monotonic()
    doc, digest = load(footprint)
    fp = footprint_from_json(doc)
    cert = certify_formality(fp, assume_top_bottom=assume_top_bottom)
    emit(command_report("certify", {footprint: digest}, started,
                        certificate=asdict(cert), verdict=cert.verdict))
    return 0 if cert.formal else 3
