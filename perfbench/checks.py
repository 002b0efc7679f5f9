"""Output checks for benchmark operations; they run outside every timed span.

* ``validate``: the exit code and the report's verdict must match how the
  document was built, and the set of failing item names must be the same
  on every repetition of a document.  Witness tuples are not compared: the
  derivation and order-2 checks iterate a ``set``, so their witnesses
  depend on ``PYTHONHASHSEED`` (a known defect recorded in
  ``perfbench/notes.json``).
* ``transfer``: for the default seed the table export must match the
  sha256 digest in ``perfbench/digests.json`` (recorded from
  ``bvhy transfer --max-arity 5`` when the benchmark was added); for every
  seed a seeded sample of table entries, nonzero ones at arity >= 3
  included, and of absent entries is recomputed as a sum of
  ``naive_evaluate_tree`` over ``enumerate_trees``.
* Every operation: no traceback on stderr.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from bvhy import engine, hodge, serialize, trees

from gen import TRANSFER_ARITY, Doc

DEFAULT_SEED = 0
DIGESTS = Path(__file__).resolve().parent / "digests.json"
NONZERO_SAMPLE = 6
ZERO_SAMPLE = 3


def load_digests() -> Dict[str, Dict[str, str]]:
    with open(DIGESTS) as fh:
        return json.load(fh)


def failing_items(report: dict) -> List[str]:
    return sorted(item["name"] for result in report.get("results", [])
                  for item in result["items"] if not item["passed"])


def check_validate(doc: Doc, exit_code: int, stdout: bytes) -> Tuple[Optional[str], object]:
    """Returns (error or None, the failing item names to pin for repeats)."""
    want = 0 if doc.valid else 1
    if exit_code != want:
        return f"exit code {exit_code}, expected {want}", None
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return f"unparsable report: {exc}", None
    if report.get("passed") is not doc.valid:
        return f"verdict {report.get('passed')!r}, expected {doc.valid}", None
    failing = failing_items(report)
    if doc.valid and failing:
        return f"valid document fails {failing}", None
    if not doc.valid and doc.breaks not in failing:
        return f"mutation of {doc.breaks!r} not reported; failing {failing}", None
    return None, failing


class TableOracle:
    """Recomputes table entries from single trees with the naive evaluator."""

    def __init__(self):
        self._trees: Dict[Tuple[int, int], list] = {}

    def trees(self, k: int, l: int) -> list:
        if (k, l) not in self._trees:
            self._trees[(k, l)] = trees.enumerate_trees(
                k, constraints={"bracket_count": l})
        return self._trees[(k, l)]

    def check(self, doc: Doc, table: dict, rng: random.Random) -> Optional[str]:
        algebra, gram = serialize.algebra_from_json(doc.algebra)
        td = hodge.build_transfer_data(algebra, gram)
        H = td.cohomology
        cohomology = [{"name": n, "p": H.bidegree[n].p, "q": H.bidegree[n].q}
                      for n in H.names]
        if table.get("cohomology") != cohomology:
            return "cohomology basis differs from the transfer data"
        want_ops = {(k, l) for k in range(2, TRANSFER_ARITY + 1)
                    for l in range(k - 1)}
        ops: Dict[Tuple[int, int], Dict[tuple, Dict[str, Fraction]]] = {}
        for op in table.get("operations", []):
            consts = ops.setdefault((op["arity"], op["brackets"]), {})
            for row in op["entries"]:
                *key, out, val = row
                consts.setdefault(tuple(key), {})[out] = Fraction(val)
        if set(ops) != want_ops:
            return f"operations {sorted(ops)}, expected {sorted(want_ops)}"
        if not table.get("formal_unit", {}).get("passed"):
            return "formal-unit check failed"
        if table.get("top_degree", {}).get("passed") is False:
            return "top-degree check failed"

        present = [(kl, key) for kl in sorted(ops) for key in sorted(ops[kl])]
        higher = [p for p in present if p[0][0] >= 3]
        picks = rng.sample(higher, min(len(higher), NONZERO_SAMPLE - 1))
        picks += rng.sample(present, 1)
        degrees = {deg: H.names_at(deg) for deg in H.occupied_bidegrees()}
        for _ in range(50 * ZERO_SAMPLE):
            if len(picks) >= NONZERO_SAMPLE + ZERO_SAMPLE:
                break
            k, l = rng.choice(sorted(want_ops))
            key = tuple(rng.choice(H.names) for _ in range(k))
            out = (sum(H.bidegree[n].p for n in key) - l,
                   sum(H.bidegree[n].q for n in key) - k + 2)
            if key not in ops[(k, l)] and out in degrees:
                picks.append(((k, l), key))
        for (k, l), key in picks:
            args = [H.basis_element(n) for n in key]
            total = H.zero()
            for t in self.trees(k, l):
                total = total + engine.naive_evaluate_tree(t, algebra, td, args)
            if total.coeffs != ops[(k, l)].get(key, {}):
                return f"entry ({k},{l}) {key}: table {ops[(k, l)].get(key, {})}" \
                       f" != oracle {total.coeffs}"
        return None


def check_transfer(doc: Doc, exit_code: int, stdout: bytes, table_bytes: bytes,
                   expected_digest: Optional[str], oracle: TableOracle,
                   rng: random.Random) -> Optional[str]:
    if exit_code != 0:
        return f"exit code {exit_code}, expected 0"
    try:
        report = json.loads(stdout)
        table = json.loads(table_bytes)
    except ValueError as exc:
        return f"unparsable output: {exc}"
    if report.get("passed") is not True:
        return f"transfer report not passed: {failing_items(report)}"
    if expected_digest is not None:
        got = hashlib.sha256(table_bytes).hexdigest()
        if got != expected_digest:
            return f"table digest {got} != recorded {expected_digest}"
    return oracle.check(doc, table, rng)


def has_traceback(stderr: bytes) -> bool:
    return b"Traceback" in stderr
