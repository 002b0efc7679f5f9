"""Traced in-process run: the public calls of ``cmd_validate`` and
``cmd_transfer``, in the same order, each wrapped in a span.

The library itself is not instrumented; spans sit around the calls.  A
span records name, start, end, parent and op id; spans stay in memory and
are written out when the run ends.  A layer is the part of a span name
before the first dot.  The root span ``cli.op`` covers one whole operation,
so its self time (duration minus its children) is the CLI glue code.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from typing import Dict, Iterable, List, Optional

from bvhy import bv, engine, hodge, serialize

from gen import TRANSFER_ARITY

LAYERS = ("cli", "serialize", "bv", "hodge", "engine")
SPANS = ("serialize.parse", "serialize.export", "bv.check_bv_axioms",
         "hodge.build_transfer_data", "hodge.check_side_conditions",
         "hodge.check_strong_trivialization", "engine.build_operation_table",
         "engine.table_checks")
COUNTS = ("serialize.input_bytes", "serialize.output_bytes", "bv.basis_dim",
          "bv.product_entries", "hodge.cohomology_dim", "hodge.max_bits",
          "engine.table_entries", "engine.nonzero_ops", "engine.nonzero_ratio",
          "engine.max_bits")
# Figures of a layer that only one command reaches: the engine only
# ``transfer``, the strong-trivialization check only ``validate``.  They read
# 0 on the other workloads, so they go to the trace file, not the metrics.
PARTIAL = ("hodge.check_strong_trivialization_s",)


def partial(metric: str) -> bool:
    return metric.startswith("engine.") or metric in PARTIAL


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self.op_id = 0

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "op": self.op_id,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


class NullTracer:
    def span(self, name: str):
        return nullcontext()


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("share", "ratio")):
        return "ratio"
    return metric.rsplit("_", 1)[-1] if metric.endswith(("_bits", "_bytes")) \
        else "count"


def _bits(values: Iterable[Fraction]) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in values), default=0)


def _map_values(m) -> Iterable[Fraction]:
    return (v for col in m.entries.values() for v in col.values())


def run_op(command: str, path: str, tracer) -> dict:
    """One operation as ``bvhy validate|transfer`` performs it.

    Returns the objects the counters are read from, and the outputs the
    checks compare; nothing here is counted inside a span."""
    span = tracer.span
    out: Dict[str, object] = {}
    with span("cli.op"):
        with span("serialize.parse"):
            with open(path, "rb") as fh:
                raw = fh.read()
            algebra, gram = serialize.algebra_from_json(json.loads(raw))
            inputs = {path: hashlib.sha256(raw).hexdigest()}
        with span("bv.check_bv_axioms"):
            axioms = bv.check_bv_axioms(algebra)
        results = [axioms.to_dict()]
        td = table = None
        ok = axioms.passed
        if ok:
            with span("hodge.build_transfer_data"):
                td = hodge.build_transfer_data(algebra, gram)
            with span("hodge.check_side_conditions"):
                side = hodge.check_side_conditions(td, algebra)
            results.append(side.to_dict())
            ok = side.passed
            if command == "validate":
                with span("hodge.check_strong_trivialization"):
                    triv = hodge.check_strong_trivialization_composites(td, algebra)
                results.append(triv.to_dict())
                ok = ok and triv.passed
        if command == "transfer" and ok:
            with span("engine.build_operation_table"):
                table = engine.build_operation_table(algebra, td, TRANSFER_ARITY)
            with span("serialize.export"):
                table_doc = serialize.table_to_json(table)
            with span("engine.table_checks"):
                table_doc["formal_unit"] = engine.check_formal_unit(table).to_dict()
                top = max(algebra.space.occupied_bidegrees(),
                          key=lambda d: (d.total, d.p))
                if top.p == top.q:
                    table_doc["top_degree"] = \
                        engine.top_degree_report(table, top.p).to_dict()
                else:
                    table_doc["top_degree"] = {
                        "skipped": f"top bidegree ({top.p},{top.q}) is not "
                                   f"of the form (n,n)"}
            with span("serialize.export"):
                out["table_bytes"] = serialize.dump(table_doc).encode()
        with span("serialize.export"):
            report = serialize.dump({"command": command, "inputs": inputs,
                                     "results": results, "passed": ok})
        out["report"] = report.encode()
    out.update(raw=raw, algebra=algebra, td=td, table=table)
    return out


def op_counts(out: dict) -> Dict[str, float]:
    algebra, td, table = out["algebra"], out["td"], out["table"]
    counts = dict.fromkeys(COUNTS, 0)
    counts["serialize.input_bytes"] = len(out["raw"])
    counts["serialize.output_bytes"] = len(out["report"]) + len(out.get("table_bytes", b""))
    counts["bv.basis_dim"] = algebra.space.dim
    counts["bv.product_entries"] = sum(len(c) for c in algebra.product.values())
    if td is not None:
        counts["hodge.cohomology_dim"] = td.cohomology.dim
        counts["hodge.max_bits"] = max(_bits(_map_values(m))
                                       for m in (td.h, td.pi, td.green))
    if table is not None:
        values = [v for consts in table.ops.values()
                  for col in consts.values() for v in col.values()]
        nonzero = sum(1 for consts in table.ops.values() if consts)
        counts["engine.table_entries"] = len(values)
        counts["engine.nonzero_ops"] = nonzero
        counts["engine.nonzero_ratio"] = nonzero / len(table.ops)
        counts["engine.max_bits"] = _bits(values)
    return counts


def layer_times(spans: List[dict]) -> List[Dict[str, float]]:
    """Per op: the op's wall time, each span name's summed duration and each
    layer's self time (duration minus the children it contains)."""
    per_op: Dict[int, Dict[str, float]] = {}
    child_time: Dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) \
                + s["end"] - s["start"]
    for i, s in enumerate(spans):
        row = per_op.setdefault(s["op"], dict.fromkeys(
            ("op",) + SPANS + tuple(f"{l}.self" for l in LAYERS), 0.0))
        dur = s["end"] - s["start"]
        if s["name"] == "cli.op":
            row["op"] = dur
        else:
            row[s["name"]] += dur
        layer = s["name"].split(".", 1)[0]
        row[f"{layer}.self"] += dur - child_time.get(i, 0.0)
    return [per_op[k] for k in sorted(per_op)]


def summarize(rows: List[Dict[str, float]], counts: List[Dict[str, float]],
              overhead: List[float]) -> Dict[str, float]:
    """Per-layer metrics: per-op medians of times and counts; a layer's
    share is its summed self time over the summed op time.  ``overhead``
    holds each op's traced over untraced wall time."""
    med = statistics.median
    total = sum(r["op"] for r in rows)
    m = {"trace.op_s": med(r["op"] for r in rows),
         "trace.overhead_ratio": med(overhead)}
    for name in SPANS:
        m[f"{name}_s"] = med(r[name] for r in rows)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = med(r[f"{layer}.self"] for r in rows)
        m[f"{layer}.share"] = sum(r[f"{layer}.self"] for r in rows) / total
    for name in COUNTS:
        m[name] = med(c[name] for c in counts)
    return m


def op_run(command: str, path: str, tracer: Optional[Tracer]) -> tuple:
    """Run one op and return (wall seconds, outputs)."""
    t0 = time.perf_counter()
    out = run_op(command, path, tracer or NullTracer())
    return time.perf_counter() - t0, out
