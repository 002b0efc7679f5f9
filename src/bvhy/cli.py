"""Batch front-end: validate algebras, build transfer tables, certify.

Exit codes: 0 success / formal, 1 check failure, 2 unreadable input,
parse or schema error, or unwritable ``--out``, 3 certificate "not
certified" (distinct from error).

Each subcommand imports the modules only it runs: ``validate`` loads no
engine, certificate or model code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from typing import Optional

from . import serialize
from .hodge import check_transfer_input
from .serialize import SchemaError

MAX_ARITY_GUARD = 9


def _load_json(path: str):
    """The document at ``path`` and the sha256 of the bytes it was parsed
    from; the file is read once."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return json.loads(data.decode("utf-8")), hashlib.sha256(data).hexdigest()
    except FileNotFoundError:
        raise SchemaError(f"no such file: {path}", path) from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8 text: {exc}", path) from None
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer past the digit limit, or deep nesting
        raise SchemaError(f"invalid JSON: {exc}", path) from None
    except OSError as exc:
        raise SchemaError(f"cannot read: {exc.strerror}", path) from None


def _report(command: str, inputs: dict, started: float, **extra) -> dict:
    doc = {"command": command, "inputs": inputs,
           "timing_s": round(time.monotonic() - started, 6)}
    doc.update(extra)
    return doc


def _emit(doc: dict, out: Optional[str] = None) -> None:
    text = serialize.dump(doc)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise SchemaError(f"cannot write {out}: {exc.strerror}",
                              "out") from None
    else:
        sys.stdout.write(text)


def _load_and_check(algebra_path: str, gram_path: Optional[str] = None):
    """Parse an algebra document (with an optional separate Gram file) and
    run ``check_transfer_input`` on it.

    Returns ``(algebra, td, inputs, results, passed)``; ``td`` is None if
    the axioms fail, and then no later check runs.
    """
    doc, digest = _load_json(algebra_path)
    inputs = {algebra_path: digest}
    algebra, gram = serialize.algebra_from_json(doc)
    if gram_path:
        entries, inputs[gram_path] = _load_json(gram_path)
        if isinstance(entries, dict):
            entries = entries.get("gram", entries)
        gram = serialize.gram_from_entries(entries, algebra.space)
    td, reports = check_transfer_input(algebra, gram)
    return (algebra, td, inputs, [r.to_dict() for r in reports],
            all(r.passed for r in reports))


def cmd_validate(args) -> int:
    started = time.monotonic()
    _, _, inputs, results, ok = _load_and_check(args.algebra, args.gram)
    _emit(_report("validate", inputs, started, results=results, passed=ok))
    return 0 if ok else 1


def cmd_transfer(args) -> int:
    from .engine import build_operation_table, check_formal_unit, \
        top_degree_report
    started = time.monotonic()
    if args.max_arity < 2:
        raise SchemaError(f"--max-arity {args.max_arity} is below 2, the "
                          f"arity of the product", "max-arity")
    if args.max_arity > MAX_ARITY_GUARD and not args.force:
        raise SchemaError(
            f"--max-arity {args.max_arity} exceeds the combinatorial guard "
            f"({MAX_ARITY_GUARD}); pass --force to override", "max-arity")
    algebra, td, inputs, results, ok = _load_and_check(args.algebra)
    if not ok:
        _emit(_report("transfer", inputs, started, results=results,
                      passed=False))
        return 1

    table = build_operation_table(algebra, td, args.max_arity)
    table_doc = serialize.table_to_json(table)
    unit = check_formal_unit(table)
    table_doc["formal_unit"] = unit.to_dict()
    ok = unit.passed

    top = max(algebra.space.occupied_bidegrees(), key=lambda d: (d.total, d.p))
    if top.p == top.q:
        top_report = top_degree_report(table, top.p)
        table_doc["top_degree"] = top_report.to_dict()
        ok = ok and top_report.passed
    else:
        table_doc["top_degree"] = {
            "skipped": f"top bidegree ({top.p},{top.q}) is not of the form (n,n)"}

    # without --out, stdout holds one document: the report, table included
    extra = {} if args.out else {"table": table_doc}
    if args.out:
        _emit(table_doc, args.out)
    _emit(_report("transfer", inputs, started, results=results, passed=ok,
                  out=args.out, **extra))
    return 0 if ok else 1


def cmd_certify(args) -> int:
    from .certify import certify_formality
    started = time.monotonic()
    doc, digest = _load_json(args.footprint)
    fp = serialize.footprint_from_json(doc)
    inputs = {args.footprint: digest}
    cert = certify_formality(fp, assume_top_bottom=args.assume_top_bottom)
    _emit(_report("certify", inputs, started, certificate=cert.to_dict(),
                  verdict=cert.verdict))
    return 0 if cert.formal else 3


def cmd_search(args) -> int:
    from .models import SearchExhausted, search_nonformal
    started = time.monotonic()
    try:
        model = search_nonformal(seed=args.seed)
    except SearchExhausted as exc:
        _emit(_report("search", {}, started, passed=False, error=str(exc)))
        return 1
    doc = serialize.algebra_to_json(model.algebra, model.inner_product)
    if args.out:
        _emit(doc, args.out)
    _emit(_report("search", {}, started, passed=True, model=model.name,
                  witness=model.witness, out=args.out))
    return 0


def _bool_flag(value: str) -> bool:
    if value.lower() in ("true", "1", "yes"):
        return True
    if value.lower() in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {value!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvhy",
        description="Homotopy transfer and formality certificates for "
                    "finite-dimensional dg BV-algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check BV axioms and transfer identities")
    p.add_argument("algebra", help="algebra JSON file")
    p.add_argument("--gram", help="separate Gram-matrix JSON file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("transfer", help="build the transferred operation table")
    p.add_argument("algebra", help="algebra JSON file")
    p.add_argument("--max-arity", type=int, default=4)
    p.add_argument("--out", help="write the table JSON here; without it "
                   "the table is the report's \"table\" key")
    p.add_argument("--force", action="store_true",
                   help="override the arity guard")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("certify", help="run the degree-counting certificate")
    p.add_argument("footprint", help="footprint JSON file")
    p.add_argument("--assume-top-bottom", type=_bool_flag, default=True,
                   metavar="BOOL")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("search", help="search for a non-formality witness")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the witness algebra JSON here")
    p.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
