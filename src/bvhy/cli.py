"""Batch front-end: validate algebras, build transfer tables, certify.

Exit codes: 0 success / formal, 1 check failure, 2 unreadable input,
parse or schema error, or unwritable ``--out``, 3 certificate "not
certified" (distinct from error).

Each subcommand imports the modules only it runs: ``validate`` loads no
engine, certificate or model code.  Most of a ``validate`` or
``transfer`` process is start-up, so the command line is read from one
table, ``COMMANDS``, rather than by ``argparse``; a usage error is a
``SchemaError`` like any other, one ``error:`` line and exit 2.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Optional

try:
    # the built-in module: hashlib would load OpenSSL too, several ms of
    # every process's start-up.  CPython 3.12 renamed it _sha2.
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

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
        return json.loads(data.decode("utf-8")), sha256(data).hexdigest()
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


def cmd_validate(algebra: str, gram: Optional[str]) -> int:
    started = time.monotonic()
    _, _, inputs, results, ok = _load_and_check(algebra, gram)
    _emit(_report("validate", inputs, started, results=results, passed=ok))
    return 0 if ok else 1


def cmd_transfer(algebra: str, max_arity: int, out: Optional[str],
                 force: bool) -> int:
    from .engine import build_operation_table, check_formal_unit, \
        top_degree_report
    started = time.monotonic()
    if max_arity < 2:
        raise SchemaError(f"--max-arity {max_arity} is below 2, the "
                          f"arity of the product", "max-arity")
    if max_arity > MAX_ARITY_GUARD and not force:
        raise SchemaError(
            f"--max-arity {max_arity} exceeds the combinatorial guard "
            f"({MAX_ARITY_GUARD}); pass --force to override", "max-arity")
    a, td, inputs, results, ok = _load_and_check(algebra)
    if not ok:
        _emit(_report("transfer", inputs, started, results=results,
                      passed=False))
        return 1

    table = build_operation_table(a, td, max_arity)
    table_doc = serialize.table_to_json(table)
    unit = check_formal_unit(table)
    table_doc["formal_unit"] = unit.to_dict()
    ok = unit.passed

    top = max(a.space.occupied_bidegrees(), key=lambda d: (d.total, d.p))
    if top.p == top.q:
        top_report = top_degree_report(table, top.p)
        table_doc["top_degree"] = top_report.to_dict()
        ok = ok and top_report.passed
    else:
        table_doc["top_degree"] = {
            "skipped": f"top bidegree ({top.p},{top.q}) is not of the form (n,n)"}

    # without --out, stdout holds one document: the report, table included
    extra = {} if out else {"table": table_doc}
    if out:
        _emit(table_doc, out)
    _emit(_report("transfer", inputs, started, results=results, passed=ok,
                  out=out, **extra))
    return 0 if ok else 1


def cmd_certify(footprint: str, assume_top_bottom: bool) -> int:
    from .certify import certify_formality
    started = time.monotonic()
    doc, digest = _load_json(footprint)
    fp = serialize.footprint_from_json(doc)
    inputs = {footprint: digest}
    cert = certify_formality(fp, assume_top_bottom=assume_top_bottom)
    _emit(_report("certify", inputs, started, certificate=cert.to_dict(),
                  verdict=cert.verdict))
    return 0 if cert.formal else 3


def cmd_search(seed: int, out: Optional[str]) -> int:
    from .models import SearchExhausted, search_nonformal
    started = time.monotonic()
    try:
        model = search_nonformal(seed=seed)
    except SearchExhausted as exc:
        _emit(_report("search", {}, started, passed=False, error=str(exc)))
        return 1
    doc = serialize.algebra_to_json(model.algebra, model.inner_product)
    if out:
        _emit(doc, out)
    _emit(_report("search", {}, started, passed=True, model=model.name,
                  witness=model.witness, out=out))
    return 0


def _bool_flag(value: str) -> bool:
    if value.lower() in ("true", "1", "yes"):
        return True
    if value.lower() in ("false", "0", "no"):
        return False
    raise ValueError(value)


# command: (handler, summary, positionals, {option: (converter, default)});
# an option whose converter is None is a flag, False unless given.  Each
# positional and option is passed to the handler under its name, dashes
# turned into underscores.
COMMANDS = {
    "validate": (cmd_validate, "check BV axioms and transfer identities",
                 ("algebra",), {"--gram": (str, None)}),
    "transfer": (cmd_transfer, "build the transferred operation table",
                 ("algebra",), {"--max-arity": (int, 4), "--out": (str, None),
                                "--force": (None, False)}),
    "certify": (cmd_certify, "run the degree-counting certificate",
                ("footprint",), {"--assume-top-bottom": (_bool_flag, True)}),
    "search": (cmd_search, "search for a non-formality witness",
               (), {"--seed": (int, 0), "--out": (str, None)}),
}

_METAVARS = {int: "N", _bool_flag: "BOOL"}


def _usage() -> str:
    lines = ["usage: bvhy COMMAND [ARGS]", ""]
    for command, (_, summary, positionals, options) in COMMANDS.items():
        words = [command, *(p.upper() for p in positionals)]
        words += [f"[{o}]" if convert is None else
                  f"[{o} {_METAVARS.get(convert, 'FILE')}]"
                  for o, (convert, _) in options.items()]
        lines += [f"  {' '.join(words)}", f"      {summary}"]
    return "\n".join(lines) + "\n"


def _parse(argv):
    """The handler ``argv`` names and its keyword arguments.  Options go
    before or after the positionals, as ``--opt value`` or ``--opt=value``;
    any misuse raises ``SchemaError``."""
    if not argv or argv[0] not in COMMANDS:
        got = f"unknown command {argv[0]!r}" if argv else "no command"
        raise SchemaError(f"{got}; expected one of {', '.join(COMMANDS)}",
                          "command")
    handler, _, positionals, options = COMMANDS[argv[0]]
    kwargs = {o[2:].replace("-", "_"): default
              for o, (_, default) in options.items()}
    given = []
    rest = iter(argv[1:])
    for arg in rest:
        if not arg.startswith("-"):
            given.append(arg)
            continue
        name, eq, value = arg.partition("=")
        if name not in options:
            raise SchemaError(f"unknown option {name}", argv[0])
        convert, _ = options[name]
        if convert is None:
            if eq:
                raise SchemaError(f"{name} takes no value", name[2:])
            value = True
        else:
            if not eq:
                value = next(rest, None)
                if value is None or value.startswith("--"):
                    raise SchemaError(f"{name} needs a value", name[2:])
            try:
                value = convert(value)
            except ValueError:
                raise SchemaError(f"invalid value {value!r} for {name}",
                                  name[2:]) from None
        kwargs[name[2:].replace("-", "_")] = value
    if len(given) != len(positionals):
        expected = " ".join(p.upper() for p in positionals) or "nothing"
        raise SchemaError(f"expected {expected}, got {len(given)} "
                          f"positional arguments", argv[0])
    kwargs.update(zip(positionals, given))
    return handler, kwargs


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_usage())
        return 0
    try:
        handler, kwargs = _parse(argv)
        return handler(**kwargs)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
