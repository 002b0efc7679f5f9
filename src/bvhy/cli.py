"""Batch front-end: validate algebras, build transfer tables, certify.

Exit codes: 0 success / formal, 1 check failure, 2 unreadable input,
parse or schema error, or unwritable ``--out`` or stdout, 3 certificate
"not certified" (distinct from error).  A stdout that takes no more
output, such as a pipe whose reader has exited (``bvhy validate doc.json
| true``), is an unwritable output like ``--out``: one ``error:`` line on
stderr and exit 2, with stdout pointed at the null device so that the
flush at exit does not fail again.

Each subcommand imports the modules only it runs: ``validate`` loads no
engine, certificate or model code, and neither it nor ``transfer`` loads
``json`` (``serialize`` reads and writes JSON).  ``certify`` and
``search`` are ``certify.cmd_certify`` and ``models.cmd_search``, beside
the code they run.  Most of a ``validate`` or ``transfer`` process is
start-up, so the command line is read from one table, ``COMMANDS``,
rather than by ``argparse``; a usage error is a ``SchemaError`` like any
other, one ``error:`` line and exit 2.
"""

from __future__ import annotations

import gc
import sys
import time
from typing import Optional

if __name__ == "__main__":
    # a command is one short process: no cyclic collection, imports included
    gc.disable()

from . import serialize
from .hodge import check_transfer_input
from .reporting import command_report
from .serialize import SchemaError, emit

MAX_ARITY_GUARD = 9


def _load_and_check(algebra_path: str, gram_path: Optional[str] = None):
    """Parse an algebra document (with an optional separate Gram file) and
    run ``check_transfer_input`` on it.

    Returns ``(algebra, td, inputs, results, passed)``; ``td`` is None if
    the axioms fail, and then no later check runs.
    """
    doc, digest = serialize.load(algebra_path)
    inputs = {algebra_path: digest}
    algebra, gram = serialize.algebra_from_json(doc)
    if gram_path:
        entries, inputs[gram_path] = serialize.load(gram_path)
        if isinstance(entries, dict):
            entries = entries.get("gram", entries)
        gram = serialize.gram_from_entries(entries, algebra.space)
    td, reports = check_transfer_input(algebra, gram)
    return (algebra, td, inputs, [r.to_dict() for r in reports],
            all(r.passed for r in reports))


def cmd_validate(algebra: str, gram: Optional[str]) -> int:
    started = time.monotonic()
    _, _, inputs, results, ok = _load_and_check(algebra, gram)
    emit(command_report("validate", inputs, started, results=results,
                        passed=ok))
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
        emit(command_report("transfer", inputs, started, results=results,
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
        emit(table_doc, out)
    emit(command_report("transfer", inputs, started, results=results,
                        passed=ok, out=out, **extra))
    return 0 if ok else 1


def _certify(**kwargs) -> int:
    from .certify import cmd_certify
    return cmd_certify(**kwargs)


def _search(**kwargs) -> int:
    from .models import cmd_search
    return cmd_search(**kwargs)


def _bool_flag(value: str) -> bool:
    if value.lower() in ("true", "1", "yes"):
        return True
    if value.lower() in ("false", "0", "no"):
        return False
    raise ValueError(value)


# command: (handler, summary, positionals, {option: (converter, default)});
# an option whose converter is None is a flag, False unless given.  Each
# positional and option is passed to the handler under its name, dashes
# turned into underscores.  certify and search live beside the code they
# run and are imported when they run, so validate and transfer do not
# compile them.
COMMANDS = {
    "validate": (cmd_validate, "check BV axioms and transfer identities",
                 ("algebra",), {"--gram": (str, None)}),
    "transfer": (cmd_transfer, "build the transferred operation table",
                 ("algebra",), {"--max-arity": (int, 4), "--out": (str, None),
                                "--force": (None, False)}),
    "certify": (_certify, "run the degree-counting certificate",
                ("footprint",), {"--assume-top-bottom": (_bool_flag, True)}),
    "search": (_search, "search for a non-formality witness",
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
    try:
        if "-h" in argv or "--help" in argv:
            serialize.write(_usage())
            return 0
        handler, kwargs = _parse(argv)
        return handler(**kwargs)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    code = main()
    # exit still runs atexit and flushes stdout and stderr; the frozen heap
    # is left out of the final collections, which would walk and free it
    gc.freeze()
    sys.exit(code)
