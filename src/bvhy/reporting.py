"""Tiny pass/fail report containers shared by the checking routines, and
the report document every command writes."""

import time
from math import gcd
from typing import Any, List, Optional

from .graded import BlockMap


class CheckItem:
    def __init__(self, name: str, passed: bool, witness: Optional[Any] = None):
        self.name, self.passed, self.witness = name, passed, witness

    def to_dict(self):
        d = {"name": self.name, "passed": self.passed}
        if not self.passed and self.witness is not None:
            d["witness"] = self.witness
        return d


def ratio_text(num: int, den: int) -> str:
    """The rational ``num / den`` (``den`` > 0) as ``str`` of a ``Fraction``
    writes it: "3", "-3/2"."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


class CheckReport:
    def __init__(self, title: str):
        self.title = title
        self.items: List[CheckItem] = []

    def add(self, name: str, passed: bool, witness=None) -> None:
        self.items.append(CheckItem(name, passed, witness))

    def add_residual(self, name: str, residual: BlockMap) -> None:
        """Item ``name`` passes iff the ``BlockMap`` ``residual`` of an
        identity is zero; its witness is the first three nonzero entries
        ``(source, target, value)`` by (source index, target index), the
        value as ``ratio_text`` writes it."""
        src, tgt = residual.source, residual.target
        found = []
        for deg, (rows, den) in residual.blocks.items():
            snames = src.names_at(deg)
            for t, row in zip(tgt.names_at(deg + residual.shift), rows):
                if any(row):
                    found += [(src.index[s], tgt.index[t], s, t, x, den)
                              for s, x in zip(snames, row) if x]
        found.sort()
        self.add(name, not found, [(s, t, ratio_text(x, den))
                                   for _i, _j, s, t, x, den in found[:3]]
                 or None)

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def failures(self) -> List[CheckItem]:
        return [item for item in self.items if not item.passed]

    def to_dict(self):
        return {
            "title": self.title,
            "passed": self.passed,
            "items": [item.to_dict() for item in self.items],
        }


def command_report(command: str, inputs: dict, started: float,
                   **extra) -> dict:
    """The report of one ``command`` run: the sha256 of each input file,
    the wall time since ``started`` (a ``time.monotonic`` reading), then
    ``extra``."""
    doc = {"command": command, "inputs": inputs,
           "timing_s": round(time.monotonic() - started, 6)}
    doc.update(extra)
    return doc
