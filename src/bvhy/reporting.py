"""Tiny pass/fail report containers shared by the checking routines."""

from typing import Any, List, Optional

from .graded import BlockMap, GradedMap


class CheckItem:
    def __init__(self, name: str, passed: bool, witness: Optional[Any] = None):
        self.name, self.passed, self.witness = name, passed, witness

    def to_dict(self):
        d = {"name": self.name, "passed": self.passed}
        if not self.passed and self.witness is not None:
            d["witness"] = self.witness
        return d


class CheckReport:
    def __init__(self, title: str):
        self.title = title
        self.items: List[CheckItem] = []

    def add(self, name: str, passed: bool, witness=None) -> None:
        self.items.append(CheckItem(name, passed, witness))

    def add_zero(self, name: str, m: GradedMap) -> None:
        """Item ``name`` passes iff the ``GradedMap`` ``m`` is zero; its
        witness is the first three nonzero entries ``(source, target,
        value)`` of ``m`` by (source index, target index)."""
        src, tgt = m.source.index, m.target.index
        found = sorted((src[s], tgt[t], s, t, v)
                       for s, col in m.entries.items() for t, v in col.items())
        self.add(name, not found, [e[2:] for e in found[:3]] or None)

    def add_residual(self, name: str, residual: BlockMap) -> None:
        """``add_zero`` for the ``BlockMap`` of an identity's residual."""
        self.add_zero(name, GradedMap.from_blocks(*residual))

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
