"""Tiny pass/fail report containers shared by the checking routines."""

from typing import Any, List, Optional


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

    def add_zero(self, name: str, m) -> None:
        """Item ``name`` passes iff the ``GradedMap`` ``m`` is zero; its
        witness is the first three nonzero entries of ``m``."""
        self.add(name, m.is_zero, m.nonzero_entries()[:3] or None)

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
