"""The report type shared by every check.

A check settles to PASS, FAIL with a witness, or INCONCLUSIVE when a
bounded search could not decide it.  Checks over a finite table are always
PASS or FAIL; only the semi-decidable conditions come back INCONCLUSIVE.
"""

from __future__ import annotations

from dataclasses import dataclass

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class Check:
    name: str
    status: str  # PASS / FAIL / INCONCLUSIVE
    witness: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.status == PASS

    def line(self) -> str:
        if self.ok:
            return f"PASS  {self.name}"
        return f"{self.status}  {self.name}  witness={self.witness!r}"


def first_witness(name: str, witnesses) -> Check:
    """PASS when witnesses is empty, otherwise FAIL with its first element.

    witnesses is usually a generator, so the search stops at the first hit.
    """
    for witness in witnesses:
        return Check(name, FAIL, witness)
    return Check(name, PASS)


@dataclass
class Report:
    checks: list

    @property
    def status(self) -> str:
        """FAIL if any check fails, else INCONCLUSIVE if any check is
        inconclusive, else PASS."""
        statuses = {c.status for c in self.checks}
        for status in (FAIL, INCONCLUSIVE):
            if status in statuses:
                return status
        return PASS

    @property
    def ok(self) -> bool:
        return self.status == PASS

    def failures(self):
        """The checks that did not pass."""
        return [c for c in self.checks if not c.ok]

    def __getitem__(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def lines(self):
        return [c.line() for c in self.checks]
