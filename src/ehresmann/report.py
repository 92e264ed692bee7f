"""Shared report types for axiom and property checks."""

from __future__ import annotations

from dataclasses import dataclass

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    witness: tuple | None = None

    def line(self) -> str:
        if self.ok:
            return f"PASS  {self.name}"
        return f"FAIL  {self.name}  witness={self.witness!r}"


def first_witness(name: str, witnesses) -> Check:
    """PASS when witnesses is empty, otherwise FAIL with its first element.

    witnesses is usually a generator, so the search stops at the first hit.
    """
    for witness in witnesses:
        return Check(name, False, witness)
    return Check(name, True)


@dataclass
class AxiomReport:
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def __getitem__(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def lines(self):
        return [c.line() for c in self.checks]

    def text(self) -> str:
        return "\n".join(self.lines())


@dataclass(frozen=True)
class CondResult:
    """Three-valued outcome for semi-decidable conditions."""

    name: str
    status: str  # PASS / FAIL / INCONCLUSIVE
    witness: tuple | None = None

    def line(self) -> str:
        out = f"{self.status:<12}  {self.name}"
        if self.witness is not None:
            out += f"  witness={self.witness!r}"
        return out


def combine_status(statuses) -> str:
    statuses = list(statuses)
    if any(s == FAIL for s in statuses):
        return FAIL
    if any(s == INCONCLUSIVE for s in statuses):
        return INCONCLUSIVE
    return PASS
