"""Exception types and validation-report containers shared across the package.

The records of this package are plain classes, not dataclasses: each command
line call is a fresh interpreter, and importing ``dataclasses`` and generating
the methods of its records took about a quarter of a ``verify`` command.
"""

from __future__ import annotations


class StructureError(ValueError):
    """A table is malformed: wrong shape, index out of range, partial map
    defined off its declared domain.  Distinct from an axiom failure."""


class FormatError(ValueError):
    """A document is syntactically or schematically invalid."""


class VacancyError(ValueError):
    """An operation required a vacant double groupoid and got a non-vacant one."""


class FactorizationError(ValueError):
    """A claimed exact factorization is not exact (non-unique or missing)."""


class UnembeddableError(ValueError):
    """Cocycle values cannot be realized in the requested field."""


class UnsupportedFeatureError(ValueError):
    """The request is out of the supported scope (e.g. twisted block structure)."""


class ResourceBudgetError(RuntimeError):
    """An exhaustive search would exceed the configured budget.  Raised instead
    of returning silently truncated results."""


class TruncationError(RuntimeError):
    """A complex was not built to sufficient (bi)degree for the request."""


class InternalConsistencyError(AssertionError):
    """Two routes that must agree by a theorem disagreed.  Always a bug."""


class Failure:
    """One violated rule together with a minimal witness tuple."""

    def __init__(self, rule: str, witness: tuple, message: str = ""):
        self.rule = rule
        self.witness = witness
        self.message = message

    def __eq__(self, other):
        return (isinstance(other, Failure) and (self.rule, self.witness, self.message)
                == (other.rule, other.witness, other.message))

    def __hash__(self):
        return hash((self.rule, self.witness, self.message))

    def __repr__(self):
        return f"Failure({self.rule!r}, {self.witness!r}, {self.message!r})"

    def __str__(self) -> str:
        msg = f": {self.message}" if self.message else ""
        return f"{self.rule} at {self.witness}{msg}"


class Report:
    """Outcome of an exhaustive validation: empty failure list means pass.

    ``checked`` counts the tuples examined per rule, so that a rule which
    examined nothing (a vacuous pass) shows.
    """

    def __init__(self, subject: str):
        self.subject = subject
        self.failures: list[Failure] = []
        self.checked: dict[str, int] = {}

    @property
    def ok(self) -> bool:
        return not self.failures

    def add(self, rule: str, witness: tuple, message: str = "") -> None:
        self.failures.append(Failure(rule, witness, message))

    def count(self, rule: str, tuples: int) -> None:
        self.checked[rule] = self.checked.get(rule, 0) + tuples

    def raise_if_failed(self) -> None:
        if not self.ok:
            head = self.failures[0]
            raise StructureError(
                f"{self.subject}: {len(self.failures)} check(s) failed; first: {head}"
            )

    def __str__(self) -> str:
        if self.ok:
            return f"{self.subject}: ok"
        lines = [f"{self.subject}: {len(self.failures)} failure(s)"]
        lines += [f"  - {f}" for f in self.failures[:20]]
        if len(self.failures) > 20:
            lines.append(f"  ... and {len(self.failures) - 20} more")
        return "\n".join(lines)
