"""Exception types shared across the toolkit; each says whether the input
(an `InputError`, CLI exit 2) or the computation (exit 3) is at fault."""

from __future__ import annotations

from collections import namedtuple


class NpaGraphError(Exception):
    """Base class for all toolkit errors."""


class InputError(NpaGraphError):
    """The input is at fault: a spec, a setting, a file, or a graph a spec
    grows with nothing in it to measure; the CLI exits 2."""


class Violation(namedtuple("Violation", ("code", "message"))):
    """One violated invariant found during model validation: a (code,
    message) tuple."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class ValidationError(InputError):
    """A model spec, a setting checked against one, or a degree
    distribution read from a file violates one or more invariants.

    Carries the full list of violations, not just the first one found.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))

    def __reduce__(self):
        return type(self), (self.violations,)

    def codes(self):
        return [v.code for v in self.violations]


class SolverFailure(NpaGraphError):
    """Base class for analytic-solver errors."""


class NoConvergence(SolverFailure):
    """A solver did not reach its answer: no stationary mean weight could be
    bracketed, a series did not converge, or the increment fit of a
    calibration hit its simplex pivot cap."""


class TruncationTooSevere(SolverFailure):
    """Arc-matrix mass is missing beyond what truncation explains; raise the
    extent u."""


class ZeroTotalWeight(NpaGraphError):
    """Every existing vertex has zero attachment weight; growth cannot proceed."""


class MalformedLine(InputError):
    """An input line could not be parsed: an edge-list line as two integer
    node ids, or a row of a degree-distribution CSV."""

    def __init__(self, line_no: int, content: str):
        self.line_no = line_no
        self.content = content
        super().__init__(f"line {line_no}: cannot parse {content!r}")

    def __reduce__(self):
        return type(self), (self.line_no, self.content)


class EmptyInput(InputError):
    """Nothing to read or measure: an edge list or a degree-distribution
    CSV with no rows, or a graph with no vertex or no edge."""


class InputTooLarge(InputError):
    """A degree-distribution CSV spans more degrees than its dense array can
    hold in memory, or than numpy can index."""


class WindowExceedsMatrix(InputError):
    """Requested degree window is not covered by the matrix extent."""


class InfeasibleComplement(NpaGraphError):
    """The complement's mean has no increment law on [R_MIN, r_max], or is not
    positive at all; the assumed vertex fraction is infeasible."""


class AllRhoInfeasible(NpaGraphError):
    """No candidate vertex fraction admitted a feasible complement."""
