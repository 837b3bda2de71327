"""Check results and reports shared by the validators and the property suite."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named property check.

    ``claim`` is a short self-describing statement of what was asserted
    (it doubles as the provenance column of serialized reports).
    ``status`` is ``ok`` for a real measurement, ``skipped`` when the check
    does not apply and ``inconclusive`` when it could not be decided.

    What ``tolerance`` holds depends on the rule.  The rules that several
    rows share live here: the bound of an upper-bound row (:func:`within`)
    and the first value of a falling sequence (:func:`decreasing`,
    ``inner_slope_mass`` and ``continuation_cauchy``).  Only the
    single-row rules stay in their checks: the bound of the measured part
    of a compound row (``origin_closeness``, ``slope_envelope``), the
    lower bound of ``decay_rate``, the window's upper end of
    ``singularity_exponent``, the target of a stage row
    (``continuation_complete``, a rerun's abort), and ``inf`` for
    ``pointwise_gradient_p28``, which passes when finite.  An unjudged row
    holds NaN.
    """

    name: str
    claim: str
    measured: float
    tolerance: float
    passed: bool
    status: str = "ok"
    extra: dict = field(default_factory=dict)

    def line(self) -> str:
        """One summary line; a ``reason`` in ``extra`` is appended."""
        flag = "PASS" if self.passed else "FAIL"
        if self.status != "ok":
            flag = self.status.upper()
        reason = f" ({self.extra['reason']})" if "reason" in self.extra else ""
        return (
            f"{flag:12s} {self.name:28s} measured={self.measured:.6e} "
            f"tol={self.tolerance:.6e}{reason}"
        )


def within(name: str, claim: str, measured: float, tolerance: float,
           **extra) -> CheckResult:
    """The row of an upper-bound claim: it passes when measured <=
    tolerance, so a NaN measurement fails."""
    return CheckResult(name=name, claim=claim, measured=measured,
                       tolerance=tolerance, passed=bool(measured <= tolerance),
                       extra=extra)


def decreasing(name: str, claim: str, seq, **extra) -> CheckResult:
    """The row of a falling-sequence claim: it passes when ``seq`` holds at
    least two values and each is below the one before, so a NaN fails.
    The last value is measured and the first the tolerance (NaN for an
    empty sequence)."""
    seq = list(seq)
    nan = float("nan")
    return CheckResult(name=name, claim=claim,
                       measured=seq[-1] if seq else nan,
                       tolerance=seq[0] if seq else nan,
                       passed=len(seq) >= 2 and all(
                           b < a for a, b in zip(seq, seq[1:])),
                       extra=extra)


@dataclass
class VerificationReport:
    """Ordered collection of check results."""

    checks: list[CheckResult] = field(default_factory=list)

    def add(self, result: CheckResult) -> CheckResult:
        self.checks.append(result)
        return result

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks if c.status == "ok")

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed and c.status == "ok"]

    def summary(self) -> str:
        return "\n".join(c.line() for c in self.checks)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["name", "claim", "measured", "tolerance", "pass", "status"]
            )
            for c in self.checks:
                writer.writerow(
                    [
                        c.name,
                        c.claim,
                        f"{c.measured:.17g}",
                        f"{c.tolerance:.17g}",
                        str(c.passed).lower(),
                        c.status,
                    ]
                )

    def write_json(self, path) -> None:
        """One object per row: its name, status and ``extra``, keys sorted.
        A non-finite float is written as the string "nan", "inf" or
        "-inf", so the file is strict JSON."""
        rows = [{"name": c.name, "status": c.status, "extra": _strict(c.extra)}
                for c in self.checks]
        with open(path, "w") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")


def _strict(value):
    """``value`` with tuples as lists and non-finite floats as strings."""
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(float(value))
    return value
