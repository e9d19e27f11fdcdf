"""Oracle-call cost accounting, scaling benchmarks, and the solve report.

The cost model charges each size-s oracle call exactly s, the declared
evaluation price of the size-s member of the polynomial family; wall time is
reported separately and never conflated with the charge.  Argument
magnitudes, read from the query's point x, above a fixed bound of the call
size are flagged, not rejected.  A ``FormulationQuery`` holds the 0/1 point
phi(inst), so the flag fires only for another query object.
The default bound 2**ceil(s**0.9) is a documented finite stand-in for the
family's asymptotic magnitude discipline, decided in integers from the
magnitude's bit length, so neither the bound nor s**0.9 is ever built.

``OracleCallLog`` is the one record of a solve's calls; ``dump_report``
writes ``solve --report`` straight from it (its layout is in the README).
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from typing import Sequence, TextIO

from .errors import ValueOutOfRange
from .localsubset import FormulationQuery, LSInstance, Oracle, variable_count
from .problems import PROBLEMS


def exceeds_magnitude_bound(magnitude: int, size: int) -> bool:
    """magnitude > 2**ceil(s**0.9), the finite stand-in for the oracle
    magnitude discipline, decided in integers: for magnitude >= 1,
    magnitude > 2**e iff b = (magnitude - 1).bit_length() > e, and for an
    integer b >= 1, b - 1 >= ceil(s**0.9) iff (b - 1)**10 >= s**9."""
    bits = (magnitude - 1).bit_length()
    return magnitude > 1 and (bits - 1) ** 10 >= size**9


@dataclass(frozen=True)
class OracleCallRecord:
    size: int
    max_arg_magnitude: int
    result_nonzero: bool

    @property
    def charged_cost(self) -> int:
        """Each size-s call is charged exactly s."""
        return self.size

    @property
    def magnitude_flagged(self) -> bool:
        """Whether the call's largest argument passes the default bound."""
        return exceeds_magnitude_bound(self.max_arg_magnitude, self.size)


@dataclass
class OracleCallLog:
    """Append-only call history; the one mutable object in the harness.

    Appends must come from a single writer (share one log per solve); every
    other harness path is pure.
    """

    records: list[OracleCallRecord] = field(default_factory=list)

    @property
    def total_cost(self) -> int:
        return sum(record.size for record in self.records)


def logging_oracle(inner: Oracle, log: OracleCallLog) -> Oracle:
    """Wrap an oracle so every call lands in the log with its POTIME charge."""

    def wrapped(query: FormulationQuery) -> int:
        result = inner(query)
        log.records.append(OracleCallRecord(query.size, query.max_abs_value, result != 0))
        return result

    return wrapped


@dataclass(frozen=True)
class BenchResult:
    rows: tuple[tuple[int, int], ...]  # (size, variable count)
    slope: float

    def to_csv(self) -> str:
        lines = ["s,variables"]
        lines.extend(f"{s},{count}" for s, count in self.rows)
        return "\n".join(lines) + "\n"


def bench_vars(problem: str, theta: int, sizes: Sequence[int], r: int | None = None) -> BenchResult:
    """Exact variable counts over a size grid plus the fitted log-log slope."""
    if len(sizes) < 4 or list(sizes) != sorted(set(sizes)):
        raise ValueOutOfRange("need at least 4 strictly ascending sizes")
    if r is None:
        definition = PROBLEMS.get(problem)
        if definition is None or definition.bench_r is None:
            raise ValueOutOfRange(
                f"problem {problem!r} has no fixed universe exponent; pass r explicitly"
            )
        r = definition.bench_r
    rows = tuple((s, variable_count(s, r, theta)) for s in sizes)
    slope, _ = statistics.linear_regression(
        [math.log(s) for s, _ in rows], [math.log(count) for _, count in rows]
    )
    return BenchResult(rows=rows, slope=slope)


def instance_digest(problem: str, inst: LSInstance) -> str:
    """The first 16 hex digits of the SHA-256 of the instance as sorted-key
    JSON {"problem", "n", "elements"}."""
    instance = {"problem": problem, "n": inst.n, "elements": list(inst.elements)}
    payload = json.dumps(instance, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def dump_report(
    handle: TextIO, problem: str, inst: LSInstance, answer: bool, log: OracleCallLog, wall: float
) -> None:
    """Write one solve's report from its call log as sorted-key JSON indented
    by 2, with a trailing newline; the wall time is rounded to 6 places."""
    calls = [
        {
            "charged_cost": record.charged_cost,
            "magnitude_flagged": record.magnitude_flagged,
            "max_arg_magnitude": str(record.max_arg_magnitude),
            "result_nonzero": record.result_nonzero,
            "size": record.size,
        }
        for record in log.records
    ]
    report = {
        "answer": answer,
        "calls": calls,
        "instance_digest": instance_digest(problem, inst),
        "problem": problem,
        "total_oracle_cost": log.total_cost,
        "wall_time_seconds": round(wall, 6),
    }
    json.dump(report, handle, sort_keys=True, indent=2)
    handle.write("\n")
