"""Oracle-call cost accounting, scaling benchmarks, machine-readable reports.

The cost model charges each size-s oracle call exactly s, the declared
evaluation price of the size-s member of the polynomial family; wall time is
reported separately and never conflated with the charge.  Argument
magnitudes, read from the query's point x, above a fixed bound of the call
size are flagged, not rejected.  Every query ``solve_via_oracle`` builds is
the 0/1 point phi(inst), so the flag fires only for a query built by hand.
The default bound 2**ceil(s**0.9) is a documented finite stand-in for the
family's asymptotic magnitude discipline, decided by bit length so the bound
itself is never built.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import ValueOutOfRange
from .localsubset import FormulationQuery, LSInstance, Oracle, instance_to_json_dict, variable_count
from .problems import PROBLEMS


def exceeds_magnitude_bound(magnitude: int, size: int) -> bool:
    """magnitude > 2**ceil(s**0.9), the finite stand-in for the oracle
    magnitude discipline, compared by bit length: for magnitude >= 1,
    magnitude > 2**e iff magnitude - 1 needs more than e bits."""
    return magnitude > 0 and (magnitude - 1).bit_length() > math.ceil(size**0.9)


@dataclass(frozen=True)
class OracleCallRecord:
    size: int
    max_arg_magnitude: int
    result_nonzero: bool
    magnitude_flagged: bool = False

    @property
    def charged_cost(self) -> int:
        """Each size-s call is charged exactly s."""
        return self.size


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
    """Wrap an oracle so every call lands in the log with its POTIME charge.

    A call is flagged when its max argument magnitude exceeds
    2**ceil(size**0.9).
    """

    def wrapped(query: FormulationQuery) -> int:
        result = inner(query)
        magnitude = query.max_abs_value
        log.records.append(
            OracleCallRecord(
                size=query.size,
                max_arg_magnitude=magnitude,
                result_nonzero=result != 0,
                magnitude_flagged=exceeds_magnitude_bound(magnitude, query.size),
            )
        )
        return result

    return wrapped


@dataclass(frozen=True)
class BenchResult:
    problem: str
    theta: int
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
    xs = [math.log(s) for s, _ in rows]
    ys = [math.log(count) for _, count in rows]
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / sum(
        (x - x_mean) ** 2 for x in xs
    )
    return BenchResult(problem=problem, theta=theta, rows=rows, slope=slope)


@dataclass
class RunReport:
    """One solve, serialized deterministically for golden-file comparison."""

    problem: str
    instance_digest: str
    answer: bool
    total_oracle_cost: int
    calls: list[OracleCallRecord]
    wall_time_seconds: float

    def to_json_dict(self) -> dict:
        return {
            "answer": self.answer,
            "calls": [
                {
                    "charged_cost": record.charged_cost,
                    "magnitude_flagged": record.magnitude_flagged,
                    "max_arg_magnitude": str(record.max_arg_magnitude),
                    "result_nonzero": record.result_nonzero,
                    "size": record.size,
                }
                for record in self.calls
            ],
            "instance_digest": self.instance_digest,
            "problem": self.problem,
            "total_oracle_cost": self.total_oracle_cost,
            "wall_time_seconds": round(self.wall_time_seconds, 6),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_json_dict(data: dict) -> "RunReport":
        calls = []
        for c in data["calls"]:
            if int(c["charged_cost"]) != int(c["size"]):
                raise ValueOutOfRange("charged cost must equal call size")
            calls.append(
                OracleCallRecord(
                    size=int(c["size"]),
                    max_arg_magnitude=int(c["max_arg_magnitude"]),
                    result_nonzero=bool(c["result_nonzero"]),
                    magnitude_flagged=bool(c["magnitude_flagged"]),
                )
            )
        return RunReport(
            problem=data["problem"],
            instance_digest=data["instance_digest"],
            answer=bool(data["answer"]),
            total_oracle_cost=int(data["total_oracle_cost"]),
            calls=calls,
            wall_time_seconds=float(data["wall_time_seconds"]),
        )


def instance_digest(problem: str, inst: LSInstance) -> str:
    payload = json.dumps(instance_to_json_dict(problem, inst), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def timed(fn: Callable[[], bool]) -> tuple[bool, float]:
    start = time.perf_counter()
    answer = fn()
    return answer, time.perf_counter() - start
