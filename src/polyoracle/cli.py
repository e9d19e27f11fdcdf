"""Command-line surface.

Exit codes: 0 success (and "yes" where the subcommand is a decision);
1 problem-level "no" or verification failure; 2 usage or input errors;
3 cap or precondition errors.  Malformed input never produces a traceback.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from typing import Sequence

from . import circuits, localsubset, oracle, permanent, polynomials, setcover
from .errors import CapExceeded, PolyOracleError, PreconditionViolated, ValueOutOfRange
from .errors import int_list, json_field, json_int, json_list, json_object
from .problems import PROBLEMS, build_problem


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None


def _cmd_solve(args: argparse.Namespace) -> int:
    spec, inst = build_problem(args.problem, _load_json(args.input))
    log = oracle.OracleCallLog()
    start = time.perf_counter()
    if args.method == "brute":
        answer = localsubset.brute_solve(spec, inst)
    else:
        wrapped = oracle.logging_oracle(localsubset.exact_evaluation_oracle, log)
        answer = localsubset.solve_via_oracle(spec, inst, args.theta, wrapped)
    wall = time.perf_counter() - start
    if args.report:
        report = io.StringIO()  # written in full, so a failure leaves no file behind
        oracle.dump_report(report, spec.name, inst, answer, log, wall)
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report.getvalue())
    print(f"{spec.name}: {'yes' if answer else 'no'} (oracle cost {log.total_cost})")
    return 0 if answer else 1


def _cmd_formulate(args: argparse.Namespace) -> int:
    if args.input:
        data = _load_json(args.input)
    else:
        data = PROBLEMS[args.problem].default_input
        if data is None:
            raise ValueOutOfRange(f"problem {args.problem!r} needs --input to fix its parameters")
    spec, _ = build_problem(args.problem, data)
    poly = localsubset.formulation_polynomial(spec, args.size, args.theta)
    with open(args.out, "w", encoding="utf-8") as handle:
        polynomials.dump(poly, handle)
        handle.write("\n")
    print(f"wrote {len(poly.terms)} monomials over {poly.num_vars} variables to {args.out}")
    return 0


def _cmd_verify_circuit(args: argparse.Namespace) -> int:
    circuit = circuits.from_json_dict(_load_json(args.circuit))
    target = polynomials.from_json_dict(_load_json(args.poly))
    result = circuits.verify_circuit(circuit, target, args.delta)
    print(f"verify: {result.reason}")
    return 0 if result.accepted else 1


def _cmd_permanent(args: argparse.Namespace) -> int:
    with open(args.matrix, "r", encoding="utf-8") as handle:
        matrix = permanent.matrix_from_text(handle.read())
    if args.method == "brute":
        value = permanent.permanent_brute(matrix)
    else:
        value = permanent.permanent_via_formulation(matrix, args.alpha, args.theta)
    print(value)
    return 0


def _cmd_setcover(args: argparse.Namespace) -> int:
    data = json_object(_load_json(args.input))
    sets = [int_list(elements) for elements in json_list(json_field(data, "sets"))]
    n = json_int(json_field(data, "n"))
    minimum = setcover.setcover_min_of_lists(n, sets, args.method, args.theta)
    if minimum is None:
        print("uncoverable")
        return 1
    print(minimum)
    return 0


def _cmd_bench_vars(args: argparse.Namespace) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    result = oracle.bench_vars(args.problem, args.theta, sizes, r=args.r)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(result.to_csv())
    print(f"slope={result.slope:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polyoracle")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="decide a local-subset instance")
    solve.add_argument("--problem", required=True, choices=sorted(PROBLEMS))
    solve.add_argument("--input", required=True)
    solve.add_argument("--method", choices=["brute", "formulation"], default="formulation")
    solve.add_argument("--theta", type=int, default=2)
    solve.add_argument("--report")
    solve.set_defaults(fn=_cmd_solve)

    formulate = sub.add_parser("formulate", help="emit the literal formulation polynomial")
    formulate.add_argument("--problem", required=True, choices=sorted(PROBLEMS))
    formulate.add_argument("--input", help="natural input fixing problem parameters")
    formulate.add_argument("--size", type=int, required=True)
    formulate.add_argument("--theta", type=int, default=1)
    formulate.add_argument("--out", required=True)
    formulate.set_defaults(fn=_cmd_formulate)

    verify = sub.add_parser("verify-circuit", help="verify a circuit against a polynomial")
    verify.add_argument("--circuit", required=True)
    verify.add_argument("--poly", required=True)
    verify.add_argument("--delta", type=int, required=True)
    verify.set_defaults(fn=_cmd_verify_circuit)

    perm = sub.add_parser("permanent", help="binary permanent")
    perm.add_argument("--matrix", required=True)
    perm.add_argument("--method", choices=["brute", "formulation"], default="formulation")
    perm.add_argument("--alpha", type=float, default=0.5)
    perm.add_argument("--theta", type=int, default=2)
    perm.set_defaults(fn=_cmd_permanent)

    cover = sub.add_parser("setcover", help="minimum set cover")
    cover.add_argument("--input", required=True)
    cover.add_argument("--method", choices=["brute", "reduction"], default="reduction")
    cover.add_argument("--theta", type=int, default=1)
    cover.set_defaults(fn=_cmd_setcover)

    bench = sub.add_parser("bench-vars", help="variable-count scaling table")
    bench.add_argument("--problem", required=True, choices=sorted(PROBLEMS))
    bench.add_argument("--theta", type=int, required=True)
    bench.add_argument("--sizes", required=True, help="comma-separated ascending sizes")
    bench.add_argument("--r", type=int, default=None)
    bench.add_argument("--out")
    bench.set_defaults(fn=_cmd_bench_vars)

    return parser


def run_cli(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (CapExceeded, PreconditionViolated) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PolyOracleError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
