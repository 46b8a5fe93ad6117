"""Command-line interface.

Subcommands: solve, probs, variance, experiment, compare-mls, selfcheck.
Data (CSV records) goes to stdout, diagnostics to stderr. Exit codes:
0 success, 1 usage error, 2 numerical failure, 3 I/O failure. Every
randomized path takes an explicit seed; nothing is seeded from the clock.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from . import selfcheck
from .errors import FileFormatError, TlsqError
from .experiments import (
    METHOD_KINDS,
    ConfigError,
    build_distribution,
    parse_config_file,
    run_experiment,
    run_mls_comparison,
    write_report,
)
from .sampling import draw_plan, write_distribution_csv
from .solver import TlsProblem, solve_ols, solve_subsampled
from .stats import variance_report
from .tensor import read_tensor, write_tensor


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract reserves 2 for
    # numerical failures, so remap usage problems to exit code 1.
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


_FORMATS = """\
file formats:
  .tt tensors   magic "TTEN", u32 LE version 1, n/p/l as u64 LE, then n*p*l
                float64 LE values, slice-major with the row index fastest.
  config files  flat key=value lines ('#' comments): n, p, l, design
                (mn|t3|t1), sigma2, replicates, taus=150,300,..., methods=
                unif,lev,slev,opt, alpha, seed (required, >= 0), smls (off|
                same_tau|l_times_tau), mode (unconditional|conditional),
                redraw_design (0|1), timing (0|1). compare-mls reads the
                same file and honours redraw_design, but ignores smls and
                timing (it always times its cells) and runs only the unif
                and lev methods.
  reports       CSV: method,tau,smrfv,smre,ssb,sv,smse,mean_ms,replicates,
                failures. TLSQ_THREADS, a positive integer, caps replicate
                parallelism, as do the ceil(replicates / 8) chunks. A
                second thread pays on compare-mls's matrix cells, whose QR
                calls pass numpy's 500 interpreter-lock threshold, not on
                the tensor grid. A pool wants OPENBLAS_NUM_THREADS=1.

exit codes: 0 success, 1 usage error, 2 numerical failure or a run too large
for memory (such as a huge --tau or replicates), 3 I/O failure.
"""


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="tlsq",
        description=__doc__.splitlines()[0],
        epilog=_FORMATS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("solve", help="solve a tensor least-squares problem")
    sp.add_argument("--design", required=True, help="design tensor (.tt file, n x p x l)")
    sp.add_argument("--response", required=True, help="response tensor (.tt file, n x 1 x l)")
    sp.add_argument(
        "--method",
        required=True,
        choices=("ols",) + METHOD_KINDS,
        help="exact solve or one of the subsampling distributions",
    )
    sp.add_argument("--alpha", type=float, default=0.9, help="shrinkage weight for slev")
    sp.add_argument("--tau", type=int, help="sample size (required unless method=ols)")
    sp.add_argument("--seed", type=int, help="plan seed (required unless method=ols)")
    sp.add_argument("--out", required=True, help="where to write the solution (.tt)")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("probs", help="emit sampling probabilities as CSV")
    sp.add_argument("--design", required=True)
    sp.add_argument("--method", required=True, choices=METHOD_KINDS)
    sp.add_argument("--alpha", type=float, default=0.9)
    sp.set_defaults(func=_cmd_probs)

    sp = sub.add_parser(
        "variance", help="closed-form variance traces as CSV"
    )
    sp.add_argument("--design", required=True)
    sp.add_argument("--response", required=True)
    sp.add_argument("--method", required=True, choices=METHOD_KINDS)
    sp.add_argument("--alpha", type=float, default=0.9)
    sp.add_argument("--tau", type=int, required=True)
    sp.add_argument(
        "--sigma2",
        type=float,
        required=True,
        help="noise variance of one tube, E[e * e^T] = sigma2 I; "
        "for i.i.d. N(0, s2) entries pass l * s2",
    )
    sp.set_defaults(func=_cmd_variance)

    sp = sub.add_parser("experiment", help="run a replicated benchmark")
    sp.add_argument("--config", required=True, help="flat key=value config file")
    sp.add_argument("--out", required=True, help="CSV report path")
    sp.set_defaults(func=_cmd_report)

    sp = sub.add_parser(
        "compare-mls",
        help="tensor solver vs flattened matrix baseline at tau and l*tau",
    )
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_report)

    sp = sub.add_parser("selfcheck", help="run the oracle equivalence suites")
    sp.set_defaults(func=_cmd_selfcheck)
    return parser


def _check(args, flag: str, ok: bool, rule: str) -> None:
    """Reject an out-of-range flag value as a usage error that names the flag."""
    if not ok:
        value = getattr(args, flag.lstrip("-"))
        raise _UsageError(f"tlsq {args.command}: {flag} must be {rule}, got {value}")


def _check_alpha(args) -> None:
    _check(args, "--alpha", args.method != "slev" or 0.0 < args.alpha < 1.0, "in (0, 1) for slev")


def _cmd_solve(args) -> int:
    x = read_tensor(args.design)
    if args.method != "ols":
        if args.tau is None or args.seed is None:
            raise _UsageError("tlsq solve: --tau and --seed are required for subsampling methods")
        p = x.shape[1]
        _check(args, "--tau", args.tau >= p, f"at least p={p}")
        _check(args, "--seed", args.seed >= 0, "nonnegative")
        _check_alpha(args)
    prob = TlsProblem(x, read_tensor(args.response))
    ols = args.method == "ols"
    dist = None if ols else build_distribution(prob, args.method, args.alpha)
    start = time.perf_counter()  # the plan draw, if any, and the solve
    sol = solve_ols(prob) if ols else solve_subsampled(prob, draw_plan(dist, args.tau, args.seed))
    wall_ms = (time.perf_counter() - start) * 1e3
    write_tensor(sol.b, args.out)
    print(f"{args.method},{'' if ols else args.tau},{sol.objective:.17g},{wall_ms:.6g}")
    return 0


def _cmd_probs(args) -> int:
    _check_alpha(args)
    dist = build_distribution(read_tensor(args.design), args.method, args.alpha)
    write_distribution_csv(dist, sys.stdout)
    return 0


def _cmd_variance(args) -> int:
    _check(args, "--tau", args.tau >= 1, "at least 1")
    _check(args, "--sigma2", 0.0 < args.sigma2 < math.inf, "positive and finite")
    _check_alpha(args)
    prob = TlsProblem(read_tensor(args.design), read_tensor(args.response))
    dist = build_distribution(prob, args.method, args.alpha)
    report = variance_report(prob, dist, args.tau, args.sigma2)
    print("method,tau,trace_conditional_fo,trace_unconditional_fo")
    print(
        f"{args.method},{args.tau},"
        f"{report.trace_conditional:.17g},{report.trace_unconditional:.17g}"
    )
    return 0


def _cmd_report(args) -> int:
    run = run_experiment if args.command == "experiment" else run_mls_comparison
    write_report(run(parse_config_file(args.config)), args.out)
    return 0


def _cmd_selfcheck(args) -> int:
    return 0 if selfcheck.run(sys.stdout) else 2


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TlsqError, ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
