"""Command-line interface: factor, extend, verify, selftest.

Exit status 0 means every verification passed; 1 is a structured module
error (rank, pattern, convexity, ...); 2 is an input parsing problem.
Verbosity is controlled by the NNF_LOG environment variable
(off | info | debug), logging to stderr so stdout stays byte-stable.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .driver import nn_factor, verify_factorization
from .errors import ExactNMFError, ParseError
from .polygon import build_extension, verify_extension
from .selftest import run_selftest
from .serialize import (
    certificate_from_jsonable,
    certificate_to_jsonable,
    dumps,
    formulation_from_jsonable,
    formulation_to_jsonable,
    load_json,
    load_matrix_file,
    polygon_from_jsonable,
    save_text,
)

log = logging.getLogger("exactnmf")


def _configure_logging():
    level_name = os.environ.get("NNF_LOG", "off").lower()
    levels = {"off": logging.CRITICAL + 10, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        print(f"warning: unknown NNF_LOG level {level_name!r}; using off", file=sys.stderr)
        level_name = "off"
    logging.basicConfig(stream=sys.stderr, level=levels[level_name], format="%(message)s")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactnmf",
        description=(
            "Exact nonnegative factorization of rank<=3 matrices and "
            "compact lifted descriptions of convex polygons."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_factor = sub.add_parser("factor", help="factor a nonnegative matrix exactly")
    p_factor.add_argument("--input", required=True, help="matrix file (JSON or CSV)")
    p_factor.add_argument("--output", required=True, help="certificate file to write")
    p_factor.add_argument(
        "--format", choices=("json", "csv"), default=None,
        help="input format (default: inferred from the extension)",
    )

    p_extend = sub.add_parser("extend", help="build a lifted polygon description")
    p_extend.add_argument("--input", required=True, help="polygon JSON file")
    p_extend.add_argument("--output", required=True, help="formulation file to write")

    p_verify = sub.add_parser("verify", help="re-verify a stored certificate")
    p_verify.add_argument("--input", required=True, help="matrix or polygon file")
    p_verify.add_argument("--cert", required=True, help="certificate or formulation file")
    p_verify.add_argument(
        "--format", choices=("json", "csv"), default=None,
        help="matrix input format (default: inferred from the extension)",
    )

    p_selftest = sub.add_parser("selftest", help="run the seeded end-to-end checks")
    p_selftest.add_argument("--iterations", type=int, default=200)
    p_selftest.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_factor(args) -> int:
    matrix = load_matrix_file(args.input, args.format or "auto")
    # nn_factor raises InternalError unless its closing verification passed.
    fact = nn_factor(matrix)
    save_text(args.output, dumps(certificate_to_jsonable(fact)))
    print(
        f"factored {matrix.rows}x{matrix.cols} matrix: inner dimension "
        f"{fact.inner_dim} (bound {fact.bound})"
    )
    print("verification: all checks passed")
    return 0


def _cmd_extend(args) -> int:
    poly = polygon_from_jsonable(load_json(args.input))
    # verify_extension is nn_factor's closing verify_factorization of (T, lifts)
    # plus a facet check, and C, beta are the polygon's facets: nothing to redo.
    ef = build_extension(poly)
    save_text(args.output, dumps(formulation_to_jsonable(ef)))
    print(f"{poly.n}-gon described with {ef.k} inequalities")
    print("verification: all checks passed")
    return 0


def _cmd_verify(args) -> int:
    cert_obj = load_json(args.cert)
    if not isinstance(cert_obj, dict):
        raise ParseError(f"{args.cert} does not contain a certificate object")
    if "left" in cert_obj and "right" in cert_obj:
        matrix = load_matrix_file(args.input, args.format or "auto")
        fact = certificate_from_jsonable(cert_obj)
        report = verify_factorization(matrix, fact)
    elif "T" in cert_obj and "lifts" in cert_obj:
        poly = polygon_from_jsonable(load_json(args.input))
        ef = formulation_from_jsonable(cert_obj)
        report = verify_extension(poly, ef)
    else:
        raise ParseError(
            f"{args.cert} is neither a factorization certificate nor a formulation"
        )
    print(f"verification: {report}")
    return 0 if report.ok else 1


def _cmd_selftest(args) -> int:
    ok = run_selftest(seed=args.seed, iterations=args.iterations)
    return 0 if ok else 1


def run(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    handlers = {
        "factor": _cmd_factor,
        "extend": _cmd_extend,
        "verify": _cmd_verify,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except ParseError as exc:
        print(f"error: ParseError: {exc}", file=sys.stderr)
        return 2
    except ExactNMFError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
