"""Command-line interface: classify, decompose, check, gen, selftest.

`check` proves the decomposition through its witness when the file carries
both P and Pinv (`verify_certificate`: P*Pinv = I, N1 + N2 = M, P*N1*Pinv
strictly upper, P*N2*Pinv strictly lower; a failure prints its reason as an
`error:` line after INVALID), and by powering N1 and N2 when it carries no
witness (`verify_decomposition`).

Exit codes: 0 success / decision yes; 1 `check` found the certificate
INVALID (or `selftest` failed); 2 parse or invalid-request error (also a
malformed rational, an exponent beyond 4300 in magnitude, or an algebra
parameter whose |numerator|*denominator exceeds 64 bits); 3 decision
no; 4 the requested algebra is not a division algebra; 5 a construction
search ran out (SearchBudgetExceeded: the end of a fixed candidate list, or
the trial-decision cap that non-cyclic corner vectors spend at n >= 4; the
decision never runs out); 6 a certificate failed its final
check (CertificateError, a defect in the library).  Errors print one
`error:` line.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .classify import Verdict, is_sum_of_two_nilpotents
from .decompose import certificate_defect, decompose_two_nilpotents, verify_decomposition
from .errors import (
    CertificateError,
    NotDivisionAlgebraError,
    ParameterError,
    ParseError,
    PreconditionError,
    SearchBudgetExceeded,
)
from .gen import InstanceSpec, generate
from .qcore import AlgebraParams, rat
from .selftest import run_selftest

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_NO = 3
EXIT_SPLIT_ALGEBRA = 4
EXIT_SEARCH_BUDGET = 5
EXIT_CERTIFICATE = 6


def _load_matrix(path: str):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    return jsonio.matrix_from_json(data)


def _parse_algebra(text: str) -> AlgebraParams:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError("algebra must be given as 'a,b'")
    return AlgebraParams(rat(parts[0].strip()), rat(parts[1].strip()))


def _dump(data: dict, path: str | None):
    text = json.dumps(data, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_classify(args) -> int:
    m = _load_matrix(args.input)
    decision = is_sum_of_two_nilpotents(m)
    cls = decision.classification
    if args.format == "json":
        _dump(
            {
                "classification": jsonio.classification_to_json(cls),
                "decision": jsonio.decision_to_json(decision),
            },
            args.output,
        )
    else:
        line = f"verdict={cls.verdict.value}"
        if cls.verdict == Verdict.TYPE_II:
            line += f", supertrace={cls.type_ii.supertrace}"
        line += f", decision={'YES' if decision.answer else 'NO'}"
        line += f", reason={decision.reason.value}"
        print(line)
    return EXIT_OK if decision.answer else EXIT_NO


def cmd_decompose(args) -> int:
    m = _load_matrix(args.input)
    decision = is_sum_of_two_nilpotents(m)
    if not decision.answer:
        print(
            f"NO: not a sum of two nilpotent matrices (reason: {decision.reason.value})",
            file=sys.stderr,
        )
        _dump({"decision": jsonio.decision_to_json(decision)}, args.output)
        return EXIT_NO
    dec = decompose_two_nilpotents(m)
    _dump(jsonio.decomposition_to_json(dec), args.output)
    print(f"YES: decomposition verified for a {m.rows}x{m.cols} matrix")
    return EXIT_OK


def cmd_check(args) -> int:
    m = _load_matrix(args.matrix)
    try:
        with open(args.decomposition) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{args.decomposition}: {exc}") from exc
    try:
        dec = jsonio.decomposition_from_json(data)
    except PreconditionError as exc:  # P and Pinv are not square matrices of one size
        print("INVALID")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    if (dec.n1.rows, dec.n1.cols) != (m.rows, m.cols):
        raise ParseError("decomposition shape does not match the matrix")
    defect = None
    if dec.witness is None:
        good = verify_decomposition(m, dec.n1, dec.n2)
    elif dec.witness.P.rows != m.rows:
        raise ParseError("witness size does not match the matrix")
    else:
        defect = certificate_defect(m, dec.n1, dec.n2, dec.witness)
        good = defect is None
    print("OK" if good else "INVALID")
    if defect is not None:
        print(f"error: {defect}", file=sys.stderr)
    return EXIT_OK if good else EXIT_FAILED


def cmd_gen(args) -> int:
    algebra = _parse_algebra(args.algebra)
    spec = InstanceSpec(
        algebra=algebra,
        n=args.size,
        kind=args.kind,
        seed=args.seed,
        height=args.height,
        lam=rat(args.lam) if args.lam is not None else None,
        rep=jsonio.quaternion_from_json(args.rep.split(","), algebra)
        if args.rep is not None
        else None,
    )
    m = generate(spec)
    _dump(jsonio.matrix_to_json(m), args.output)
    return EXIT_OK


def cmd_selftest(args) -> int:
    failures = run_selftest(quick=args.quick, seed=args.seed)
    print(f"{'OK' if failures == 0 else 'FAILED'}: {failures} criterion failures")
    return EXIT_OK if failures == 0 else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatnil",
        description="Decide and construct sums of two nilpotent matrices over "
        "rational quaternion division algebras, with exact certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a matrix and decide decomposability")
    p.add_argument("--input", "-i", required=True, help="matrix JSON file")
    p.add_argument("--output", "-o", help="write the JSON report here instead of stdout")
    p.add_argument("--format", choices=("json", "pretty"), default="pretty")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("decompose", help="produce two nilpotent summands with certificate")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--output", "-o", help="decomposition JSON output path")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("check", help="verify a decomposition file against a matrix file")
    p.add_argument("matrix", help="matrix JSON file")
    p.add_argument("decomposition", help="decomposition JSON file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="generate a deterministic test instance")
    p.add_argument("--kind", required=True,
                   choices=("generic-trace-zero", "type-I", "type-II", "type-III", "random"))
    p.add_argument("--size", "-n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--height", type=int, default=2)
    p.add_argument("--algebra", default="-1,-1", help="algebra parameters 'a,b'")
    p.add_argument("--lam", help="scalar part for type-I / type-II")
    p.add_argument("--rep", help="quaternion 'w,x,y,z' (type-II image eigenvalue, type-III eigenvalue)")
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--quick", action="store_true", help="reduced instance counts")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotDivisionAlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPLIT_ALGEBRA
    except (ParseError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SearchBudgetExceeded as exc:
        print(f"error: search budget exceeded: {exc}", file=sys.stderr)
        return EXIT_SEARCH_BUDGET
    except CertificateError as exc:
        print(f"error: certificate check failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE


if __name__ == "__main__":
    sys.exit(main())
