"""Campaign runner.

Subcommands expose the verifiers with reproducible seeds and JSON or
text reports:

    daggerlab verify-axioms --field C --dims 0,1,2,3 --seed 7
    daggerlab lemmas --field C --seed 42 --format json --out report.json
    daggerlab reconstruct --field H
    daggerlab sqrt --input unitary.json
    daggerlab span --dims 2,3,4,5 --seed 1

Exit codes: 0 all checks pass, 1 a genuine violation (expected for the
real and quaternion fields on the square-root axiom), 2 input errors,
3 a check reached no verdict, because it raised or drew no sample (its
report has status "error"; this wins over 1).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import projspan
from .axioms import strict_sqrt_complex
from .campaigns import (
    CampaignConfig,
    run_axiom_suite,
    run_lemma_suite,
    run_reconstruction_suite,
)
from .errors import DaggerLabError, DomainError
from .matcat import Morphism, is_dagger_iso
from .reports import ERROR, PASS
from .scalars import Field, TolerancePolicy

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_ERROR = 3


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad dimension list {text!r}") from exc
    if any(d < 0 for d in dims) or not dims:
        raise argparse.ArgumentTypeError("dimensions must be natural numbers")
    return dims


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad integer {text!r}") from exc
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
_seed = _int_at_least(0)  # numpy seeds its generators from natural numbers only


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from exc
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text!r}")
    return value


def _add_common(parser: argparse.ArgumentParser, default_dims: str) -> None:
    parser.add_argument("--dims", type=_parse_dims, default=_parse_dims(default_dims))
    parser.add_argument(
        "--seed",
        type=_seed,
        # a string default goes through `type` at parse time, so a bad
        # DAGGERLAB_SEED is an input error (exit 2), reported by argparse
        default=os.environ.get("DAGGERLAB_SEED", "0"),
        help="campaign seed (falls back to DAGGERLAB_SEED, then 0)",
    )
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    parser.add_argument("--format", choices=["json", "text"], default="text")


def _add_tolerances(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol-abs", type=_tolerance, default=1e-9)
    parser.add_argument("--tol-rel", type=_tolerance, default=1e-9)


def _add_suite(parser: argparse.ArgumentParser, default_dims: str) -> None:
    _add_common(parser, default_dims)
    parser.add_argument("--field", choices=["R", "C", "H"], default="C")
    parser.add_argument("--trials", type=_positive_int, default=None,
                        help="override the per-check sample counts")
    _add_tolerances(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daggerlab",
        description="verification campaigns for the matrix dagger category model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-axioms", help="run the H1-H5 axiom suites")
    _add_suite(p, "0,1,2,3,4")

    p = sub.add_parser("lemmas", help="run every invariant campaign")
    _add_suite(p, "0,1,2,3,4,5,6")

    p = sub.add_parser("reconstruct", help="run the scalar-field and Hermitian-space suites")
    _add_suite(p, "1,2,3,4,5,6")

    # saturation is a statement over C with no sample count, and its
    # span rank reads no tolerance
    p = sub.add_parser("span", help="projection-word saturation reports")
    _add_common(p, "1,2,3,4,5")
    p.add_argument("--max-len", type=_positive_int, default=projspan.DEFAULT_MAX_LEN)

    p = sub.add_parser("sqrt", help="strict square root certificate for a unitary")
    p.add_argument("--input", default="-", help="morphism JSON file, '-' for stdin")
    p.add_argument("--out", default=None)
    _add_tolerances(p)
    return parser


def _config(args: argparse.Namespace) -> CampaignConfig:
    return CampaignConfig(
        field=Field.from_name(args.field),
        dims=args.dims,
        seed=args.seed,
        trials=args.trials,
        tol=TolerancePolicy(args.tol_abs, args.tol_rel),
    )


def _write(out: str | None, body: str) -> int:
    """Write a report to the file `out`, or to stdout without one; a
    file that cannot be written is an input error, named in one line."""
    if not out:
        sys.stdout.write(body)
        return EXIT_OK
    try:
        with open(out, "w") as fh:
            fh.write(body)
    except OSError as exc:
        print(f"cannot write the report to {out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str]) -> int:
    if args.format == "json":
        body = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        body = "".join(line + "\n" for line in text_lines)
    return _write(args.out, body)


def _suite_command(args: argparse.Namespace, runner) -> int:
    cfg = _config(args)
    # text to stdout streams per-check lines live; JSON streams progress
    # to stderr and emits the whole report at the end
    live_to_stdout = args.format == "text" and not args.out
    stream = sys.stdout if live_to_stdout else sys.stderr
    reports = runner(cfg, stream=stream)
    payload = {
        "command": args.command,
        "field": cfg.field.value,
        "seed": cfg.seed,
        "dims": list(cfg.dims),
        "tolerance": {"abs": cfg.tol.abs_eps, "rel": cfg.tol.rel_eps},
        "reports": [r.to_json() for r in reports],
        "passed": all(r.status == PASS for r in reports),
    }
    errors = sum(r.status == ERROR for r in reports)
    if errors:
        verdict = f"{errors} CHECK(S) RAISED OR DREW NO SAMPLE"
    else:
        verdict = "OK" if payload["passed"] else "VIOLATIONS FOUND"
    summary = (
        f"{verdict}: "
        f"{sum(r.status == PASS for r in reports)}/{len(reports)} checks passed"
    )
    if live_to_stdout:
        sys.stdout.write(summary + "\n")
    else:
        lines = [r.text_line() for r in reports]
        if _emit(args, payload, lines + [summary]) != EXIT_OK:
            return EXIT_INPUT
    if errors:
        return EXIT_ERROR
    return EXIT_OK if payload["passed"] else EXIT_VIOLATION


def _span_command(args: argparse.Namespace) -> int:
    dims = [dim for dim in args.dims if dim >= 1]
    if not dims:
        print("span needs at least one dimension of 1 or more", file=sys.stderr)
        return EXIT_INPUT
    reports = [projspan.saturation_check(dim, args.seed, args.max_len) for dim in dims]
    payload = {
        "command": "span",
        "seed": args.seed,
        "max_len": args.max_len,
        "reports": [r.to_json() for r in reports],
    }
    lines = [
        f"[{r.status.upper()}] dim={r.dim} rank={r.rank}/{r.target} seed={r.seed}"
        for r in reports
    ]
    if _emit(args, payload, lines) != EXIT_OK:
        return EXIT_INPUT
    return EXIT_OK if all(r.ok for r in reports) else EXIT_VIOLATION


def _require_unitary(u: Morphism, tol: TolerancePolicy) -> None:
    """Reject outside input that is not a complex unitary with its
    spectrum on the unit circle, which `strict_sqrt_complex` presumes.
    The moduli may miss 1 by 1e3 times the absolute tolerance, but never
    by less than 1e3 machine epsilons, since computed eigenvalues of an
    exact unitary miss it by rounding.  Input over another field, or not
    square, is left to its own raise."""
    if u.field is not Field.COMPLEX or u.dom != u.cod:
        return
    if not is_dagger_iso(u, tol):
        raise DomainError("input is not unitary")
    moduli = np.abs(np.linalg.eigvals(u.complex_view()))
    if u.dom.dim and np.max(np.abs(moduli - 1.0)) > 1e3 * max(tol.abs_eps, np.finfo(float).eps):
        raise DomainError("spectrum is not on the unit circle")


def _sqrt_command(args: argparse.Namespace) -> int:
    try:
        if args.input == "-":
            raw = sys.stdin.read()
        else:
            with open(args.input) as fh:
                raw = fh.read()
        data = json.loads(raw)
        morphism = Morphism.from_json(data)
    except json.JSONDecodeError as exc:
        print(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return EXIT_INPUT
    except (OSError, KeyError, TypeError, ValueError, DaggerLabError) as exc:
        print(f"bad morphism input: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        _require_unitary(morphism, TolerancePolicy(args.tol_abs, args.tol_rel))
        cert = strict_sqrt_complex(morphism)
    except DaggerLabError as exc:
        print(f"cannot take a strict square root: {exc}", file=sys.stderr)
        return EXIT_INPUT

    payload = {
        "root": cert.root.to_json(),
        "interpolation_data": [
            {"eigenvalue": lam.to_json(), "root": val.to_json()}
            for lam, val in cert.interpolation_data
        ],
        "residual": cert.residual,
    }
    return _write(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify-axioms":
        return _suite_command(args, run_axiom_suite)
    if args.command == "lemmas":
        return _suite_command(args, run_lemma_suite)
    if args.command == "reconstruct":
        return _suite_command(args, run_reconstruction_suite)
    if args.command == "span":
        return _span_command(args)
    if args.command == "sqrt":
        return _sqrt_command(args)
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
