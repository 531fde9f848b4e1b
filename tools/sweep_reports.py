"""Print the exit code and report sha256 of a grid of campaign runs.

Each run is `daggerlab <suite> --field <F> --seed <s> [--trials <t>]
[--tol-abs <e> --tol-rel <e>] --format json`, run in-process through
`cli.main`; the line it prints is the argv, the exit code and the sha256
of the JSON report.  The package is imported from the `src` directory
of the checkout that holds this script, so two checkouts compare with

    python3 tools/sweep_reports.py --seeds 0-11 --trials 5 > a.txt
    python3 ../other/tools/sweep_reports.py --seeds 0-11 --trials 5 > b.txt
    diff a.txt b.txt

`--trials default` and `--tols default` leave the flag out.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from daggerlab.cli import main as daggerlab_main  # noqa: E402

SUITES = ["lemmas", "verify-axioms", "reconstruct"]


def _seeds(text: str) -> list[int]:
    """`3`, `0-11` or `0,5,42`."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def _argvs(args: argparse.Namespace):
    for suite, field, seed, trials, tol in itertools.product(
            args.suites, args.fields, args.seeds, args.trials, args.tols):
        argv = [suite, "--field", field, "--seed", str(seed)]
        if trials != "default":
            argv += ["--trials", trials]
        if tol != "default":
            argv += ["--tol-abs", tol, "--tol-rel", tol]
        yield argv + ["--format", "json"]


def run(argv: list[str]) -> tuple[int, str]:
    """The exit code and the sha256 of the report on stdout; the lines
    streamed to stderr are dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = daggerlab_main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suites", nargs="+", choices=SUITES, default=SUITES)
    parser.add_argument("--fields", nargs="+", choices=["R", "C", "H"], default=["R", "C", "H"])
    parser.add_argument("--seeds", type=_seeds, default=[42], help="e.g. 0-11 or 0,5,42")
    parser.add_argument("--trials", nargs="+", default=["default"])
    parser.add_argument("--tols", nargs="+", default=["default"],
                        help="abs_eps = rel_eps values, or default")
    args = parser.parse_args(argv)
    for run_argv in _argvs(args):
        code, digest = run(run_argv)
        print(" ".join(run_argv), code, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
