"""One fresh process of the campaign benchmark.

    python3 campaignbench/child.py setup
    python3 campaignbench/child.py run <trace 0|1> <daggerlab argv...>

`setup` times importing `daggerlab.cli` from the checkout's `src` and
building its parser. `run` does the same set-up, then calls
`daggerlab.cli.main(argv)` with stdout captured as the report and the
streamed per-check lines timestamped as they are written. With trace 1
the layer functions are wrapped for the duration of the call. The
process prints one JSON line with its measurements and exits 0; it
exits non-zero if daggerlab cannot be imported from the checkout.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import re
import resource
import sys
import time
from pathlib import Path

from layers import TARGETS
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
CHECK_LINE = re.compile(r"^\[[^\]]+\] (\S+) field=")


class LineClock(io.TextIOBase):
    """Text sink that timestamps each complete line as it is written."""

    def __init__(self, on_check=None):
        self.on_check = on_check
        self.checks: list[tuple[float, str]] = []
        self.other: list[str] = []
        self._partial = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self._partial += text
        while "\n" in self._partial:
            line, self._partial = self._partial.split("\n", 1)
            now = time.perf_counter()
            match = CHECK_LINE.match(line)
            if match is None:
                self.other.append(line)
                continue
            self.checks.append((now, match.group(1)))
            if self.on_check is not None:
                self.on_check(match.group(1))
        return len(text)


def import_cli():
    """Import daggerlab.cli from this checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "daggerlab").is_dir():
        raise SystemExit(f"no daggerlab package under {src}")
    sys.path.insert(0, str(src))
    import daggerlab.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"daggerlab imported from {cli.__file__}, not from {src}")
    return cli


def verdicts_of(report_text: str) -> dict[str, str]:
    """Check id (or span dimension) -> status, from a JSON report."""
    try:
        payload = json.loads(report_text)
    except json.JSONDecodeError:
        return {}
    out = {}
    for r in payload.get("reports", []):
        key = r["axiom"] if "axiom" in r else f"dim={r.get('dim')}"
        out[key] = r.get("status")
    return out


def _openblas() -> dict:
    """Version string and thread count of the OpenBLAS bundled with numpy."""
    import numpy

    for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                       "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        config = getattr(lib, "scipy_openblas_get_config64_", None)
        threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if config is not None and threads is not None:
            config.argtypes, threads.argtypes = [], []
            config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
            return {"config": config().decode(), "threads": threads()}
    return {"config": "unknown", "threads": "unknown"}


def provenance() -> dict:
    import numpy
    import daggerlab

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": _openblas(),
        "kernel_backend": getattr(daggerlab, "KERNEL_BACKEND", "absent"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def set_up():
    """Import the CLI and build its parser: the set-up every run pays."""
    start = time.perf_counter()
    cli = import_cli()
    cli.build_parser()
    return cli, time.perf_counter() - start


def run(trace: bool, argv: list[str]) -> dict:
    cli, setup_s = set_up()

    tracer = Tracer(TARGETS) if trace else None
    clock = LineClock(tracer.next_check if tracer else None)
    report = io.StringIO()
    with tracer or contextlib.nullcontext(), contextlib.redirect_stdout(report), \
            contextlib.redirect_stderr(clock):
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        begin = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        end = time.perf_counter()
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
    for line in clock.other:
        print(line, file=sys.stderr)

    checks, previous = [], begin
    for stamp, check_id in clock.checks:
        checks.append([check_id, stamp - previous])
        previous = stamp
    text = report.getvalue()
    return {
        "setup_s": setup_s,
        "exit": code,
        "wall_s": end - begin,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        "maxrss_mb": usage1.ru_maxrss / 1024.0,
        "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "verdicts": verdicts_of(text),
        "checks": checks,
        "trace": tracer.result() if tracer else None,
        "provenance": provenance(),
    }


def main(args: list[str]) -> int:
    if args[:1] == ["setup"]:
        result = {"setup_s": set_up()[1]}
    elif args[:1] == ["run"] and len(args) >= 3 and args[1] in ("0", "1"):
        result = run(args[1] == "1", args[2:])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
