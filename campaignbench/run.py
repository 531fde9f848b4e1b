"""Campaign benchmark for daggerlab.

    python3 campaignbench/run.py --workload lemmas-C [--seed 42] [--seconds 58] [--trace 0]
    python3 campaignbench/run.py --workload all

Every campaign run is one fresh `python3 campaignbench/child.py` process
calling the public CLI entry point `daggerlab.cli.main` with fixed argv,
one process at a time. With `--trace 0` the benchmark measures set-up in
separate fresh processes, then repeats whole workload iterations until
the next one would end after `--seconds`. Each iteration is one
campaign at its own campaign seed derived from `--seed`, except that the
first two both run at `--seed`, so that every run compares the report
bytes of a repeated campaign. campaign_s and campaign_cpu_s are the
mean per campaign over the run (total time divided by campaigns, the
inverse of throughput); set-up time and peak RSS are medians.
With `--trace 1` it runs one untraced and one traced iteration at
`--seed`, reports the per-layer metrics and the tracing overhead, and
writes the per-check aggregates to
`.campaignbench/trace-<workload>-seed<n>.json`.

Every run is checked against `pins.json`: the exit code and every
check's verdict must match (any seed), repeated runs of one campaign
seed must give identical report bytes, and at the pinned seed the report
sha256 must match. A sha mismatch at the pinned seed is residual-byte
drift: it is counted in `report_bytes_changed`, not as a failure.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
PINS = json.loads((HERE / "pins.json").read_text())
TRACE_DIR = ROOT / ".campaignbench"

sys.path.insert(0, str(HERE))
from layers import per_layer_metrics  # noqa: E402


def _dims(first: int, last: int) -> str:
    return ",".join(str(d) for d in range(first, last + 1))


# Why each workload exists is recorded in BENCHMARK.json. The sample
# counts and dimensions are cut from the CLI defaults so that one
# iteration takes about 5 s and a run holds several of them. There are
# two workloads, not more, so that every run can be about a minute long:
# shorter runs do not average out the host's swings in speed.
WORKLOADS = {
    "lemmas-C": [["lemmas", "--field", "C", "--trials", "20"]],
    "wide-dims": [
        ["verify-axioms", "--field", "R", "--dims", _dims(0, 12), "--trials", "5"],
        ["verify-axioms", "--field", "H", "--dims", _dims(0, 8), "--trials", "5"],
        ["span", "--dims", _dims(2, 7)],
    ],
}
SETUP_PROBES = 3
# The work of one campaign varies with its seed (axioms.h2-directed-colimits
# by up to 2x), so every iteration but the repeated first one gets a fresh
# campaign seed and a run averages over as many inputs as it holds.
SEED_STRIDE = 1_000_003
RUN_LIMIT_S = 170.0  # a whole invocation must end within 180 s
DEFAULT_SECONDS = 58


def campaign_seed(seed: int, iteration: int) -> int:
    """Iterations 0 and 1 repeat `seed`; later ones step away from it."""
    return seed + max(iteration - 1, 0) * SEED_STRIDE


class ChildFailed(RuntimeError):
    pass


def label(base: list[str]) -> str:
    return " ".join(base)


def cli_argv(base: list[str], seed: int) -> list[str]:
    return base + ["--seed", str(seed), "--format", "json"]


def run_child(args: list[str], deadline: float) -> dict:
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run([sys.executable, str(CHILD), *args], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{args} did not end within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


class Checker:
    """Compares runs with the pins and with each other."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.bytes_changed = 0
        self.problems: list[str] = []
        self._first_sha: dict[tuple[str, int], str] = {}

    def check(self, base: list[str], seed: int, result: dict | None) -> None:
        name = label(base)
        pin = PINS["runs"][name]
        expected = pin["verdicts"]
        self.attempted += len(expected)
        if result is None:
            self.failed += len(expected)
            self.problems.append(f"{name}: crashed")
            return
        if result["exit"] != pin["exit"]:
            self.failed += len(expected)
            self.problems.append(f"{name}: exit {result['exit']}, expected {pin['exit']}")
            return
        wrong = [k for k, v in expected.items() if result["verdicts"].get(k) != v]
        self.failed += len(wrong)
        self.problems += [f"{name}: {k} is {result['verdicts'].get(k)}, expected {expected[k]}"
                          for k in wrong]
        sha = result["report_sha256"]
        first = self._first_sha.setdefault((name, seed), sha)
        drifted = seed == PINS["seed"] and sha != pin["sha256"]
        if sha != first:
            self.failed += 1
            self.problems.append(f"{name} --seed {seed}: report bytes differ between runs")
        if drifted or sha != first:
            self.bytes_changed += 1


def run_iteration(workload: str, seed: int, trace: bool, checker: Checker,
                  deadline: float) -> list[dict | None]:
    results = []
    for base in WORKLOADS[workload]:
        try:
            result = run_child(["run", "1" if trace else "0", *cli_argv(base, seed)], deadline)
        except ChildFailed as exc:
            print(f"campaign run failed: {exc}", file=sys.stderr)
            result = None
        checker.check(base, seed, result)
        results.append(result)
    return results


def _sum(results: list[dict | None], key: str) -> float:
    return sum(r[key] for r in results if r is not None)


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def provenance(results: list[dict | None]) -> dict:
    found = next((r["provenance"] for r in results if r is not None), {})
    return {"git_commit": git_commit(), **found}


def measure(workload: str, seed: int, seconds: int, checker: Checker,
            deadline: float) -> tuple[dict, list]:
    """End-to-end metrics of repeated iterations.

    The host's speed swings by up to 2x within seconds and has two
    modes, so a median of whole campaigns jumps between modes from run
    to run; the mean over the whole run averages the swings out.
    """
    setups = [run_child(["setup"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    iterations = []
    began = time.monotonic()
    while True:
        started = time.monotonic()
        iterations.append(run_iteration(workload, campaign_seed(seed, len(iterations)), False,
                                        checker, deadline))
        now = time.monotonic()
        took = now - started
        enough = len(iterations) >= 2 and now - began + took > seconds
        if enough or now + 1.5 * took > deadline:
            break
    complete = [it for it in iterations if all(r is not None for r in it)] or iterations
    # every campaign process pays the same set-up before its run starts
    setups += [r["setup_s"] for it in iterations for r in it if r is not None]
    walls = [_sum(it, "wall_s") for it in complete]
    metrics = {
        "campaign_s": (statistics.fmean(walls), "s"),
        "campaign_cpu_s": (statistics.fmean(_sum(it, "cpu_s") for it in complete), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(
            max((r["maxrss_mb"] for r in it if r is not None), default=0.0)
            for it in complete), "MB"),
        "checks_passed_ratio": (
            (checker.attempted - checker.failed) / checker.attempted, "ratio"),
    }
    seeds = len({campaign_seed(seed, i) for i in range(len(complete))})
    over = (f"mean of {len(complete)} campaigns over {seeds} campaign seeds; "
            f"median {statistics.median(walls):.4g} s, max {max(walls):.4g} s")
    notes = {"campaign_s": over, "campaign_cpu_s": f"mean of {len(complete)}",
             "setup_s": f"median of {len(setups)}"}
    return {"metrics": metrics, "notes": notes}, [r for it in iterations for r in it]


def _merge_traces(workload: str, results: list[dict]) -> tuple[dict, dict]:
    """Sum the traces of a multi-command iteration; check ids are
    prefixed with their command."""
    merged = {"totals": {}, "by_check": {}, "covered": {}, "edges": {}, "counters": {},
              "absent": []}
    walls = {}
    multi = len(WORKLOADS[workload]) > 1
    for base, result in zip(WORKLOADS[workload], results):
        trace = result["trace"]
        prefix = f"{label(base)} :: " if multi else ""
        for name, stat in trace["totals"].items():
            total = merged["totals"].setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                total[i] += stat[i]
        for check, stats in trace["by_check"].items():
            merged["by_check"][prefix + check] = stats
        for check, seconds in trace["covered"].items():
            merged["covered"][prefix + check] = seconds
        for edge, n in trace["edges"].items():
            merged["edges"][edge] = merged["edges"].get(edge, 0) + n
        for name, counters in trace["counters"].items():
            into = merged["counters"].setdefault(name, {})
            for key, value in counters.items():
                into[key] = into.get(key, 0) + value
        merged["absent"] = sorted(set(merged["absent"]) | set(trace["absent"]))
        for check, wall in result["checks"]:
            walls[prefix + check] = wall
    return merged, walls


def measure_traced(workload: str, seed: int, checker: Checker,
                   deadline: float) -> tuple[dict, list]:
    """Per-layer metrics from one traced iteration next to an untraced one."""
    untraced = run_iteration(workload, seed, False, checker, deadline)
    traced = run_iteration(workload, seed, True, checker, deadline)
    results = untraced + traced
    if any(r is None for r in results):
        return {"metrics": {}, "notes": {}, "absent": []}, results
    merged, walls = _merge_traces(workload, traced)
    untraced_checks = [wall for r in untraced for _, wall in r["checks"]]
    overhead = _sum(traced, "wall_s") - _sum(untraced, "wall_s")
    metrics = per_layer_metrics(merged, walls, untraced_checks, overhead, checker.bytes_changed)
    TRACE_DIR.mkdir(exist_ok=True)
    out = TRACE_DIR / f"trace-{workload}-seed{seed}.json"
    out.write_text(json.dumps({
        "workload": workload, "seed": seed, "provenance": provenance(results),
        "untraced_campaign_s": _sum(untraced, "wall_s"),
        "traced_campaign_s": _sum(traced, "wall_s"),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "check_walls": walls, **merged,
    }, indent=1, sort_keys=True) + "\n")
    notes = {k: "computed from shapes, not measured" for k in metrics
             if k.endswith(("flops", "bytes"))}
    # per-check walls come from the streamed per-check lines; `span` writes none
    unstreamed = [label(base) for base, r in zip(WORKLOADS[workload], untraced) if not r["checks"]]
    if unstreamed:
        for name in ("campaigns.checks", "campaigns.self_s", "campaigns.check_s_max"):
            notes[name] = f"streamed checks only; {', '.join(unstreamed)} streams none"
    return {"metrics": metrics, "notes": notes, "absent": merged["absent"], "file": out}, results


def report(workload: str, seed: int, checker: Checker, measured: dict,
           results: list) -> None:
    print(f"== {workload} seed={seed}: " + "; ".join(label(b) for b in WORKLOADS[workload]))
    metrics = dict(measured["metrics"])
    if "report_bytes_changed" not in metrics:
        metrics["report_bytes_changed"] = (checker.bytes_changed, "count")
    ratio = checker.failed / checker.attempted if checker.attempted else 0.0
    metrics["checks_failed_ratio"] = (ratio, f"ratio ({checker.failed} of {checker.attempted})")
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        note = measured["notes"].get(name, "")
        print(f"  {name:<{width}}  {value:.6g} {unit}  {note}".rstrip())
    for name in measured.get("absent", []):
        print(f"  absent: {name} (no such name in this commit)")
    for problem in checker.problems:
        print(f"  problem: {problem}")
    if "file" in measured:
        print(f"  per-check trace: {measured['file'].relative_to(ROOT)}")
    print("  provenance: " + json.dumps(provenance(results), sort_keys=True))


def run_workload(workload: str, args: argparse.Namespace, deadline: float) -> tuple[Checker, dict]:
    checker = Checker()
    if args.trace:
        measured, results = measure_traced(workload, args.seed, checker, deadline)
    else:
        measured, results = measure(workload, args.seed, args.seconds, checker, deadline)
    report(workload, args.seed, checker, measured, results)
    return checker, measured["metrics"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=PINS["seed"])
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    start = time.monotonic()
    try:
        # the first probe also fills the bytecode cache; it is not timed
        run_child(["setup"], start + 60.0)
    except ChildFailed as exc:
        print(f"cannot set up daggerlab: {exc}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        # each workload of `all` gets the full per-invocation budget
        deadline = (time.monotonic() if len(names) > 1 else start) + RUN_LIMIT_S
        checker, values = run_workload(name, args, deadline)
        attempted += checker.attempted
        failed += checker.failed
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in values.items()})
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
