"""Rewrite campaignbench/pins.json from the current checkout.

    python3 campaignbench/pin.py [--seed 42]

Runs every command of every workload once at the seed and records its
exit code, each check's verdict and the report sha256. Run it only when
a workload's argv changes or a change is meant to move the report
bytes, and say so with the change.
"""

from __future__ import annotations

import argparse
import json
import time

import run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=run.PINS["seed"])
    args = parser.parse_args()
    pins = {"runs": {}, "seed": args.seed}
    for bases in run.WORKLOADS.values():
        for base in bases:
            deadline = time.monotonic() + run.RUN_LIMIT_S
            result = run.run_child(["run", "0", *run.cli_argv(base, args.seed)], deadline)
            pins["runs"][run.label(base)] = {"exit": result["exit"],
                                             "sha256": result["report_sha256"],
                                             "verdicts": result["verdicts"]}
    (run.HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
