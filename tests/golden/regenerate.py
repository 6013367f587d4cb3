"""Regenerate cli_oneshot.jsonl, the golden CLI records, by hand:

    PYTHONPATH=src python tests/golden/regenerate.py

One JSON line per distinct argv list of perfbench's cli-oneshot workload
for seeds 1-10, in first-seen order: the argv, and the stdout, stderr and
exit code of cli.run(argv) in this process.  tests/test_golden.py replays
the file; it imports neither perfbench nor sympy, this script does.  A
change that alters a record regenerates the file and names the record.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "perfbench"))

import workloads  # noqa: E402  (perfbench, needs sympy)

from eisen import cli  # noqa: E402

SEEDS = range(1, 11)


def replay(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def main() -> None:
    seen: dict[str, list[str]] = {}
    for seed in SEEDS:
        for _, *argv in workloads.cli_oneshot(seed):
            seen.setdefault(json.dumps(argv), argv)
    with open(HERE / "cli_oneshot.jsonl", "w", encoding="utf-8") as f:
        for argv in seen.values():
            f.write(json.dumps(replay(argv)) + "\n")
    print(f"{len(seen)} records", file=sys.stderr)


if __name__ == "__main__":
    main()
