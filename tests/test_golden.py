"""Golden CLI records: every distinct argv list of the cli-oneshot
workload (seeds 1-10) replayed through cli.run, stdout, stderr and exit
code compared as bytes.  The file is regenerated by hand with
tests/golden/regenerate.py; a PR that changes a record names it."""

import contextlib
import io
import json
import pathlib

from eisen import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli_oneshot.jsonl"


def test_cli_records_replay_byte_for_byte():
    records = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
    assert len(records) == 163
    changed = []
    for rec in records:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(rec["argv"])
        got = (out.getvalue().encode(), err.getvalue().encode(), code)
        if got != (rec["stdout"].encode(), rec["stderr"].encode(), rec["exit"]):
            changed.append(" ".join(rec["argv"]))
    assert not changed, f"{len(changed)} records changed: {changed}"
