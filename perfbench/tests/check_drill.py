"""Drills: the benchmark's output check must be able to fail.

Each drill corrupts one expectation (a reference digest, a recovered
row) in an otherwise healthy short run and asserts that the run exits
non-zero and reports ``"correct": false``.  Run from the repository
root::

    python3 -m pytest -q perfbench/tests/check_drill.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent.parent / "src", HERE.parent):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import verify  # noqa: E402

ARGS = ["--workload", "record-validate", "--seed", "3", "--seconds", "1", "--trace", "0"]


def bench(capsys, args=ARGS):
    code = run.main(args)
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    return code, result


def test_healthy_run_passes(capsys):
    code, result = bench(capsys)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_corrupted_expected_digest_fails_the_run(capsys, monkeypatch):
    original = verify.Reference.talkback
    calls = []

    def corrupt_first(self, sql):
        calls.append(sql)
        expected = original(self, sql)
        return expected[::-1] if len(calls) == 1 else expected

    monkeypatch.setattr(verify.Reference, "talkback", corrupt_first)
    code, result = bench(capsys)
    assert code == 1
    assert result["correct"] is False


def test_corrupted_recovered_row_fails_the_run(capsys, monkeypatch):
    original = verify.recovered_state
    corrupted = []

    def corrupt_one_row(directory, schema):
        state = original(directory, schema)
        if corrupted:
            return state
        corrupted.append(directory)
        (name, rows), rest = state[0], state[1:]
        (rowid, values), others = rows[0], rows[1:]
        changed = dict(values)
        key = next(iter(changed))
        changed[key] = -1 if isinstance(changed[key], int) else "corrupted"
        return ((name, [(rowid, changed)] + list(others)),) + rest

    monkeypatch.setattr(verify, "recovered_state", corrupt_one_row)
    code, result = bench(capsys)
    assert corrupted
    assert code == 1
    assert result["correct"] is False


def test_talkback_and_churn_runs_check_their_answers(capsys):
    for workload in ("talkback", "verify-churn"):
        args = ["--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "1"]
        code, result = bench(capsys, args)
        assert code == 0 and result["correct"] is True
