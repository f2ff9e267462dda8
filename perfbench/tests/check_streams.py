"""Determinism and validity of the benchmark's request streams.

Run from the repository root (the file name keeps it out of the
repository's own test run)::

    python3 -m pytest -q perfbench/tests/check_streams.py perfbench/tests/check_drill.py
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE.parent.parent / "src", HERE.parent):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import streams  # noqa: E402
from repro.datasets.domains import all_domains  # noqa: E402
from repro.engine.executor import Executor  # noqa: E402
from repro.sql.parser import parse_sql  # noqa: E402

DOMAINS = {domain.name: domain for domain in all_domains()}
COUNT = 1500


def databases(workload):
    scale = streams.SCALES[workload]
    return {name: d.database(streams.DATA_SEED, scale) for name, d in DOMAINS.items()}


def take(workload, seed, client=0, clients=2, count=COUNT):
    inputs = streams.stream_inputs(workload, DOMAINS)
    generated = streams.stream(workload, seed, client, clients, DOMAINS, inputs)
    return list(itertools.islice(generated, count))


def encoded(requests):
    return "\n".join(repr(tuple(request)) for request in requests).encode("utf-8")


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_same_seed_gives_byte_identical_stream(workload):
    assert encoded(take(workload, 7)) == encoded(take(workload, 7))


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_different_seeds_give_different_streams(workload):
    assert encoded(take(workload, 7)) != encoded(take(workload, 8))


def test_literal_rebinds_and_write_keys_follow_the_seed():
    churn = take("verify-churn", 3)
    assert len({request.sql for request in churn}) > len(churn) // 4
    writes = [r.sql for r in take("record-validate", 3) if r.kind == "record"]
    assert writes == [r.sql for r in take("record-validate", 3) if r.kind == "record"]
    assert writes != [r.sql for r in take("record-validate", 4) if r.kind == "record"]
    assert any(sql.startswith("insert") for sql in writes)
    assert any(sql.startswith("update") for sql in writes)
    assert any(sql.startswith("delete") for sql in writes)


def test_record_validate_writes_once_before_every_read():
    requests = take("record-validate", 6, count=600)
    writes, reads = requests[0::2], requests[1::2]
    assert all(w.kind == "record" and r.kind == "talkback" for w, r in zip(writes, reads))
    assert all(w.domain == r.domain for w, r in zip(writes, reads))


def test_clients_own_disjoint_domains():
    for clients in (1, 2):
        owned = [set(streams.client_domains(list(DOMAINS), c, clients)) for c in range(clients)]
        assert set().union(*owned) == set(DOMAINS)
        assert sum(len(o) for o in owned) == len(DOMAINS)
        for client in range(clients):
            for request in take("record-validate", 1, client, clients, 300):
                assert request.domain in owned[client]


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_every_generated_text_parses(workload):
    for client in range(2):
        for request in take(workload, 5, client):
            parse_sql(request.sql)


def test_draws_are_uniform_over_distinct_texts():
    per_client = sum(
        len(streams.distinct_texts(DOMAINS[name]))
        for name in streams.client_domains(list(DOMAINS), 0, 2)
    )
    round_one = take("talkback", 2, count=per_client)
    assert len({request.sql for request in round_one}) == per_client


def test_every_write_passes_the_domain_constraints():
    """Applied in stream order to a fresh database, no write is rejected."""
    for client in range(2):
        fresh = databases("record-validate")
        executors = {name: Executor(db) for name, db in fresh.items()}
        sizes = {name: db.total_rows for name, db in fresh.items()}
        writes = [r for r in take("record-validate", 9, client, count=4000) if r.kind == "record"]
        assert writes
        for request in writes:
            result = executors[request.domain].execute_sql(request.sql)
            assert result.affected_rows == 1, request.sql
        for name in streams.client_domains(list(DOMAINS), client, 2):
            grown = fresh[name].total_rows - sizes[name]
            assert 0 <= grown <= 1
