"""Output checks: digests, sequential reference replay and recovery equality.

Every answer the service gives is reduced to a digest over what a user
would see: the translation text, the result columns and rows, and the
narrative or explanation text.  After the timed phase each domain
session's requests are replayed, in the order that session received
them, through a plain sequential pipeline on an identically generated
database, and the digests must agree.  Reads are memoised between
writes (a read's answer only depends on its text and the data), so the
replay costs one pass over the distinct texts per data version.

Durable sessions are also recovered from their directories with
``Database.recover`` and must equal the live database row for row.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Sequence, Tuple

#: How many verify-churn requests are checked against the full pipeline.
CHURN_SAMPLE = 300


def digest(*parts: str) -> str:
    return hashlib.sha256("\x1e".join(parts).encode("utf-8")).hexdigest()


def error_digest(error: BaseException) -> str:
    return digest("error", type(error).__name__)


def rows_text(result) -> str:
    """Columns plus rows in result order (row order is part of the answer)."""
    return ",".join(result.columns) + "|" + repr(result.to_tuples())


def fresh_lexicon(domain, schema):
    """The domain's lexicon for ``schema``, or ``None`` for the shared default."""
    if domain.lexicon_factory is None:
        return None
    return domain.lexicon_factory(schema)


class Reference:
    """A sequential pipeline over one domain, the oracle for the service.

    Translation uses the full pipeline (no phrase plans, no text cache),
    so a phrase-plan rendering in the service is checked against the
    pipeline it short-cuts.  Execution uses a sequential executor on a
    database generated from the same seed and scale.
    """

    def __init__(self, domain, database=None) -> None:
        from repro.content.narrator import ContentNarrator
        from repro.engine.executor import Executor
        from repro.lexicon.lexicon import default_lexicon
        from repro.query_nl.empty_answer import AnswerExplainer
        from repro.query_nl.translator import QueryTranslator

        schema = database.schema if database is not None else domain.schema_factory()
        lexicon = fresh_lexicon(domain, schema) or default_lexicon(schema)
        self.translator = QueryTranslator(
            schema, lexicon=lexicon, cache_size=None, phrase_plans=False
        )
        self.database = database
        if database is not None:
            self.executor = Executor(database)
            self.explainer = AnswerExplainer(database, lexicon=lexicon, executor=self.executor)
            self.narrator = ContentNarrator(database)
        self._translations: Dict[str, str] = {}

    def translation(self, sql: str) -> str:
        text = self._translations.get(sql)
        if text is None:
            text = self._translations[sql] = self.translator.translate(sql).text
        return text

    def verify(self, sql: str) -> str:
        try:
            return digest(self.translation(sql))
        except Exception as error:  # noqa: BLE001 - an error is an answer here
            return error_digest(error)

    def talkback(self, sql: str) -> str:
        from repro.engine.result import QueryResult

        try:
            text = self.translation(sql)
            result = self.executor.execute_sql(sql)
            if not isinstance(result, QueryResult):
                return digest(text, repr(result))
            if result.is_empty:
                story = self.explainer.explain(sql).text
            else:
                story = self.narrator.narrate_query_answer(result, subject=text)
            return digest(text, rows_text(result), story)
        except Exception as error:  # noqa: BLE001
            return error_digest(error)

    def record(self, sql: str, relation: str) -> str:
        try:
            result = self.executor.execute_sql(sql)
            story = self.narrator.narrate_relation(relation)
            return digest(result.statement_kind, str(result.affected_rows), story)
        except Exception as error:  # noqa: BLE001
            return error_digest(error)


def replay(reference: Reference, log: Sequence[Tuple[Any, str]]) -> List[str]:
    """Replay one session's ``(request, digest)`` log; returns mismatch notes."""
    mismatches = []
    reads: Dict[str, str] = {}
    for position, (request, observed) in enumerate(log):
        if request.kind == "record":
            expected = reference.record(request.sql, request.relation)
            reads.clear()
        elif request.kind == "verify":
            expected = reference.verify(request.sql)
        else:
            expected = reads.get(request.sql)
            if expected is None:
                expected = reads[request.sql] = reference.talkback(request.sql)
        if expected != observed:
            mismatches.append(
                f"{request.domain} request {position} ({request.kind}): {request.sql[:80]!r}"
            )
    return mismatches


def database_state(database) -> Tuple[Tuple[str, Any], ...]:
    """Every table's rows with their row ids, for equality checks."""
    return tuple((table.name, table.export_rows()) for table in database.tables)


def recovered_state(directory, schema) -> Tuple[Tuple[str, Any], ...]:
    """The state ``Database.recover`` rebuilds from a durability directory."""
    from repro.storage.database import Database

    recovered, _report = Database.recover(directory, schema=schema)
    return database_state(recovered)


def check_recovery(sessions: Dict[str, Any], references: Dict[str, Reference]) -> List[str]:
    """Recovered == live, and live == the reference replay's final state."""
    problems = []
    for name, session in sessions.items():
        live = database_state(session.database)
        directory = session.durability.directory
        if recovered_state(directory, session.database.schema) != live:
            problems.append(f"{name}: recovered database differs from the live one")
        if database_state(references[name].database) != live:
            problems.append(f"{name}: live database differs from the sequential replay")
    return problems
