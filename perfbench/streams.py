"""Seeded request streams for the talk-back benchmark.

A stream is the exact sequence of requests one client sends.  It is a
pure function of ``(seed, workload, client, clients)`` and of the
generated domain databases, so the same seed always gives a
byte-identical stream and the program under test only ever sees the
generated SQL texts.

Three request kinds are generated (``verify`` / ``talkback`` /
``record``; ``answer`` is the second half of ``talkback`` and never
appears alone).  Each client owns a disjoint set of domains, so the
order of requests *per domain session* is fixed by the seed no matter
how the clients interleave at run time; that is what lets the output
check replay every session sequentially.

Draws are uniform over *distinct* SQL texts and go in shuffled rounds:
every round visits each of the client's texts exactly once, in a seeded
order.  The seed therefore changes the order of requests but not the
mix, which keeps the work per second steady across seeds.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

# Bound at import, before a traced phase wraps the program's functions,
# so generating requests never records spans.
from repro.sql.shape import reconstruct_sql, sql_shape

#: Every workload generates its databases from this data seed; ``--seed``
#: only drives the request stream (its order, literals and write keys).
DATA_SEED = 0

#: Domain scale per workload (rows grow linearly with the scale).
SCALES = {"talkback": 4, "verify-churn": 1, "record-validate": 1}

WORKLOADS = tuple(SCALES)

#: record-validate is one ``record`` request before every ``talkback``
#: read, on the same session: the simplest mix in which every read comes
#: right after a write.  It is a choice, not measured traffic.  Each
#: write goes through one copy's fixed life: INSERT it, UPDATE it, DELETE
#: it, so a domain never holds more than one copy and table sizes stay
#: within a row of the original.


class Request(NamedTuple):
    """One client request; ``relation`` is the read-back target of a record."""

    domain: str
    kind: str
    sql: str
    relation: Optional[str] = None


def distinct_texts(domain) -> List[str]:
    """The domain's distinct corpus SQL texts, in corpus order."""
    return list(dict.fromkeys(query.sql for query in domain.corpus()))


def client_domains(names: Sequence[str], client: int, clients: int) -> List[str]:
    """The domains client ``client`` owns: a disjoint round-robin split."""
    return [name for index, name in enumerate(names) if index % clients == client]


def _rng(seed: int, workload: str, client: int, clients: int, part: str) -> random.Random:
    # String seeds hash identically in every process (unlike hash()).
    return random.Random(f"{seed}:{workload}:{clients}:{client}:{part}")


def _rounds(rng: random.Random, items: Sequence[Any]) -> Iterator[Any]:
    """Endless shuffled rounds over ``items``."""
    items = list(items)
    while True:
        order = items[:]
        rng.shuffle(order)
        yield from order


def sql_literal(value: Any) -> str:
    """A SQL literal for a stored value."""
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, bool):
        return "1" if value else "0"
    return repr(value)


# ----------------------------------------------------------------------
# verify-churn: literal rebinds
# ----------------------------------------------------------------------


def literal_pools(database) -> Tuple[List[str], List[int]]:
    """Distinct string and integer values stored anywhere in ``database``."""
    strings = set()
    numbers = set()
    for table in database.tables:
        for row in table.rows():
            for value in row.values():
                if isinstance(value, str):
                    strings.add(value)
                elif isinstance(value, int) and not isinstance(value, bool):
                    numbers.add(value)
    return sorted(strings), sorted(numbers)


def rebind(sql: str, rng: random.Random, pools: Tuple[List[str], List[int]]) -> str:
    """``sql`` with every literal replaced by a seeded value of the same kind."""
    shaped = sql_shape(sql)
    if shaped is None:
        raise ValueError(f"corpus text does not lex: {sql!r}")
    shape, literals = shaped
    strings, numbers = pools
    fresh = [
        rng.choice(strings) if isinstance(value, str) else rng.choice(numbers)
        for value in literals
    ]
    return reconstruct_sql(shape, fresh)


# ----------------------------------------------------------------------
# record-validate: copy-and-remove writes
# ----------------------------------------------------------------------


class _Entity(NamedTuple):
    relation: str
    key: str
    columns: Tuple[str, ...]
    #: Columns an UPDATE may set: neither the key nor a foreign key.
    settable: Tuple[str, ...]
    rows: Tuple[Dict[str, Any], ...]


def entity_relations(schema, database) -> List[_Entity]:
    """Relations whose rows can be copied under a fresh integer key.

    A copy keeps the source row's foreign-key values, which point at
    original rows that are never deleted, and nothing ever references a
    copy, so inserting and later deleting copies never breaks a
    constraint.  Only relations with a single-column integer primary key
    qualify.
    """
    entities = []
    for relation in schema.relations:
        keys = relation.primary_key_names
        if len(keys) != 1 or relation.attribute(keys[0]).dtype.name != "INTEGER":
            continue
        foreign = {
            column
            for fk in schema.foreign_keys_from(relation.name)
            for column in fk.source_attributes
        }
        # The SQL dialect has no date literal: leave nullable DATE columns
        # out of the copy (they become NULL) and skip relations that
        # require one.
        dates = [a for a in relation.attributes if a.dtype.name == "DATE"]
        if any(not attribute.nullable for attribute in dates):
            continue
        columns = tuple(a.name for a in relation.attributes if a not in dates)
        settable = tuple(c for c in columns if c != keys[0] and c not in foreign)
        rows = tuple(
            {column: row[column] for column in columns}
            for row in database.table(relation.name).rows()
        )
        if rows and settable:
            entities.append(_Entity(relation.name, keys[0], columns, settable, rows))
    return entities


class _Writer:
    """One domain's writes: each copy is inserted, updated once, then deleted."""

    def __init__(self, domain: str, entities: List[_Entity]) -> None:
        self.domain = domain
        self.entities = entities
        self.next_key = {
            entity.relation: max(row[entity.key] for row in entity.rows) + 1000
            for entity in entities
        }
        self.copy: Optional[Tuple[_Entity, int]] = None
        self.updated = False

    def next(self, rng: random.Random) -> Request:
        if self.copy is None:
            entity = rng.choice(self.entities)
            source = rng.choice(entity.rows)
            key = self.next_key[entity.relation]
            self.next_key[entity.relation] = key + 1
            values = [key if c == entity.key else source[c] for c in entity.columns]
            sql = (
                f"insert into {entity.relation} ({', '.join(entity.columns)})"
                f" values ({', '.join(sql_literal(v) for v in values)})"
            )
            self.copy, self.updated = (entity, key), False
        elif not self.updated:
            entity, key = self.copy
            column = rng.choice(entity.settable)
            value = rng.choice(entity.rows)[column]
            sql = (
                f"update {entity.relation} set {column} = {sql_literal(value)}"
                f" where {entity.key} = {key}"
            )
            self.updated = True
        else:
            entity, key = self.copy
            sql = f"delete from {entity.relation} where {entity.key} = {key}"
            self.copy = None
        return Request(self.domain, "record", sql, entity.relation)


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------


def stream_inputs(workload: str, domains: Dict[str, Any]) -> Dict[str, Any]:
    """What a workload's streams read from the generated data, per domain.

    verify-churn needs the literal pools and record-validate the
    copyable entity rows; talkback needs nothing.  Each database is
    generated with :data:`DATA_SEED` at the workload's scale and dropped
    again once its part is taken, so the generator keeps no copy of the
    data beside the program's.
    """
    if workload == "talkback":
        return {}
    scale = SCALES[workload]
    inputs = {}
    for name, domain in domains.items():
        database = domain.database(DATA_SEED, scale)
        if workload == "verify-churn":
            inputs[name] = literal_pools(database)
        else:
            inputs[name] = entity_relations(domain.schema(), database)
    return inputs


def stream(
    workload: str,
    seed: int,
    client: int,
    clients: int,
    domains: Dict[str, Any],
    inputs: Dict[str, Any],
) -> Iterator[Request]:
    """The endless request stream of one client.

    ``domains`` maps every domain name to its registry record and
    ``inputs`` is :func:`stream_inputs` of the workload.
    """
    names = client_domains(list(domains), client, clients)
    texts = [(name, sql) for name in names for sql in distinct_texts(domains[name])]
    order = _rounds(_rng(seed, workload, client, clients, "order"), texts)
    if workload == "talkback":
        for name, sql in order:
            yield Request(name, "talkback", sql)
    elif workload == "verify-churn":
        rng = _rng(seed, workload, client, clients, "literals")
        for name, sql in order:
            yield Request(name, "verify", rebind(sql, rng, inputs[name]))
    elif workload == "record-validate":
        rng = _rng(seed, workload, client, clients, "writes")
        writers = {name: _Writer(name, inputs[name]) for name in names}
        for name, sql in order:
            yield writers[name].next(rng)
            yield Request(name, "talkback", sql)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def cold_pass(workload: str, client: int, clients: int, domains: Dict[str, Any]) -> List[Request]:
    """The first pass: every distinct corpus text of the client's domains once."""
    kind = "verify" if workload == "verify-churn" else "talkback"
    return [
        Request(name, kind, sql)
        for name in client_domains(list(domains), client, clients)
        for sql in distinct_texts(domains[name])
    ]
