"""Expected outputs for each workload, computed without the measured path.

* extract-scan: events from the package's indexed extraction, run
  serially in this process; the CLI under test does a full scan with its
  default worker count, so the two paths meet only in the rule engine.
* extract-indexed: the events the generator planted.
* dedup: brute-force all-pairs cosine pooling and the documented split
  policy, written here from the README's description.

Every oracle returns the list of JSON records the CLI must print, in
order; ``check_output`` compares a child's stdout against it.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from datetime import date
from pathlib import Path

# The CLI defaults the dedup workload runs with.
DEDUP_THRESHOLD = 0.90
UNSEEN_FRACTION = 0.41


def check_output(stdout: bytes, expected: list[dict]) -> str | None:
    """None if ``stdout`` is exactly the expected records, else the first difference."""
    try:
        lines = stdout.decode("utf-8").splitlines()
        records = [json.loads(line) for line in lines]
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return f"stdout is not JSON lines: {exc}"
    if len(records) != len(expected):
        return f"{len(records)} records, expected {len(expected)}"
    for i, (got, want) in enumerate(zip(records, expected)):
        if got != want:
            return f"record {i} differs: got {got!r}, expected {want!r}"
    return None


def event_record(event) -> dict:
    """The documented event JSON shape, built from the public EventMention fields."""
    return {
        "doc_id": event.doc_id,
        "sentence_id": event.sentence_id,
        "event_type": event.event_type,
        "rule": event.rule_name,
        "tier": event.tier,
        "trigger": [event.trigger[0], event.trigger[1]],
        "slots": {
            name: [[m.start, m.end] for m in mentions] for name, mentions in event.slots.items()
        },
    }


def indexed_extraction(corpus: Path, rules_text: str, gazetteer_text: str) -> list[dict]:
    """Serial extraction through an in-memory index: the extract-scan oracle."""
    from spacevents import (build_index, compile_gazetteer, extract_events, ner_layer,
                            parse_conllu, parse_rules, read_gazetteer)

    docs = parse_conllu(corpus.read_text(encoding="utf-8"))
    rules = parse_rules(rules_text)
    ner = ner_layer(compile_gazetteer(read_gazetteer(gazetteer_text)))
    events = extract_events(docs, rules, index=build_index(docs, workers=1), ner=ner, workers=1)
    return [event_record(ev) for ev in events]


# ---------------------------------------------------------------------------
# dedup


def _read_bags(corpus: Path) -> list[tuple[str, str, Counter]]:
    """(doc id, collected_at, lowercased unigram counts) per document, read directly."""
    docs: list[tuple[str, str, Counter]] = []
    for line in corpus.read_text(encoding="utf-8").splitlines():
        if line.startswith("# newdoc id = "):
            docs.append((line[len("# newdoc id = "):], "", Counter()))
        elif line.startswith("# collected_at = "):
            doc_id, _, counts = docs[-1]
            docs[-1] = (doc_id, date.fromisoformat(line[len("# collected_at = "):]).isoformat(), counts)
        elif line and not line.startswith("#"):
            term = line.split("\t")[1].lower()
            if any(ch.isalnum() for ch in term):
                docs[-1][2][term] += 1
    return docs


def dedup_records(corpus: Path, threshold: float = DEDUP_THRESHOLD,
                  unseen_fraction: float = UNSEEN_FRACTION) -> list[dict]:
    """Pools by exhaustive pairwise cosine, then the newest-pools-held-out split.

    Norms use the same integer sums and operation order as the package,
    so a pair on the strict ``>`` boundary is decided identically.
    """
    docs = _read_bags(corpus)
    n = len(docs)
    norms = [math.sqrt(sum(c * c for c in counts.values())) for _, _, counts in docs]
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        a = docs[i][2]
        for j in range(i + 1, n):
            b = docs[j][2]
            small, large = (a, b) if len(a) <= len(b) else (b, a)
            dot = sum(count * large.get(term, 0) for term, count in small.items())
            if dot and dot / (norms[i] * norms[j]) > threshold:
                neighbours[i].append(j)
                neighbours[j].append(i)

    pool_of: dict[str, str] = {}
    members: dict[str, list[int]] = {}
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        component, stack = [], [start]
        seen[start] = True
        while stack:
            node = stack.pop()
            component.append(node)
            for other in neighbours[node]:
                if not seen[other]:
                    seen[other] = True
                    stack.append(other)
        pool_id = min(docs[i][0] for i in component)
        members[pool_id] = component
        for i in component:
            pool_of[docs[i][0]] = pool_id

    # Pools ordered by their newest member, (collected_at, doc id); whole
    # pools are held out newest first until they cover the unseen share,
    # alternating dev and test; everything else is train.
    newest = {pool: max((docs[i][1], docs[i][0]) for i in idx) for pool, idx in members.items()}
    target = math.floor(n * unseen_fraction + 0.5)
    split_of: dict[str, str] = {}
    covered = held = 0
    for pool in sorted(members, key=newest.__getitem__, reverse=True):
        if covered < target:
            split_of[pool] = "dev" if held % 2 == 0 else "test"
            held += 1
            covered += len(members[pool])
        else:
            split_of[pool] = "train"
    return [
        {"doc_id": doc_id, "pool_id": pool_of[doc_id], "split": split_of[pool_of[doc_id]]}
        for doc_id in sorted(pool_of)
    ]
