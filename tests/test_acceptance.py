"""End-to-end acceptance checks, one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line
per criterion.  Criterion 7 checks released annotation files when the
``SPACEVENTS_ANNOTATIONS`` environment variable points at one; otherwise
it runs against a bundled, independently hand-counted fixture.
"""

import gc
import io
import json
import math
import os
import random
import time
from importlib import resources

import pytest

from spacevents import (
    ANCHOR_SLOTS,
    SCHEMAS,
    AnnotationLayer,
    LabeledSpan,
    Mention,
    TermVector,
    agreement,
    assign_splits,
    bio_to_spans,
    build_index,
    candidate_sentences,
    consensus,
    corpus_stats,
    cosine_similarity,
    extract_events,
    micro_average,
    ner_layer,
    parse_rules,
    pool_duplicates,
    read_annotations,
    score_slots,
    serialize_conllu,
    spans_to_bio,
    validate_event,
)
from spacevents.cli import main
from spacevents.dedup import DEFAULT_THRESHOLD
from spacevents.matching import EventMention

from helpers import (
    FIXTURES,
    TRIGGER_WORDS,
    brute_force_pools,
    dedup_corpus,
    find_trigger_spans,
    random_corpus,
    random_rule,
    timing_corpus,
    word_vocab,
)


def _reference_rules():
    text = (resources.files("spacevents") / "data" / "reference.rules").read_text("utf-8")
    return parse_rules(text)


# ---------------------------------------------------------------------------
# 1. duplicate pooling matches the brute-force oracle and never leaks


def test_criterion_01_dedup_oracle_equivalence_and_leak_freedom():
    docs = dedup_corpus(random.Random(42), 200)

    started = time.perf_counter()
    assignment = pool_duplicates(docs)
    elapsed = time.perf_counter() - started

    oracle_pools, above_pairs = brute_force_pools(docs, DEFAULT_THRESHOLD)
    assert assignment.pool_of == oracle_pools
    assert above_pairs, "oracle found no duplicate pairs; corpus generator drifted"

    assignment = assign_splits(assignment, docs)
    for a, b in above_pairs:
        assert assignment.split_for(a) == assignment.split_for(b)

    assert elapsed < 10.0, f"pooling took {elapsed:.2f}s"
    print(f"criterion 1 PASS: {len(docs)} docs pooled in {elapsed:.2f}s, oracle-equal, leak-free")


# ---------------------------------------------------------------------------
# 2. cosine similarity against hand-computed values


def test_criterion_02_cosine_hand_cases():
    a = TermVector("a", {"x": 1, "y": 2})
    same = TermVector("a2", {"x": 1, "y": 2})
    b = TermVector("b", {"x": 1, "y": 1})
    disjoint = TermVector("c", {"z": 3})

    assert abs(cosine_similarity(a, same) - 1.0) < 1e-9
    assert abs(cosine_similarity(a, disjoint) - 0.0) < 1e-9
    assert abs(cosine_similarity(a, b) - 3 / math.sqrt(10)) < 1e-9
    print("criterion 2 PASS: cosine matches hand values to 1e-9")


# ---------------------------------------------------------------------------
# 3. indexed extraction is exactly equivalent to the full scan


def test_criterion_03_index_match_equivalence_and_candidate_superset():
    rules = _reference_rules()
    assert len(rules) >= 10
    assert {r.tier for r in rules} == {"high", "backoff"}

    docs = random_corpus(random.Random(99), 420, trigger_chance=0.10, entity_chance=0.15)
    n_sentences = sum(len(d.sentences) for d in docs)
    assert n_sentences >= 1000

    layer = ner_layer(None)
    index = build_index(docs)
    full = extract_events(docs, rules, ner=layer)
    indexed = extract_events(docs, rules, index=index, ner=layer)
    assert full == indexed
    assert full, "no events extracted; corpus generator drifted"
    assert {e.tier for e in full} == {"high", "backoff"}
    assert {e.event_type for e in full} == {"LAUNCH", "FAILURE", "DECOMMISSIONING"}

    # the candidate set must cover every sentence whose tokens admit a trigger
    vocab = word_vocab(80) + [surface for surface, _, _ in TRIGGER_WORDS]
    rng = random.Random(7)
    for i in range(100):
        rule = random_rule(rng, f"probe-{i}", vocab)
        cands = candidate_sentences(index, rule)
        for doc in docs:
            for sent in doc.sentences:
                blank_ner = [None] * len(sent.tokens)
                if find_trigger_spans(sent, rule.trigger, blank_ner):
                    assert (doc.id, sent.id) in cands
    print(
        f"criterion 3 PASS: {len(full)} events identical with/without index "
        f"over {n_sentences} sentences; superset held for 100 rules"
    )


# ---------------------------------------------------------------------------
# 4. the index turns a corpus scan into a near-noop on sparse triggers


def _best_cpu_time(work):
    """``work()``'s result and the least CPU time of three runs of it.

    As with ``timeit``, the least time is the one other load on the host
    disturbed least.  A full collection walks the whole corpus, so it runs
    before each window, not inside it; the window counts only this
    process's CPU time, so time the host gives to others does not count.
    """
    times = []
    for _ in range(3):
        gc.collect()
        started = time.process_time()
        result = work()
        times.append(time.process_time() - started)
    return result, min(times)


def test_criterion_04_indexed_scan_performance():
    docs = timing_corpus(100_000)
    rules = _reference_rules()
    index = build_index(docs)

    indexed, indexed_time = _best_cpu_time(lambda: extract_events(docs, rules, index=index))
    full, full_time = _best_cpu_time(lambda: extract_events(docs, rules))

    assert indexed == full
    assert indexed_time < 10.0, f"indexed extraction took {indexed_time:.2f}s"
    assert full_time >= 10 * indexed_time, (
        f"speedup only {full_time / indexed_time:.1f}x "
        f"({full_time:.2f}s vs {indexed_time:.2f}s)"
    )
    print(
        f"criterion 4 PASS: indexed {indexed_time:.2f}s vs full {full_time:.2f}s "
        f"({full_time / indexed_time:.0f}x) on 100k sentences"
    )


# ---------------------------------------------------------------------------
# 5. BIO encoding round-trips and repairs deviant tag sequences


def test_criterion_05_bio_roundtrip():
    labels = ("SatelliteName", "LaunchVehicle", "LaunchSite", "Organization", "Date")
    rng = random.Random(505)
    for _ in range(1000):
        n = rng.randint(1, 40)
        spans, i = [], 0
        while i < n:
            if rng.random() < 0.4:
                length = rng.randint(1, min(4, n - i))
                spans.append(LabeledSpan("s", i, i + length, rng.choice(labels)))
                i += length
            else:
                i += 1
        assert bio_to_spans(spans_to_bio(n, spans), "s") == spans

    # lenient decoding: orphan I- opens a span, an I- label change splits one
    assert bio_to_spans(["I-X"], "s") == [LabeledSpan("s", 0, 1, "X")]
    assert bio_to_spans(["O", "I-X", "I-X"], "s") == [LabeledSpan("s", 1, 3, "X")]
    assert bio_to_spans(["B-X", "I-Y"], "s") == [
        LabeledSpan("s", 0, 1, "X"),
        LabeledSpan("s", 1, 2, "Y"),
    ]
    print("criterion 5 PASS: 1000 random span layouts round-trip; repairs as documented")


# ---------------------------------------------------------------------------
# 6. the span scorer reproduces hand-computed precision/recall/F1

SCORER_GOLD = """\
{"sentence_id": "s1", "event_type": "LAUNCH", "spans": [{"start": 0, "end": 2, "label": "SatelliteName"}, {"start": 3, "end": 4, "label": "Date"}]}
{"sentence_id": "s2", "event_type": "LAUNCH", "spans": [{"start": 1, "end": 3, "label": "SatelliteName"}, {"start": 0, "end": 1, "label": "Organization"}]}
{"sentence_id": "s3", "event_type": "FAILURE", "spans": [{"start": 2, "end": 4, "label": "LaunchVehicle"}, {"start": 5, "end": 6, "label": "Date"}, {"start": 7, "end": 8, "label": "Organization"}]}
"""

SCORER_PRED = """\
{"sentence_id": "s1", "event_type": "LAUNCH", "spans": [{"start": 0, "end": 2, "label": "SatelliteName"}, {"start": 3, "end": 4, "label": "Date"}]}
{"sentence_id": "s2", "event_type": "LAUNCH", "spans": [{"start": 1, "end": 4, "label": "SatelliteName"}, {"start": 5, "end": 6, "label": "Date"}]}
{"sentence_id": "s3", "event_type": "FAILURE", "spans": [{"start": 2, "end": 4, "label": "LaunchVehicle"}, {"start": 5, "end": 6, "label": "Date"}, {"start": 7, "end": 8, "label": "Organization"}]}
"""


def test_criterion_06_scorer_hand_counts():
    gold = read_annotations(SCORER_GOLD)
    pred = read_annotations(SCORER_PRED)
    report = score_slots(gold, pred)

    by_key = {(row.event_type, row.slot): row for row in report.rows}
    # hand counts: s1 both spans exact, s2 SatelliteName boundary miss plus a
    # spurious Date and a missed Organization, s3 all exact
    expected = {
        ("LAUNCH", "SatelliteName"): (1, 1, 1, 0.5, 0.5, 0.5),
        ("LAUNCH", "Organization"): (0, 0, 1, 0.0, 0.0, 0.0),
        ("LAUNCH", "Date"): (1, 1, 0, 0.5, 1.0, 2 / 3),
        ("FAILURE", "LaunchVehicle"): (1, 0, 0, 1.0, 1.0, 1.0),
        ("FAILURE", "Organization"): (1, 0, 0, 1.0, 1.0, 1.0),
        ("FAILURE", "Date"): (1, 0, 0, 1.0, 1.0, 1.0),
    }
    assert set(by_key) == set(expected)
    for key, (tp, fp, fn, p, r, f1) in expected.items():
        row = by_key[key]
        assert (row.tp, row.fp, row.fn) == (tp, fp, fn), key
        assert row.precision == pytest.approx(p, abs=1e-12)
        assert row.recall == pytest.approx(r, abs=1e-12)
        assert row.f1 == pytest.approx(f1, abs=1e-12)

    # micro rows equal pooled-count arithmetic
    micro = {row.slot: row for row in report.micro}
    assert (micro["Organization"].tp, micro["Organization"].fp, micro["Organization"].fn) == (1, 0, 1)
    assert micro["Organization"].f1 == pytest.approx(2 * 1.0 * 0.5 / 1.5, abs=1e-12)
    assert (micro["Date"].tp, micro["Date"].fp, micro["Date"].fn) == (2, 1, 0)
    assert micro["Date"].f1 == pytest.approx(0.8, abs=1e-12)
    assert micro_average(gold, pred) == micro

    perfect = score_slots(gold, gold)
    for row in perfect.rows + perfect.micro:
        assert row.precision == row.recall == row.f1 == 1.0

    header = report.format_table().splitlines()[0].split()
    assert header == ["Event", "Slot", "Pr", "Re", "F1", "N"]
    print("criterion 6 PASS: scorer matches hand counts; micro equals pooled arithmetic")


# ---------------------------------------------------------------------------
# 7. corpus statistics: released annotation counts, or the bundled fixture

RELEASED_ROWS = [
    ("DECOMMISSIONING", "train", 81, 396, 3064),
    ("DECOMMISSIONING", "dev", 17, 75, 487),
    ("DECOMMISSIONING", "test", 17, 68, 504),
    ("FAILURE", "train", 310, 2748, 12905),
    ("FAILURE", "dev", 63, 580, 2656),
    ("FAILURE", "test", 63, 449, 2043),
    ("LAUNCH", "train", 537, 5646, 25855),
    ("LAUNCH", "dev", 350, 2890, 13357),
    ("LAUNCH", "test", 350, 3059, 12747),
]


def test_criterion_07_dataset_statistics():
    released = os.environ.get("SPACEVENTS_ANNOTATIONS")
    if released:
        with open(released, encoding="utf-8") as handle:
            rows = corpus_stats(read_annotations(handle.read()))
        flat = [
            (r.event_type, r.split, r.sentences, r.tagged_tokens, r.total_tokens)
            for r in rows
        ]
        assert flat == RELEASED_ROWS
        assert sum(r.tagged_tokens for r in rows) == 15911
        assert sum(r.total_tokens for r in rows) == 73618
        print("criterion 7 PASS: released annotation statistics reproduced exactly")
        return

    fixture = (FIXTURES / "annotation_stats.jsonl").read_text(encoding="utf-8")
    rows = corpus_stats(read_annotations(fixture))
    flat = [
        (r.event_type, r.split, r.sentences, r.tagged_tokens, r.total_tokens)
        for r in rows
    ]
    assert flat == [
        ("DECOMMISSIONING", "unassigned", 1, 1, 6),
        ("FAILURE", "test", 1, 4, 10),
        ("LAUNCH", "train", 2, 6, 21),
        ("LAUNCH", "dev", 1, 0, 7),
    ]
    print("criterion 7 PASS: bundled fixture statistics match hand counts")


# ---------------------------------------------------------------------------
# 8. schemas carry the full slot inventory and enforce anchors


def _event(event_type, slots):
    return EventMention(
        event_type=event_type,
        doc_id="d",
        sentence_id="s",
        trigger=(0, 1),
        slots=slots,
        rule_name="r",
        tier="high",
    )


def _fill(name):
    return {name: (Mention("s", 0, 1, "SPACECRAFT", "domain"),)}


def test_criterion_08_schema_conformance():
    assert len(SCHEMAS["LAUNCH"].slot_names()) == 6
    assert len(SCHEMAS["FAILURE"].slot_names()) == 5
    assert len(SCHEMAS["DECOMMISSIONING"].slot_names()) == 3
    for schema in SCHEMAS.values():
        generic = [s.name for s in schema.slots if s.generic]
        assert generic == ["Organization", "Date"]

    cases = []
    for event_type in ("LAUNCH", "FAILURE", "DECOMMISSIONING"):
        anchor = ANCHOR_SLOTS[event_type][0]
        cases.append((_event(event_type, _fill(anchor)), True))
        cases.append((_event(event_type, _fill("Organization")), False))
        cases.append((_event(event_type, _fill("Payload")), False))
    assert len(cases) == 9
    for event, expected in cases:
        assert validate_event(event).valid is expected, event
    print("criterion 8 PASS: slot inventory (6/5/3) and anchor rule on 9 cases")


# ---------------------------------------------------------------------------
# 9. consensus adjudication and per-annotator agreement

X = LabeledSpan("s1", 0, 3, "SatelliteName")
D = LabeledSpan("s1", 5, 6, "Date")
V = LabeledSpan("s2", 1, 4, "LaunchVehicle")
G = LabeledSpan("s2", 6, 8, "Organization")
N1 = LabeledSpan("s2", 0, 1, "Date")
N2 = LabeledSpan("s1", 4, 5, "Organization")


def test_criterion_09_consensus_and_agreement():
    # vote table: X 3 votes; D, V, G 2 votes; N1, N2 1 vote each
    layers = [
        AnnotationLayer("a", (X, D, V)),
        AnnotationLayer("b", (X, D, V, G)),
        AnnotationLayer("c", (X, G, N1, N2)),
    ]
    adjudicated = consensus(layers)
    assert adjudicated == [X, D, V, G]

    assert agreement(layers[0], adjudicated) == {"precision": 1.0, "recall": 0.75}
    assert agreement(layers[1], adjudicated) == {"precision": 1.0, "recall": 1.0}
    assert agreement(layers[2], adjudicated) == {"precision": 0.5, "recall": 0.5}
    print("criterion 9 PASS: consensus and agreement match the hand-derived vote table")


# ---------------------------------------------------------------------------
# 10. the pipeline is byte-deterministic across runs and worker counts


def _run_cli(*argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    assert code == 0, err.getvalue()
    return out.getvalue()


def _events_to_annotations(event_lines: str) -> str:
    """Fold extracted events into the gold/pred record format."""
    groups: dict[tuple, list] = {}
    for line in event_lines.splitlines():
        event = json.loads(line)
        key = (event["doc_id"], event["sentence_id"], event["event_type"])
        spans = groups.setdefault(key, [])
        for label, fills in event["slots"].items():
            for start, end in fills:
                spans.append((start, end, label))
    records = []
    for (doc_id, sid, event_type), spans in sorted(groups.items()):
        kept, cursor = [], 0
        for start, end, label in sorted(set(spans)):
            if start >= cursor:
                kept.append({"start": start, "end": end, "label": label})
                cursor = end
        records.append(
            json.dumps(
                {"sentence_id": f"{doc_id}:{sid}", "event_type": event_type, "spans": kept},
                separators=(",", ":"),
            )
        )
    return "\n".join(records) + "\n"


def test_criterion_10_pipeline_determinism(tmp_path):
    docs = random_corpus(random.Random(1701), 40, trigger_chance=0.15, entity_chance=0.2)
    corpus = tmp_path / "corpus.conllu"
    corpus.write_text(serialize_conllu(docs), encoding="utf-8")

    events = [
        _run_cli("extract", "--corpus", str(corpus), "--workers", w) for w in ("1", "4", "4")
    ]
    assert events[0] == events[1] == events[2]
    assert events[0], "no events extracted; corpus generator drifted"

    shortlists = [
        _run_cli(
            "shortlist", "--corpus", str(corpus), "--workers", w,
            "--sample", "LAUNCH=0.4", "--seed", "11",
        )
        for w in ("1", "4", "4")
    ]
    assert shortlists[0] == shortlists[1] == shortlists[2]

    annotations = tmp_path / "events.jsonl"
    annotations.write_text(_events_to_annotations(events[0]), encoding="utf-8")
    reports = []
    for run in ("a", "b"):
        json_path = tmp_path / f"report-{run}.json"
        table = _run_cli(
            "score", "--gold", str(annotations), "--pred", str(annotations),
            "--json", str(json_path),
        )
        reports.append((table, json_path.read_bytes()))
    assert reports[0] == reports[1]
    print("criterion 10 PASS: events, shortlist, and report files byte-identical across runs")
