import json
import random
from dataclasses import replace

import pytest

from spacevents import (
    AnnotationLayer,
    LabeledSpan,
    SentenceAnnotation,
    agreement,
    bio_to_spans,
    classify_errors,
    consensus,
    corpus_stats,
    micro_average,
    read_annotations,
    score_slots,
    spans_to_bio,
)
from spacevents.evaluation import GENERIC_SLOTS, ErrorBuckets
from spacevents.errors import InputError, SchemaError

from helpers import FIXTURES, line_ending_copies, undecodable_json_lines


def _ann(sentence_id, event_type, spans, split=None, n_tokens=None):
    return SentenceAnnotation(
        sentence_id=sentence_id,
        event_type=event_type,
        spans=tuple(LabeledSpan(sentence_id, s, e, lb) for s, e, lb in spans),
        split=split,
        n_tokens=n_tokens,
    )


# ---------------------------------------------------------------------------
# spans and BIO


def test_labeled_span_validation_and_overlap():
    with pytest.raises(InputError, match="bad span"):
        LabeledSpan("s", 2, 2, "Date")
    with pytest.raises(InputError, match="bad span"):
        LabeledSpan("s", -1, 1, "Date")
    a = LabeledSpan("s", 0, 3, "A")
    assert a.overlaps(LabeledSpan("s", 2, 4, "B"))
    assert not a.overlaps(LabeledSpan("s", 3, 4, "B"))  # touching is fine
    assert not a.overlaps(LabeledSpan("other", 0, 3, "A"))


def test_spans_to_bio():
    spans = [LabeledSpan("s", 3, 4, "Date"), LabeledSpan("s", 0, 2, "SatelliteName")]
    assert spans_to_bio(6, spans) == [
        "B-SatelliteName",
        "I-SatelliteName",
        "O",
        "B-Date",
        "O",
        "O",
    ]
    assert spans_to_bio(3, []) == ["O", "O", "O"]


def test_spans_to_bio_adjacent_same_label_spans_stay_apart():
    spans = [LabeledSpan("s", 0, 2, "X"), LabeledSpan("s", 2, 4, "X")]
    tags = spans_to_bio(4, spans)
    assert tags == ["B-X", "I-X", "B-X", "I-X"]
    assert [(sp.start, sp.end) for sp in bio_to_spans(tags)] == [(0, 2), (2, 4)]


def test_spans_to_bio_rejects_overlap_naming_both_spans():
    a = LabeledSpan("s", 0, 3, "A")
    b = LabeledSpan("s", 2, 5, "B")
    with pytest.raises(InputError) as info:
        spans_to_bio(6, [a, b])
    assert "overlapping spans" in str(info.value)
    assert str(a) in str(info.value) and str(b) in str(info.value)


def test_spans_to_bio_rejects_out_of_range():
    with pytest.raises(InputError, match="exceeds sentence length 3"):
        spans_to_bio(3, [LabeledSpan("s", 1, 5, "A")])


def test_bio_to_spans_lenient_decoding():
    assert bio_to_spans(["I-X", "I-X", "O"], "s") == [LabeledSpan("s", 0, 2, "X")]
    assert bio_to_spans(["B-X", "I-Y"], "s") == [
        LabeledSpan("s", 0, 1, "X"),
        LabeledSpan("s", 1, 2, "Y"),
    ]
    assert bio_to_spans(["O", "I-X", "B-X"], "s") == [
        LabeledSpan("s", 1, 2, "X"),
        LabeledSpan("s", 2, 3, "X"),
    ]
    assert bio_to_spans(["B-X", "I-X", "I-X"], "s") == [LabeledSpan("s", 0, 3, "X")]
    assert bio_to_spans([], "s") == []
    assert bio_to_spans(["O", "O"], "s") == []


def test_bio_roundtrip_on_random_span_sets():
    rng = random.Random(77)
    labels = ("SatelliteName", "Date", "Organization")
    for _ in range(200):
        n = rng.randint(1, 14)
        spans = []
        i = 0
        while i < n:
            if rng.random() < 0.4:
                end = min(n, i + rng.randint(1, 3))
                spans.append(LabeledSpan("s", i, end, rng.choice(labels)))
                i = end
            else:
                i += 1
        decoded = bio_to_spans(spans_to_bio(n, spans), "s")
        assert decoded == sorted(spans, key=lambda sp: sp.start)


# ---------------------------------------------------------------------------
# consensus and agreement

X = LabeledSpan("s1", 0, 3, "SatelliteName")
D = LabeledSpan("s1", 5, 6, "Date")
V = LabeledSpan("s2", 1, 4, "LaunchVehicle")
G = LabeledSpan("s2", 6, 8, "Organization")
N1 = LabeledSpan("s2", 0, 1, "Date")
N2 = LabeledSpan("s1", 4, 5, "Organization")

LAYER_A = AnnotationLayer("a", (X, D, V))
LAYER_B = AnnotationLayer("b", (X, D, V, G))
LAYER_C = AnnotationLayer("c", (X, G, N1, N2))


def test_consensus_strict_majority():
    result = consensus([LAYER_A, LAYER_B, LAYER_C])
    # X has 3 votes, D/V/G have 2 of 3; N1/N2 have 1 and are dropped
    assert result == [X, D, V, G]


def test_consensus_needs_two_layers():
    with pytest.raises(InputError, match="at least two annotation layers"):
        consensus([LAYER_A])
    with pytest.raises(InputError, match="at least two"):
        consensus([])


def test_consensus_exact_half_is_not_a_majority():
    layers = [
        AnnotationLayer("a", (X,)),
        AnnotationLayer("b", (X,)),
        AnnotationLayer("c", ()),
        AnnotationLayer("d", ()),
    ]
    assert consensus(layers) == []


def test_consensus_duplicate_span_in_one_layer_counts_once():
    doubled = AnnotationLayer("a", (X, X))
    assert consensus([doubled, AnnotationLayer("b", ()), AnnotationLayer("c", ())]) == []


def test_consensus_overlap_resolved_by_votes_then_length():
    p = LabeledSpan("s", 0, 3, "A")
    q = LabeledSpan("s", 2, 4, "A")
    layers = [
        AnnotationLayer("1", (p,)),
        AnnotationLayer("2", (p,)),
        AnnotationLayer("3", (p, q)),
        AnnotationLayer("4", (q,)),
        AnnotationLayer("5", (q,)),
    ]
    # tied at 3 votes each; the longer span wins
    assert consensus(layers) == [p]

    shorter = LabeledSpan("s", 0, 2, "A")
    later = LabeledSpan("s", 1, 3, "B")
    layers = [
        AnnotationLayer("1", (shorter,)),
        AnnotationLayer("2", (shorter,)),
        AnnotationLayer("3", (shorter, later)),
        AnnotationLayer("4", (later,)),
        AnnotationLayer("5", (later,)),
    ]
    # votes and length tie; the leftmost span wins
    assert consensus(layers) == [shorter]


def test_consensus_higher_votes_beat_length():
    long_minority = LabeledSpan("s", 0, 5, "A")
    short_majority = LabeledSpan("s", 1, 2, "A")
    layers = [
        AnnotationLayer("1", (long_minority, short_majority)),
        AnnotationLayer("2", (long_minority, short_majority)),
        AnnotationLayer("3", (short_majority,)),
    ]
    assert consensus(layers) == [short_majority]


def test_consensus_tells_documents_apart():
    # two documents' s0 sentences: their spans share token positions but never overlap
    d1 = LabeledSpan("s0", 0, 2, "SatelliteName", doc_id="d1")
    d2 = LabeledSpan("s0", 1, 3, "Date", doc_id="d2")
    records = read_annotations(
        "\n".join(
            json.dumps(
                {
                    "doc_id": span.doc_id,
                    "sentence_id": "s0",
                    "event_type": "LAUNCH",
                    "spans": [{"start": span.start, "end": span.end, "label": span.label}],
                }
            )
            for span in (d1, d2)
        )
    )
    assert tuple(span for record in records for span in record.spans) == (d1, d2)
    layers = [AnnotationLayer("a", (d1, d2)), AnnotationLayer("b", (d1, d2))]
    assert consensus(layers) == [d1, d2]
    assert agreement(AnnotationLayer("c", (d1,)), [d1, d2]) == {"precision": 1.0, "recall": 0.5}


def test_agreement_against_consensus():
    gold = consensus([LAYER_A, LAYER_B, LAYER_C])
    assert agreement(LAYER_A, gold) == {"precision": 1.0, "recall": 0.75}
    assert agreement(LAYER_B, gold) == {"precision": 1.0, "recall": 1.0}
    assert agreement(LAYER_C, gold) == {"precision": 0.5, "recall": 0.5}


def test_agreement_degenerate_cases():
    empty = AnnotationLayer("e", ())
    assert agreement(empty, [X]) == {"precision": 0.0, "recall": 0.0}
    assert agreement(LAYER_A, []) == {"precision": 0.0, "recall": 0.0}


# ---------------------------------------------------------------------------
# annotation records


def test_read_annotations_happy_path():
    lines = "\n".join(
        [
            json.dumps(
                {
                    "sentence_id": "s1",
                    "event_type": "LAUNCH",
                    "spans": [{"start": 0, "end": 2, "label": "SatelliteName"}],
                    "split": "train",
                    "n_tokens": 9,
                }
            ),
            "",
            json.dumps(
                {
                    "sentence_id": "s2",
                    "event_type": "FAILURE",
                    "spans": [],
                    "tokens": ["a", "b", "c"],
                }
            ),
        ]
    )
    records = read_annotations(lines)
    assert records == [
        _ann("s1", "LAUNCH", [(0, 2, "SatelliteName")], split="train", n_tokens=9),
        _ann("s2", "FAILURE", [], n_tokens=3),
    ]


def test_read_annotations_splits_lines_only_at_line_endings():
    lines = [
        json.dumps(
            {"sentence_id": f"s{i}", "event_type": "LAUNCH", "spans": [], "tokens": tokens},
            ensure_ascii=False,
        )
        for i, tokens in enumerate((["a\u2028b", "c"], ["d\u0085e", "f", "g"]))
    ]
    expected = [_ann("s0", "LAUNCH", [], n_tokens=2), _ann("s1", "LAUNCH", [], n_tokens=3)]
    for ending in ("\n", "\r\n", "\r"):
        assert read_annotations(ending.join(lines) + ending) == expected
    with pytest.raises(SchemaError, match="line 3: invalid JSON"):
        read_annotations("\r\n".join(lines + ["{"]))


def test_annotation_lines_end_at_each_line_ending_however_the_file_is_read():
    text = (FIXTURES / "annotation_stats.jsonl").read_text(encoding="utf-8")
    expected = read_annotations(text)
    assert len(expected) >= 5
    for copy in line_ending_copies(text):
        assert read_annotations(copy) == expected
    lines = text.split("\n")
    broken = "\n".join(lines[:2] + ["{"] + lines[3:])
    messages = set()
    for copy in line_ending_copies(broken):
        with pytest.raises(SchemaError, match="invalid JSON") as caught:
            read_annotations(copy)
        messages.add(str(caught.value))
    (message,) = messages
    assert message.startswith("line 3: invalid JSON")


def test_read_annotations_errors():
    with pytest.raises(SchemaError, match="line 1: invalid JSON"):
        read_annotations("{")
    with pytest.raises(SchemaError, match="record must be an object"):
        read_annotations("[]")
    with pytest.raises(SchemaError, match="missing or non-string sentence_id"):
        read_annotations('{"event_type": "LAUNCH", "spans": []}')
    with pytest.raises(SchemaError, match="missing spans list"):
        read_annotations('{"sentence_id": "s", "event_type": "LAUNCH"}')
    with pytest.raises(SchemaError) as caught:
        read_annotations('{"sentence_id": "s", "event_type": "LAUNCH", "spans": [1]}')
    assert str(caught.value) == "line 1: spans[0] must be an object"
    assert caught.value.line == 1
    with pytest.raises(SchemaError, match=r"spans\[0\] needs start, end, and label"):
        read_annotations(
            '{"sentence_id": "s", "event_type": "LAUNCH", "spans": [{"start": 0}]}'
        )
    with pytest.raises(SchemaError, match=r"spans\[0\]: bad span"):
        read_annotations(
            '{"sentence_id": "s", "event_type": "LAUNCH", '
            '"spans": [{"start": 2, "end": 2, "label": "Date"}]}'
        )
    for bounds in (
        '"start": 0.5, "end": 1', '"start": true, "end": 2', '"start": 0, "end": "2"'
    ):
        with pytest.raises(
            SchemaError, match=r"spans\[0\]: span start and end must be integers"
        ):
            read_annotations(
                '{"sentence_id": "s", "event_type": "LAUNCH", '
                '"spans": [{' + bounds + ', "label": "Date"}]}'
            )
    with pytest.raises(SchemaError, match=r"spans\[0\]: span label must be a string"):
        read_annotations(
            '{"sentence_id": "s", "event_type": "LAUNCH", '
            '"spans": [{"start": 0, "end": 1, "label": 5}]}'
        )
    with pytest.raises(SchemaError, match="line 2: overlapping spans"):
        read_annotations(
            '{"sentence_id": "s", "event_type": "LAUNCH", "spans": []}\n'
            '{"sentence_id": "t", "event_type": "LAUNCH", "spans": ['
            '{"start": 0, "end": 3, "label": "A"}, {"start": 2, "end": 4, "label": "B"}]}'
        )
    with pytest.raises(SchemaError, match="n_tokens must be an integer"):
        read_annotations(
            '{"sentence_id": "s", "event_type": "LAUNCH", "spans": [], "n_tokens": true}'
        )
    with pytest.raises(SchemaError, match="n_tokens must be an integer, not negative"):
        read_annotations(
            '{"sentence_id": "s", "event_type": "LAUNCH", "spans": [], "n_tokens": -3}'
        )
    with pytest.raises(SchemaError, match="split must be a string"):
        read_annotations(
            '{"sentence_id": "s", "event_type": "LAUNCH", "spans": [], "split": 3}'
        )
    with pytest.raises(
        SchemaError, match=r"line 1: spans\[1\] ends at 8, past the sentence's 3 tokens"
    ):
        read_annotations(
            '{"sentence_id": "s", "event_type": "LAUNCH", "n_tokens": 3, "spans": ['
            '{"start": 0, "end": 3, "label": "A"}, {"start": 3, "end": 8, "label": "B"}]}'
        )
    with pytest.raises(SchemaError, match=r"spans\[0\] ends at 3, past the sentence's 2 tokens"):
        read_annotations(
            '{"sentence_id": "s", "event_type": "LAUNCH", "tokens": ["a", "b"], '
            '"spans": [{"start": 1, "end": 3, "label": "A"}]}'
        )
    with pytest.raises(SchemaError, match="doc_id must be a string"):
        read_annotations(
            '{"sentence_id": "s", "event_type": "LAUNCH", "spans": [], "doc_id": null}'
        )


def test_read_annotations_refuses_lines_json_loads_cannot_decode_safely():
    record = {"sentence_id": "s", "event_type": "LAUNCH", "spans": []}
    for line, problem in undecodable_json_lines(record, "sentence_id"):
        with pytest.raises(SchemaError) as caught:
            read_annotations(line)
        assert str(caught.value).startswith(f"line 1: invalid JSON: {problem}")


def test_sentences_are_identified_by_document_and_sentence_id():
    # both documents number their first sentence s0; the prediction puts
    # d2's span on d1's sentence
    def records(d1_spans, d2_spans):
        return read_annotations(
            "\n".join(
                json.dumps(
                    {
                        "doc_id": doc_id,
                        "sentence_id": "s0",
                        "event_type": "LAUNCH",
                        "n_tokens": n_tokens,
                        "spans": [
                            {"start": s, "end": e, "label": "SatelliteName"}
                            for s, e in spans
                        ],
                    }
                )
                for doc_id, n_tokens, spans in (("d1", 5, d1_spans), ("d2", 7, d2_spans))
            )
        )

    gold = records([(0, 1)], [(2, 4)])
    pred = records([(2, 4)], [])
    assert [r.key for r in gold] == [("d1", "s0"), ("d2", "s0")]
    [row] = corpus_stats(gold)
    assert (row.sentences, row.tagged_tokens, row.total_tokens) == (2, 3, 12)
    [score] = score_slots(gold, pred).rows
    assert (score.tp, score.fp, score.fn) == (0, 1, 2)
    assert classify_errors(gold, pred) == ErrorBuckets(
        exact=0, span_error=0, label_confusion=0, spurious=1, missed=2
    )
    with pytest.raises(InputError, match="missing from pred: d2/s0"):
        score_slots(gold, pred[:1])


# ---------------------------------------------------------------------------
# scoring

GOLD = [
    _ann("s1", "LAUNCH", [(0, 2, "SatelliteName"), (3, 4, "Date")]),
    _ann("s2", "LAUNCH", [(1, 3, "SatelliteName"), (0, 1, "Organization")]),
    _ann("s3", "FAILURE", [(2, 3, "LaunchVehicle"), (4, 5, "Date"), (6, 7, "Organization")]),
]

PRED = [
    _ann("s1", "LAUNCH", [(0, 2, "SatelliteName"), (3, 4, "Date")]),
    _ann("s2", "LAUNCH", [(1, 4, "SatelliteName"), (5, 6, "Date")]),
    _ann("s3", "FAILURE", [(2, 3, "LaunchVehicle"), (4, 5, "Date"), (6, 7, "Organization")]),
]


def test_score_slots_counts_and_order():
    report = score_slots(GOLD, PRED)
    rows = {(r.event_type, r.slot): r for r in report.rows}
    sat = rows[("LAUNCH", "SatelliteName")]
    assert (sat.tp, sat.fp, sat.fn) == (1, 1, 1)
    assert sat.precision == sat.recall == sat.f1 == 0.5
    assert sat.n_gold == 2

    org = rows[("LAUNCH", "Organization")]
    assert (org.tp, org.fp, org.fn) == (0, 0, 1)
    assert org.precision == org.recall == org.f1 == 0.0

    date = rows[("LAUNCH", "Date")]
    assert (date.tp, date.fp, date.fn) == (1, 1, 0)
    assert date.precision == 0.5
    assert date.recall == 1.0
    assert date.f1 == pytest.approx(2 / 3)

    for slot in ("LaunchVehicle", "Organization", "Date"):
        row = rows[("FAILURE", slot)]
        assert (row.tp, row.fp, row.fn) == (1, 0, 0)
        assert row.f1 == 1.0

    # rows come out in schema order, LAUNCH before FAILURE
    assert [(r.event_type, r.slot) for r in report.rows] == [
        ("LAUNCH", "SatelliteName"),
        ("LAUNCH", "Organization"),
        ("LAUNCH", "Date"),
        ("FAILURE", "LaunchVehicle"),
        ("FAILURE", "Organization"),
        ("FAILURE", "Date"),
    ]


def test_micro_average_pools_generic_slots():
    report = score_slots(GOLD, PRED)
    micro = {r.slot: r for r in report.micro}
    org = micro["Organization"]
    assert (org.tp, org.fp, org.fn) == (1, 0, 1)
    assert org.precision == 1.0
    assert org.recall == 0.5
    assert org.f1 == pytest.approx(2 / 3)
    date = micro["Date"]
    assert (date.tp, date.fp, date.fn) == (2, 1, 0)
    assert date.precision == pytest.approx(2 / 3)
    assert date.recall == 1.0
    assert date.f1 == pytest.approx(0.8)
    assert micro_average(GOLD, PRED) == {
        "Organization": org,
        "Date": date,
    }
    assert GENERIC_SLOTS == ("Organization", "Date")


def test_perfect_predictions_score_one():
    report = score_slots(GOLD, GOLD)
    assert all(r.precision == r.recall == r.f1 == 1.0 for r in report.rows)
    assert all(r.fp == r.fn == 0 for r in report.rows)


def test_score_requires_matching_sentence_universe():
    gold = [_ann("s1", "LAUNCH", [(0, 1, "Date")])]
    pred = [_ann("s2", "LAUNCH", [])]
    with pytest.raises(InputError) as info:
        score_slots(gold, pred)
    message = str(info.value)
    assert "sentence sets differ for LAUNCH" in message
    assert "missing from pred: s1" in message
    assert "missing from gold: s2" in message


def test_score_deduplicates_spans_per_sentence():
    gold = [
        _ann("s1", "LAUNCH", [(0, 1, "Date")]),
        _ann("s1", "LAUNCH", [(0, 1, "Date")]),
    ]
    pred = [_ann("s1", "LAUNCH", [(0, 1, "Date")])]
    report = score_slots(gold, pred)
    date = next(r for r in report.rows if r.slot == "Date")
    assert (date.tp, date.fp, date.fn) == (1, 0, 0)


def test_report_to_dict_and_table():
    report = score_slots(GOLD, PRED)
    data = report.to_dict()
    assert set(data) == {"rows", "micro"}
    first = data["rows"][0]
    assert first["event_type"] == "LAUNCH"
    assert first["slot"] == "SatelliteName"
    assert set(first) == {
        "event_type", "slot", "tp", "fp", "fn", "n_gold", "precision", "recall", "f1",
    }

    table = report.format_table()
    lines = table.splitlines()
    assert lines[0].split() == ["Event", "Slot", "Pr", "Re", "F1", "N"]
    assert set(lines[1]) == {"-"}
    launch_date = next(l for l in lines if l.startswith("Launch") and " Date" in l)
    assert launch_date == f"{'Launch':<18} {'Date':<16} {50:>4} {100:>4} {67:>4} {1:>6}"
    assert sum(1 for l in lines if l.startswith("Generic (micro)")) == 2


# ---------------------------------------------------------------------------
# corpus statistics


def test_corpus_stats_hand_counts():
    records = [
        _ann("s1", "LAUNCH", [(0, 2, "SatelliteName")], split="train", n_tokens=5),
        _ann("s2", "LAUNCH", [(1, 2, "Date"), (3, 5, "Organization")], split="train", n_tokens=7),
        _ann("s3", "LAUNCH", [], split="dev", n_tokens=4),
        _ann("s4", "FAILURE", [(0, 1, "LaunchVehicle")], n_tokens=6),
    ]
    rows = corpus_stats(records)
    as_tuples = [
        (r.event_type, r.split, r.sentences, r.tagged_tokens, r.total_tokens)
        for r in rows
    ]
    assert as_tuples == [
        ("FAILURE", "unassigned", 1, 1, 6),
        ("LAUNCH", "train", 2, 5, 12),
        ("LAUNCH", "dev", 1, 0, 4),
    ]


def test_corpus_stats_counts_a_sentence_once_per_event_type():
    records = [
        _ann("s1", "LAUNCH", [(0, 2, "SatelliteName")], split="train", n_tokens=10),
        _ann("s1", "LAUNCH", [(0, 2, "SatelliteName"), (4, 5, "Date")], split="train", n_tokens=10),
        _ann("s1", "FAILURE", [(0, 1, "LaunchVehicle")], split="train", n_tokens=10),
    ]
    rows = [(r.event_type, r.sentences, r.tagged_tokens, r.total_tokens) for r in corpus_stats(records)]
    assert rows == [("FAILURE", 1, 1, 10), ("LAUNCH", 1, 3, 10)]
    for other in (replace(records[1], n_tokens=11), replace(records[1], split="dev")):
        with pytest.raises(InputError, match="records for sentence 's1' and event type LAUNCH disagree"):
            corpus_stats([records[0], other])


def test_corpus_stats_requires_token_counts():
    with pytest.raises(InputError, match="sentence 's1' has no token count"):
        corpus_stats([_ann("s1", "LAUNCH", [])])


# ---------------------------------------------------------------------------
# error buckets


def test_classify_errors_buckets():
    gold = [
        _ann(
            "s1",
            "LAUNCH",
            [(0, 2, "SatelliteName"), (3, 4, "Organization"), (8, 9, "Date")],
        ),
    ]
    pred = [
        _ann(
            "s1",
            "LAUNCH",
            [(0, 3, "SatelliteName"), (3, 4, "Date"), (5, 6, "Organization")],
        ),
    ]
    buckets = classify_errors(gold, pred)
    # (0,3) partially overlaps the same-label gold span: span error
    # (3,4) has exact gold boundaries with another label: label confusion
    # (5,6) touches nothing: spurious; gold (8,9) is untouched: missed
    # the other gold spans are overlapped by predictions, so not missed
    assert buckets == ErrorBuckets(
        exact=0, span_error=1, label_confusion=1, spurious=1, missed=1
    )


def test_classify_errors_exact_and_precedence():
    gold = [
        _ann("s1", "LAUNCH", [(0, 2, "A")]),
        _ann("s1", "LAUNCH", [(0, 3, "B")]),
    ]
    pred = [_ann("s1", "LAUNCH", [(0, 3, "A")])]
    buckets = classify_errors(gold, pred)
    # same-label partial overlap outranks the exact-boundary label clash
    assert buckets.span_error == 1
    assert buckets.label_confusion == 0

    same = classify_errors(GOLD, GOLD)
    assert same.exact == 7
    assert same.total_errors == 0


def test_classify_errors_partial_overlap_with_other_label_is_spurious():
    gold = [_ann("s1", "LAUNCH", [(1, 3, "Organization")])]
    pred = [_ann("s1", "LAUNCH", [(0, 2, "Date")])]
    buckets = classify_errors(gold, pred)
    assert buckets.spurious == 1
    assert buckets.label_confusion == 0
    # the gold span was touched, so it does not count as missed
    assert buckets.missed == 0


def test_error_proportions():
    buckets = ErrorBuckets(exact=10, span_error=1, label_confusion=1, spurious=1, missed=1)
    assert buckets.total_errors == 4
    assert buckets.proportions() == {
        "span_error": 0.25,
        "label_confusion": 0.25,
        "spurious": 0.25,
        "missed": 0.25,
    }
    clean = ErrorBuckets(exact=3, span_error=0, label_confusion=0, spurious=0, missed=0)
    assert clean.proportions() == {
        "span_error": 0.0,
        "label_confusion": 0.0,
        "spurious": 0.0,
        "missed": 0.0,
    }
