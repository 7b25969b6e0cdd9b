import pytest

from spacevents import (
    ANCHOR_SLOTS,
    ANNOTATION_HEADER,
    EVENT_TYPES,
    SCHEMAS,
    Document,
    EventMention,
    Mention,
    annotation_task_records,
    shortlist,
    validate_event,
)
from spacevents.errors import InputError, SchemaError

from helpers import make_sentence


def _event(event_type="LAUNCH", slots=None, doc_id="d", sentence_id="s", rule="r"):
    return EventMention(
        event_type=event_type,
        doc_id=doc_id,
        sentence_id=sentence_id,
        trigger=(0, 1),
        slots=slots if slots is not None else {},
        rule_name=rule,
        tier="high",
    )


def _fill(name, start=0, end=1):
    return {name: (Mention("s", start, end, "SPACECRAFT", "domain"),)}


def test_schema_inventory():
    assert EVENT_TYPES == ("LAUNCH", "FAILURE", "DECOMMISSIONING")
    assert set(SCHEMAS) == set(EVENT_TYPES)
    assert SCHEMAS["LAUNCH"].slot_names() == (
        "SatelliteName",
        "LaunchVehicle",
        "LaunchSite",
        "TargetOrbit",
        "Organization",
        "Date",
    )
    assert SCHEMAS["FAILURE"].slot_names() == (
        "SatelliteName",
        "LaunchVehicle",
        "FailureType",
        "Organization",
        "Date",
    )
    assert SCHEMAS["DECOMMISSIONING"].slot_names() == (
        "SatelliteName",
        "Organization",
        "Date",
    )


def test_schema_slot_details():
    launch = {spec.name: spec for spec in SCHEMAS["LAUNCH"].slots}
    assert launch["SatelliteName"].entity_types == ("SPACECRAFT",)
    assert launch["TargetOrbit"].entity_types == ()  # chunk-only
    assert launch["Organization"].generic
    assert launch["Date"].generic
    assert not launch["SatelliteName"].generic
    failure = {spec.name: spec for spec in SCHEMAS["FAILURE"].slots}
    assert failure["FailureType"].entity_types == ()


def test_anchor_slots():
    assert ANCHOR_SLOTS == {
        "LAUNCH": ("SatelliteName",),
        "FAILURE": ("SatelliteName", "LaunchVehicle"),
        "DECOMMISSIONING": ("SatelliteName",),
    }


def test_validate_event_accepts_anchored_events():
    assert validate_event(_event(slots=_fill("SatelliteName")))
    assert validate_event(_event("FAILURE", _fill("SatelliteName")))
    assert validate_event(_event("FAILURE", _fill("LaunchVehicle")))
    assert validate_event(_event("DECOMMISSIONING", _fill("SatelliteName")))


def test_validate_event_rejections():
    result = validate_event(_event(slots={}))
    assert not result
    assert "missing anchor slot" in result.reason
    assert "SatelliteName" in result.reason

    result = validate_event(_event("FAILURE", _fill("Date")))
    assert not result
    assert "SatelliteName or LaunchVehicle" in result.reason

    result = validate_event(_event(slots=_fill("Payload")))
    assert not result
    assert result.reason == "unknown slot: Payload"

    # decommissioning has no LaunchVehicle slot at all
    result = validate_event(_event("DECOMMISSIONING", _fill("LaunchVehicle")))
    assert result.reason == "unknown slot: LaunchVehicle"


def test_validate_event_empty_anchor_tuple_is_missing():
    event = _event(slots={"SatelliteName": ()})
    result = validate_event(event)
    assert not result
    assert "missing anchor slot" in result.reason


def test_validate_event_unknown_type_is_an_error():
    with pytest.raises(SchemaError, match="unknown event type 'IMPACT'"):
        validate_event(_event("IMPACT", _fill("SatelliteName")))


def test_validate_event_valid_result_has_no_reason():
    result = validate_event(_event(slots=_fill("SatelliteName")))
    assert result.valid
    assert result.reason is None


# ---------------------------------------------------------------------------
# shortlist


def _events_over(n, event_type="LAUNCH"):
    return [
        _event(event_type, _fill("SatelliteName"), doc_id=f"d{i}", sentence_id="s")
        for i in range(n)
    ]


def test_shortlist_groups_by_sentence_and_type():
    a1 = _event(slots=_fill("SatelliteName"), rule="r1")
    a2 = _event(slots=_fill("SatelliteName"), rule="r2")
    b = _event("FAILURE", _fill("LaunchVehicle"))
    c = _event(slots=_fill("SatelliteName"), doc_id="other")
    out = shortlist([a1, a2, b, c])
    assert [(cand.doc_id, cand.sentence_id, cand.event_type) for cand in out] == [
        ("d", "s", "LAUNCH"),
        ("d", "s", "FAILURE"),
        ("other", "s", "LAUNCH"),
    ]
    assert out[0].events == (a1, a2)
    assert all(cand.sampled for cand in out)


def test_shortlist_drops_invalid_events():
    good = _event(slots=_fill("SatelliteName"))
    bad = _event(slots={}, doc_id="dbad")
    out = shortlist([good, bad])
    assert [(c.doc_id, c.event_type) for c in out] == [("d", "LAUNCH")]


def test_shortlist_sampling_is_exact_and_seeded():
    events = _events_over(100)
    out = shortlist(events, sample={"LAUNCH": 0.30}, seed=11)
    kept = [cand for cand in out if cand.sampled]
    assert len(out) == 100
    assert len(kept) == 30
    again = shortlist(events, sample={"LAUNCH": 0.30}, seed=11)
    assert [c.sampled for c in again] == [c.sampled for c in out]
    other_seed = shortlist(events, sample={"LAUNCH": 0.30}, seed=12)
    assert [c.sampled for c in other_seed] != [c.sampled for c in out]


def test_shortlist_sampling_rounds_half_up():
    out = shortlist(_events_over(3), sample={"LAUNCH": 0.5}, seed=0)
    assert sum(c.sampled for c in out) == 2  # round(1.5) up


def test_shortlist_sampling_is_per_event_type():
    events = _events_over(10) + _events_over(10, "FAILURE")
    out = shortlist(events, sample={"LAUNCH": 0.2}, seed=3)
    launch_kept = sum(c.sampled for c in out if c.event_type == "LAUNCH")
    failure_kept = sum(c.sampled for c in out if c.event_type == "FAILURE")
    assert launch_kept == 2
    assert failure_kept == 10  # unsampled types keep everything


def test_shortlist_rejects_bad_fraction_and_unknown_type():
    events = _events_over(4)
    for bad in (0.0, -0.2, 1.5):
        with pytest.raises(InputError, match="sample fraction"):
            shortlist(events, sample={"LAUNCH": bad})
    with pytest.raises(SchemaError, match="unknown event type"):
        shortlist([_event("IMPACT", _fill("SatelliteName"))])
    for sample in ({"LANCH": 0.5}, {"LAUNCH": 0.5, "launch": 1.0}):
        for given in (events, []):
            with pytest.raises(InputError, match="sample names unknown event type"):
                shortlist(given, sample=sample)


def test_shortlist_keeps_input_order():
    events = _events_over(50)
    out = shortlist(events, sample={"LAUNCH": 0.5}, seed=1)
    assert [c.doc_id for c in out] == [f"d{i}" for i in range(50)]


# ---------------------------------------------------------------------------
# annotation tasks


def _corpus_for(doc_id="d", sent_id="s"):
    sent = make_sentence(
        sent_id,
        [
            ("NASA", "NASA", "PROPN", 1, "nsubj"),
            ("launched", "launch", "VERB", -1, "root"),
            ("Telkom-3", "Telkom-3", "PROPN", 1, "obj"),
        ],
    )
    return [Document(id=doc_id, sentences=(sent,))]


def test_annotation_records_shape_and_suggestions():
    event = _event(
        slots={
            "SatelliteName": (Mention("s", 2, 3, "SPACECRAFT", "domain"),),
            "Organization": (Mention("s", 0, 1, "ORGANIZATION", "domain"),),
        }
    )
    records = annotation_task_records(shortlist([event]), _corpus_for())
    assert records == [
        {
            "sentence_id": "s",
            "doc_id": "d",
            "event_type": "LAUNCH",
            "text": "NASA launched Telkom-3",
            "tokens": ["NASA", "launched", "Telkom-3"],
            "suggestions": [
                {"start": 2, "end": 3, "label": "SatelliteName"},
                {"start": 0, "end": 1, "label": "Organization"},
            ],
        }
    ]


def test_annotation_records_skip_unsampled():
    events = _events_over(10)
    docs = [_corpus_for(doc_id=f"d{i}")[0] for i in range(10)]
    candidates = shortlist(events, sample={"LAUNCH": 0.3}, seed=5)
    records = annotation_task_records(candidates, docs)
    assert len(records) == 3
    sampled_ids = [c.doc_id for c in candidates if c.sampled]
    assert [r["doc_id"] for r in records] == sampled_ids


def test_annotation_records_unknown_sentence_is_an_error():
    event = _event(slots=_fill("SatelliteName"), doc_id="ghost")
    with pytest.raises(InputError, match="unknown sentence 's' in document 'ghost'"):
        annotation_task_records(shortlist([event]), _corpus_for())


def test_annotation_header_constant():
    assert ANNOTATION_HEADER == {"format": "annotation-tasks", "version": 1}
