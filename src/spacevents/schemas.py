"""Event schemas, event validation, and the annotation shortlist.

Three event types are covered.  Launches carry the fullest frame
(satellite, vehicle, site, target orbit, plus the generic organization
and date slots); failures swap the site/orbit slots for a failure
description; decommissionings keep only the satellite and the generic
slots.  A launch or decommissioning event is only worth keeping if the
satellite slot is filled; a failure event needs the satellite or the
launch vehicle, since stories often name just the rocket.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .documents import Document, Sentence
from .errors import InputError, SchemaError

if TYPE_CHECKING:  # pragma: no cover
    from .matching import EventMention

EVENT_TYPES = ("LAUNCH", "FAILURE", "DECOMMISSIONING")

# slots that make an event minimally reportable; at least one must be filled
ANCHOR_SLOTS: dict[str, tuple[str, ...]] = {
    "LAUNCH": ("SatelliteName",),
    "FAILURE": ("SatelliteName", "LaunchVehicle"),
    "DECOMMISSIONING": ("SatelliteName",),
}


@dataclass(frozen=True)
class SlotSpec:
    name: str
    entity_types: tuple[str, ...]
    generic: bool = False


@dataclass(frozen=True)
class EventSchema:
    event_type: str
    slots: tuple[SlotSpec, ...]

    def slot_names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self.slots)


_ORG = SlotSpec("Organization", ("ORGANIZATION",), generic=True)
_DATE = SlotSpec("Date", ("DATE",), generic=True)
# The slots every event type shares; scoring micro-averages over them.
GENERIC_SLOTS = (_ORG.name, _DATE.name)

SCHEMAS: dict[str, EventSchema] = {
    "LAUNCH": EventSchema(
        "LAUNCH",
        (
            SlotSpec("SatelliteName", ("SPACECRAFT",)),
            SlotSpec("LaunchVehicle", ("LAUNCH_VEHICLE",)),
            SlotSpec("LaunchSite", ("LAUNCH_SITE",)),
            SlotSpec("TargetOrbit", ()),  # chunk-only slot, no entity type for orbits
            _ORG,
            _DATE,
        ),
    ),
    "FAILURE": EventSchema(
        "FAILURE",
        (
            SlotSpec("SatelliteName", ("SPACECRAFT",)),
            SlotSpec("LaunchVehicle", ("LAUNCH_VEHICLE",)),
            SlotSpec("FailureType", ()),
            _ORG,
            _DATE,
        ),
    ),
    "DECOMMISSIONING": EventSchema(
        "DECOMMISSIONING",
        (
            SlotSpec("SatelliteName", ("SPACECRAFT",)),
            _ORG,
            _DATE,
        ),
    ),
}


@dataclass(frozen=True)
class ValidationResult:
    valid: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.valid


def validate_event(event: "EventMention") -> ValidationResult:
    """Decide whether an extracted event is worth keeping.

    Unknown slot names make the event invalid; a missing anchor slot
    (see ``ANCHOR_SLOTS``) does too.  An unknown event type is a hard
    error rather than an invalid event.
    """
    schema = SCHEMAS.get(event.event_type)
    if schema is None:
        raise SchemaError(f"unknown event type {event.event_type!r}")
    known = set(schema.slot_names())
    for name in event.slots:
        if name not in known:
            return ValidationResult(False, f"unknown slot: {name}")
    anchors = ANCHOR_SLOTS[schema.event_type]
    if not any(event.slots.get(name) for name in anchors):
        return ValidationResult(False, f"missing anchor slot ({' or '.join(anchors)})")
    return ValidationResult(True)


@dataclass(frozen=True)
class CandidateSentence:
    doc_id: str
    sentence_id: str
    event_type: str
    events: tuple["EventMention", ...]
    sampled: bool


def _round_half_up(value: float) -> int:
    return math.floor(value + 0.5)


def sample_fractions(sample: Mapping[str, float] | None) -> dict[str, float]:
    """``sample`` as a dict of retention fractions per event type.

    An unknown event type or a fraction outside (0, 1] is an ``InputError``.
    """
    fractions = dict(sample) if sample else {}
    for event_type, fraction in fractions.items():
        if not 0.0 < fraction <= 1.0:
            raise InputError(
                f"sample fraction for {event_type} must be in (0, 1], got {fraction}"
            )
        if event_type not in EVENT_TYPES:
            raise InputError(
                f"sample names unknown event type {event_type!r} "
                f"(expected one of {', '.join(EVENT_TYPES)})"
            )
    return fractions


def shortlist(
    events: Iterable["EventMention"],
    sample: Mapping[str, float] | None = None,
    seed: int = 0,
) -> list[CandidateSentence]:
    """Validated events grouped per (document, sentence, event type).

    ``sample`` maps event types to retention fractions, checked by
    ``sample_fractions``; sampling is sentence-level, seeded, and retains
    round(n * fraction) groups per event type (kept groups stay in input
    order).  Groups that lose the draw are still returned, with
    ``sampled=False``.
    """
    fractions = sample_fractions(sample)
    groups: dict[tuple[str, str, str], list["EventMention"]] = {}
    for event in events:
        if not validate_event(event):
            continue
        key = (event.doc_id, event.sentence_id, event.event_type)
        groups.setdefault(key, []).append(event)

    keys_by_type: dict[str, list[tuple[str, str, str]]] = {}
    for key in groups:
        keys_by_type.setdefault(key[2], []).append(key)
    retained: set[tuple[str, str, str]] = set()
    for event_type in sorted(keys_by_type):
        keys = keys_by_type[event_type]
        fraction = fractions.get(event_type, 1.0)
        keep = _round_half_up(len(keys) * fraction)
        if keep >= len(keys):
            chosen: Sequence[int] = range(len(keys))
        else:
            rng = random.Random(f"{seed}:{event_type}")
            chosen = sorted(rng.sample(range(len(keys)), keep))
        retained.update(keys[i] for i in chosen)

    return [
        CandidateSentence(
            doc_id=key[0],
            sentence_id=key[1],
            event_type=key[2],
            events=tuple(groups[key]),
            sampled=key in retained,
        )
        for key in groups
    ]


ANNOTATION_HEADER = {"format": "annotation-tasks", "version": 1}


def annotation_task_records(
    candidates: Sequence[CandidateSentence], docs: Sequence[Document]
) -> list[dict]:
    """Task records for the sampled candidates, slot fills as suggestions.

    Suggestions carry the slot name as their label and are explicitly
    suggestions, not gold: annotators confirm, fix, or delete them.
    """
    sentences: dict[tuple[str, str], Sentence] = {}
    for doc in docs:
        for sent in doc.sentences:
            sentences[(doc.id, sent.id)] = sent
    records: list[dict] = []
    for cand in candidates:
        if not cand.sampled:
            continue
        sent = sentences.get((cand.doc_id, cand.sentence_id))
        if sent is None:
            raise InputError(
                f"candidate references unknown sentence {cand.sentence_id!r} "
                f"in document {cand.doc_id!r}"
            )
        suggestions = [
            {"start": mention.start, "end": mention.end, "label": slot_name}
            for event in cand.events
            for slot_name, mentions in event.slots.items()
            for mention in mentions
        ]
        records.append(
            {
                "sentence_id": cand.sentence_id,
                "doc_id": cand.doc_id,
                "event_type": cand.event_type,
                "text": sent.text(),
                "tokens": list(sent.surfaces),
                "suggestions": suggestions,
            }
        )
    return records
