"""Span-level annotation handling and evaluation.

Everything here works on labeled token spans (half-open, token-indexed).
Included: BIO encoding/decoding with lenient repair, multi-annotator
consensus by strict majority vote, per-annotator agreement, exact-match
precision/recall/F1 per event type and slot with a micro-average over
the generic slots, corpus statistics per event and split, and the
standard error breakdown (exact, span error, label confusion, spurious,
missed).

A sentence is identified by its ``(doc_id, sentence_id)`` pair, since
sentence ids are unique only within a document; records without a
``doc_id`` share the empty one.  Scoring counts a (start, end, label)
span at most once per sentence, on both the gold and the predicted side.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

from .documents import SPLITS, json_lines, json_value, text_lines
from .errors import InputError, SchemaError
from .schemas import GENERIC_SLOTS, SCHEMAS


@dataclass(frozen=True, slots=True)
class LabeledSpan:
    sentence_id: str
    start: int
    end: int  # exclusive
    label: str
    doc_id: str = ""

    def __post_init__(self):
        for bound in (self.start, self.end):
            if isinstance(bound, bool) or not isinstance(bound, int):
                raise InputError(
                    f"span start and end must be integers, found {bound!r}"
                )
        if not isinstance(self.label, str):
            raise InputError(f"span label must be a string, found {self.label!r}")
        if self.start < 0 or self.end <= self.start:
            raise InputError(
                f"bad span [{self.start}, {self.end}) in sentence {self.sentence_id!r}"
            )

    @property
    def key(self) -> tuple[str, str]:
        """The span's sentence, ``(doc_id, sentence_id)``."""
        return (self.doc_id, self.sentence_id)

    def overlaps(self, other: "LabeledSpan") -> bool:
        return (
            self.key == other.key
            and self.start < other.end
            and other.start < self.end
        )


@dataclass(frozen=True)
class AnnotationLayer:
    annotator_id: str
    spans: tuple[LabeledSpan, ...]

    def __post_init__(self):
        object.__setattr__(self, "spans", tuple(self.spans))


def spans_to_bio(sentence_length: int, spans: Sequence[LabeledSpan]) -> list[str]:
    """Encode non-overlapping spans of one sentence as BIO tags."""
    tags = ["O"] * sentence_length
    owner: list[LabeledSpan | None] = [None] * sentence_length
    for span in sorted(spans, key=lambda s: (s.start, s.end)):
        if span.end > sentence_length:
            raise InputError(
                f"span [{span.start}, {span.end}) exceeds sentence length "
                f"{sentence_length}"
            )
        for i in range(span.start, span.end):
            if owner[i] is not None:
                raise InputError(f"overlapping spans: {owner[i]} and {span}")
            owner[i] = span
        tags[span.start] = f"B-{span.label}"
        for i in range(span.start + 1, span.end):
            tags[i] = f"I-{span.label}"
    return tags


def bio_to_spans(tags: Sequence[str], sentence_id: str = "") -> list[LabeledSpan]:
    """Decode BIO tags, leniently: an orphan I- starts a new span."""
    spans: list[LabeledSpan] = []
    label: str | None = None
    start = 0
    for i, tag in enumerate(tags):
        if tag.startswith("B-"):
            if label is not None:
                spans.append(LabeledSpan(sentence_id, start, i, label))
            label, start = tag[2:], i
        elif tag.startswith("I-"):
            if tag[2:] != label:
                if label is not None:
                    spans.append(LabeledSpan(sentence_id, start, i, label))
                label, start = tag[2:], i
        else:
            if label is not None:
                spans.append(LabeledSpan(sentence_id, start, i, label))
            label = None
    if label is not None:
        spans.append(LabeledSpan(sentence_id, start, len(tags), label))
    return spans


def consensus(layers: Sequence[AnnotationLayer]) -> list[LabeledSpan]:
    """Spans kept by strict majority vote across annotation layers.

    A span counts once per layer it appears in exactly; it survives with
    more than half the layers behind it.  Should surviving spans still
    overlap, the higher vote count wins, then the longer span, then the
    leftmost.
    """
    if len(layers) < 2:
        raise InputError("consensus needs at least two annotation layers")
    votes: Counter[LabeledSpan] = Counter()
    for layer in layers:
        for span in set(layer.spans):
            votes[span] += 1
    majority = [span for span, count in votes.items() if count > len(layers) / 2]
    majority.sort(
        key=lambda s: (
            -votes[s],
            -(s.end - s.start),
            s.key,
            s.start,
            s.end,
            s.label,
        )
    )
    kept: list[LabeledSpan] = []
    for span in majority:
        if not any(span.overlaps(existing) for existing in kept):
            kept.append(span)
    kept.sort(key=lambda s: (s.key, s.start, s.end, s.label))
    return kept


def agreement(
    layer: AnnotationLayer, consensus_spans: Sequence[LabeledSpan]
) -> dict[str, float]:
    """Exact-match precision/recall of one annotator against the consensus."""
    mine = set(layer.spans)
    gold = set(consensus_spans)
    tp = len(mine & gold)
    precision = tp / len(mine) if mine else 0.0
    recall = tp / len(gold) if gold else 0.0
    return {"precision": precision, "recall": recall}


# ---------------------------------------------------------------------------
# sentence-level annotation records (gold/pred files, stats input)


@dataclass(frozen=True)
class SentenceAnnotation:
    sentence_id: str
    event_type: str
    spans: tuple[LabeledSpan, ...]
    split: str | None = None
    n_tokens: int | None = None
    doc_id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "spans", tuple(self.spans))

    @property
    def key(self) -> tuple[str, str]:
        """The sentence's identity, ``(doc_id, sentence_id)``."""
        return (self.doc_id, self.sentence_id)


def _spell(key: tuple[str, str]) -> str:
    doc_id, sentence_id = key
    return f"{doc_id}/{sentence_id}" if doc_id else sentence_id


def read_annotations(source) -> list[SentenceAnnotation]:
    """Read sentence annotation records from JSON lines.

    Required fields: ``sentence_id``, ``event_type``, ``spans`` (each
    with integer ``start``, ``end`` and a string ``label``).  Optional:
    ``doc_id``, ``split`` and either a non-negative integer ``n_tokens``
    or a ``tokens`` list (needed for corpus statistics).
    Spans within one record must not overlap, nor end past that token count.
    """
    records: list[SentenceAnnotation] = []
    for line_no, line in json_lines(text_lines(source)):
        obj = json_value(line, line_no)
        if not isinstance(obj, dict):
            raise SchemaError(f"line {line_no}: record must be an object")
        for key in ("sentence_id", "event_type"):
            if not isinstance(obj.get(key), str):
                raise SchemaError(f"line {line_no}: missing or non-string {key}")
        doc_id = obj.get("doc_id", "")
        if not isinstance(doc_id, str):
            raise SchemaError(f"line {line_no}: doc_id must be a string")
        raw_spans = obj.get("spans")
        if not isinstance(raw_spans, list):
            raise SchemaError(f"line {line_no}: missing spans list")
        spans = []
        for i, raw_span in enumerate(raw_spans):
            if not isinstance(raw_span, dict):
                raise SchemaError(f"line {line_no}: spans[{i}] must be an object")
            try:
                spans.append(
                    LabeledSpan(
                        sentence_id=obj["sentence_id"],
                        start=raw_span["start"],
                        end=raw_span["end"],
                        label=raw_span["label"],
                        doc_id=doc_id,
                    )
                )
            except (KeyError, TypeError):
                raise SchemaError(
                    f"line {line_no}: spans[{i}] needs start, end, and label"
                )
            except InputError as exc:
                raise SchemaError(f"line {line_no}: spans[{i}]: {exc}")
        for i, a in enumerate(spans):
            for b in spans[i + 1 :]:
                if a.overlaps(b):
                    raise SchemaError(f"line {line_no}: overlapping spans {a} and {b}")
        n_tokens = obj.get("n_tokens")
        if n_tokens is None and isinstance(obj.get("tokens"), list):
            n_tokens = len(obj["tokens"])
        if n_tokens is not None and (
            isinstance(n_tokens, bool) or not isinstance(n_tokens, int) or n_tokens < 0
        ):
            raise SchemaError(
                f"line {line_no}: n_tokens must be an integer, not negative"
            )
        for i, span in enumerate(spans):
            if n_tokens is not None and span.end > n_tokens:
                raise SchemaError(
                    f"line {line_no}: spans[{i}] ends at {span.end}, "
                    f"past the sentence's {n_tokens} tokens"
                )
        split = obj.get("split")
        if split is not None and not isinstance(split, str):
            raise SchemaError(f"line {line_no}: split must be a string")
        records.append(
            SentenceAnnotation(
                sentence_id=obj["sentence_id"],
                event_type=obj["event_type"],
                spans=tuple(spans),
                split=split,
                n_tokens=n_tokens,
                doc_id=doc_id,
            )
        )
    return records


# ---------------------------------------------------------------------------
# scoring


def _pct(value: float) -> int:
    """A fraction as a whole percentage, rounded half up."""
    return int(value * 100 + 0.5)


def _rank(value: str, known: Sequence[str]) -> tuple[int, str]:
    """Table order: ``known`` values in their order, then other values by name."""
    if value in known:
        return (known.index(value), "")
    return (len(known), value)


@dataclass(frozen=True)
class SlotScore:
    event_type: str
    slot: str
    tp: int
    fp: int
    fn: int

    @property
    def n_gold(self) -> int:
        return self.tp + self.fn

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


@dataclass(frozen=True)
class EvalReport:
    rows: tuple[SlotScore, ...]
    micro: tuple[SlotScore, ...]

    def to_dict(self) -> dict:
        def row(s: SlotScore) -> dict:
            derived = {"n_gold": s.n_gold, "precision": s.precision, "recall": s.recall, "f1": s.f1}
            return {**asdict(s), **derived}

        return {"rows": [row(s) for s in self.rows], "micro": [row(s) for s in self.micro]}

    def format_table(self) -> str:
        header = f"{'Event':<18} {'Slot':<16} {'Pr':>4} {'Re':>4} {'F1':>4} {'N':>6}"
        lines = [header, "-" * len(header)]
        named = [(s.event_type.title(), s) for s in self.rows]
        for event, s in named + [("Generic (micro)", s) for s in self.micro]:
            lines.append(
                f"{event:<18} {s.slot:<16} {_pct(s.precision):>4} {_pct(s.recall):>4} "
                f"{_pct(s.f1):>4} {s.n_gold:>6}"
            )
        return "\n".join(lines)


def _span_sets(
    records: Sequence[SentenceAnnotation],
) -> dict[str, dict[tuple[str, str], set[tuple[int, int, str]]]]:
    """event type -> sentence key -> spans."""
    out: dict[str, dict[tuple[str, str], set[tuple[int, int, str]]]] = defaultdict(dict)
    for record in records:
        spans = out[record.event_type].setdefault(record.key, set())
        spans.update((s.start, s.end, s.label) for s in record.spans)
    return out


def _aligned(gold: Sequence[SentenceAnnotation], pred: Sequence[SentenceAnnotation]):
    """(event type, sentence key, gold spans, pred spans) per sentence, sorted.

    Every sentence either side names is yielded; a side that does not name
    it gives None for its spans.
    """
    sides = (_span_sets(gold), _span_sets(pred))
    keys = {(event_type, key) for side in sides for event_type in side for key in side[event_type]}
    for event_type, key in sorted(keys):
        yield (event_type, key, *(side.get(event_type, {}).get(key) for side in sides))


def _tally(
    gold: Sequence[SentenceAnnotation], pred: Sequence[SentenceAnnotation]
) -> dict[tuple[str, str], list[int]]:
    """(event type, label) -> [tp, fp, fn], spans deduplicated per sentence."""
    counts: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0, 0])
    missing: dict[str, tuple[list, list]] = {}  # event type -> (from pred, from gold)
    for event_type, key, gold_spans, pred_spans in _aligned(gold, pred):
        if gold_spans is None or pred_spans is None:
            missing.setdefault(event_type, ([], []))[gold_spans is None].append(key)
            continue
        for i, spans in enumerate(
            (gold_spans & pred_spans, pred_spans - gold_spans, gold_spans - pred_spans)
        ):
            for _, _, label in spans:
                counts[(event_type, label)][i] += 1
    if missing:
        event_type = min(missing)
        parts = [f"sentence sets differ for {event_type}"]
        for side, keys in zip(("pred", "gold"), missing[event_type]):
            if keys:
                parts.append(f"missing from {side}: {', '.join(map(_spell, keys))}")
        raise InputError("; ".join(parts))
    return counts


def score_slots(
    gold: Sequence[SentenceAnnotation],
    pred: Sequence[SentenceAnnotation],
) -> EvalReport:
    """Exact-match span scores per (event type, slot), plus the generic micro rows.

    Gold and pred must cover the same sentences per event type; supply
    empty span lists for sentences without predictions.  Rows follow the
    schemas' event and slot order, with unknown values after, by name.
    """
    counts = _tally(gold, pred)

    def order(key: tuple[str, str]) -> tuple:
        event_type, label = key
        slots = SCHEMAS[event_type].slot_names() if event_type in SCHEMAS else ()
        return (_rank(event_type, list(SCHEMAS)), _rank(label, slots))

    rows = tuple(SlotScore(*key, *counts[key]) for key in sorted(counts, key=order))
    micro = tuple(_pooled_scores(counts, GENERIC_SLOTS).values())
    return EvalReport(rows=rows, micro=micro)


def _pooled_scores(
    counts: Mapping[tuple[str, str], Sequence[int]], slots: Sequence[str]
) -> dict[str, SlotScore]:
    """TP/FP/FN summed over every event type, for each of ``slots``."""
    out: dict[str, SlotScore] = {}
    for slot in slots:
        pooled = [c for (_, label), c in counts.items() if label == slot]
        out[slot] = SlotScore("ALL", slot, *(sum(c[i] for c in pooled) for i in range(3)))
    return out


def micro_average(
    gold: Sequence[SentenceAnnotation],
    pred: Sequence[SentenceAnnotation],
    slots: Sequence[str] = GENERIC_SLOTS,
) -> dict[str, SlotScore]:
    """Pool TP/FP/FN across event types for the given slots."""
    return _pooled_scores(_tally(gold, pred), slots)


# ---------------------------------------------------------------------------
# corpus statistics


@dataclass(frozen=True)
class StatsRow:
    event_type: str
    split: str
    sentences: int
    tagged_tokens: int
    total_tokens: int


def corpus_stats(annotations: Sequence[SentenceAnnotation]) -> list[StatsRow]:
    """Sentences, tagged tokens, and total tokens per (event type, split).

    Records for the same sentence and event type count once, with the
    union of their spans, as in scoring; they must agree on the split and
    the token count.  Rows are ordered by event type, then by split in
    ``SPLITS`` order, with any other split after, by name.
    """
    merged: dict[tuple[str, tuple[str, str]], tuple[str, int]] = {}
    for record in annotations:
        if record.n_tokens is None:
            raise InputError(
                f"record for sentence {_spell(record.key)!r} has no token count"
            )
        facts = (record.split or "unassigned", record.n_tokens)
        if merged.setdefault((record.event_type, record.key), facts) != facts:
            raise InputError(
                f"records for sentence {_spell(record.key)!r} and event type "
                f"{record.event_type} disagree on the split or the token count"
            )
    spans = _span_sets(annotations)
    totals: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0, 0])
    for (event_type, sentence), (split, n_tokens) in merged.items():
        row = totals[(event_type, split)]  # sentences, tagged tokens, total tokens
        row[0] += 1
        row[1] += sum(end - start for start, end, _ in spans[event_type][sentence])
        row[2] += n_tokens
    rows = [StatsRow(event_type, split, *row) for (event_type, split), row in totals.items()]
    return sorted(rows, key=lambda r: (r.event_type, _rank(r.split, SPLITS)))


def format_stats(rows: Sequence[StatsRow]) -> str:
    """The ``stats`` table of ``corpus_stats`` rows."""
    header = f"{'Event':<18} {'Split':<12} {'Sentences':>10} {'Tagged':>10} {'Tokens':>10}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.event_type.title():<18} {r.split:<12} "
            f"{r.sentences:>10} {r.tagged_tokens:>10} {r.total_tokens:>10}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# error buckets

# the buckets a disagreement can land in, as named in ErrorBuckets
ERROR_KINDS = ("span_error", "label_confusion", "spurious", "missed")


@dataclass(frozen=True)
class ErrorBuckets:
    exact: int
    span_error: int
    label_confusion: int
    spurious: int
    missed: int

    @property
    def total_errors(self) -> int:
        return sum(getattr(self, kind) for kind in ERROR_KINDS)

    def proportions(self) -> dict[str, float]:
        total = self.total_errors
        return {kind: getattr(self, kind) / total if total else 0.0 for kind in ERROR_KINDS}

    def format_table(self) -> str:
        header = f"{'Bucket':<16} {'Count':>6} {'Share':>6}"
        lines = [header, "-" * len(header), f"{'exact':<16} {self.exact:>6} {'':>6}"]
        for kind, share in self.proportions().items():
            lines.append(f"{kind:<16} {getattr(self, kind):>6} {_pct(share):>5}%")
        return "\n".join(lines)


def _overlap(a: tuple[int, int, str], b: tuple[int, int, str]) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def classify_errors(
    gold: Sequence[SentenceAnnotation], pred: Sequence[SentenceAnnotation]
) -> ErrorBuckets:
    """Bucket disagreements between gold and predicted spans.

    Unmatched predictions land in exactly one bucket: partial overlap
    with a same-label gold span is a span error, exact boundaries with a
    different label is label confusion, anything else (including partial
    overlap with only differently-labeled gold) is spurious.  Gold spans
    no prediction touches are missed.
    """
    tally: Counter[str] = Counter()
    for _, _, g, p in _aligned(gold, pred):
        g, p = g or set(), p or set()
        tally["exact"] += len(g & p)
        for span in p - g:
            if any(t[2] == span[2] and _overlap(span, t) for t in g):
                tally["span_error"] += 1
            elif any(t[:2] == span[:2] and t[2] != span[2] for t in g):
                tally["label_confusion"] += 1
            else:
                tally["spurious"] += 1
        tally["missed"] += sum(not any(_overlap(span, t) for t in p) for span in g - p)
    return ErrorBuckets(tally["exact"], *(tally[kind] for kind in ERROR_KINDS))
