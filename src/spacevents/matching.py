"""Rule matching over dependency-parsed sentences.

Trigger token patterns are matched against contiguous token runs,
found through one dispatch table of the rules' first-bracket literals
and verified on the parsed rules themselves (``_Matcher``).  Slot
patterns then walk labeled dependency edges out from the trigger and
turn the tokens they reach into slot fillers.  A filler is either the
whole typed mention containing the reached token (entity fillers) or
the maximal noun-phrase chunk around it (chunk fillers), never the bare
token, so "the Hubble Space Telescope" comes out in one piece.

Path traversal works on frontier sets.  Each step maps the current
frontier to the set of tokens reachable over one matching edge
(``out`` follows head-to-dependent edges, ``in`` the dependent-to-head
edge); an optional step keeps the unstepped frontier as well.  The
start token is dropped from the final frontier, so an all-optional
path cannot fill a slot with the trigger itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .documents import ROOT, Document, Sentence
from .errors import InputError
from .gazetteer import Mention
from .index import InvertedIndex, candidate_sentences, index_term
from .rules import DepPathStep, Rule, TokenPattern

# POS tags the fallback chunker treats as noun-phrase material; covers the
# universal tagset and the Penn Treebank equivalents.
CHUNKABLE_POS = frozenset(
    {
        "DET", "ADJ", "NOUN", "PROPN", "NUM",
        "DT", "JJ", "JJR", "JJS", "NN", "NNS", "NNP", "NNPS", "CD", "HYPH",
    }
)

NerLayer = Callable[[Sentence], Sequence[Mention]]


@dataclass(frozen=True)
class EventMention:
    event_type: str
    doc_id: str
    sentence_id: str
    trigger: tuple[int, int]  # token span, end exclusive
    slots: Mapping[str, tuple[Mention, ...]]
    rule_name: str
    tier: str


def traverse_path(
    sentence: Sentence, start: int, path: Sequence[DepPathStep]
) -> set[int]:
    """Token indices reached by walking ``path`` from ``start``.

    The result is the final frontier minus the start token itself.
    """
    heads, labels = sentence.heads, sentence.labels
    if not 0 <= start < len(heads):
        raise InputError(f"start token {start} out of range")
    frontier = {start}
    for step in path:
        stepped: set[int] = set()
        if step.direction == "out":
            for node in frontier:
                for dep, label in sentence.dependents_of[node]:
                    if label in step.labels:
                        stepped.add(dep)
        else:
            for node in frontier:
                if heads[node] != ROOT and labels[node] in step.labels:
                    stepped.add(heads[node])
        frontier = (frontier | stepped) if step.optional else stepped
        if not frontier:
            break
    frontier.discard(start)
    return frontier


def chunk_span(sentence: Sentence, index: int) -> tuple[int, int]:
    """The maximal noun-phrase chunk containing ``index``.

    Uses the input chunk layer (BIO tags) when the token carries one,
    repairing an orphan I- by treating it as a begin.  Without a chunk
    tag, falls back to the maximal run of noun-phrase-like POS tags
    around the token; a token that is not chunkable stands alone.
    """
    chunks, pos = sentence.chunks, sentence.pos
    n = len(chunks)
    tag = chunks[index]
    if tag and len(tag) > 2 and tag[:2] in ("B-", "I-"):
        label = tag[2:]
        lo = index
        while chunks[lo] == f"I-{label}" and lo > 0:
            prev = chunks[lo - 1]
            if prev in (f"B-{label}", f"I-{label}"):
                lo -= 1
            else:
                break
        hi = index
        while hi + 1 < n and chunks[hi + 1] == f"I-{label}":
            hi += 1
        return lo, hi + 1
    if pos[index] not in CHUNKABLE_POS:
        return index, index + 1
    lo = index
    while lo > 0 and pos[lo - 1] in CHUNKABLE_POS:
        lo -= 1
    hi = index
    while hi + 1 < n and pos[hi + 1] in CHUNKABLE_POS:
        hi += 1
    return lo, hi + 1


def _entity_type_at(mentions: Sequence[Mention], n: int) -> list[str | None]:
    types: list[str | None] = [None] * n
    for mention in mentions:
        for i in range(max(mention.start, 0), min(mention.end, n)):
            types[i] = mention.entity_type
    return types


def trigger_anchor(sentence: Sentence, span: tuple[int, int]) -> int:
    """The trigger span's syntactic head: leftmost token whose head is outside."""
    start, end = span
    for i in range(start, end):
        head = sentence.heads[i]
        if head == ROOT or not start <= head < end:
            return i
    return start


def _mention_containing(
    mentions: Sequence[Mention], index: int, allowed: Sequence[str]
) -> Mention | None:
    for mention in mentions:
        if mention.start <= index < mention.end and mention.entity_type in allowed:
            return mention
    return None


def _fill_slots(
    rule: Rule,
    sentence: Sentence,
    mentions: Sequence[Mention],
    spans: Sequence[tuple[int, int]],
    doc_id: str,
) -> list[EventMention]:
    """The events ``rule`` yields at its trigger ``spans``, in span order.

    Every trigger occurrence is tried independently; a trigger
    occurrence yields an event only if all required slots fill.
    """
    events: list[EventMention] = []
    for span in spans:
        anchor = trigger_anchor(sentence, span)
        slots: dict[str, tuple[Mention, ...]] = {}
        satisfied = True
        for slot in rule.slots:
            targets = traverse_path(sentence, anchor, slot.path)
            fillers: list[Mention] = []
            seen: set[tuple[int, int, str, str]] = set()
            for target in sorted(targets):
                if slot.entity_types is None:
                    lo, hi = chunk_span(sentence, target)
                    mention = Mention(sentence.id, lo, hi, "NP", "chunk")
                else:
                    found = _mention_containing(mentions, target, slot.entity_types)
                    if found is None:
                        continue
                    mention = found
                key = (mention.start, mention.end, mention.entity_type, mention.origin)
                if key not in seen:
                    seen.add(key)
                    fillers.append(mention)
            if fillers:
                fillers.sort(key=lambda m: (m.start, m.end))
                slots[slot.name] = tuple(fillers)
            elif slot.required:
                satisfied = False
                break
        if satisfied:
            events.append(
                EventMention(
                    event_type=rule.event_type,
                    doc_id=doc_id,
                    sentence_id=sentence.id,
                    trigger=span,
                    slots=slots,
                    rule_name=rule.name,
                    tier=rule.tier,
                )
            )
    return events


def _token_passes(pattern: TokenPattern, columns: Mapping[str, Sequence], i: int) -> bool:
    """Whether token ``i`` passes ``pattern``, given its sentence's ``columns`` by rule field."""
    for branch in pattern.branches:
        for atom in branch:
            value = columns[atom.field][i]
            if (value is not None and value in atom.values) == atom.negated:
                break
        else:
            return True
    return False


class _Matcher:
    """A rule set ready for matching: one literal dispatch table over all rules.

    The table maps the index term of every indexable literal in a rule's
    first trigger bracket to the rules (by position) that bracket can
    start.  A trigger can only start at a token whose lowercased surface
    or lemma term is in the table, so one table lookup per token and
    field finds every possible trigger start; verification then checks
    the rule's whole trigger there, atom by atom, with exact-case
    values.  This is multi-pattern dispatch in the spirit of
    Aho-Corasick, over tokens instead of characters.
    """

    def __init__(self, rules: Sequence[Rule]):
        self._rules = list(rules)
        table: dict[str, list[int]] = {}
        for position, rule in enumerate(self._rules):
            for branch in rule.trigger[0].branches:
                for atom in branch:
                    if atom.indexable:
                        for value in atom.values:
                            starts = table.setdefault(index_term(atom.field, value), [])
                            if not starts or starts[-1] != position:
                                starts.append(position)
        self._table = {term: tuple(positions) for term, positions in table.items()}

    def events(
        self, sentence: Sentence, doc_id: str, ner: NerLayer
    ) -> list[EventMention]:
        """Every event the rules yield on ``sentence``, in rule order.

        ``ner`` runs only if some token hits the dispatch table.
        """
        table = self._table
        starts: dict[int, list[int]] = {}
        lemmas = sentence.lemmas
        for i, surface in enumerate(sentence.surfaces):
            hits = table.get(index_term("surface", surface), ()) + table.get(
                index_term("lemma", lemmas[i]), ()
            )
            for position in hits:
                at = starts.setdefault(position, [])
                if not at or at[-1] != i:
                    at.append(i)
        if not starts:
            return []
        mentions = list(ner(sentence))
        n = len(sentence)
        columns = {
            "surface": sentence.surfaces,
            "lemma": sentence.lemmas,
            "pos": sentence.pos,
            "ner": _entity_type_at(mentions, n),
        }
        events: list[EventMention] = []
        for position in sorted(starts):
            rule = self._rules[position]
            width = len(rule.trigger)
            spans = [
                (i, i + width)
                for i in starts[position]
                if i + width <= n
                and all(_token_passes(rule.trigger[j], columns, i + j) for j in range(width))
            ]
            events.extend(_fill_slots(rule, sentence, mentions, spans, doc_id))
        return events


def match_rule(
    rule: Rule,
    sentence: Sentence,
    mentions: Sequence[Mention],
    doc_id: str = "",
) -> list[EventMention]:
    """All events ``rule`` produces on one sentence, given its mentions."""
    return _Matcher([rule]).events(sentence, doc_id, lambda _: mentions)


def _tier_filter(events: list[EventMention]) -> list[EventMention]:
    """Drop backoff events whose trigger span a high-tier event already claimed."""
    claimed = {
        (ev.event_type, ev.trigger) for ev in events if ev.tier == "high"
    }
    return [
        ev
        for ev in events
        if ev.tier == "high" or (ev.event_type, ev.trigger) not in claimed
    ]


def _event_order(ev: EventMention):
    return (ev.doc_id, ev.sentence_id, ev.rule_name, ev.trigger, ev.event_type)


def candidate_sentence_ids(index: InvertedIndex, rules: Sequence[Rule]) -> dict[str, set[str]]:
    """The ids of the rules' candidate sentences (see ``candidate_sentences``), per document id."""
    wanted: dict[str, set[str]] = {}
    for rule in rules:
        for doc_id, sent_id in candidate_sentences(index, rule):
            wanted.setdefault(doc_id, set()).add(sent_id)
    return wanted


def extract_events(
    docs: Sequence[Document],
    rules: Sequence[Rule],
    index: InvertedIndex | None = None,
    ner: NerLayer | None = None,
    workers: int = 1,
) -> list[EventMention]:
    """Run every rule over the corpus and return events in canonical order.

    The rules share one literal dispatch table (see ``_Matcher``): each
    token's surface and lemma terms are looked up once, a sentence where
    no token hits the table is skipped without running the NER layer,
    and only the rules anchored at a hit are verified.

    With ``index`` only the union of the rules' candidate sentences is
    visited; the result is identical to the full scan because candidate
    sets are supersets of the matching sentences.  Output order is
    (doc id, sentence id, rule name, trigger span), ties in rule order.
    ``workers`` is accepted for compatibility and ignored: matching is
    pure-Python work, which threads only slow down.
    """
    rules = list(rules)
    matcher = _Matcher(rules)
    ner_fn: NerLayer = ner if ner is not None else (lambda sentence: ())
    wanted = None if index is None else candidate_sentence_ids(index, rules)
    events: list[EventMention] = []
    for doc in docs:
        sentences = doc.sentences
        if wanted is not None:
            sent_ids = wanted.get(doc.id)
            if sent_ids is None:
                continue
            sentences = [sent for sent in sentences if sent.id in sent_ids]
        for sent in sentences:
            events.extend(_tier_filter(matcher.events(sent, doc.id, ner_fn)))
    events.sort(key=_event_order)
    return events


def event_to_dict(event: EventMention) -> dict:
    return {
        "doc_id": event.doc_id,
        "sentence_id": event.sentence_id,
        "event_type": event.event_type,
        "rule": event.rule_name,
        "tier": event.tier,
        "trigger": [event.trigger[0], event.trigger[1]],
        "slots": {
            name: [[m.start, m.end] for m in mentions]
            for name, mentions in event.slots.items()
        },
    }
