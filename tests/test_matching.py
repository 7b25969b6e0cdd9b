import random
from dataclasses import replace
from importlib import resources

import pytest

from spacevents import (
    ROOT,
    DepEdge,
    DepPathStep,
    Mention,
    Sentence,
    build_index,
    chunk_span,
    compile_gazetteer,
    event_to_dict,
    extract_events,
    match_rule,
    ner_layer,
    parse_rules,
    read_gazetteer,
    traverse_path,
    trigger_anchor,
)
from spacevents.documents import _COLUMNS, parse_conllu, sentence_issues, serialize_conllu
from spacevents.errors import InputError
from spacevents.index import index_term
from spacevents.matching import _entity_type_at, _fill_slots, _tier_filter

from helpers import (
    DEP_LABELS,
    TRIGGER_WORDS,
    find_trigger_spans,
    load_small_corpus,
    make_sentence,
    random_corpus,
    random_rule,
    random_sentence,
    word_vocab,
)


def _reference_rules():
    text = (resources.files("spacevents") / "data" / "reference.rules").read_text()
    return parse_rules(text)


def _reference_ner():
    text = (resources.files("spacevents") / "data" / "gazetteer.tsv").read_text()
    return ner_layer(compile_gazetteer(read_gazetteer(text)))


def _slot_rule(path, filler="chunk", trigger="[lemma=launch]", required="required"):
    text = (
        "rule t {\n event: LAUNCH\n tier: backoff\n"
        f" trigger: {trigger}\n"
        f" slot SatelliteName {required} {{\n  path: {path}\n  filler: {filler}\n }}\n"
        "}\n"
    )
    return parse_rules(text)[0]


# ---------------------------------------------------------------------------
# path traversal


def test_traverse_single_out_step():
    s1 = load_small_corpus()[0].sentences[0]
    assert traverse_path(s1, 1, _slot_rule(">dobj|obj").slots[0].path[:1]) == {5}


def test_traverse_optional_step_keeps_frontier():
    s1 = load_small_corpus()[0].sentences[0]
    path = _slot_rule(">dobj >compound?").slots[0].path
    assert traverse_path(s1, 1, path) == {3, 4, 5}
    mandatory = _slot_rule(">dobj >compound").slots[0].path
    assert traverse_path(s1, 1, mandatory) == {3, 4}


def test_traverse_in_step_and_chaining():
    s1 = load_small_corpus()[0].sentences[0]
    assert traverse_path(s1, 5, _slot_rule("<dobj").slots[0].path) == {1}
    assert traverse_path(s1, 5, _slot_rule("<dobj >nsubj").slots[0].path) == {0}


def test_traverse_never_returns_start():
    s1 = load_small_corpus()[0].sentences[0]
    assert traverse_path(s1, 1, _slot_rule(">dobj?").slots[0].path) == {5}
    assert traverse_path(s1, 1, _slot_rule(">iobj?").slots[0].path) == set()


def test_traverse_dead_end_is_empty():
    s1 = load_small_corpus()[0].sentences[0]
    assert traverse_path(s1, 1, _slot_rule(">iobj >compound").slots[0].path) == set()


def test_traverse_root_has_no_in_edge():
    s1 = load_small_corpus()[0].sentences[0]
    assert traverse_path(s1, 1, _slot_rule("<nsubj").slots[0].path) == set()


def test_traverse_start_out_of_range():
    s1 = load_small_corpus()[0].sentences[0]
    with pytest.raises(InputError, match="out of range"):
        traverse_path(s1, -1, _slot_rule(">dobj").slots[0].path)
    with pytest.raises(InputError, match="out of range"):
        traverse_path(s1, len(s1), _slot_rule(">dobj").slots[0].path)


def _relabelled(rng, sentence):
    """``sentence`` with its token positions shuffled, so heads point either way."""
    position = list(range(len(sentence)))
    rng.shuffle(position)
    tokens = sorted(
        (replace(token, index=position[token.index]) for token in sentence.tokens),
        key=lambda token: token.index,
    )
    edges = [
        DepEdge(ROOT if e.head == ROOT else position[e.head], position[e.dependent], e.label)
        for e in sentence.edges
    ]
    return Sentence(sentence.id, tokens, edges)


def _reference_traverse(sentence, start, path):
    """``traverse_path`` over the sentence's ``DepEdge`` objects, one step at a time."""
    frontier = {start}
    for step in path:
        if step.direction == "out":
            stepped = {e.dependent for e in sentence.edges
                       if e.head in frontier and e.label in step.labels}
        else:
            stepped = {e.head for e in sentence.edges
                       if e.dependent in frontier and e.head != ROOT and e.label in step.labels}
        frontier = frontier | stepped if step.optional else stepped
    return frontier - {start}


def test_traverse_path_equals_a_walk_over_the_edges_on_random_trees():
    rng = random.Random(29)
    vocab = word_vocab(40)
    labels = (*DEP_LABELS, "root")
    reached = 0
    for case in range(2400):
        if case % 4 == 0:
            sentence = random_sentence(rng, f"s{case}", vocab, min_len=1, max_len=14)
            if case % 8 == 0:
                sentence = _relabelled(rng, sentence)
        path = [
            DepPathStep(rng.choice(("out", "in")),
                        tuple(rng.sample(labels, rng.randint(1, len(labels)))),
                        optional=rng.random() < 0.3)
            for _ in range(rng.randint(1, 3))
        ]
        start = rng.randrange(len(sentence))
        expected = _reference_traverse(sentence, start, path)
        assert traverse_path(sentence, start, path) == expected, (sentence, start, path)
        reached += bool(expected)
    assert reached > 500  # the walks reach tokens, not only empty frontiers


# ---------------------------------------------------------------------------
# chunk spans


def test_chunk_span_follows_bio_tags():
    s1 = load_small_corpus()[0].sentences[0]
    # "the Hubble Space Telescope" is one B-NP/I-NP run
    for index in (2, 3, 4, 5):
        assert chunk_span(s1, index) == (2, 6)
    assert chunk_span(s1, 8) == (7, 9)


def test_chunk_span_repairs_orphan_inside_tag():
    sent = make_sentence(
        "s",
        [
            ("Telkom-3", "Telkom-3", "PROPN", -1, "root", None, "I-NP"),
            ("tumbled", "tumble", "VERB", 0, "dep"),
        ],
    )
    assert chunk_span(sent, 0) == (0, 1)
    run = make_sentence(
        "s",
        [
            ("big", "big", "ADJ", 1, "amod", None, "I-NP"),
            ("rocket", "rocket", "NOUN", -1, "root", None, "I-NP"),
        ],
    )
    assert chunk_span(run, 1) == (0, 2)
    relabelled = make_sentence(
        "s",
        [
            ("Ariane", "Ariane", "PROPN", 1, "compound", None, "B-VP"),
            ("5", "5", "NUM", -1, "root", None, "I-NP"),
        ],
    )
    assert chunk_span(relabelled, 1) == (1, 2)


def test_chunk_span_pos_fallback():
    s2 = load_small_corpus()[0].sentences[1]
    # "The Proton-M rocket" has no chunk layer: DET + PROPN + NOUN run
    assert chunk_span(s2, 2) == (0, 3)
    assert chunk_span(s2, 1) == (0, 3)


def test_chunk_span_non_chunkable_token_stands_alone():
    s2 = load_small_corpus()[0].sentences[1]
    assert chunk_span(s2, 3) == (3, 4)  # the verb
    assert chunk_span(s2, 4) == (4, 5)  # the preposition


def test_chunk_span_bio_run_is_bounded_by_label_change():
    sent = make_sentence(
        "s",
        [
            ("the", "the", "DET", 1, "det", None, "B-NP"),
            ("crew", "crew", "NOUN", -1, "root", None, "I-NP"),
            ("of", "of", "ADP", 1, "case", None, "B-PP"),
        ],
    )
    assert chunk_span(sent, 1) == (0, 2)
    assert chunk_span(sent, 2) == (2, 3)


# ---------------------------------------------------------------------------
# triggers


def test_find_trigger_spans_multi_token():
    sent = make_sentence(
        "s",
        [
            ("Telkom-3", "Telkom-3", "PROPN", 1, "nsubj"),
            ("lifted", "lift", "VERB", -1, "root"),
            ("off", "off", "ADP", 1, "compound:prt"),
        ],
    )
    rules = parse_rules(
        "rule t { event: LAUNCH tier: backoff trigger: [lemma=lift] [surface=off] }"
    )
    spans = find_trigger_spans(sent, rules[0].trigger, [None] * 3)
    assert spans == [(1, 3)]
    assert trigger_anchor(sent, (1, 3)) == 1


def test_trigger_anchor_prefers_token_with_outside_head():
    sent = make_sentence(
        "s",
        [
            ("a", "a", "X", 2, "dep"),
            ("b", "b", "X", 2, "dep"),
            ("c", "c", "X", -1, "root"),
            ("d", "d", "X", 2, "dep"),
        ],
    )
    # inside span (1, 3), token 1 heads to 2 (inside); token 2 is the root
    assert trigger_anchor(sent, (1, 3)) == 2
    assert trigger_anchor(sent, (0, 2)) == 0


def test_trigger_anchor_of_a_span_whose_heads_loop_is_its_start():
    # no parser builds this sentence: tokens 1 and 2 head each other
    sent = make_sentence(
        "s",
        [
            ("a", "a", "X", -1, "root"),
            ("b", "b", "X", 2, "dep"),
            ("c", "c", "X", 1, "dep"),
        ],
    )
    assert sentence_issues(sent) == ["dependency cycle through token 1"]
    assert trigger_anchor(sent, (1, 3)) == 1
    assert trigger_anchor(sent, (0, 3)) == 0


def test_trigger_negated_ner_atom_uses_mention_layer():
    sent = make_sentence("s", [("March", "March", "PROPN", -1, "root")])
    rule = parse_rules(
        "rule t { event: LAUNCH tier: backoff trigger: [lemma=March & !ner=DATE] }"
    )[0]
    assert match_rule(rule, sent, []) != []
    assert match_rule(rule, sent, [Mention("s", 0, 1, "DATE", "generic")]) == []


# ---------------------------------------------------------------------------
# rule matching


def test_match_rule_fills_entity_slots_from_mentions():
    s1 = load_small_corpus()[0].sentences[0]
    rule = _reference_rules()[0]
    assert rule.name == "launch-verb-object"
    mentions = _reference_ner()(s1)
    events = match_rule(rule, s1, mentions, doc_id="d1")
    assert len(events) == 1
    ev = events[0]
    assert ev.trigger == (1, 2)
    assert ev.tier == "high"
    assert {name: [(m.start, m.end) for m in ms] for name, ms in ev.slots.items()} == {
        "SatelliteName": [(3, 6)],
        "Organization": [(0, 1)],
        "LaunchSite": [(7, 9)],
        "Date": [(10, 12)],
    }


def test_match_rule_required_slot_blocks_event():
    s1 = load_small_corpus()[0].sentences[0]
    rule = _reference_rules()[0]
    assert match_rule(rule, s1, []) == []  # no mentions, no SatelliteName


def test_match_rule_empty_optional_slot_is_omitted():
    s2 = load_small_corpus()[1].sentences[1]  # "SpaceX launched Telkom-3 ."
    rule = _reference_rules()[0]
    events = match_rule(rule, s2, _reference_ner()(s2), doc_id="d2")
    assert len(events) == 1
    assert set(events[0].slots) == {"SatelliteName", "Organization"}
    assert "Date" not in events[0].slots


def test_match_rule_collects_coordinated_fillers():
    sent = make_sentence(
        "s",
        [
            ("NASA", "NASA", "PROPN", 1, "nsubj"),
            ("launched", "launch", "VERB", -1, "root"),
            ("Telkom-3", "Telkom-3", "PROPN", 1, "obj"),
            ("and", "and", "CCONJ", 4, "cc"),
            ("NOAA-19", "NOAA-19", "PROPN", 2, "conj"),
        ],
    )
    rule = _slot_rule(">obj >conj?", filler="entity(SPACECRAFT)")
    mentions = [
        Mention("s", 2, 3, "SPACECRAFT", "domain"),
        Mention("s", 4, 5, "SPACECRAFT", "domain"),
    ]
    events = match_rule(rule, sent, mentions)
    assert len(events) == 1
    assert [(m.start, m.end) for m in events[0].slots["SatelliteName"]] == [
        (2, 3),
        (4, 5),
    ]


def test_match_rule_deduplicates_fillers_reached_twice():
    # both targets sit inside one mention: the filler appears once
    sent = make_sentence(
        "s",
        [
            ("launched", "launch", "VERB", -1, "root"),
            ("Hubble", "Hubble", "PROPN", 2, "compound"),
            ("Telescope", "Telescope", "PROPN", 0, "obj"),
        ],
    )
    rule = _slot_rule(">obj >compound?", filler="entity(SPACECRAFT)")
    mentions = [Mention("s", 1, 3, "SPACECRAFT", "domain")]
    events = match_rule(rule, sent, mentions)
    assert [(m.start, m.end) for m in events[0].slots["SatelliteName"]] == [(1, 3)]


def test_match_rule_every_trigger_occurrence_counts():
    sent = make_sentence(
        "s",
        [
            ("launched", "launch", "VERB", -1, "root"),
            ("and", "and", "CCONJ", 2, "cc"),
            ("launched", "launch", "VERB", 0, "conj"),
        ],
    )
    rule = parse_rules(
        "rule t { event: LAUNCH tier: backoff trigger: [lemma=launch] }"
    )[0]
    events = match_rule(rule, sent, [])
    assert [ev.trigger for ev in events] == [(0, 1), (2, 3)]


# ---------------------------------------------------------------------------
# corpus extraction

EXPECTED_FIXTURE_EVENTS = [
    {
        "doc_id": "d1",
        "sentence_id": "s1",
        "event_type": "LAUNCH",
        "rule": "launch-verb-object",
        "tier": "high",
        "trigger": [1, 2],
        "slots": {
            "SatelliteName": [[3, 6]],
            "Organization": [[0, 1]],
            "LaunchSite": [[7, 9]],
            "Date": [[10, 12]],
        },
    },
    {
        "doc_id": "d1",
        "sentence_id": "s2",
        "event_type": "FAILURE",
        "rule": "failure-vehicle-subject",
        "tier": "high",
        "trigger": [3, 4],
        "slots": {"LaunchVehicle": [[1, 2]], "Date": [[5, 6]]},
    },
    {
        "doc_id": "d2",
        "sentence_id": "s1",
        "event_type": "DECOMMISSIONING",
        "rule": "decommission-passive",
        "tier": "high",
        "trigger": [2, 3],
        "slots": {
            "SatelliteName": [[0, 1]],
            "Organization": [[4, 5]],
            "Date": [[6, 7]],
        },
    },
    {
        "doc_id": "d2",
        "sentence_id": "s2",
        "event_type": "LAUNCH",
        "rule": "launch-verb-object",
        "tier": "high",
        "trigger": [1, 2],
        "slots": {"SatelliteName": [[2, 3]], "Organization": [[0, 1]]},
    },
]


def test_extract_events_on_fixture_corpus():
    docs = load_small_corpus()
    events = extract_events(docs, _reference_rules(), ner=_reference_ner())
    assert [event_to_dict(ev) for ev in events] == EXPECTED_FIXTURE_EVENTS


def test_backoff_fires_only_without_a_high_match():
    docs = load_small_corpus()
    # without mentions no high rule can satisfy its anchor slot
    events = extract_events(docs, _reference_rules())
    assert events and all(ev.tier == "backoff" for ev in events)
    assert {ev.rule_name for ev in events} == {
        "launch-object-chunk",
        "decommission-chunk",
    }


def test_tier_precedence_is_per_event_type():
    docs = load_small_corpus()
    text = """
    rule high-launch {
      event: LAUNCH
      tier: high
      trigger: [lemma=launch]
      slot SatelliteName required {
        path: >dobj|obj
        filler: entity(SPACECRAFT)
      }
    }
    rule shadowed {
      event: LAUNCH
      tier: backoff
      trigger: [lemma=launch]
      slot SatelliteName required {
        path: >dobj|obj
        filler: chunk
      }
    }
    rule other-type {
      event: FAILURE
      tier: backoff
      trigger: [lemma=launch]
    }
    """
    events = extract_events(docs, parse_rules(text), ner=_reference_ner())
    fired = {(ev.rule_name, ev.doc_id, ev.sentence_id) for ev in events}
    assert ("high-launch", "d1", "s1") in fired
    assert all(name != "shadowed" for name, _, _ in fired)
    # a different event type on the same trigger span is not suppressed
    assert ("other-type", "d1", "s1") in fired


def test_backoff_survives_on_unclaimed_trigger_spans():
    sent = make_sentence(
        "s",
        [
            ("Telkom-3", "Telkom-3", "PROPN", 1, "nsubjpass", None),
            ("launched", "launch", "VERB", -1, "root"),
            ("the", "the", "DET", 3, "det"),
            ("launch", "launch", "NOUN", 1, "obj"),
        ],
    )
    from spacevents import Document

    doc = Document(id="d", sentences=(sent,))
    text = """
    rule high-passive {
      event: LAUNCH
      tier: high
      trigger: [lemma=launch & pos=VERB]
      slot SatelliteName required {
        path: >nsubjpass
        filler: entity(SPACECRAFT)
      }
    }
    rule nominal-chunk {
      event: LAUNCH
      tier: backoff
      trigger: [lemma=launch & pos=NOUN]
    }
    """
    mentions = [Mention("s", 0, 1, "SPACECRAFT", "domain")]
    events = extract_events([doc], parse_rules(text), ner=lambda s: mentions)
    assert {(ev.rule_name, ev.trigger) for ev in events} == {
        ("high-passive", (1, 2)),
        ("nominal-chunk", (3, 4)),
    }


def test_extract_with_index_and_workers_matches_full_scan():
    docs = load_small_corpus()
    rules = _reference_rules()
    ner = _reference_ner()
    full = extract_events(docs, rules, ner=ner)
    indexed = extract_events(docs, rules, index=build_index(docs), ner=ner)
    threaded = extract_events(docs, rules, ner=ner, workers=3)
    assert indexed == full
    assert threaded == full


def test_extract_equivalences_on_random_corpora():
    rng = random.Random(31)
    vocab = word_vocab(50) + [w for w, _, _ in TRIGGER_WORDS]
    docs = random_corpus(rng, 30, vocab=vocab, trigger_chance=0.2, entity_chance=0.2)
    rules = [random_rule(rng, f"r{i}", vocab) for i in range(25)]
    full = extract_events(docs, rules)
    assert extract_events(docs, rules, index=build_index(docs)) == full
    assert extract_events(docs, rules, workers=4) == full
    assert full == sorted(
        full,
        key=lambda ev: (ev.doc_id, ev.sentence_id, ev.rule_name, ev.trigger),
    )


def test_matching_leaves_no_state_on_the_sentences_it_visits():
    rng = random.Random(43)
    vocab = word_vocab(50) + [w for w, _, _ in TRIGGER_WORDS]
    corpus = random_corpus(rng, 30, vocab=vocab, trigger_chance=0.2, entity_chance=0.2)
    rules, ner = _reference_rules(), _reference_ner()
    for docs in (load_small_corpus(), parse_conllu(serialize_conllu(corpus))):
        assert extract_events(docs, rules, ner=ner)
        assert extract_events(docs, rules, index=build_index(docs), ner=ner)
        for doc in docs:
            for sent in doc.sentences:
                assert set(vars(sent)) == {"id", *_COLUMNS}, (doc.id, sent.id)


def _reference_extract(docs, rules, ner):
    """Every rule tried at every token of every sentence, then the tier filter."""
    events = []
    for doc in docs:
        for sent in doc.sentences:
            mentions = list(ner(sent))
            ner_types = _entity_type_at(mentions, len(sent.tokens))
            found = []
            for rule in rules:
                spans = find_trigger_spans(sent, rule.trigger, ner_types)
                found.extend(_fill_slots(rule, sent, mentions, spans, doc.id))
            events.extend(_tier_filter(found))
    return sorted(
        events,
        key=lambda ev: (ev.doc_id, ev.sentence_id, ev.rule_name, ev.trigger, ev.event_type),
    )


def _first_bracket_literals(rules):
    return [
        index_term(atom.field, value)
        for rule in rules
        for branch in rule.trigger[0].branches
        for atom in branch
        if atom.indexable
        for value in set(atom.values)
    ]


HAND_RULES = """
rule mixed-case-surface {
  event: LAUNCH
  tier: backoff
  trigger: [surface=Launched|NASA] [surface=Telkom-3|NASA & ner=SPACECRAFT|ORGANIZATION | lemma=w001]
}
rule positive-ner {
  event: FAILURE
  tier: high
  trigger: [lemma=fail|launch & !ner=DATE] [surface=Proton-M & ner=LAUNCH_VEHICLE | surface=LAUNCHED]
  slot LaunchVehicle required {
    path: >nsubj|obj <dobj?
    filler: entity(LAUNCH_VEHICLE, SPACECRAFT)
  }
}
"""


def test_compiled_extraction_equals_reference_scan():
    rng = random.Random(2024)
    # case variants share one dispatch key with "launched" but must match exactly
    vocab = word_vocab(40) + [w for w, _, _ in TRIGGER_WORDS] + ["Launched", "LAUNCHED", "NASA"]
    docs = random_corpus(rng, 60, vocab=vocab, trigger_chance=0.15, entity_chance=0.2)
    rules = (
        [random_rule(rng, f"r{i:03d}", vocab) for i in range(200)]
        + _reference_rules()
        + parse_rules(HAND_RULES)
    )
    atoms = [atom for r in rules for p in r.trigger for b in p.branches for atom in b]
    literals = _first_bracket_literals(rules)
    assert any(len(rule.trigger) > 1 for rule in rules)
    assert any(atom.negated for atom in atoms)
    assert any(atom.field == "ner" and not atom.negated for atom in atoms)
    assert any(
        atom.field == "surface" and any(v != v.lower() for v in atom.values) for atom in atoms
    )
    assert max(literals.count(term) for term in literals) >= 2

    ner = _reference_ner()
    expected = _reference_extract(docs, rules, ner)
    assert {ev.rule_name for ev in expected} & {"mixed-case-surface", "positive-ner"}
    assert len({ev.rule_name for ev in expected}) > 50
    assert extract_events(docs, rules, ner=ner) == expected
    assert extract_events(docs, rules, index=build_index(docs), ner=ner) == expected


def test_ner_runs_only_on_sentences_holding_a_table_literal():
    docs = random_corpus(random.Random(8), 80, trigger_chance=0.05, entity_chance=0.2)
    rules = _reference_rules()
    literals = set(_first_bracket_literals(rules))
    holding = {
        id(sent)
        for doc in docs
        for sent in doc.sentences
        if any(
            index_term("surface", tok.surface) in literals
            or index_term("lemma", tok.lemma) in literals
            for tok in sent.tokens
        )
    }
    assert 0 < len(holding) < sum(len(doc.sentences) for doc in docs)
    ner = _reference_ner()
    tagged = []

    def counting_ner(sentence):
        tagged.append(id(sentence))
        return ner(sentence)

    full = extract_events(docs, rules, ner=counting_ner)
    assert sorted(tagged) == sorted(holding)
    tagged.clear()
    assert extract_events(docs, rules, index=build_index(docs), ner=counting_ner) == full
    assert len(tagged) == len(set(tagged)) and set(tagged) <= holding


def test_event_to_dict_shape():
    docs = load_small_corpus()
    events = extract_events(docs, _reference_rules(), ner=_reference_ner())
    record = event_to_dict(events[0])
    assert list(record) == [
        "doc_id",
        "sentence_id",
        "event_type",
        "rule",
        "tier",
        "trigger",
        "slots",
    ]
    assert isinstance(record["trigger"], list)
    assert all(
        isinstance(spans, list) and all(len(span) == 2 for span in spans)
        for spans in record["slots"].values()
    )
