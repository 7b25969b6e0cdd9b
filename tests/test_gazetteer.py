from importlib import resources

import pytest

from spacevents import (
    ENTITY_TYPES,
    GazetteerEntry,
    Mention,
    compile_gazetteer,
    generic_mentions,
    merge_ner,
    ner_layer,
    read_gazetteer,
    tag_sentence,
)
from spacevents.errors import InputError, ParseError

from helpers import line_ending_copies, load_small_corpus, make_sentence


def _flat(words, ner=None):
    rows = []
    for i, word in enumerate(words):
        tag = ner[i] if ner else None
        head = -1 if i == 0 else 0
        label = "root" if i == 0 else "dep"
        rows.append((word, word.lower(), "NNP", head, label, tag))
    return make_sentence("s", rows)


HUBBLE = GazetteerEntry("SPACECRAFT", "Hubble Space Telescope", ("Hubble", "HST"))
TELKOM = GazetteerEntry("SPACECRAFT", "Telkom-3")
PROTON = GazetteerEntry("LAUNCH_VEHICLE", "Proton-M", ("Proton M", "Proton"))
NASA = GazetteerEntry("ORGANIZATION", "NASA")
ISS = GazetteerEntry("SPACECRAFT", "International Space Station", ("ISS",))


def test_read_gazetteer_tsv():
    text = (
        "# comment line\n"
        "\n"
        "SPACECRAFT\tHubble Space Telescope\tHubble|HST\n"
        "ORGANIZATION\tNASA\n"
        "LAUNCH_VEHICLE\tProton-M\tProton M|Proton|\n"
    )
    entries = read_gazetteer(text)
    assert entries == [
        GazetteerEntry("SPACECRAFT", "Hubble Space Telescope", ("Hubble", "HST")),
        GazetteerEntry("ORGANIZATION", "NASA"),
        GazetteerEntry("LAUNCH_VEHICLE", "Proton-M", ("Proton M", "Proton")),
    ]


def test_read_gazetteer_splits_lines_only_at_line_endings():
    rows = ["SPACECRAFT\tSat\u2028One", "ORGANIZATION\tAgency\u0085Two\tA2"]
    expected = [
        GazetteerEntry("SPACECRAFT", "Sat\u2028One"),
        GazetteerEntry("ORGANIZATION", "Agency\u0085Two", ("A2",)),
    ]
    for ending in ("\n", "\r\n", "\r"):
        assert read_gazetteer(ending.join(rows) + ending) == expected
    with pytest.raises(ParseError, match="line 3.*columns"):
        read_gazetteer("\r".join(rows + ["SPACECRAFT"]))


def test_gazetteer_lines_end_at_each_line_ending_however_the_file_is_read():
    text = (resources.files("spacevents") / "data" / "gazetteer.tsv").read_text("utf-8")
    expected = read_gazetteer(text)
    assert len(expected) >= 10
    for copy in line_ending_copies(text):
        assert read_gazetteer(copy) == expected
    lines = text.split("\n")
    row = next(i for i, line in enumerate(lines) if line.startswith("SPACECRAFT\t"))
    broken = "\n".join(lines[:row] + ["SPACECRAFT"] + lines[row + 1:])
    messages = set()
    for copy in line_ending_copies(broken):
        with pytest.raises(ParseError, match="columns") as caught:
            read_gazetteer(copy)
        messages.add(str(caught.value))
    assert messages == {f"line {row + 1}: expected 2 or 3 tab-separated columns, got 1"}


def test_read_gazetteer_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1.*columns"):
        read_gazetteer("SPACECRAFT\n")
    with pytest.raises(ParseError, match="line 2.*unknown gazetteer entity type"):
        read_gazetteer("ORGANIZATION\tNASA\nROCKET\tProton\n")
    with pytest.raises(ParseError, match="empty canonical"):
        read_gazetteer("ORGANIZATION\t \n")
    # an alternate is compared without the spaces around its `|`
    with pytest.raises(ParseError) as caught:
        read_gazetteer("SPACECRAFT\tISS\tISS | ISS\n")
    assert str(caught.value) == "line 1: alternate duplicates canonical form: 'ISS'"
    assert caught.value.line == 1


def test_entry_validation():
    with pytest.raises(InputError, match="unknown gazetteer entity type"):
        GazetteerEntry("PLANET", "Mars")
    with pytest.raises(InputError, match="duplicates canonical"):
        GazetteerEntry("ORGANIZATION", "NASA", ("NASA",))
    assert GazetteerEntry("ORGANIZATION", "NASA").forms() == ("NASA",)
    assert ENTITY_TYPES == ("SPACECRAFT", "LAUNCH_VEHICLE", "LAUNCH_SITE", "ORGANIZATION")


def test_multiword_match_is_one_mention():
    matcher = compile_gazetteer([HUBBLE])
    sent = _flat(["The", "Hubble", "Space", "Telescope", "drifted", "."])
    assert tag_sentence(sent, matcher) == [
        Mention("s", 1, 4, "SPACECRAFT", "domain")
    ]


def test_two_mentions_in_one_sentence():
    matcher = compile_gazetteer([TELKOM, PROTON])
    sent = _flat(["Telkom-3", "rode", "a", "Proton-M", "rocket", "."])
    assert tag_sentence(sent, matcher) == [
        Mention("s", 0, 1, "SPACECRAFT", "domain"),
        Mention("s", 3, 4, "LAUNCH_VEHICLE", "domain"),
    ]


def test_leftmost_longest_wins():
    # "Hubble" alone is also an entry; the longer form must win, and the
    # tokens it consumes are not rescanned.
    matcher = compile_gazetteer([HUBBLE])
    sent = _flat(["Hubble", "Space", "Telescope", "and", "Hubble", "again"])
    assert tag_sentence(sent, matcher) == [
        Mention("s", 0, 3, "SPACECRAFT", "domain"),
        Mention("s", 4, 5, "SPACECRAFT", "domain"),
    ]


def test_matching_is_case_insensitive_for_long_forms():
    matcher = compile_gazetteer([HUBBLE])
    sent = _flat(["the", "hubble", "space", "telescope"])
    assert tag_sentence(sent, matcher) == [
        Mention("s", 1, 4, "SPACECRAFT", "domain")
    ]


def test_short_uppercase_forms_require_exact_case():
    matcher = compile_gazetteer([ISS, NASA])
    hit = _flat(["ISS", "and", "NASA"])
    miss = _flat(["iss", "and", "nasa"])
    assert [m.entity_type for m in tag_sentence(hit, matcher)] == [
        "SPACECRAFT",
        "ORGANIZATION",
    ]
    assert tag_sentence(miss, matcher) == []
    # the multi-token canonical form stays case-insensitive
    spelled = _flat(["international", "space", "station"])
    assert tag_sentence(spelled, matcher) == [
        Mention("s", 0, 3, "SPACECRAFT", "domain")
    ]
    # spaces around an alternate's `|` do not make it a long form
    # nor do spaces around an alternate built in code
    padded = read_gazetteer("ORGANIZATION\tJapan Aerospace Exploration Agency\tISAS | JAXA \n")
    assert [entry.alternates for entry in padded] == [("ISAS", "JAXA")]
    built = GazetteerEntry("ORGANIZATION", "Japan Aerospace Exploration Agency", ("   JAXA   ",))
    for matcher in (compile_gazetteer(padded), compile_gazetteer([built])):
        assert tag_sentence(_flat(["jaxa"]), matcher) == []
        assert tag_sentence(_flat(["JAXA"]), matcher) == [
            Mention("s", 0, 1, "ORGANIZATION", "domain")
        ]


def test_empty_gazetteer_rejected():
    with pytest.raises(InputError, match="gazetteer is empty"):
        compile_gazetteer([])
    # every form is checked on construction, an alternate of Unicode whitespace too
    for blank in ("  ", "\u3000"):
        with pytest.raises(InputError) as caught:
            GazetteerEntry("ORGANIZATION", "NASA", ("NASA Goddard", blank))
        assert str(caught.value) == f"gazetteer form {blank!r} tokenizes to nothing"


def test_generic_mentions_coalesce_runs():
    sent = _flat(
        ["on", "April", "24", "1990", "NASA", "said"],
        ner=[None, "DATE", "DATE", "DATE", "ORGANIZATION", "O"],
    )
    assert generic_mentions(sent) == [
        Mention("s", 1, 4, "DATE", "generic"),
        Mention("s", 4, 5, "ORGANIZATION", "generic"),
    ]


def test_generic_label_change_splits_runs():
    sent = _flat(["a", "b"], ner=["DATE", "ORGANIZATION"])
    assert generic_mentions(sent) == [
        Mention("s", 0, 1, "DATE", "generic"),
        Mention("s", 1, 2, "ORGANIZATION", "generic"),
    ]


def test_merge_domain_beats_overlapping_generic():
    domain = [Mention("s", 0, 2, "SPACECRAFT", "domain")]
    generic = [
        Mention("s", 1, 3, "ORGANIZATION", "generic"),  # overlaps, dropped
        Mention("s", 4, 5, "DATE", "generic"),  # disjoint, kept
    ]
    merged = merge_ner(domain, generic)
    assert merged == [
        Mention("s", 0, 2, "SPACECRAFT", "domain"),
        Mention("s", 4, 5, "DATE", "generic"),
    ]


def test_merge_keeps_touching_but_not_overlapping():
    domain = [Mention("s", 0, 2, "SPACECRAFT", "domain")]
    generic = [Mention("s", 2, 3, "DATE", "generic")]
    assert len(merge_ner(domain, generic)) == 2


def test_merge_is_per_sentence():
    domain = [Mention("s1", 0, 2, "SPACECRAFT", "domain")]
    generic = [Mention("s2", 0, 2, "DATE", "generic")]
    assert len(merge_ner(domain, generic)) == 2


def test_adding_entries_never_removes_coverage():
    base = compile_gazetteer([TELKOM])
    extended = compile_gazetteer([TELKOM, PROTON, NASA, HUBBLE])
    sents = [
        _flat(["Telkom-3", "rode", "a", "Proton-M"]),
        _flat(["NASA", "launched", "Telkom-3"]),
        _flat(["nothing", "here"]),
    ]
    for sent in sents:
        before = {(m.start, m.end) for m in tag_sentence(sent, base)}
        after = {(m.start, m.end) for m in tag_sentence(sent, extended)}
        covered = set()
        for start, end in after:
            covered.update(range(start, end))
        for start, end in before:
            assert set(range(start, end)) <= covered


def test_ner_layer_on_fixture():
    docs = load_small_corpus()
    entries = [HUBBLE, PROTON, NASA, GazetteerEntry("LAUNCH_SITE", "Cape Canaveral")]
    tag = ner_layer(compile_gazetteer(entries))
    d1_s1 = tag(docs[0].sentences[0])
    # the comma inside "April 24 , 1990" has no label, so the date run splits
    assert [(m.start, m.end, m.entity_type, m.origin) for m in d1_s1] == [
        (0, 1, "ORGANIZATION", "domain"),
        (3, 6, "SPACECRAFT", "domain"),
        (7, 9, "LAUNCH_SITE", "domain"),
        (10, 12, "DATE", "generic"),
        (13, 14, "DATE", "generic"),
    ]


def test_ner_layer_without_matcher_is_generic_only():
    tag = ner_layer()
    sent = _flat(["NASA"], ner=["ORGANIZATION"])
    assert tag(sent) == [Mention("s", 0, 1, "ORGANIZATION", "generic")]
