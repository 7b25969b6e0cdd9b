import gc
import json
import pickle
import random
import sys
from dataclasses import FrozenInstanceError, fields, replace
from datetime import date
from itertools import product

import pytest

from spacevents import (
    ROOT,
    SPLITS,
    DepEdge,
    Document,
    Sentence,
    Token,
    parse_conllu,
    parse_jsonl_documents,
    serialize_conllu,
    serialize_jsonl_documents,
)
from spacevents.documents import (
    _is_tree,
    _lines,
    document_to_dict,
    read_conllu,
    read_jsonl,
    sentence_issues,
    text_lines,
)
from spacevents.errors import InputError, ParseError, SchemaError, StructureError

from helpers import (
    FIXTURES,
    load_small_corpus,
    make_sentence,
    random_corpus,
    reference_parse_conllu,
    reference_parse_jsonl_documents,
    undecodable_json_lines,
)


def test_parse_small_corpus():
    docs = load_small_corpus()
    assert [doc.id for doc in docs] == ["d1", "d2"]
    d1, d2 = docs
    assert d1.source == "example-news"
    assert d1.collected_at == date(2012, 8, 7)
    assert d1.split == "unassigned"
    assert [s.id for s in d1.sentences] == ["s1", "s2"]
    assert d2.source is None

    s1 = d1.sentences[0]
    assert len(s1) == 15
    assert s1.tokens[1].surface == "launched"
    assert s1.tokens[1].lemma == "launch"
    assert s1.tokens[1].pos == "VERB"
    assert s1.tokens[3].chunk == "I-NP"
    assert s1.tokens[10].generic_ner == "DATE"
    assert s1.tokens[0].generic_ner is None


def test_adjacency_views():
    s1 = load_small_corpus()[0].sentences[0]
    # "launched" is the root; "NASA" is its nsubj dependent
    assert s1.head_of[1] == (ROOT, "root")
    assert s1.head_of[0] == (1, "nsubj")
    assert (0, "nsubj") in s1.dependents_of[1]
    assert (5, "dobj") in s1.dependents_of[1]
    assert s1.dependents_of[0] == ()


def test_sentence_text():
    sent = make_sentence("s", [("a", "a", "X", -1, "root"), ("b", "b", "X", 0, "dep")])
    assert sent.text() == "a b"


def test_edges_are_canonically_ordered():
    tokens = (
        Token(0, "a", "a", "X"),
        Token(1, "b", "b", "X"),
        Token(2, "c", "c", "X"),
    )
    edges_fwd = (
        DepEdge(ROOT, 0, "root"),
        DepEdge(0, 1, "dep"),
        DepEdge(0, 2, "dep"),
    )
    shuffled = Sentence("s", tokens, tuple(reversed(edges_fwd)))
    assert shuffled == Sentence("s", tokens, edges_fwd)
    assert [e.dependent for e in shuffled.edges] == [0, 1, 2]


def test_lemma_and_pos_fallbacks():
    text = (
        "# newdoc id = d\n"
        "# sent_id = s\n"
        "1\tDogs\t_\t_\tNNS\t_\t0\troot\t_\t_\n"
    )
    tok = parse_conllu(text)[0].sentences[0].tokens[0]
    assert tok.lemma == "Dogs"
    assert tok.pos == "NNS"


def test_conllu_roundtrip():
    docs = load_small_corpus()
    assert parse_conllu(serialize_conllu(docs)) == docs


def test_jsonl_roundtrip():
    docs = load_small_corpus()
    assert parse_jsonl_documents(serialize_jsonl_documents(docs)) == docs


def test_cross_format_roundtrip():
    docs = load_small_corpus()
    assert parse_jsonl_documents(serialize_jsonl_documents(docs)) == parse_conllu(
        serialize_conllu(docs)
    )


def test_random_corpora_roundtrip_both_formats():
    rng = random.Random(2024)
    for trial in range(20):
        docs = random_corpus(rng, n_docs=rng.randint(1, 5), dated=rng.random() < 0.5)
        assert parse_conllu(serialize_conllu(docs)) == docs
        assert parse_jsonl_documents(serialize_jsonl_documents(docs)) == docs


def test_document_to_dict_omits_defaults():
    doc = Document(id="d", sentences=(make_sentence("s", [("a", "a", "X", -1, "root")]),))
    record = document_to_dict(doc)
    assert "source" not in record and "split" not in record and "collected_at" not in record
    rich = Document(
        id="d", sentences=doc.sentences, source="feed", collected_at=date(2020, 1, 2), split="dev"
    )
    record = document_to_dict(rich)
    assert record["collected_at"] == "2020-01-02"
    assert record["split"] == "dev"


def test_parse_accepts_line_iterables():
    text = serialize_conllu(load_small_corpus())
    assert parse_conllu(text.splitlines()) == load_small_corpus()
    assert parse_conllu(text.splitlines(keepends=True)) == load_small_corpus()
    crlf = serialize_jsonl_documents(load_small_corpus()).replace("\n", "\r\n")
    assert parse_jsonl_documents(crlf.splitlines(keepends=True)) == load_small_corpus()


# Unicode line breaks that ``str.splitlines`` would split at, written raw by
# both serializers
LINE_BREAK_LOOKALIKES = "\u2028\u0085\u2029\x1c\x1d\x1e\x0b\x0c"


def _with_surface(doc, position, surface):
    sent = doc.sentences[0]
    tokens = list(sent.tokens)
    tok = tokens[position]
    tokens[position] = Token(tok.index, surface, tok.lemma, tok.pos, tok.generic_ner, tok.chunk)
    sentences = (Sentence(sent.id, tuple(tokens), sent.edges),) + doc.sentences[1:]
    return Document(doc.id, sentences, doc.source, doc.collected_at, doc.split)


def test_text_lines_of_a_string_and_of_a_line_iterable():
    assert text_lines("a\r\nb\rc\n" + LINE_BREAK_LOOKALIKES) == ["a", "b", "c", LINE_BREAK_LOOKALIKES]
    listed = ["a\r\n", "b\r", "c\n", "d", "e\r\r\n", "f\n\n", "\r\ng", ""]
    # each listed line loses one "\n", then one "\r", and nothing else
    assert text_lines(listed) == ["a", "b", "c", "d", "e\r", "f\n", "\r\ng", ""]
    assert text_lines(iter(listed)) == text_lines(listed)


def _blocks(text, size):
    """``text`` cut as the CLI cuts a file: ``size`` characters, then the rest of the line."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + size - 1) + 1 or len(text)
        yield text[start:end]
        start = end


def test_a_string_splits_into_the_same_lines_in_blocks_of_any_size():
    fixture = FIXTURES.joinpath("small.conllu").read_text(encoding="utf-8")
    texts = ["", "\n", "\n\n", "a", "a\n", "a\r\n\r\nb\r", "\ra\rb\n\u2028\n",
             fixture, fixture.rstrip("\n"), fixture.replace("\n", "\r\n")]
    for text in texts:
        whole = text.split("\n")
        if not whole[-1]:
            whole.pop()  # the text ends with a newline, or is empty
        expected = [line[:-1] if line.endswith("\r") else line for line in whole]
        assert list(_lines(text)) == expected, text[:20]
        for block in (1, 2, 3, 7, 64, 1 << 16):
            blocks = list(_blocks(text, block))
            assert "".join(blocks) == text
            assert [line for b in blocks for line in _lines(b)] == expected, (text[:20], block)


def test_unicode_line_breaks_inside_tokens_round_trip():
    d1, d2 = load_small_corpus()
    docs = [_with_surface(d1, 0, "a\u2028b"), _with_surface(d2, 2, "c\u0085d" + LINE_BREAK_LOOKALIKES)]
    conllu = serialize_conllu(docs)
    jsonl = serialize_jsonl_documents(docs)
    assert "\u2028" in conllu and "\u2028" in jsonl and "\u0085" in jsonl
    assert parse_conllu(conllu) == docs
    assert parse_jsonl_documents(jsonl) == docs
    assert parse_conllu(conllu.replace("\n", "\r\n")) == docs
    assert parse_jsonl_documents(jsonl.replace("\n", "\r\n")) == docs


def test_lone_carriage_return_line_endings_are_rejected():
    conllu = serialize_conllu(load_small_corpus()).replace("\n", "\r")
    with pytest.raises(ParseError, match="line 1: carriage return inside a comment line"):
        parse_conllu(conllu)
    jsonl = serialize_jsonl_documents(load_small_corpus()).replace("\n", "\r")
    with pytest.raises(SchemaError, match="line 1: invalid JSON"):
        parse_jsonl_documents(jsonl)


# ---------------------------------------------------------------------------
# where documents start, and the filter that keeps some of them

READERS = {"conllu": read_conllu, "jsonl": read_jsonl}


def test_conllu_documents_start_at_newdoc_lines_however_spelled():
    doc = "# sent_id = s\n1\ta\ta\tX\t_\t_\t0\troot\t_\t_\n"
    text = (
        "# preamble comment\n\n# key = value\n"
        "#newdoc id=a\n" + doc + "\n# between documents\n# source = late\n\n"
        "#\t newdoc id\u00a0 = b\r\n# split = dev\n" + doc + "\n"
        "# newdoc id = c\n" + doc + "\n\n"
    )
    a, b, c = parse_conllu(text)
    assert [a.id, b.id, c.id] == ["a", "b", "c"]
    # a fact after a sentence is still its document's
    assert (a.source, b.split, c.source) == ("late", "dev", None)
    kept = list(read_conllu(_lines(text), {1: {"s"}, 2: set()}))
    assert kept == [b, replace(c, sentences=())]
    assert parse_conllu("") == list(read_conllu(_lines(""), {0: {"s"}})) == []


def test_jsonl_lines_of_unicode_whitespace_hold_no_document():
    first, second = serialize_jsonl_documents(load_small_corpus()).splitlines()
    text = "\n  \t\n\u2028\x1c\u00a0\n" + first + "\r\n\r\n \u3000\n  " + second + "\u2028"
    d1, d2 = load_small_corpus()
    assert parse_jsonl_documents(text) == [d1, d2]
    # the filter counts positions as the parser counts documents
    assert list(read_jsonl(_lines(text), {1: {"s1", "s2"}})) == [d2]
    assert list(read_jsonl(_lines(text), {0: {"s2"}})) == [replace(d1, sentences=d1.sentences[1:])]
    assert parse_jsonl_documents("") == parse_jsonl_documents("\n \n") == []
    # a line left out is never decoded, and a kept line keeps its number
    broken = text.replace(first, "{not json").replace(second, second.replace('"id":"d2"', '"id":7'))
    with pytest.raises(SchemaError, match="^line 7: field id has the wrong type$"):
        list(read_jsonl(_lines(broken), {1: {"s1"}}))


def test_a_filtered_parse_names_a_refused_sentence_by_its_index_in_the_record():
    record = document_to_dict(load_small_corpus()[0])
    record["sentences"][1]["tokens"][0]["surface"] = 7
    text = json.dumps(record)
    message = r"^line 1: field sentences\[1\]\.tokens\[0\]\.surface has the wrong type$"
    with pytest.raises(SchemaError, match=message):
        parse_jsonl_documents(text)
    with pytest.raises(SchemaError, match=message):
        list(read_jsonl(_lines(text), {0: {"s2"}}))
    # a sentence left out is still checked up to its id
    record["sentences"][0]["id"] = 1
    message = r"^line 1: field sentences\[0\]\.id has the wrong type$"
    with pytest.raises(SchemaError, match=message):
        list(read_jsonl(_lines(json.dumps(record)), {0: {"s2"}}))


def _with_blank_lines(rng, text, fmt):
    """``text`` with blank lines added where they change nothing.

    A CoNLL-U blank line goes before a comment line, where no sentence is
    open; a JSONL one holds whitespace that ``str.strip`` removes.
    """
    lines = []
    for line in text.split("\n"):
        if rng.random() < 0.3 and (fmt == "jsonl" or line.startswith("#")):
            lines.append(rng.choice(("", " ", "\t")) if fmt == "conllu" else
                         rng.choice(("", " ", "\u3000", "\x1c\u2028")))
        lines.append(line)
    return "\n".join(lines)


def test_a_filtered_parse_is_the_full_parse_restricted_to_what_it_keeps():
    rng = random.Random(47)
    for trial in range(12):
        docs = [
            replace(doc, source=f"feed{d}", split=rng.choice(SPLITS)) if d % 3 == 1 else doc
            for d, doc in enumerate(random_corpus(
                rng, rng.randint(1, 8), sentences_per_doc=(1, 6), trigger_chance=0.1,
                entity_chance=0.1, dated=trial % 2 == 0,
            ))
        ]
        conllu = _with_blank_lines(rng, serialize_conllu(docs), "conllu")
        for text, fmt in (
            (conllu, "conllu"),
            (_with_blank_lines(rng, serialize_jsonl_documents(docs), "jsonl"), "jsonl"),
            (conllu.replace("\n", "\r\n"), "conllu"),
        ):
            assert list(READERS[fmt](_lines(text))) == docs
            keep = {}
            for at, doc in enumerate(docs):
                if rng.random() < 0.6:
                    ids = [sent.id for sent in doc.sentences]
                    keep[at] = set(rng.sample(ids, rng.randint(0, len(ids))))
                    if rng.random() < 0.2:
                        keep[at].add("absent")
            if rng.random() < 0.3:
                keep[len(docs) + rng.randint(0, 2)] = {"s0"}  # past the last document
            expected = [
                replace(doc, sentences=tuple(s for s in doc.sentences if s.id in keep[at]))
                for at, doc in enumerate(docs)
                if at in keep
            ]
            assert list(READERS[fmt](_lines(text), keep)) == expected, (fmt, keep)


def test_readers_take_keep_by_keyword():
    docs = load_small_corpus()
    keep = {0: {"s1"}, 1: set()}
    for text, fmt in ((serialize_conllu(docs), "conllu"),
                      (serialize_jsonl_documents(docs), "jsonl")):
        read = READERS[fmt]
        assert list(read(_lines(text), keep=keep)) == list(read(_lines(text), keep))
        assert [doc.id for doc in read(lines=_lines(text))] == ["d1", "d2"]


def _conllu(*lines):
    return "\n".join(lines) + "\n"


def test_conllu_wrong_column_count():
    text = _conllu("# newdoc id = d", "# sent_id = s", "1\tword\tword")
    with pytest.raises(ParseError, match="line 3.*10 tab-separated columns"):
        parse_conllu(text)


def test_conllu_out_of_sequence_id():
    text = _conllu(
        "# newdoc id = d",
        "# sent_id = s",
        "1\ta\ta\tX\t_\t_\t0\troot\t_\t_",
        "3\tb\tb\tX\t_\t_\t1\tdep\t_\t_",
    )
    with pytest.raises(ParseError, match="out of sequence"):
        parse_conllu(text)


def test_conllu_rejects_multiword_ranges_and_empty_nodes():
    base = ("# newdoc id = d", "# sent_id = s")
    with pytest.raises(ParseError, match="multiword"):
        parse_conllu(_conllu(*base, "1-2\tof the\t_\tX\t_\t_\t0\troot\t_\t_"))
    with pytest.raises(ParseError, match="empty nodes"):
        parse_conllu(_conllu(*base, "1.1\tghost\t_\tX\t_\t_\t0\troot\t_\t_"))


def test_conllu_token_outside_document():
    with pytest.raises(ParseError, match="newdoc"):
        parse_conllu(_conllu("# sent_id = s", "1\ta\ta\tX\t_\t_\t0\troot\t_\t_"))


def test_conllu_missing_sent_id():
    with pytest.raises(ParseError, match="sent_id"):
        parse_conllu(_conllu("# newdoc id = d", "1\ta\ta\tX\t_\t_\t0\troot\t_\t_"))


def test_conllu_missing_sent_id_names_the_line_of_that_sentence():
    token = "1\ta\ta\tX\t_\t_\t0\troot\t_\t_"
    labelled = ("# newdoc id = d", "# sent_id = a", token, "")
    second_doc = labelled + ("# sent_id = b", token, "", "# newdoc id = e")
    for parse in (parse_conllu, reference_parse_conllu):
        for lines, line_no in ((labelled, 5), (second_doc, 9)):
            with pytest.raises(ParseError) as caught:
                parse(_conllu(*lines, token))
            assert str(caught.value) == f"line {line_no}: sentence is missing a '# sent_id' comment"


def test_conllu_duplicate_sentence_id():
    text = _conllu(
        "# newdoc id = d",
        "# sent_id = s",
        "1\ta\ta\tX\t_\t_\t0\troot\t_\t_",
        "",
        "# sent_id = s",
        "1\tb\tb\tX\t_\t_\t0\troot\t_\t_",
    )
    with pytest.raises(ParseError, match="duplicate sentence id"):
        parse_conllu(text)


def test_conllu_bad_metadata():
    with pytest.raises(ParseError, match="ISO date"):
        parse_conllu(_conllu("# newdoc id = d", "# collected_at = yesterday"))
    with pytest.raises(ParseError, match="unknown split"):
        parse_conllu(_conllu("# newdoc id = d", "# split = validation"))
    with pytest.raises(ParseError, match="outside a document"):
        parse_conllu(_conllu("# split = dev"))


def test_conllu_comment_after_tokens():
    text = _conllu(
        "# newdoc id = d",
        "# sent_id = s",
        "1\ta\ta\tX\t_\t_\t0\troot\t_\t_",
        "# sent_id = t",
    )
    with pytest.raises(ParseError, match="precede token lines"):
        parse_conllu(text)


def test_conllu_structural_rejects():
    two_roots = _conllu(
        "# newdoc id = d",
        "# sent_id = s",
        "1\ta\ta\tX\t_\t_\t0\troot\t_\t_",
        "2\tb\tb\tX\t_\t_\t0\troot\t_\t_",
    )
    with pytest.raises(StructureError, match="root") as caught:
        parse_conllu(two_roots)
    assert caught.value.line == 2
    cycle = _conllu(
        "# newdoc id = d",
        "# sent_id = s",
        "1\ta\ta\tX\t_\t_\t0\troot\t_\t_",
        "2\tb\tb\tX\t_\t_\t3\tdep\t_\t_",
        "3\tc\tc\tX\t_\t_\t2\tdep\t_\t_",
    )
    with pytest.raises(StructureError, match="cycle") as caught:
        parse_conllu(cycle)
    assert caught.value.line == 2
    with pytest.raises(ParseError) as caught:
        parse_conllu(_conllu("# newdoc id = d", "# sent_id = s", ""))
    assert str(caught.value) == "line 2: sentence 's' has no tokens"
    assert caught.value.line == 2


def test_conllu_empty_form_and_bad_head():
    base = ("# newdoc id = d", "# sent_id = s")
    with pytest.raises(ParseError, match="empty FORM"):
        parse_conllu(_conllu(*base, "1\t\ta\tX\t_\t_\t0\troot\t_\t_"))
    with pytest.raises(ParseError, match="malformed head"):
        parse_conllu(_conllu(*base, "1\ta\ta\tX\t_\t_\tx\troot\t_\t_"))


@pytest.mark.parametrize(
    "tid, head, problem",
    [
        ("+1", "0", "malformed token id '+1'"),
        (" 1", "0", "malformed token id ' 1'"),
        ("01", "0", "malformed token id '01'"),
        ("0_1", "0", "malformed token id '0_1'"),
        ("\u0661", "0", "malformed token id '\u0661'"),
        ("1", "+0", "malformed head '+0'"),
        ("1", "00", "malformed head '00'"),
        ("1", " 0 ", "malformed head ' 0 '"),
        ("1", "\u0660", "malformed head '\u0660'"),
        ("1", "-0", "malformed head '-0'"),
        # refused before, with the same message
        ("1-2", "0", "multiword token ranges are not supported"),
        ("1.1", "0", "empty nodes are not supported"),
        ("+2", "0", "token id 2 out of sequence (expected 1)"),
        ("1", "-1", "negative head -1"),
        ("1", "-01", "negative head -1"),
    ],
)
def test_conllu_token_id_and_head_take_one_spelling_per_number(tid, head, problem):
    text = _conllu("# newdoc id = d", "# sent_id = s", f"{tid}\ta\ta\tX\t_\t_\t{head}\troot\t_\t_")
    for parse in (parse_conllu, reference_parse_conllu):
        with pytest.raises(ParseError) as caught:
            parse(text)
        assert str(caught.value) == f"line 3: {problem}"


def test_jsonl_error_messages_carry_field_paths():
    with pytest.raises(SchemaError, match="line 1: invalid JSON"):
        parse_jsonl_documents("{nope")
    with pytest.raises(SchemaError, match="must be an object"):
        parse_jsonl_documents("[1]")
    with pytest.raises(SchemaError, match="missing required field id"):
        parse_jsonl_documents('{"sentences": []}')
    bad_token = (
        '{"id": "d", "sentences": [{"id": "s", "tokens": '
        '[{"surface": "a", "lemma": "a", "pos": "X"}, {"lemma": "b", "pos": "X"}], '
        '"edges": [{"head": -1, "dep": 0, "label": "root"}, {"head": 0, "dep": 1, "label": "dep"}]}]}'
    )
    with pytest.raises(SchemaError, match=r"sentences\[0\].tokens\[1\].surface") as caught:
        parse_jsonl_documents(bad_token)
    assert caught.value.line == 1
    sentence = '{"id": "s", "tokens": %s, "edges": %s}'
    for sentences, path in (
        ("1", "sentences[0]"),
        (sentence % ("[1]", "[]"), "sentences[0].tokens[0]"),
        (sentence % ("[]", "[1]"), "sentences[0].edges[0]"),
    ):
        with pytest.raises(SchemaError) as caught:
            parse_jsonl_documents('{"id": "d", "sentences": [%s]}' % sentences)
        assert str(caught.value) == f"line 1: {path} must be an object"
        assert caught.value.line == 1


def test_jsonl_refuses_lines_json_loads_cannot_decode_safely():
    record = {"id": "d", "sentences": []}
    good = json.dumps(record)
    for line, problem in undecodable_json_lines(record, "id"):
        with pytest.raises(SchemaError) as caught:
            parse_jsonl_documents(f"{good}\n\n{line}\n")
        assert str(caught.value).startswith(f"line 3: invalid JSON: {problem}")
    # a surrogate pair, and an escaped backslash before "ud800", are no lone surrogate
    for doc_id in ("\U0001F680", "\\ud800"):
        parsed = parse_jsonl_documents(json.dumps({**record, "id": doc_id}))
        assert parsed == [Document(doc_id, ())]


def test_jsonl_rejects_bool_for_int():
    text = (
        '{"id": "d", "sentences": [{"id": "s", '
        '"tokens": [{"surface": "a", "lemma": "a", "pos": "X"}], '
        '"edges": [{"head": true, "dep": 0, "label": "root"}]}]}'
    )
    with pytest.raises(SchemaError, match=r"edges\[0\].head"):
        parse_jsonl_documents(text)


def test_jsonl_unknown_split_and_duplicate_sentences():
    with pytest.raises(ParseError, match="unknown split"):
        parse_jsonl_documents('{"id": "d", "split": "holdout", "sentences": []}')
    dup = (
        '{"id": "d", "sentences": ['
        '{"id": "s", "tokens": [{"surface": "a", "lemma": "a", "pos": "X"}], '
        '"edges": [{"head": -1, "dep": 0, "label": "root"}]},'
        '{"id": "s", "tokens": [{"surface": "b", "lemma": "b", "pos": "X"}], '
        '"edges": [{"head": -1, "dep": 0, "label": "root"}]}]}'
    )
    with pytest.raises(ParseError, match="duplicate sentence id"):
        parse_jsonl_documents(dup)


def _in_both_formats(docs, facts=()):
    """``docs`` as CoNLL-U and as JSONL text, the last document also given ``facts``.

    ``facts`` are ``(key, text)`` pairs, written as they are, so they may
    hold texts that no ``Document`` holds.
    """
    last = docs[-1].id
    conllu = serialize_conllu(docs).replace(
        f"# newdoc id = {last}\n",
        f"# newdoc id = {last}\n" + "".join(f"# {key} = {text}\n" for key, text in facts),
    )
    records = [document_to_dict(doc) for doc in docs]
    records[-1].update(facts)
    return conllu, "".join(json.dumps(record) + "\n" for record in records)


def test_both_formats_refuse_each_document_fault_alike():
    def sent(*heads):
        tokens = tuple(Token(i, f"w{i}", f"w{i}", "X") for i in range(len(heads)))
        return Sentence("a", tokens, tuple(DepEdge(h, i, "dep") for i, h in enumerate(heads)))

    good = sent(ROOT, 0)
    cycle = sent(ROOT, 2, 1)
    # (facts and sentences of document 'x', the error, the CoNLL-U line it names)
    faults = [
        ((("split", "holdout"),), (good,), ParseError, "# split = holdout"),
        ((("split", ""),), (good,), ParseError, "# split = "),
        ((("collected_at", "yesterday"),), (good,), ParseError, "# collected_at = yesterday"),
        ((), (good, good), ParseError, "# sent_id = a"),
        ((), (sent(ROOT, 5),), StructureError, "# sent_id = a"),
        ((), (cycle,), StructureError, "# sent_id = a"),
        ((), (sent(ROOT, ROOT),), StructureError, "# sent_id = a"),
        ((), (good, cycle), ParseError, "# sent_id = a"),
    ]
    for facts, sentences, error, named in faults:
        # a first document also holds a sentence 'a', so only the document id tells them apart
        docs = [Document("w", (good,)), Document("x", sentences)]
        conllu, jsonl = _in_both_formats(docs, facts)
        conllu_line = max(n for n, line in enumerate(conllu.split("\n"), 1) if line == named)
        messages = []
        for parse, text, line in ((parse_conllu, conllu, conllu_line),
                                  (parse_jsonl_documents, jsonl, 2)):
            with pytest.raises(InputError) as caught:
                parse(text)
            assert type(caught.value) is error, (facts, sentences, caught.value)
            message = str(caught.value)
            assert message.startswith(f"line {line}: "), (parse.__name__, message)
            messages.append(message.split(": ", 1)[1])
        assert messages[0] == messages[1], messages
        if error is StructureError:
            assert messages[0].startswith("sentence 'a' in document 'x': "), messages[0]


def test_sentence_issues_structural_catalogue():
    tokens = (Token(0, "a", "a", "X"), Token(1, "b", "b", "X"), Token(2, "c", "c", "X"))
    ok = Sentence(
        "s",
        tokens,
        (DepEdge(ROOT, 0, "root"), DepEdge(0, 1, "dep"), DepEdge(0, 2, "dep")),
    )
    assert sentence_issues(ok) == []

    orphan = Sentence("s", tokens, (DepEdge(ROOT, 0, "root"), DepEdge(0, 1, "dep")))
    assert any("orphan" in issue for issue in sentence_issues(orphan))

    multi = Sentence(
        "s",
        tokens,
        (
            DepEdge(ROOT, 0, "root"),
            DepEdge(0, 1, "dep"),
            DepEdge(2, 1, "dep"),
            DepEdge(0, 2, "dep"),
        ),
    )
    assert any("more than one head" in issue for issue in sentence_issues(multi))

    cyclic = Sentence(
        "s",
        tokens,
        (DepEdge(ROOT, 0, "root"), DepEdge(2, 1, "dep"), DepEdge(1, 2, "dep")),
    )
    assert any("cycle" in issue for issue in sentence_issues(cyclic))

    assert sentence_issues(Sentence("s", (), ())) == ["sentence has no tokens"]

    out_of_range = Sentence(
        "s", tokens[:1], (DepEdge(ROOT, 0, "root"), DepEdge(0, 5, "dep"))
    )
    assert any("out of range" in issue for issue in sentence_issues(out_of_range))

    misplaced = Sentence("s", (tokens[1], tokens[0], tokens[2]), ok.edges)
    assert sentence_issues(misplaced) == [
        "token at position 0 carries index 1", "token at position 1 carries index 0"
    ]


def _with_heads(heads) -> Sentence:
    """A sentence whose token ``i`` has the one edge ``heads[i] -> i``."""
    tokens = tuple(Token(i, f"w{i}", f"w{i}", "X") for i in range(len(heads)))
    return Sentence("s", tokens, [DepEdge(head, i, "dep") for i, head in enumerate(heads)])


def test_is_tree_accepts_exactly_the_heads_sentence_issues_finds_no_fault_in():
    # the parsers explain a sentence with sentence_issues only when _is_tree fails;
    # every head list of up to five tokens, each head from -2 to one past the last
    # token, so heads that point right, out of range and round cycles all occur
    lists = 0
    for n in range(6):
        for heads in product(range(ROOT - 1, n + 1), repeat=n):
            assert _is_tree(list(heads)) == (not sentence_issues(_with_heads(heads))), heads
            lists += 1
    assert lists == 35_415


def test_both_readers_refuse_a_parse_through_one_gate_with_one_message():
    # every in-range head list of one to four tokens, as a one-sentence document
    accepted = refused = 0
    for n in range(1, 5):
        for heads in product(range(ROOT, n), repeat=n):
            docs = [Document("d", (_with_heads(heads),))]
            conllu = _outcome(parse_conllu, serialize_conllu(docs))
            jsonl = _outcome(parse_jsonl_documents, serialize_jsonl_documents(docs))
            if _is_tree(list(heads)):
                assert conllu == jsonl == docs, heads
                accepted += 1
            else:
                assert conllu[0] is jsonl[0] is StructureError, heads
                assert conllu[1].split(": ", 1)[1] == jsonl[1].split(": ", 1)[1], heads
                refused += 1
    assert (accepted, refused) == (76, 624)


def test_splits_constant():
    assert SPLITS == ("train", "dev", "test", "unseen", "unassigned")
    assert ROOT == -1


# ---------------------------------------------------------------------------
# the parsers against their reference copies, on mutated corpora

WRONG_TYPES = (True, 1.0, None, [], {}, "7", 7)
ODD_NUMBERS = ("0", "01", " 1", "+1", "1_0", "١", "-1", "1-2", "1.1", "x", "", "1024", "99999")


def _mutate_conllu(rng: random.Random, text: str, faults: int = 1) -> str:
    """``text`` with ``faults`` faults, each anywhere in it."""
    if faults > 1:
        text = _mutate_conllu(rng, text, faults - 1)
    lines = text.split("\n")
    at = rng.randrange(len(lines) - 1)
    row = rng.choice([i for i, line in enumerate(lines) if line[:1].isdigit()])
    cols = lines[row].split("\t")
    # an earlier fault may have cut this row below ten columns: a column
    # past its end wraps round, so every other mutant stays as it was
    width = len(cols)
    kind = rng.randrange(14)
    if kind == 0:
        del lines[at]
    elif kind == 1:
        lines[at], lines[at + 1] = lines[at + 1], lines[at]
    elif kind == 2:
        lines.insert(at, lines[at])
    elif kind == 3:
        del cols[rng.randrange(10) % width]
    elif kind == 4:
        a, b = (column % width for column in rng.sample(range(10), 2))
        cols[a], cols[b] = cols[b], cols[a]
    elif kind == 5:
        column = rng.randrange(10) % width
        cols.insert(column, cols[column])
    elif kind == 6:
        cols[6 % width] = cols[0]  # the token is its own head
    elif kind == 7:
        cols[6 % width] = str(rng.randint(13, 40))  # past every sentence's end
    elif kind == 8:
        cols[6 % width] = "0"  # a second root, unless this was the root
    elif kind == 9:
        cols[6 % width] = str(rng.randint(1, 12))  # maybe later, maybe a cycle
    elif kind == 10:
        cols[1] = ""
    elif kind == 11:
        cols[rng.choice((0, 6)) % width] = rng.choice(ODD_NUMBERS)
    elif kind == 12:
        lines.insert(at, rng.choice(("# split = nope", "# collected_at = 2020-13-01", " \t", "  x")))
    else:
        cols[9 % width] = rng.choice(("Ner=DATE|Chunk=B-NP", "Chunk", "Ner=", "|"))
    lines[row] = "\t".join(cols)
    return "\n".join(lines)


def _mutate_jsonl(rng: random.Random, text: str, faults: int = 1) -> str:
    """``text`` with one fault, or with ``faults`` faults stacked in one record."""
    lines = text.split("\n")[:-1]
    at = rng.randrange(len(lines) - 1)
    record = json.loads(lines[at])
    if faults > 1:
        _stack_faults(rng, record, faults)
    else:
        kind = rng.randrange(11)
        if kind == 0:
            del lines[at]
            return "\n".join(lines)
        if kind == 1:
            lines[at], lines[at + 1] = lines[at + 1], lines[at]
            return "\n".join(lines)
        _break_record(rng, record, kind)
    lines[at] = json.dumps(record, ensure_ascii=False)
    return "\n".join(lines)


# The checks the JSONL parser makes on a record, in order, each as (owner,
# field, values it refuses): owner 0 is the record, 1 its last sentence,
# 2 a token and 3 an edge of that sentence; GONE deletes the field.
GONE = object()
CHECKS = (
    (0, "id", (GONE, 7)),
    (0, "source", (None, 1)),
    (0, "collected_at", (1, None)),
    (0, "collected_at", ("2020-02-30", "nope")),
    (0, "split", (7, None)),
    (0, "split", ("nope", "Train")),
    (0, "sentences", (GONE, {})),
    (1, "id", (GONE, True)),
    (1, "tokens", (GONE, "7")),
    (1, "edges", (GONE, None)),
    (2, "surface", (GONE, 7)),
    (2, "lemma", (GONE, None)),
    (2, "pos", (GONE, [])),
    (2, "ner", (1, None)),
    (2, "chunk", (None, 1.0)),
    (3, "head", (GONE, True)),
    (3, "dep", (GONE, "7")),
    (3, "label", (GONE, 1.0)),
    (2, "surface", ("",)),  # from here on, the sentence's structure
    (3, "head", (-2, 10**20)),
    (3, "dep", (-1, 10**20)),
    (1, "id", ("s0",)),  # a repeated sentence id
)


def _stack_faults(rng: random.Random, record: dict, faults: int) -> None:
    """Fail two neighbouring checks of ``CHECKS`` in the record, and any others after them."""
    sent = record["sentences"][-1]
    owners = (record, sent, rng.choice(sent["tokens"]), rng.choice(sent["edges"]))
    at = rng.randrange(len(CHECKS) - 1)
    stack = [CHECKS[at], CHECKS[at + 1]] + rng.sample(CHECKS, faults - 2)
    rng.shuffle(stack)
    for owner, key, values in stack:
        value = rng.choice(values)
        if value is GONE:
            owners[owner].pop(key, None)
        else:
            owners[owner][key] = value


def _break_record(rng: random.Random, record: dict, kind: int) -> None:
    sent = rng.choice(record["sentences"])
    tok = rng.choice(sent["tokens"])
    edge = rng.choice(sent["edges"])
    if kind == 2:
        owner = rng.choice((record, sent, tok, edge))
        owner[rng.choice(sorted(owner) + ["ner", "chunk", "source", "split"])] = rng.choice(
            WRONG_TYPES
        )
    elif kind == 3:
        owner = rng.choice((record, sent, tok, edge))
        del owner[rng.choice(sorted(owner))]
    elif kind == 4:
        tok["surface"] = ""
    elif kind == 5:
        edge["head"] = edge["dep"]
    elif kind == 6:
        edge["head"] = rng.choice((-1, -2, len(sent["tokens"]), 10**20))
    elif kind == 7:
        edge["head"] = rng.randrange(len(sent["tokens"]))  # maybe later, maybe a cycle
    elif kind == 8:
        owner, key = rng.choice(((tok, "ner"), (tok, "chunk"), (record, "source"), (record, "split")))
        owner[key] = rng.choice((None, 1, "", "B-NP"))
    elif kind == 9:
        items = rng.choice((sent["tokens"], sent["edges"], record["sentences"]))
        a, b = rng.randrange(len(items)), rng.randrange(len(items))
        rng.choice((lambda: items.insert(a, items[b]), lambda: items.pop(a),
                    lambda: items.insert(a, items.pop(b))))()
    else:
        record[rng.choice(("collected_at", "split"))] = rng.choice(("2020-02-30", "nope", "dev"))


def test_parsers_share_equal_strings_within_one_call():
    rows = [("Sat", "sat", "PROPN", -1, "root"), ("flew", "fly", "VERB", 0, "dep")]
    variants = [rows, rows, [rows[0] + ("SPACECRAFT",), rows[1]],
                [rows[0] + (None, "B-NP"), rows[1]], [rows[0], rows[1][:4] + ("obj",)],
                [("sat", "sat", "VERB", -1, "root"), ("Sat", "sat", "PROPN", 0, "dep"),
                 ("flew", "fly", "VERB", 0, "dep")]]
    docs = [Document("d", tuple(make_sentence(f"s{i}", r) for i, r in enumerate(variants)))]
    for parse, text in ((parse_conllu, serialize_conllu(docs)),
                        (parse_jsonl_documents, serialize_jsonl_documents(docs))):
        parsed = parse(text)
        assert parsed == docs
        s0, s1, *others = parsed[0].sentences
        assert s1.surfaces[0] is s0.surfaces[0] and s1.labels[1] is s0.labels[1]
        # equal strings are one object, at any position and in any column
        moved = others[3]
        assert moved.surfaces[1] is s0.surfaces[0] and moved.surfaces[2] is s0.surfaces[1]
        assert moved.lemmas[0] is moved.surfaces[0] is s0.lemmas[0]
        assert moved.pos[1] is s0.pos[0] and moved.pos[0] is moved.pos[2] is s0.pos[1]
        assert moved.labels[2] is s0.labels[1]
        # a second parse call shares nothing with the first
        again = parse(text)
        assert again == parsed
        assert again[0].sentences[0].surfaces[0] is not s0.surfaces[0]


def _round_trip(obj):
    try:
        return pickle.loads(pickle.dumps(obj))
    except Exception as exc:  # before 3.11 a frozen slotted dataclass does not unpickle
        return type(exc)


def test_parsed_tokens_and_edges_match_ones_their_constructor_builds():
    # a parsed sentence builds its tokens and edges from its columns when they are first read
    checked = set()
    for docs in (load_small_corpus(),
                 random_corpus(random.Random("lean objects"), 20, entity_chance=0.3)):
        for text, parse in ((serialize_conllu(docs), parse_conllu),
                            (serialize_jsonl_documents(docs), parse_jsonl_documents)):
            for sent in (sent for doc in parse(text) for sent in doc.sentences):
                for obj in sent.tokens + sent.edges:
                    names = [f.name for f in fields(obj)]
                    values = [getattr(obj, name) for name in names]  # each slot is set
                    built = type(obj)(*values)
                    assert obj == built and hash(obj) == hash(built) and repr(obj) == repr(built)
                    with pytest.raises(FrozenInstanceError):
                        setattr(obj, names[-1], values[-1])
                    assert replace(obj) == obj
                    assert _round_trip(obj) == _round_trip(built)
                    assert sys.version_info < (3, 11) or _round_trip(obj) == obj
                    checked.add((type(obj), values[-1] is None))
    # tokens with and without a chunk, and edges
    assert {(Token, True), (Token, False), (DepEdge, False)} <= checked


def _outcome(parse, source):
    """``parse(source)``'s documents, or its exception's type, message and ``.line``."""
    try:
        return parse(source)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def _without_line(outcome):
    return outcome if isinstance(outcome, list) else outcome[:2]


@pytest.mark.parametrize(
    "fmt, parse, reference, serialize, mutate",
    [
        ("conllu", parse_conllu, reference_parse_conllu, serialize_conllu, _mutate_conllu),
        ("jsonl", parse_jsonl_documents, reference_parse_jsonl_documents,
         serialize_jsonl_documents, _mutate_jsonl),
    ],
)
def test_parsers_agree_with_their_reference_on_mutated_corpora(
    fmt, parse, reference, serialize, mutate
):
    # the first 250 corpora hold one fault each; the rest stack two or three,
    # which in JSONL all fall in one record, so the order of checks shows.
    rng = random.Random(f"mutants/{fmt}")
    accepted = refused = stacked_refused = 0
    for n in range(750):
        faults = 1 if n < 250 else 2 + n % 2
        docs = random_corpus(rng, 4, sentences_per_doc=(1, 3) if faults == 1 else (2, 3),
                             entity_chance=0.2, dated=True)
        text = mutate(rng, serialize(docs), faults)
        if n % 5 == 0:
            text = text.replace("\n", "\r\n")
        source = text.splitlines(keepends=True) if n % 7 == 0 else text
        expected = _without_line(_outcome(reference, source))
        assert _without_line(_outcome(parse, source)) == expected, text
        if faults > 1:
            stacked_refused += not isinstance(expected, list)
        elif isinstance(expected, list):
            accepted += 1
        else:
            refused += 1
    assert accepted >= 25 and refused >= 100
    assert stacked_refused >= 400


def test_parsers_pause_the_collector_and_restore_its_state():
    states = []

    def watched(text):
        for line in text.splitlines(keepends=True):
            states.append(gc.isenabled())
            yield line

    good_conllu = serialize_conllu(load_small_corpus())
    good_jsonl = serialize_jsonl_documents(load_small_corpus())
    cases = [
        (parse_conllu, good_conllu, good_conllu.replace("\t0\troot\t", "\t2\troot\t", 1)),
        (parse_jsonl_documents, good_jsonl, good_jsonl.replace('"head":-1', '"head":1', 1)),
    ]
    assert gc.isenabled()
    for parse, good, rootless in cases:
        assert parse(watched(good)) == load_small_corpus()
        with pytest.raises(StructureError, match="expected exactly one root edge, found 0"):
            parse(watched(rootless))
        assert gc.isenabled()
        gc.disable()
        try:
            with pytest.raises(StructureError):
                parse(rootless)
            assert not gc.isenabled()
        finally:
            gc.enable()
    assert states and not any(states)


def test_a_parse_builds_no_reference_cycles():
    # _collector_paused turns the collector off on this promise
    for docs in (load_small_corpus(),
                 random_corpus(random.Random("no cycles"), 20, entity_chance=0.3, dated=True)):
        for text, fmt in ((serialize_conllu(docs), "conllu"),
                          (serialize_jsonl_documents(docs), "jsonl")):
            gc.collect()
            gc.disable()
            try:
                parsed = list(READERS[fmt](_lines(text)))
                assert len(parsed) == len(docs)
                del parsed
                assert gc.collect() == 0, fmt
            finally:
                gc.enable()
