import hashlib
import random
from dataclasses import replace

import pytest

from spacevents import (
    InvertedIndex,
    build_index,
    candidate_sentences,
    load_index,
    parse_rules,
    save_index,
)
from spacevents.index import MAGIC, CorpusFingerprint
from spacevents.errors import InputError

from helpers import (
    FIXTURES,
    TRIGGER_WORDS,
    load_small_corpus,
    random_corpus,
    random_rule,
    word_vocab,
)


def _rule(trigger):
    text = f"rule t {{\n event: LAUNCH\n tier: backoff\n trigger: {trigger}\n}}\n"
    return parse_rules(text)[0]


def test_terms_are_field_tagged():
    index = build_index(load_small_corpus())
    assert index.refs("surface:launched") == (("d1", "s1"), ("d2", "s2"))
    # lemmas are indexed as written, surfaces lowercased
    assert index.refs("lemma:launch") == (("d1", "s1"), ("d2", "s2"))
    assert index.refs("surface:nasa") == (("d1", "s1"),)
    assert index.refs("lemma:NASA") == (("d1", "s1"),)
    assert index.refs("surface:NASA") == ()
    assert index.refs("lemma:launched") == ()


def test_postings_sorted_and_unique():
    docs = load_small_corpus()
    index = build_index(docs)
    for term, refs in index.postings.items():
        assert list(refs) == sorted(set(refs)), term
    # "the" appears twice in d1/s1 but once in its postings
    assert index.refs("surface:the") == (("d1", "s1"), ("d1", "s2"))


def test_len_counts_terms():
    index = build_index(load_small_corpus())
    assert len(index) == len(index.postings) > 0
    assert build_index([]).postings == {}


def test_worker_count_does_not_change_postings():
    rng = random.Random(5)
    docs = random_corpus(rng, 30, trigger_chance=0.1, entity_chance=0.1)
    assert build_index(docs, workers=1) == build_index(docs, workers=4)


def test_membership_against_exhaustive_scan():
    rng = random.Random(17)
    docs = random_corpus(rng, 40, trigger_chance=0.2)
    index = build_index(docs)
    pairs = [
        (doc, sent)
        for doc in docs
        for sent in doc.sentences
    ]
    checked = 0
    for doc, sent in pairs:
        for tok in sent.tokens[:3]:
            expected = (doc.id, sent.id)
            assert expected in index.refs(f"surface:{tok.surface.lower()}")
            assert expected in index.refs(f"lemma:{tok.lemma}")
            checked += 1
    assert checked >= 100


def test_candidates_union_over_literals_and_branches():
    index = build_index(load_small_corpus())
    launched = candidate_sentences(index, _rule("[lemma=launch]"))
    failed = candidate_sentences(index, _rule("[lemma=fail]"))
    either = candidate_sentences(index, _rule("[lemma=launch|fail]"))
    branches = candidate_sentences(index, _rule("[lemma=launch | lemma=fail]"))
    assert launched == {("d1", "s1"), ("d2", "s2")}
    assert failed == {("d1", "s2")}
    assert either == branches == launched | failed


def test_candidates_intersect_across_brackets_and_conjunctions():
    index = build_index(load_small_corpus())
    both = candidate_sentences(index, _rule("[lemma=launch][surface=telescope]"))
    assert both == {("d1", "s1")}
    conj = candidate_sentences(index, _rule("[lemma=launch & surface=telkom-3]"))
    assert conj == {("d2", "s2")}
    nothing = candidate_sentences(index, _rule("[lemma=launch][lemma=fail]"))
    assert nothing == set()


def test_candidates_ignore_negated_and_unindexable_atoms():
    index = build_index(load_small_corpus())
    base = candidate_sentences(index, _rule("[lemma=launch]"))
    narrowed = candidate_sentences(
        index, _rule("[lemma=launch & !surface=nothing & pos=VERB]")
    )
    assert narrowed == base


def test_candidates_superset_of_matches_on_random_corpora():
    from spacevents import extract_events

    rng = random.Random(23)
    vocab = word_vocab(60) + [w for w, _, _ in TRIGGER_WORDS]
    docs = random_corpus(rng, 60, vocab=vocab, trigger_chance=0.25, entity_chance=0.2)
    index = build_index(docs)
    by_id = {doc.id: doc for doc in docs}
    for i in range(40):
        rule = random_rule(rng, f"r{i}", vocab)
        cands = candidate_sentences(index, rule)
        events = extract_events(docs, [rule])
        hit_refs = {(ev.doc_id, ev.sentence_id) for ev in events}
        assert hit_refs <= cands
        for doc_id, sent_id in cands:
            assert any(s.id == sent_id for s in by_id[doc_id].sentences)


def test_save_load_roundtrip(tmp_path):
    index = build_index(load_small_corpus())
    path = tmp_path / "corpus.idx"
    save_index(index, path)
    assert load_index(path) == index


def test_serialization_is_deterministic(tmp_path):
    docs = load_small_corpus()
    a, b = tmp_path / "a.idx", tmp_path / "b.idx"
    save_index(build_index(docs), a)
    # same corpus content, same bytes, whatever the construction order
    save_index(build_index(list(reversed(docs)), workers=3), b)
    assert a.read_bytes() == b.read_bytes()


def _fingerprinted(docs=None):
    """The small corpus's index, fingerprinted; ``docs`` is the corpus in another order."""
    data = FIXTURES.joinpath("small.conllu").read_bytes()
    in_file_order = load_small_corpus()
    corpus = CorpusFingerprint(
        "conllu", hashlib.sha256(data).digest(), tuple(doc.id for doc in in_file_order)
    )
    return replace(build_index(in_file_order if docs is None else docs), corpus=corpus)


def test_fingerprint_roundtrip_and_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.idx", tmp_path / "b.idx"
    index = _fingerprinted()
    save_index(index, a)
    assert load_index(a) == index
    save_index(_fingerprinted(list(reversed(load_small_corpus()))), b)
    assert a.read_bytes() == b.read_bytes()
    # the fingerprint is appended after the terms of an index without one,
    # and its document table lists ids in file order, not sorted
    save_index(replace(index, corpus=None), b)
    plain = b.read_bytes()
    assert plain.endswith(b"\x00\x00")
    assert a.read_bytes().startswith(plain[:-2])
    unsorted = replace(index, corpus=replace(index.corpus, documents=("d2", "d1")))
    save_index(unsorted, b)
    assert load_index(b) == unsorted
    assert b.read_bytes().endswith(b"\x02\x00\x00\x00\x02\x00d2\x02\x00d1")


def test_version_1_files_ask_for_a_rebuild(tmp_path):
    path = tmp_path / "old.idx"
    save_index(_fingerprinted(), path)
    data = bytearray(path.read_bytes())
    data[len(MAGIC) : len(MAGIC) + 2] = (1).to_bytes(2, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(InputError, match="index version 1 .*rebuild the index"):
        load_index(path)


def test_version_2_files_ask_for_a_rebuild(tmp_path):
    path = tmp_path / "old.idx"
    save_index(_fingerprinted(), path)
    data = bytearray(path.read_bytes())
    data[len(MAGIC) : len(MAGIC) + 2] = (2).to_bytes(2, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(InputError) as caught:
        load_index(path)
    assert str(caught.value) == (
        f"{path}: index version 2 predates version 3; "
        "rebuild the index with 'spacevents index'"
    )


def test_load_rejects_corrupt_files(tmp_path):
    path = tmp_path / "bad.idx"

    path.write_bytes(b"NOTIDX" + b"\x00" * 10)
    with pytest.raises(InputError, match="bad magic"):
        load_index(path)

    path.write_bytes(MAGIC + (99).to_bytes(2, "little"))
    with pytest.raises(InputError, match="unsupported index version 99"):
        load_index(path)

    good = tmp_path / "good.idx"
    save_index(build_index(load_small_corpus()), good)
    data = good.read_bytes()
    path.write_bytes(data[:-3])
    with pytest.raises(InputError, match="truncated"):
        load_index(path)
    path.write_bytes(data + b"\x00")
    with pytest.raises(InputError, match="trailing bytes"):
        load_index(path)

    save_index(_fingerprinted(), good)
    data = good.read_bytes()
    for cut in (1, 20, 48):  # inside the document table, the digest, the format
        path.write_bytes(data[:-cut])
        with pytest.raises(InputError, match="truncated"):
            load_index(path)


def test_ref_table_errors_read_as_the_field_reader_words_them(tmp_path):
    path = tmp_path / "refs.idx"
    docs = [replace(doc, id=f"dé{doc.id}") for doc in load_small_corpus()]
    index = build_index(docs)
    corpus = CorpusFingerprint("conllu", bytes(32), tuple(doc.id for doc in docs))
    postings = {**index.postings, "lemma:né": index.postings["lemma:launch"]}
    save_index(replace(index, postings=postings, corpus=corpus), path)
    data = path.read_bytes()
    loaded = load_index(path)
    assert loaded.sentences[:2] == (("déd1", "s1"), ("déd1", "s2"))
    assert loaded.sentences[0][0] is loaded.sentences[1][0]  # equal ids share one string
    assert loaded.corpus == corpus and "lemma:né" in loaded.postings
    # the first byte of an é in the ref table, in a term and in the document table
    for first in (data.index("dé".encode()) + 1, data.index("né".encode()) + 1,
                  data.rindex("dé".encode()) + 1):
        path.write_bytes(data[: first + 1])  # cut inside the character: truncated, not bad UTF-8
        with pytest.raises(InputError, match="truncated"):
            load_index(path)
        path.write_bytes(data[:first] + b"\xff" + data[first + 1 :])
        with pytest.raises(InputError, match="not UTF-8"):
            load_index(path)


def test_a_cut_or_changed_index_file_loads_or_is_refused_as_input(tmp_path):
    path = tmp_path / "small.idx"
    save_index(_fingerprinted(), path)
    data = path.read_bytes()
    variants = [data[:cut] for cut in range(len(data))]
    for at, byte in enumerate(data):
        variants.extend(
            data[:at] + bytes((value,)) + data[at + 1 :] for value in (0x00, 0xFF, 0x80, byte ^ 1)
        )
    outcomes = {"loaded": 0, "refused": 0}
    for variant in variants:
        path.write_bytes(variant)
        try:
            load_index(path)
        except InputError:
            outcomes["refused"] += 1
        else:
            outcomes["loaded"] += 1
    assert outcomes["loaded"] and outcomes["refused"], outcomes


def test_empty_index_roundtrip(tmp_path):
    path = tmp_path / "empty.idx"
    save_index(InvertedIndex(postings={}), path)
    loaded = load_index(path)
    assert loaded.postings == {}
    assert loaded.refs("surface:anything") == ()
