import gc
import hashlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from datetime import date
from fnmatch import fnmatch
from pathlib import Path

import pytest

import spacevents
from spacevents import (
    ANNOTATION_HEADER,
    ROOT,
    SPLITS,
    build_index,
    load_index,
    parse_conllu,
    parse_jsonl_documents,
    save_index,
    serialize_conllu,
    serialize_jsonl_documents,
)
from spacevents.cli import main
from spacevents.index import CorpusFingerprint
from spacevents.errors import SpaceventsError

from helpers import FIXTURES, load_small_corpus, random_corpus, undecodable_json_lines

CORPUS = str(FIXTURES / "small.conllu")


def run(*argv, stdout=None):
    """``main``'s exit code, stdout and stderr; a ``Path`` given as ``stdout`` gets the output."""
    if isinstance(stdout, Path):
        with stdout.open("w", encoding="utf-8") as out:
            code, _, err = run(*argv, stdout=out)
        return code, "", err
    out = stdout if stdout is not None else io.StringIO()
    err = io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    text = out.getvalue() if isinstance(out, io.StringIO) else ""
    return code, text, err.getvalue()


def lines_of(text):
    return [json.loads(line) for line in text.splitlines()]


# ---------------------------------------------------------------------------
# extraction pipeline


def test_extract_emits_sorted_event_records():
    code, out, err = run("extract", "--corpus", CORPUS, "--workers", "1")
    assert code == 0
    records = lines_of(out)
    assert len(records) == 4
    assert [r["rule"] for r in records] == [
        "launch-verb-object",
        "failure-vehicle-subject",
        "decommission-passive",
        "launch-verb-object",
    ]
    assert records[0]["slots"]["SatelliteName"] == [[3, 6]]
    assert "4 events" in err


def test_extract_accepts_jsonl_corpus(tmp_path):
    jsonl = tmp_path / "corpus.jsonl"
    jsonl.write_text(serialize_jsonl_documents(load_small_corpus()), encoding="utf-8")
    code, from_jsonl, _ = run("extract", "--corpus", str(jsonl), "--workers", "1")
    assert code == 0
    _, from_conllu, _ = run("extract", "--corpus", CORPUS, "--workers", "1")
    assert from_jsonl == from_conllu
    # explicit --format overrides suffix sniffing
    misnamed = tmp_path / "corpus.txt"
    misnamed.write_text(jsonl.read_text(encoding="utf-8"), encoding="utf-8")
    code, out, _ = run(
        "extract", "--corpus", str(misnamed), "--format", "jsonl", "--workers", "1"
    )
    assert code == 0 and out == from_conllu


def test_extract_with_prebuilt_index_is_identical(tmp_path):
    index_path = tmp_path / "corpus.idx"
    code, _, err = run("index", "--corpus", CORPUS, "--index", str(index_path), "--workers", "1")
    assert code == 0
    assert index_path.exists()
    assert "indexed 2 documents / 4 sentences" in err

    _, plain, _ = run("extract", "--corpus", CORPUS, "--workers", "1")
    code, indexed, _ = run(
        "extract", "--corpus", CORPUS, "--index", str(index_path), "--workers", "1"
    )
    assert code == 0
    assert indexed == plain


def test_index_of_another_corpus_is_an_input_error(tmp_path):
    # the index covers only the first document; extraction would miss d2's events
    first_doc = tmp_path / "first.conllu"
    first_doc.write_text(
        Path(CORPUS).read_text(encoding="utf-8").split("# newdoc id = d2")[0], encoding="utf-8"
    )
    partial = tmp_path / "partial.idx"
    assert run("index", "--corpus", str(first_doc), "--index", str(partial))[0] == 0
    code, out, err = run("extract", "--corpus", CORPUS, "--index", str(partial))
    assert code == 1
    assert out == ""
    assert err == f"error: {partial}: built for a different corpus\n"

    whole = tmp_path / "whole.idx"
    assert run("index", "--corpus", CORPUS, "--index", str(whole))[0] == 0
    code, out, _ = run("extract", "--corpus", CORPUS, "--index", str(whole))
    assert code == 0
    assert len(lines_of(out)) == 4


# a third document that no reference rule's trigger can match
QUIET_DOC = (
    "\n# newdoc id = d3\n# sent_id = s1\n"
    "1\tEngineers\tengineer\tNOUN\tNNS\t_\t2\tnsubj\t_\t_\n"
    "2\tchecked\tcheck\tVERB\tVBD\t_\t0\troot\t_\t_\n"
    "3\tNOAA-19\tNOAA-19\tPROPN\tNNP\t_\t2\tobj\t_\t_\n\n"
)


def test_an_edited_token_outside_the_candidates_is_an_input_error(tmp_path, monkeypatch):
    import spacevents.documents as documents

    corpus = tmp_path / "three.conllu"
    corpus.write_text(Path(CORPUS).read_text(encoding="utf-8") + QUIET_DOC, encoding="utf-8")
    index_path = tmp_path / "three.idx"
    assert run("index", "--corpus", str(corpus), "--index", str(index_path))[0] == 0

    # only the candidate documents are parsed, and the output is unchanged
    parsed = []
    original = documents.read_conllu

    def recording(lines, keep=None):
        for doc in original(lines, keep):
            parsed.append(doc.id)
            yield doc

    monkeypatch.setattr(documents, "read_conllu", recording)
    code, indexed, _ = run("extract", "--corpus", str(corpus), "--index", str(index_path))
    assert code == 0
    assert parsed == ["d1", "d2"]
    assert indexed == run("extract", "--corpus", CORPUS)[1]
    monkeypatch.undo()

    # same ids, one token changed in d3: the sentence table still agrees
    corpus.write_text(
        corpus.read_text(encoding="utf-8").replace("\tchecked\tcheck\t", "\ttested\ttest\t"),
        encoding="utf-8",
    )
    code, out, err = run("extract", "--corpus", str(corpus), "--index", str(index_path))
    assert code == 1
    assert out == ""
    assert err == f"error: {index_path}: built for a different corpus\n"


# a document whose one candidate sentence sits between two that no trigger can match
MIXED_DOC = (
    "\n# newdoc id = d4\n# sent_id = before\n"
    "1\tCrews\tcrew\tNOUN\tNNS\t_\t2\tnsubj\t_\t_\n"
    "2\tinspected\tinspect\tVERB\tVBD\t_\t0\troot\t_\t_\n"
    "3\tEnvisat\tEnvisat\tPROPN\tNNP\t_\t2\tobj\t_\t_\n\n"
    "# sent_id = launch\n"
    "1\tESA\tESA\tPROPN\tNNP\t_\t2\tnsubj\t_\t_\n"
    "2\tlaunched\tlaunch\tVERB\tVBD\t_\t0\troot\t_\t_\n"
    "3\tEnvisat\tEnvisat\tPROPN\tNNP\t_\t2\tobj\t_\t_\n\n"
    "# sent_id = after\n"
    "1\tEngineers\tengineer\tNOUN\tNNS\t_\t2\tnsubj\t_\t_\n"
    "2\twaited\twait\tVERB\tVBD\t_\t0\troot\t_\t_\n\n"
)


def test_indexed_commands_build_only_the_candidate_sentences(tmp_path, monkeypatch):
    import spacevents.documents as documents

    conllu = tmp_path / "mixed.conllu"
    conllu.write_text(Path(CORPUS).read_text(encoding="utf-8") + MIXED_DOC, encoding="utf-8")
    jsonl = tmp_path / "mixed.jsonl"
    assert run("ingest", "--corpus", str(conllu), stdout=jsonl)[0] == 0
    edits = {
        conllu: ("\tinspected\tinspect\t", "\texamined\texamine\t"),
        jsonl: ('"surface":"inspected","lemma":"inspect"', '"surface":"examined","lemma":"examine"'),
    }
    for corpus, (old, new) in edits.items():
        index_path = tmp_path / f"{corpus.name}.idx"
        assert run("index", "--corpus", str(corpus), "--index", str(index_path))[0] == 0
        scanned = run("extract", "--corpus", str(corpus))
        assert '"doc_id":"d4","sentence_id":"launch"' in scanned[1]

        built = []
        for name in ("read_conllu", "read_jsonl"):
            def recording(lines, keep=None, original=getattr(documents, name)):
                for doc in original(lines, keep):
                    built.extend((doc.id, sent.id) for sent in doc.sentences)
                    yield doc

            monkeypatch.setattr(documents, name, recording)
        assert run("extract", "--corpus", str(corpus), "--index", str(index_path)) == scanned
        monkeypatch.undo()
        assert sorted(built) == [
            ("d1", "s1"), ("d1", "s2"), ("d2", "s1"), ("d2", "s2"), ("d4", "launch")
        ]

        # one token changed in a sentence that was not built
        text = corpus.read_text(encoding="utf-8")
        assert old in text
        corpus.write_text(text.replace(old, new), encoding="utf-8")
        code, out, err = run("extract", "--corpus", str(corpus), "--index", str(index_path))
        assert (code, out) == (1, "")
        assert err == f"error: {index_path}: built for a different corpus\n"


def test_sentence_table_that_names_a_missing_sentence_is_an_input_error(tmp_path):
    index_path = tmp_path / "small.idx"
    assert run("index", "--corpus", CORPUS, "--index", str(index_path))[0] == 0
    index = load_index(index_path)
    assert index.sentences[0] == ("d1", "s1")
    forged = replace(index, sentences=(("d1", "s1x"),) + index.sentences[1:])
    save_index(forged, index_path)
    code, out, err = run("extract", "--corpus", CORPUS, "--index", str(index_path))
    assert (code, out) == (1, "")
    assert err == f"error: {index_path}: sentence table does not match the corpus\n"


def test_index_of_the_same_documents_in_another_format_is_an_input_error(tmp_path):
    jsonl = tmp_path / "small.jsonl"
    assert run("ingest", "--corpus", CORPUS, stdout=jsonl)[0] == 0
    index_path = tmp_path / "small.idx"
    assert run("index", "--corpus", str(jsonl), "--index", str(index_path))[0] == 0
    code, out, err = run("extract", "--corpus", str(jsonl), "--index", str(index_path))
    assert code == 0 and len(lines_of(out)) == 4
    for argv in (
        ("--corpus", CORPUS),
        ("--corpus", str(jsonl), "--format", "conllu"),
    ):
        code, out, err = run("extract", *argv, "--index", str(index_path))
        assert code == 1, argv
        assert err == f"error: {index_path}: built for a different corpus\n"


def test_index_without_a_corpus_fingerprint_is_an_input_error(tmp_path):
    version_1 = tmp_path / "v1.idx"
    assert run("index", "--corpus", CORPUS, "--index", str(version_1))[0] == 0
    data = bytearray(version_1.read_bytes())
    data[6:8] = (1).to_bytes(2, "little")
    version_1.write_bytes(bytes(data))
    version_2 = tmp_path / "v2.idx"
    data[6:8] = (2).to_bytes(2, "little")
    version_2.write_bytes(bytes(data))
    unfingerprinted = tmp_path / "library.idx"
    save_index(build_index(load_small_corpus()), unfingerprinted)
    for index_path in (version_1, version_2, unfingerprinted):
        for command in ("extract", "shortlist", "export-annotation"):
            code, out, err = run(command, "--corpus", CORPUS, "--index", str(index_path))
            assert code == 1, (index_path, command)
            assert out == ""
            assert err.startswith(f"error: {index_path}: ")
            assert "rebuild the index with 'spacevents index'" in err


def test_document_table_that_misplaces_a_document_is_an_input_error(tmp_path):
    # the table lists document ids in file order
    reversed_corpus = tmp_path / "reversed.conllu"
    reversed_corpus.write_text(serialize_conllu(load_small_corpus()[::-1]), encoding="utf-8")
    index_path = tmp_path / "reversed.idx"
    assert run("index", "--corpus", str(reversed_corpus), "--index", str(index_path))[0] == 0
    assert load_index(index_path).corpus == CorpusFingerprint(
        "conllu", hashlib.sha256(reversed_corpus.read_bytes()).digest(), ("d2", "d1")
    )
    indexed = run("extract", "--corpus", str(reversed_corpus), "--index", str(index_path))
    assert indexed == run("extract", "--corpus", CORPUS)

    index_path = tmp_path / "small.idx"
    assert run("index", "--corpus", CORPUS, "--index", str(index_path))[0] == 0
    index = load_index(index_path)
    assert index.corpus.documents == ("d1", "d2")
    # ids swapped, a candidate document renamed, one missing, one past the end
    for documents in (("d2", "d1"), ("d1", "d9"), ("d1",), ("d0", "d1", "d2")):
        forged = replace(index, corpus=replace(index.corpus, documents=documents))
        save_index(forged, index_path)
        code, out, err = run("extract", "--corpus", CORPUS, "--index", str(index_path))
        assert (code, out) == (1, ""), documents
        assert err == f"error: {index_path}: document table does not match the corpus\n"


def test_the_digest_is_checked_before_the_tables_and_the_corpus_itself(tmp_path):
    jsonl = tmp_path / "small.jsonl"
    assert run("ingest", "--corpus", CORPUS, stdout=jsonl)[0] == 0
    # each edit is in d1, a candidate document: it still parses, no longer
    # parses, or now holds a byte that is not UTF-8
    edits = {
        Path(CORPUS): (b"\tCape\tCape\tPROPN\tNNP\t_\t9\t", [
            b"\tCap\tCap\tPROPN\tNNP\t_\t9\t",
            b"\tCape\tCape\tPROPN\tNNP\t_\tx\t",
            b"\tCap\xe9\tCape\tPROPN\tNNP\t_\t9\t",
        ]),
        jsonl: (b'"surface":"Cape","lemma":"Cape"', [
            b'"surface":"Cap","lemma":"Cap"',
            b'"surface":7,"lemma":"Cape"',
            b'"surface":"Cap\xe9","lemma":"Cape"',
        ]),
    }
    for corpus, (old, news) in edits.items():
        index_path = tmp_path / "small.idx"
        assert run("index", "--corpus", str(corpus), "--index", str(index_path))[0] == 0
        index = load_index(index_path)
        forged_path = tmp_path / "forged.idx"
        forged = replace(index, corpus=replace(index.corpus, documents=("d2", "d1")))
        save_index(forged, forged_path)
        data = corpus.read_bytes()
        assert data.count(old) == 1
        changed = tmp_path / f"changed{corpus.suffix}"
        for new, ingested in zip(news, (0, 1, 1)):
            changed.write_bytes(data.replace(old, new))
            assert run("ingest", "--corpus", str(changed))[0] == ingested
            for path in (index_path, forged_path):
                code, out, err = run("extract", "--corpus", str(changed), "--index", str(path))
                assert (code, out) == (1, ""), (changed, new)
                assert err == f"error: {path}: built for a different corpus\n"


def test_extract_shortlist_and_export_print_the_same_with_and_without_an_index_on_each_copy(
    tmp_path,
):
    # the fixture, its JSONL copy and a copy with CRLF line endings
    jsonl = tmp_path / "small.jsonl"
    assert run("ingest", "--corpus", CORPUS, stdout=jsonl)[0] == 0
    crlf = tmp_path / "small-crlf.conllu"
    crlf.write_bytes(Path(CORPUS).read_bytes().replace(b"\n", b"\r\n"))
    commands = ("extract", "shortlist", "export-annotation")
    expected = {command: run(command, "--corpus", CORPUS)[:2] for command in commands}
    assert all(code == 0 and out for code, out in expected.values())
    for corpus in (CORPUS, str(jsonl), str(crlf)):
        index_path = tmp_path / "small.idx"
        assert run("index", "--corpus", corpus, "--index", str(index_path))[0] == 0
        for command in commands:
            assert run(command, "--corpus", corpus)[:2] == expected[command], (corpus, command)
            indexed = run(command, "--corpus", corpus, "--index", str(index_path))
            assert indexed[:2] == expected[command], (corpus, command)


def test_an_index_refuses_a_copy_of_its_corpus_with_one_token_changed(tmp_path):
    jsonl = tmp_path / "small.jsonl"
    assert run("ingest", "--corpus", CORPUS, stdout=jsonl)[0] == 0
    edits = (
        (Path(CORPUS), "\tCape\tCape\t", "\tCap\tCap\t"),
        (jsonl, '"surface":"Cape","lemma":"Cape"', '"surface":"Cap","lemma":"Cap"'),
    )
    for corpus, old, new in edits:
        index_path = tmp_path / "small.idx"
        assert run("index", "--corpus", str(corpus), "--index", str(index_path))[0] == 0
        text = corpus.read_text(encoding="utf-8")
        assert old in text
        edited = tmp_path / f"edited{corpus.suffix}"
        edited.write_text(text.replace(old, new), encoding="utf-8")
        code, out, err = run("extract", "--corpus", str(edited), "--index", str(index_path))
        assert (code, out) == (1, "")
        assert err == f"error: {index_path}: built for a different corpus\n"


def _corpus_copies(tmp_path, docs):
    conllu = serialize_conllu(docs)
    copies = {
        "corpus.conllu": conllu,
        "corpus.jsonl": serialize_jsonl_documents(docs),
        "crlf.conllu": conllu.replace("\n", "\r\n"),
    }
    for name, text in copies.items():
        tmp_path.joinpath(name).write_bytes(text.encode("utf-8"))
    return [tmp_path / name for name in copies]


def test_commands_print_the_same_with_and_without_an_index_on_random_corpora(tmp_path):
    docs = random_corpus(random.Random(5), 150, trigger_chance=0.10, entity_chance=0.15)
    # and a copy with the documents in another order, which the document table follows
    shuffled = tmp_path / "shuffled.conllu"
    shuffled.write_text(serialize_conllu(random.Random(6).sample(docs, len(docs))),
                        encoding="utf-8")
    outputs = set()
    for corpus in _corpus_copies(tmp_path, docs) + [shuffled]:
        index_path = tmp_path / f"{corpus.name}.idx"
        assert run("index", "--corpus", str(corpus), "--index", str(index_path))[0] == 0
        for argv in (
            ("extract",),
            ("shortlist", "--sample", "LAUNCH=0.5", "--seed", "3"),
            ("export-annotation", "--sample", "FAILURE=0.5", "--seed", "11"),
        ):
            code, plain, _ = run(*argv, "--corpus", str(corpus))
            assert code == 0
            assert len(plain.splitlines()) > 10, argv
            code, indexed, _ = run(*argv, "--corpus", str(corpus), "--index", str(index_path))
            assert code == 0
            assert indexed == plain, (corpus.name, argv)
            outputs.add((argv, plain))
    assert len(outputs) == 3  # every copy of the corpus prints the same


def _with_cycle(docs):
    """``docs`` with a cycle of head links, and the ids of the document and sentence that hold it.

    In the first sentence with a token whose head is not the root token,
    that head takes the token as its own head: one root is left, and the
    two tokens head each other.
    """
    for d, doc in enumerate(docs):
        for s, sent in enumerate(doc.sentences):
            for token, (head, _) in enumerate(sent.head_of):
                if head != ROOT and sent.head_of[head][0] != ROOT:
                    edges = [
                        replace(edge, head=token) if edge.dependent == head else edge
                        for edge in sent.edges
                    ]
                    sentences = list(doc.sentences)
                    sentences[s] = replace(sent, edges=edges)
                    cyclic = replace(doc, sentences=sentences)
                    return docs[:d] + [cyclic] + docs[d + 1:], doc.id, sent.id
    raise AssertionError("no sentence has a head below the root")


@pytest.mark.parametrize("corpus", ["fixture", "random"])
def test_ingest_and_dedup_print_the_same_on_every_copy_and_refuse_a_cycle(tmp_path, corpus):
    if corpus == "fixture":
        docs, copies = load_small_corpus(), [Path(CORPUS)]
    else:
        docs, copies = random_corpus(random.Random(31), 60, dated=True), []
    copies += _corpus_copies(tmp_path, docs)
    for command in ("ingest", "dedup"):
        outputs = set()
        for copy in copies:
            code, out, _ = run(command, "--corpus", str(copy))
            assert code == 0 and out, (command, copy.name)
            outputs.add(out)
        assert len(outputs) == 1, command
    # ingest reproduces the JSONL copy byte for byte
    assert run("ingest", "--corpus", str(tmp_path / "corpus.jsonl"))[1].encode("utf-8") == (
        tmp_path / "corpus.jsonl"
    ).read_bytes()
    cyclic, doc_id, sent_id = _with_cycle(docs)
    (tmp_path / "cyclic").mkdir()
    problems = set()
    for copy in _corpus_copies(tmp_path / "cyclic", cyclic):
        for command in ("ingest", "dedup"):
            code, out, err = run(command, "--corpus", str(copy))
            assert (code, out) == (1, ""), (command, copy.name)
            assert err.startswith("error: line ") and "dependency cycle" in err, err
            problems.add(err.split(": ", 2)[2])
    # both formats name the same sentence of the same document
    assert len(problems) == 1, problems
    problem = problems.pop()
    assert problem.startswith(f"sentence {sent_id!r} in document {doc_id!r}: dependency cycle")


def test_jsonl_to_conllu_and_back_through_ingest_keeps_every_document_fact(tmp_path):
    facts = itertools.product(SPLITS, (None, "wire"), (None, date(2019, 3, 4)))
    docs = [
        replace(doc, split=split, source=source, collected_at=collected)
        for doc, (split, source, collected) in zip(random_corpus(random.Random(8), 20), facts)
    ]
    jsonl = tmp_path / "docs.jsonl"
    jsonl.write_text(serialize_jsonl_documents(docs), encoding="utf-8")
    code, ingested, _ = run("ingest", "--corpus", str(jsonl))
    assert code == 0 and parse_jsonl_documents(ingested) == docs
    conllu = tmp_path / "docs.conllu"
    conllu.write_text(serialize_conllu(parse_jsonl_documents(ingested)), encoding="utf-8")
    assert run("ingest", "--corpus", str(conllu))[:2] == (0, ingested)


def test_ingest_keeps_unicode_line_breaks_inside_tokens(tmp_path):
    d1, d2 = load_small_corpus()
    first = d1.sentences[0]
    tok = first.tokens[4]
    odd = replace(tok, surface="Space\u2028Age\u0085")
    d1 = replace(d1, sentences=(replace(first, tokens=first.tokens[:4] + (odd,) + first.tokens[5:]),)
                 + d1.sentences[1:])
    conllu = tmp_path / "odd.conllu"
    conllu.write_text(serialize_conllu([d1, d2]), encoding="utf-8")
    jsonl = tmp_path / "odd.jsonl"
    assert run("ingest", "--corpus", str(conllu), stdout=jsonl)[0] == 0
    assert "\u2028" in jsonl.read_text(encoding="utf-8")
    code, again, _ = run("ingest", "--corpus", str(jsonl))
    assert code == 0
    assert parse_jsonl_documents(again) == [d1, d2]
    assert run("extract", "--corpus", str(jsonl))[1] == run("extract", "--corpus", str(conllu))[1]


@pytest.mark.parametrize("fmt", ["conllu", "jsonl"])
def test_ingest_of_a_crlf_corpus_prints_what_the_whole_string_parse_serializes(tmp_path, fmt):
    docs = random_corpus(random.Random(37), 200, dated=True)
    serialize, parse = (
        (serialize_conllu, parse_conllu) if fmt == "conllu"
        else (serialize_jsonl_documents, parse_jsonl_documents)
    )
    body = serialize(docs).replace("\n", "\r\n").encode("utf-8")
    assert len(body) > 2 << 16  # lines on both sides of two 64 KiB boundaries or more
    # a padding line ahead of the documents ends the first 64 KiB read just
    # after a "\n", just after a "\r" and inside a line
    last = (1 << 16) - 1
    crlf = body.rindex(b"\r\n", 0, last - 8)
    corpus = tmp_path / f"crlf.{fmt}"
    ends = set()
    for size in (last - crlf - 1, last - crlf, last - crlf + 1):
        data = (b"#" if fmt == "conllu" else b" ") + b" " * (size - 3) + b"\r\n" + body
        corpus.write_bytes(data)
        ends.add(data[last : last + 1])
        text = data.decode("utf-8")
        assert parse(text) == docs
        assert run("ingest", "--corpus", str(corpus))[:2] == (0, serialize_jsonl_documents(docs))
    assert {b"\n", b"\r"} < ends


def _line_ending_copies(path: Path, directory: Path) -> list[Path]:
    """Copies of the text file at ``path`` with CRLF and with lone CR line endings."""
    data = path.read_bytes()
    copies = []
    for name, ending in (("crlf", b"\r\n"), ("cr", b"\r")):
        copies.append(directory / f"{name}-{path.name}")
        copies[-1].write_bytes(data.replace(b"\n", ending))
        assert copies[-1].read_bytes() != data
    return copies


def test_extract_prints_the_same_with_crlf_and_lone_cr_copies_of_the_rules_and_gazetteer(
    tmp_path,
):
    data = Path(spacevents.__file__).parent / "data"
    expected = run("extract", "--corpus", CORPUS)
    assert expected[0] == 0 and expected[1]
    rules = _line_ending_copies(data / "reference.rules", tmp_path)
    gazetteers = _line_ending_copies(data / "gazetteer.tsv", tmp_path)
    for rules_copy, gazetteer_copy in zip(rules, gazetteers):
        argv = ("--rules", str(rules_copy), "--gazetteer", str(gazetteer_copy))
        assert run("extract", "--corpus", CORPUS, *argv) == expected, rules_copy.name


def test_the_packaged_rules_and_gazetteer_are_read_from_the_package_data(monkeypatch):
    from importlib import resources

    import spacevents.cli as cli

    read_text, read = cli._read_text, []
    monkeypatch.setattr(cli, "_read_text", lambda path: read.append(path) or read_text(path))
    cli._load_rules(None)
    cli._load_gazetteer(None)
    names = ["reference.rules", "gazetteer.tsv"]
    assert [Path(path) for path in read] == [
        Path(str(resources.files("spacevents").joinpath("data", name))) for name in names
    ]
    # a wheel installs both: each matches a package-data glob
    pyproject = Path(__file__).resolve().parents[1].joinpath("pyproject.toml").read_text("utf-8")
    table = re.search(r"^\[tool\.setuptools\.package-data\]\nspacevents = \[(.*)\]$",
                      pyproject, re.M)
    globs = re.findall(r'"([^"]+)"', table.group(1))
    for name in names:
        assert any(fnmatch(f"data/{name}", glob) for glob in globs), (name, globs)


def test_score_stats_and_errors_print_the_same_on_crlf_and_lone_cr_copies(tmp_path, score_files):
    gold, pred = map(Path, score_files)
    fixture = FIXTURES / "annotation_stats.jsonl"
    copies = [(gold, pred, fixture)] + list(zip(*(
        _line_ending_copies(path, tmp_path) for path in (gold, pred, fixture)
    )))
    outputs = []
    for gold_copy, pred_copy, fixture_copy in copies:
        json_path = tmp_path / "report.json"
        printed = []
        for argv in (
            ("score", "--gold", str(gold_copy), "--pred", str(pred_copy)),
            ("errors", "--gold", str(gold_copy), "--pred", str(pred_copy)),
            ("stats", "--annotations", str(fixture_copy)),
        ):
            code, out, err = run(*argv, "--json", str(json_path))
            assert code == 0 and out, (argv, err)
            printed.append((out, err, json_path.read_bytes()))
        outputs.append(printed)
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_worker_count_is_invisible_in_output():
    _, one, _ = run("extract", "--corpus", CORPUS, "--workers", "1")
    _, four, _ = run("extract", "--corpus", CORPUS, "--workers", "4")
    assert one == four


def test_ingest_round_trips_documents():
    code, out, err = run("ingest", "--corpus", CORPUS)
    assert code == 0
    assert parse_jsonl_documents(out) == load_small_corpus()
    assert "ingested 2 documents" in err


def test_validate_ok_and_broken(tmp_path):
    code, _, err = run("validate", "--corpus", CORPUS)
    assert code == 0
    assert "corpus ok: 2 documents" in err

    broken = tmp_path / "dup.conllu"
    broken.write_text(
        "# newdoc id = d\n# sent_id = s\n1\ta\ta\tX\t_\t_\t0\troot\t_\t_\n\n"
        "# newdoc id = d\n# sent_id = s\n1\ta\ta\tX\t_\t_\t0\troot\t_\t_\n",
        encoding="utf-8",
    )
    # validate refuses what every command refuses, with the same line
    for command in ("validate", "ingest"):
        code, out, err = run(command, "--corpus", str(broken))
        assert (code, out) == (1, "")
        assert err == f"error: {broken}: duplicate document id 'd'\n"


def test_a_parse_error_anywhere_wins_over_an_earlier_duplicate_document_id(tmp_path):
    token = "1\ta\ta\tX\t_\t_\t0\troot\t_\t_"
    lines = ["# newdoc id = d", "# sent_id = s", token, ""] * 2
    lines += ["# newdoc id = e", "# sent_id = s", token.replace("\t0\t", "\tx\t"), ""]
    corpus = tmp_path / "both.conllu"
    index_path = tmp_path / "both.idx"
    commands = [("validate",), ("ingest",), ("index", "--index", str(index_path)),
                ("extract",), ("ner",), ("dedup",)]
    for problem, text in (
        ("line 11: malformed head 'x'", "\n".join(lines)),
        (f"{corpus}: duplicate document id 'd'", "\n".join(lines[:8])),
    ):
        corpus.write_text(text, encoding="utf-8")
        for argv in commands:
            assert run(*argv, "--corpus", str(corpus)) == (1, "", f"error: {problem}\n"), argv
            assert not index_path.exists()


def _corpus_commands(index_path):
    """The argument lists, but ``--corpus``, of every command that reads a corpus."""
    return [
        ("ingest",), ("validate",), ("dedup",), ("ner",), ("index", "--index", str(index_path)),
        ("extract",), ("shortlist", "--sample", "LAUNCH=0.5"),
        ("export-annotation", "--sample", "LAUNCH=0.5"),
    ]


def test_a_byte_that_is_not_utf8_anywhere_wins_then_a_parse_error(tmp_path):
    filler = serialize_conllu(random_corpus(random.Random(23), 400)).encode("utf-8")
    assert len(filler) > 1 << 16  # past the first block the corpus is read in
    broken = b"# newdoc id = b\n# sent_id = s\n1\tword\n\n"
    uncountable = b"# newdoc id = u\n# sent_id = s\n1\t.\t.\tPUNCT\t_\t_\t0\tpunct\t_\t_\n\n"
    corpus = tmp_path / "corpus.conllu"
    index_path = tmp_path / "corpus.idx"
    late_byte = broken + filler + b"# source = caf\xe9\n"
    late_fault = uncountable + filler + broken
    lines = late_fault.count(b"\n")
    for data, problem in (
        (late_byte, f"{corpus}: not UTF-8 text (byte {len(late_byte) - 2})"),
        # dedup reads no term vector before the whole corpus has parsed
        (late_fault, f"line {lines - 1}: expected 10 tab-separated columns, got 2"),
    ):
        corpus.write_bytes(data)
        for argv in _corpus_commands(index_path):
            assert run(*argv, "--corpus", str(corpus)) == (1, "", f"error: {problem}\n"), argv
            assert not index_path.exists()


def test_every_block_of_the_corpus_is_read_before_a_fault_is_raised(tmp_path):
    from spacevents.cli import _documents

    filler = serialize_conllu(random_corpus(random.Random(29), 400)).encode("utf-8")
    assert len(filler) > 2 << 16  # three blocks or more
    token = b"1\ta\ta\tX\t_\t_\t0\troot\t_\t_\n"
    corpus = tmp_path / "corpus.conllu"
    for first, problem in (
        (b"# newdoc id = caf\xe9\n", f"{corpus}: not UTF-8 text (byte 17)"),
        (b"# newdoc id = d\n# sent_id = s\n1\tword\n\n", "line 3: expected 10"),
    ):
        corpus.write_bytes(first + token + filler)
        blocks = []
        with pytest.raises(SpaceventsError) as caught:
            list(_documents(str(corpus), None, on_block=blocks.append))
        assert str(caught.value).startswith(problem)
        assert len(blocks) > 2 and b"".join(blocks) == corpus.read_bytes()


@pytest.mark.parametrize("fmt", ["conllu", "jsonl"])
def test_a_fault_in_the_last_document_leaves_stdout_empty(tmp_path, fmt):
    docs = load_small_corpus() + random_corpus(random.Random(3), 6)
    cyclic, doc_id, _ = _with_cycle(docs[-1:])
    serialize = serialize_conllu if fmt == "conllu" else serialize_jsonl_documents
    good, bad = tmp_path / f"good.{fmt}", tmp_path / f"bad.{fmt}"
    good.write_text(serialize(docs), encoding="utf-8")
    bad.write_text(serialize(docs[:-1] + cyclic), encoding="utf-8")
    index_path = tmp_path / "corpus.idx"
    for argv in _corpus_commands(index_path):
        code, out, _ = run(*argv, "--corpus", str(good))
        assert code == 0 and (out or argv[0] in ("validate", "index")), argv
        index_path.unlink(missing_ok=True)
        code, out, err = run(*argv, "--corpus", str(bad))
        assert (code, out) == (1, ""), argv
        assert f"in document {doc_id!r}: dependency cycle" in err, (argv, err)
        assert not index_path.exists()


def _traced_peak(*argv) -> int:
    """The peak of memory traced through one run of the CLI, which must succeed."""
    gc.collect()  # garbage left by earlier work is not counted
    tracemalloc.start()
    try:
        code, out, err = run(*argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out, err
    return peak


def test_peak_memory_does_not_follow_corpus_size(tmp_path):
    docs = random_corpus(random.Random(17), 30, sentences_per_doc=(20, 30),
                         trigger_chance=0.005, entity_chance=0.1, dated=True)
    paths = []
    for times in (1, 4):
        copies = [replace(doc, id=f"{k}-{doc.id}") for k in range(times) for doc in docs]
        paths.append(tmp_path / f"{times}x.conllu")
        paths[-1].write_text(serialize_conllu(copies), encoding="utf-8")
    added = paths[1].stat().st_size - paths[0].stat().st_size
    for command in ("extract", "dedup"):
        run(command, "--corpus", CORPUS)  # imports and first-call set-up are not measured
    # holding every document and the text they came from takes several times
    # the bytes added; extract keeps the events, dedup each document's id,
    # date and term vector
    for command, share in (("extract", 0.25), ("dedup", 0.75)):
        small, large = (_traced_peak(command, "--corpus", str(path)) for path in paths)
        assert large - small < share * added, (command, small, large, added)


def test_extract_with_an_index_holds_no_copy_of_the_corpus(tmp_path):
    # two documents with events among many that no trigger can match
    quiet = random_corpus(random.Random(19), 150, min_len=30, max_len=40)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(serialize_jsonl_documents(load_small_corpus() + quiet), encoding="utf-8")
    index_path = tmp_path / "corpus.idx"
    assert run("index", "--corpus", str(corpus), "--index", str(index_path))[0] == 0
    run("extract", "--corpus", CORPUS)  # imports and first-call set-up are not measured
    # what reading the rules and the gazetteer takes
    base = _traced_peak("extract", "--corpus", CORPUS)
    peak = _traced_peak("extract", "--corpus", str(corpus), "--index", str(index_path))
    size = corpus.stat().st_size
    assert peak - base < size / 2, (base, peak, size)


def test_duplicate_document_ids_are_an_input_error(tmp_path):
    # both documents are named d1 and both hold a sentence s1 with an event
    corpus = tmp_path / "dup.conllu"
    corpus.write_text(
        Path(CORPUS).read_text(encoding="utf-8").replace("newdoc id = d2", "newdoc id = d1"),
        encoding="utf-8",
    )
    for command in ("extract", "export-annotation"):
        code, out, err = run(command, "--corpus", str(corpus))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "duplicate document id 'd1'" in err


def test_dedup_assigns_pools_and_splits():
    code, out, err = run("dedup", "--corpus", CORPUS)
    assert code == 0
    assert lines_of(out) == [
        {"doc_id": "d1", "pool_id": "d1", "split": "train"},
        {"doc_id": "d2", "pool_id": "d2", "split": "dev"},
    ]
    assert "2 pools over 2 documents" in err


def test_ner_emits_merged_mentions():
    code, out, _ = run("ner", "--corpus", CORPUS)
    assert code == 0
    records = lines_of(out)
    assert len(records) == 4
    d2s1 = next(
        r for r in records if r["doc_id"] == "d2" and r["sentence_id"] == "s1"
    )
    # the domain SPACECRAFT reading beats the generic ORGANIZATION tags
    assert d2s1["mentions"] == [
        {"start": 0, "end": 1, "type": "SPACECRAFT", "origin": "domain"},
        {"start": 4, "end": 5, "type": "ORGANIZATION", "origin": "domain"},
        {"start": 6, "end": 7, "type": "DATE", "origin": "generic"},
    ]


def test_shortlist_samples_per_type_with_seed():
    code, out, err = run(
        "shortlist", "--corpus", CORPUS, "--workers", "1",
        "--sample", "launch=0.5", "--seed", "7",
    )
    assert code == 0
    records = lines_of(out)
    assert [(r["doc_id"], r["sentence_id"], r["event_type"], r["sampled"]) for r in records] == [
        ("d1", "s1", "LAUNCH", False),
        ("d1", "s2", "FAILURE", True),
        ("d2", "s1", "DECOMMISSIONING", True),
        ("d2", "s2", "LAUNCH", True),
    ]
    assert records[1]["events"][0]["rule"] == "failure-vehicle-subject"
    assert "3 of 4 candidate sentences sampled" in err

    _, again, _ = run(
        "shortlist", "--corpus", CORPUS, "--workers", "1",
        "--sample", "launch=0.5", "--seed", "7",
    )
    assert again == out


def test_export_annotation_writes_header_then_tasks():
    code, out, _ = run(
        "export-annotation", "--corpus", CORPUS, "--workers", "1",
        "--sample", "LAUNCH=0.5", "--seed", "7",
    )
    assert code == 0
    records = lines_of(out)
    assert records[0] == ANNOTATION_HEADER
    tasks = records[1:]
    assert [t["sentence_id"] for t in tasks] == ["s2", "s1", "s2"]
    failure = tasks[0]
    assert failure["event_type"] == "FAILURE"
    assert failure["text"] == "The Proton-M rocket failed in September ."
    assert failure["suggestions"] == [
        {"start": 1, "end": 2, "label": "LaunchVehicle"},
        {"start": 5, "end": 6, "label": "Date"},
    ]


# ---------------------------------------------------------------------------
# scoring commands

GOLD_LINES = (
    '{"sentence_id": "s1", "event_type": "LAUNCH", "split": "test", "n_tokens": 15, '
    '"spans": [{"start": 3, "end": 6, "label": "SatelliteName"}, '
    '{"start": 10, "end": 14, "label": "Date"}]}\n'
)

PRED_LINES = (
    '{"sentence_id": "s1", "event_type": "LAUNCH", '
    '"spans": [{"start": 3, "end": 6, "label": "SatelliteName"}, '
    '{"start": 10, "end": 12, "label": "Date"}]}\n'
)


@pytest.fixture
def score_files(tmp_path):
    gold = tmp_path / "gold.jsonl"
    pred = tmp_path / "pred.jsonl"
    gold.write_text(GOLD_LINES, encoding="utf-8")
    pred.write_text(PRED_LINES, encoding="utf-8")
    return str(gold), str(pred)


def test_score_universe_mismatch_is_an_input_error(tmp_path, score_files):
    gold, _ = score_files
    other = tmp_path / "other.jsonl"
    other.write_text(
        '{"sentence_id": "s9", "event_type": "LAUNCH", "spans": []}\n', encoding="utf-8"
    )
    code, _, err = run("score", "--gold", gold, "--pred", str(other))
    assert code == 1
    assert "sentence sets differ" in err


def test_score_rejects_a_non_string_label(tmp_path, score_files):
    gold, _ = score_files
    pred = tmp_path / "mixed.jsonl"
    pred.write_text(
        '{"sentence_id": "s1", "event_type": "LAUNCH", "spans": ['
        '{"start": 0, "end": 2, "label": 5}, '
        '{"start": 3, "end": 4, "label": "Payload"}]}\n',
        encoding="utf-8",
    )
    code, out, err = run("score", "--gold", gold, "--pred", str(pred))
    assert code == 1
    assert out == ""
    assert "spans[0]: span label must be a string, found 5" in err


def test_stats_table(score_files, tmp_path):
    gold, _ = score_files
    json_path = tmp_path / "stats.json"
    code, out, _ = run("stats", "--annotations", gold, "--json", str(json_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["Event", "Split", "Sentences", "Tagged", "Tokens"]
    assert lines[2].split() == ["Launch", "test", "1", "7", "15"]
    payload = json.loads(json_path.read_text(encoding="utf-8"))
    assert payload["rows"] == [
        {
            "event_type": "LAUNCH",
            "split": "test",
            "sentences": 1,
            "tagged_tokens": 7,
            "total_tokens": 15,
        }
    ]


def test_stats_counts_repeated_records_once(tmp_path):
    record = json.dumps(
        {"sentence_id": "s0", "event_type": "LAUNCH", "n_tokens": 10,
         "spans": [{"start": 0, "end": 2, "label": "Payload"}]}
    )
    annotations = tmp_path / "twice.jsonl"
    annotations.write_text(f"{record}\n{record}\n", encoding="utf-8")
    code, out, _ = run("stats", "--annotations", str(annotations))
    assert code == 0
    assert out.splitlines()[2].split() == ["Launch", "unassigned", "1", "2", "10"]
    annotations.write_text(f"{record}\n{record.replace('10', '11')}\n", encoding="utf-8")
    code, out, err = run("stats", "--annotations", str(annotations))
    assert code == 1
    assert out == ""
    assert "disagree on the split or the token count" in err


def test_annotation_span_past_the_token_count_is_an_input_error(tmp_path):
    annotations = tmp_path / "long-span.jsonl"
    annotations.write_text(
        '{"sentence_id":"s0","event_type":"LAUNCH","n_tokens":3,'
        '"spans":[{"start":0,"end":8,"label":"Payload"}]}\n',
        encoding="utf-8",
    )
    code, out, err = run("stats", "--annotations", str(annotations))
    assert code == 1
    assert out == ""
    assert err == "error: line 1: spans[0] ends at 8, past the sentence's 3 tokens\n"


GOLDEN_SCORE_OUT = (
    "Event              Slot               Pr   Re   F1      N\n"
    "---------------------------------------------------------\n"
    "Launch             SatelliteName     100  100  100      1\n"
    "Launch             Date                0    0    0      1\n"
    "Generic (micro)    Organization        0    0    0      0\n"
    "Generic (micro)    Date                0    0    0      1\n"
)

GOLDEN_SCORE_JSON = (
    "{\n"
    '  "micro": [\n'
    "    {\n"
    '      "event_type": "ALL",\n'
    '      "f1": 0.0,\n'
    '      "fn": 0,\n'
    '      "fp": 0,\n'
    '      "n_gold": 0,\n'
    '      "precision": 0.0,\n'
    '      "recall": 0.0,\n'
    '      "slot": "Organization",\n'
    '      "tp": 0\n'
    "    },\n"
    "    {\n"
    '      "event_type": "ALL",\n'
    '      "f1": 0.0,\n'
    '      "fn": 1,\n'
    '      "fp": 1,\n'
    '      "n_gold": 1,\n'
    '      "precision": 0.0,\n'
    '      "recall": 0.0,\n'
    '      "slot": "Date",\n'
    '      "tp": 0\n'
    "    }\n"
    "  ],\n"
    '  "rows": [\n'
    "    {\n"
    '      "event_type": "LAUNCH",\n'
    '      "f1": 1.0,\n'
    '      "fn": 0,\n'
    '      "fp": 0,\n'
    '      "n_gold": 1,\n'
    '      "precision": 1.0,\n'
    '      "recall": 1.0,\n'
    '      "slot": "SatelliteName",\n'
    '      "tp": 1\n'
    "    },\n"
    "    {\n"
    '      "event_type": "LAUNCH",\n'
    '      "f1": 0.0,\n'
    '      "fn": 1,\n'
    '      "fp": 1,\n'
    '      "n_gold": 1,\n'
    '      "precision": 0.0,\n'
    '      "recall": 0.0,\n'
    '      "slot": "Date",\n'
    '      "tp": 0\n'
    "    }\n"
    "  ]\n"
    "}\n"
)

GOLDEN_STATS_OUT = (
    "Event              Split         Sentences     Tagged     Tokens\n"
    "----------------------------------------------------------------\n"
    "Decommissioning    unassigned            1          1          6\n"
    "Failure            test                  1          4         10\n"
    "Launch             train                 2          6         21\n"
    "Launch             dev                   1          0          7\n"
)

GOLDEN_STATS_JSON = (
    "{\n"
    '  "rows": [\n'
    "    {\n"
    '      "event_type": "DECOMMISSIONING",\n'
    '      "sentences": 1,\n'
    '      "split": "unassigned",\n'
    '      "tagged_tokens": 1,\n'
    '      "total_tokens": 6\n'
    "    },\n"
    "    {\n"
    '      "event_type": "FAILURE",\n'
    '      "sentences": 1,\n'
    '      "split": "test",\n'
    '      "tagged_tokens": 4,\n'
    '      "total_tokens": 10\n'
    "    },\n"
    "    {\n"
    '      "event_type": "LAUNCH",\n'
    '      "sentences": 2,\n'
    '      "split": "train",\n'
    '      "tagged_tokens": 6,\n'
    '      "total_tokens": 21\n'
    "    },\n"
    "    {\n"
    '      "event_type": "LAUNCH",\n'
    '      "sentences": 1,\n'
    '      "split": "dev",\n'
    '      "tagged_tokens": 0,\n'
    '      "total_tokens": 7\n'
    "    }\n"
    "  ]\n"
    "}\n"
)

GOLDEN_ERRORS_OUT = (
    "Bucket            Count  Share\n"
    "------------------------------\n"
    "exact                 1       \n"
    "span_error            1   100%\n"
    "label_confusion       0     0%\n"
    "spurious              0     0%\n"
    "missed                0     0%\n"
)

GOLDEN_ERRORS_JSON = (
    "{\n"
    '  "exact": 1,\n'
    '  "label_confusion": 0,\n'
    '  "missed": 0,\n'
    '  "proportions": {\n'
    '    "label_confusion": 0.0,\n'
    '    "missed": 0.0,\n'
    '    "span_error": 1.0,\n'
    '    "spurious": 0.0\n'
    "  },\n"
    '  "span_error": 1,\n'
    '  "spurious": 0\n'
    "}\n"
)


@pytest.mark.parametrize(
    "command, inputs, table, payload",
    [
        ("score", ("--gold", "gold", "--pred", "pred"), GOLDEN_SCORE_OUT, GOLDEN_SCORE_JSON),
        ("stats", ("--annotations", "fixture"), GOLDEN_STATS_OUT, GOLDEN_STATS_JSON),
        ("errors", ("--gold", "gold", "--pred", "pred"), GOLDEN_ERRORS_OUT, GOLDEN_ERRORS_JSON),
    ],
)
def test_report_tables_and_json_byte_for_byte(
    score_files, tmp_path, command, inputs, table, payload
):
    gold, pred = score_files
    paths = {"gold": gold, "pred": pred, "fixture": str(FIXTURES / "annotation_stats.jsonl")}
    argv = [paths.get(arg, arg) for arg in inputs]
    json_path = tmp_path / "report.json"
    assert run(command, *argv, "--json", str(json_path)) == (0, table, "")
    assert json_path.read_bytes() == payload.encode("utf-8")
    assert run(command, *argv) == (0, table, "")


# ---------------------------------------------------------------------------
# failure modes and exit codes


def test_usage_problems_exit_one():
    assert run()[0] == 1
    assert run("frobnicate")[0] == 1
    code, _, err = run("extract")
    assert code == 1
    assert "--corpus" in err  # required, and reported on main()'s stderr
    code, _, err = run("extract", "--corpus", CORPUS, "--workers", "zero")
    assert code == 1


def test_missing_file_is_an_input_error():
    code, _, err = run("extract", "--corpus", "/no/such/file.conllu")
    assert code == 1
    assert err.startswith("error: cannot read")


def test_non_utf8_text_inputs_are_input_errors(tmp_path):
    bad = tmp_path / "latin1.conllu"
    bad.write_bytes(b"# newdoc id = caf\xe9\n")
    cases = [
        ("extract", "--corpus", str(bad)),
        ("extract", "--corpus", CORPUS, "--rules", str(bad)),
        ("ner", "--corpus", CORPUS, "--gazetteer", str(bad)),
        ("stats", "--annotations", str(bad)),
        ("score", "--gold", str(bad), "--pred", str(bad)),
    ]
    for argv in cases:
        code, _, err = run(*argv)
        assert code == 1, argv
        assert err.startswith(f"error: {bad}: not UTF-8 text"), argv


def test_missing_or_unreadable_index_is_an_input_error(tmp_path):
    for index_path in (tmp_path / "missing.idx", tmp_path):
        code, _, err = run("extract", "--corpus", CORPUS, "--index", str(index_path))
        assert code == 1
        assert err.startswith(f"error: cannot read {index_path}")


def test_unwritable_output_path_is_an_input_error(tmp_path, score_files):
    gold, pred = score_files
    missing = tmp_path / "missing"
    cases = [
        ("index", "--corpus", CORPUS, "--index", str(missing / "x.idx")),
        ("score", "--gold", gold, "--pred", pred, "--json", str(missing / "x.json")),
        ("errors", "--gold", gold, "--pred", pred, "--json", str(missing / "x.json")),
        ("stats", "--annotations", gold, "--json", str(tmp_path)),
    ]
    for argv in cases:
        code, out, err = run(*argv)
        assert (code, out) == (1, ""), argv  # no table without its JSON
        assert err.startswith(f"error: cannot write {argv[-1]}: "), err


def test_non_utf8_string_inside_index_is_an_input_error(tmp_path):
    index_path = tmp_path / "corpus.idx"
    assert run("index", "--corpus", CORPUS, "--index", str(index_path))[0] == 0
    data = bytearray(index_path.read_bytes())
    # magic (6) + version (2) + ref count (4) + first doc id length (2)
    data[14] = 0xFF
    index_path.write_bytes(bytes(data))
    code, _, err = run("extract", "--corpus", CORPUS, "--index", str(index_path))
    assert code == 1
    assert "not UTF-8" in err


def test_malformed_corpus_reports_line(tmp_path):
    bad = tmp_path / "bad.conllu"
    bad.write_text("# newdoc id = d\n# sent_id = s\n1\tword\n", encoding="utf-8")
    code, _, err = run("validate", "--corpus", str(bad))
    assert code == 1
    assert "error: line 3" in err
    # the third sentence, on line 9 under a second document, has no '# sent_id'
    token = "1\ta\ta\tX\t_\t_\t0\troot\t_\t_"
    lines = ["# newdoc id = d", "# sent_id = a", token, "", "# sent_id = b", token, "",
             "# newdoc id = e", token]
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run("ingest", "--corpus", str(bad)) == (
        1, "", "error: line 9: sentence is missing a '# sent_id' comment\n"
    )


def test_undecodable_json_lines_are_input_errors(tmp_path):
    corpus, annotations = str(tmp_path / "corpus.jsonl"), str(tmp_path / "annotations.jsonl")
    commands = [
        ("ingest", "--corpus", corpus),
        ("dedup", "--corpus", corpus),
        ("index", "--corpus", corpus, "--index", str(tmp_path / "corpus.idx")),
        ("stats", "--annotations", annotations),
        ("score", "--gold", annotations, "--pred", annotations),
    ]
    records = zip(
        undecodable_json_lines({"id": "d", "sentences": []}, "id"),
        undecodable_json_lines(
            {"sentence_id": "s", "event_type": "LAUNCH", "spans": []}, "event_type"
        ),
    )
    for (doc_line, problem), (annotation_line, _) in records:
        Path(corpus).write_text(doc_line + "\n", encoding="utf-8")
        Path(annotations).write_text(annotation_line + "\n", encoding="utf-8")
        for argv in commands:
            code, out, err = run(*argv)
            assert (code, out) == (1, ""), (argv, err)
            assert err.startswith(f"error: line 1: invalid JSON: {problem}"), (argv, err)


def test_config_validation_exit_codes():
    assert run("dedup", "--corpus", CORPUS, "--threshold", "0")[0] == 1
    assert run("dedup", "--corpus", CORPUS, "--threshold", "1.5")[0] == 1
    assert run("shortlist", "--corpus", CORPUS, "--seed", "-1")[0] == 1
    assert run("extract", "--corpus", CORPUS, "--workers", "0")[0] == 1
    code, _, err = run("shortlist", "--corpus", CORPUS, "--sample", "launch")
    assert code == 1
    assert "TYPE=FRACTION" in err
    code, _, err = run("shortlist", "--corpus", CORPUS, "--sample", "launch=abc")
    assert code == 1
    assert "not a number" in err
    assert run("shortlist", "--corpus", CORPUS, "--sample", "launch=0")[0] == 1
    # a bad flag is reported before any input file is opened
    for argv, flag in (
        (("dedup", "--threshold", "0"), "--threshold"),
        (("dedup", "--unseen-fraction", "1.5"), "--unseen-fraction"),
        (("shortlist", "--sample", "launch=2"), "--sample"),
        (("export-annotation", "--seed", "-1"), "--seed"),
        (("extract", "--workers", "0"), "--workers"),
    ):
        code, _, err = run(*argv, "--corpus", "/no/such/file")
        assert code == 1, argv
        assert f"argument {flag}" in err, err
        assert "cannot read" not in err, err


def test_sample_of_an_unknown_event_type_exits_1_without_records(monkeypatch):
    import spacevents.cli as cli

    def extract(args):
        raise AssertionError("events extracted before the --sample check")

    # the type is refused before any file is read or any event extracted
    monkeypatch.setattr(cli, "_extract", extract)
    for command in ("shortlist", "export-annotation"):
        for corpus in (CORPUS, "/no/such/file"):
            code, out, err = run(command, "--corpus", corpus, "--sample", "LANCH=0.5")
            assert (code, out) == (1, ""), (command, corpus, err)
            assert err == (
                "error: sample names unknown event type 'LANCH' "
                "(expected one of LAUNCH, FAILURE, DECOMMISSIONING)\n"
            )


def test_unexpected_failures_exit_two(monkeypatch):
    import spacevents.matching as matching

    def explode(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(matching, "extract_events", explode)
    code, _, err = run("extract", "--corpus", CORPUS, "--workers", "1")
    assert code == 2
    assert "internal error" in err

    def odd(*args, **kwargs):
        raise SpaceventsError("odd state")

    monkeypatch.setattr(matching, "extract_events", odd)
    code, _, err = run("extract", "--corpus", CORPUS, "--workers", "1")
    assert code == 2
    assert "internal error: odd state" in err


def test_broken_pipe_exits_cleanly():
    class ClosedPipe:
        def write(self, _):
            raise BrokenPipeError()

    code, _, _ = run("extract", "--corpus", CORPUS, "--workers", "1", stdout=ClosedPipe())
    assert code == 0


IMPORT_PROBE = """
import io, json, sys
from spacevents.cli import main
code = main(sys.argv[1:], stdout=io.StringIO(), stderr=io.StringIO())
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("spacevents."))]))
"""


def test_commands_import_only_the_modules_they_use(tmp_path):
    src = str(Path(spacevents.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    unused = {
        ("extract",): {"evaluation", "dedup"},
        ("dedup",): {"rules", "matching", "index", "gazetteer", "evaluation"},
        ("index", "--index", str(tmp_path / "small.idx")): {
            "rules", "schemas", "matching", "gazetteer", "evaluation", "dedup"
        },
    }
    for (command, *flags), modules in unused.items():
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, command, "--corpus", CORPUS, *flags],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        code, loaded = json.loads(proc.stdout)
        assert code == 0
        assert "spacevents.documents" in loaded
        assert not {f"spacevents.{name}" for name in modules} & set(loaded), command


def test_every_public_name_resolves_on_first_lookup():
    src = str(Path(spacevents.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import json, spacevents\n"
        "listed = set(dir(spacevents))\n"
        "print(json.dumps([[n for n in spacevents.__all__ if n not in listed],\n"
        "                  [n for n in spacevents.__all__ if not hasattr(spacevents, n)],\n"
        "                  hasattr(spacevents, 'no_such_name')]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], [], False]


def test_python_dash_m_runs_the_cli():
    src = str(Path(spacevents.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["extract", "--corpus", CORPUS]
    proc = subprocess.run(
        [sys.executable, "-m", "spacevents", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run(*argv)[1]
    usage = subprocess.run(
        [sys.executable, "-m", "spacevents", "no-such-command"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert usage.returncode == 1
    assert "usage: spacevents" in usage.stderr
