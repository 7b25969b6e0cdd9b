"""Command-line pipeline around the library.

Subcommands: ingest, dedup, ner, index, extract, shortlist,
export-annotation, score, stats, errors, validate.  Record output goes
to stdout as JSON lines (the score/stats/errors tables are plain text);
diagnostics go to stderr.  Exit codes: 0 success, 1 input error, 2
internal error.

Each subcommand, ``_cmd_*(args, err)``, prints its diagnostics to
``err`` and returns its standard output: the table text for score,
stats and errors, ``""`` for validate and index, and for the others a
generator of records.  ``main`` alone writes stdout: it spells each
record as a JSON line (``documents.json_line``) and holds the lines
until the command has succeeded, so an input that fails anywhere prints
nothing.  Every subcommand is a pure function of its inputs and flags,
and record output is fully sorted, so two runs over the same files
produce byte-identical output regardless of ``--workers``.  A corpus is
read as a stream of documents (``_documents``).

Each subcommand imports the library modules it uses when it runs, so
start-up loads only those.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import redirect_stderr
from dataclasses import asdict, replace
from itertools import chain
from pathlib import Path
from typing import Iterator

from .errors import InputError, SpaceventsError

MAX_SEED = 2**64 - 1


def _convert(text: str, convert, what: str):
    try:
        return convert(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not {what}: {text!r}") from None


def _fraction(text: str) -> float:
    value = _convert(text, float, "a number")
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return value


def _sample_pair(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expects TYPE=FRACTION, got {text!r}")
    return name.strip().upper(), _fraction(value)


def _seed(text: str) -> int:
    value = _convert(text, int, "an integer")
    if not 0 <= value <= MAX_SEED:
        raise argparse.ArgumentTypeError(f"must fit in 64 bits, got {value}")
    return value


def _workers(text: str) -> int:
    value = _convert(text, int, "an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _decode(data: bytes, path: str, offset: int = 0) -> str:
    # ``data`` starts at byte ``offset`` of the file
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {offset + exc.start})")


def _byte_blocks(path: str) -> Iterator[bytes]:
    """The file's bytes in blocks of whole lines of about 64 KiB (the last may not end one).

    UTF-8 never puts ``\n`` inside a multi-byte character, so each block decodes alone.
    """
    try:
        with open(path, "rb") as file:
            while data := file.read(1 << 16):
                if not data.endswith(b"\n"):
                    data += file.readline()  # the rest of the line the block ends in
                yield data
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}")


def _read_text(path: str) -> str:
    """A rules, gazetteer or annotation file; each of their readers owns its line endings."""
    return _decode(b"".join(_byte_blocks(path)), path)


def _corpus_format(path: str, fmt: str | None) -> str:
    return fmt or ("conllu" if path.endswith(".conllu") else "jsonl")


def _documents(path: str, fmt: str | None, on_block=None, keep=None, words=False) -> Iterator:
    """Each document of the corpus at ``path``, as soon as it is parsed.

    The bytes are decoded a block at a time, as they are: the parsers own
    line endings and where each document starts.  ``on_block`` sees every
    block's bytes, whatever fault is found, and ``keep`` is the parser's
    filter (see ``read_conllu``), as ``words`` is its words mode.  A fault
    is raised once the file is read, as a whole-file read would raise it:
    a byte that is not UTF-8 first, then a parse error, then a repeated
    document id (output is keyed by document and sentence id, so every
    command refuses one).
    """
    from .documents import _lines, read_conllu, read_jsonl

    def texts():
        offset, undecodable = 0, None
        for block in _byte_blocks(path):
            if on_block is not None:
                on_block(block)
            if undecodable is None:
                try:
                    text = _decode(block, path, offset)
                except InputError as exc:
                    undecodable = exc  # raised once every block is seen
                else:
                    yield text
            offset += len(block)
        if undecodable is not None:
            raise undecodable

    read = read_conllu if _corpus_format(path, fmt) == "conllu" else read_jsonl
    blocks = texts()
    seen: set[str] = set()
    repeated = None
    try:
        for item in read(chain.from_iterable(map(_lines, blocks)), keep=keep, words=words):
            doc_id = item[0].id if words else item.id
            if doc_id in seen and repeated is None:
                repeated = doc_id
            seen.add(doc_id)
            yield item
    except InputError:
        for _ in blocks:  # read the rest: a byte that is not UTF-8 wins
            pass
        raise
    if repeated is not None:
        raise InputError(f"{path}: duplicate document id {repeated!r}")


def _load_gazetteer(path: str | None):
    from .gazetteer import compile_gazetteer, read_gazetteer

    text = _read_text(path or str(Path(__file__).with_name("data") / "gazetteer.tsv"))
    return compile_gazetteer(read_gazetteer(text))


def _load_rules(path: str | None):
    from .rules import parse_rules

    text = _read_text(path or str(Path(__file__).with_name("data") / "reference.rules"))
    return parse_rules(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ingest(args, err) -> Iterator[dict]:
    from .documents import document_to_dict

    count = 0
    for doc in _documents(args.corpus, args.format):
        yield document_to_dict(doc)
        count += 1
    print(f"ingested {count} documents", file=err)


def _cmd_validate(args, err) -> str:
    count = sum(1 for _ in _documents(args.corpus, args.format, words=True))
    print(f"corpus ok: {count} documents", file=err)
    return ""


def _cmd_dedup(args, err) -> Iterator[dict]:
    from .dedup import (
        DEFAULT_THRESHOLD, DEFAULT_UNSEEN_FRACTION, assign_splits, pool_vectors, term_vector
    )

    threshold = DEFAULT_THRESHOLD if args.threshold is None else args.threshold
    unseen = DEFAULT_UNSEEN_FRACTION if args.unseen_fraction is None else args.unseen_fraction
    # a document is kept as its term vector and its id and date, all assign_splits reads
    dated, vectors, uncountable = [], [], None
    for doc, surfaces in _documents(args.corpus, args.format, words=True):
        dated.append(doc)
        try:
            vectors.append(term_vector(doc.id, surfaces))
        except InputError as exc:  # raised once the whole corpus has parsed
            uncountable = uncountable or exc
    if uncountable:
        raise uncountable
    assignment = pool_vectors(vectors, threshold=threshold)
    assignment = assign_splits(assignment, dated, unseen_fraction=unseen)
    for doc_id in sorted(assignment.pool_of):
        yield {
            "doc_id": doc_id,
            "pool_id": assignment.pool_of[doc_id],
            "split": assignment.split_for(doc_id),
        }
    print(f"{len(assignment.split_of)} pools over {len(assignment.pool_of)} documents", file=err)


def _cmd_ner(args, err) -> Iterator[dict]:
    from .gazetteer import ner_layer

    layer = ner_layer(_load_gazetteer(args.gazetteer))
    for doc in _documents(args.corpus, args.format):
        for sent in doc.sentences:
            mentions = layer(sent)
            yield {
                "doc_id": doc.id,
                "sentence_id": sent.id,
                "mentions": [
                    {
                        "start": m.start,
                        "end": m.end,
                        "type": m.entity_type,
                        "origin": m.origin,
                    }
                    for m in mentions
                ],
            }


def _cmd_index(args, err) -> str:
    import hashlib  # loads OpenSSL, which commands that take no digest need not pay for

    from .index import CorpusFingerprint, build_index, save_index

    digest = hashlib.sha256()
    docs = _documents(args.corpus, args.format, on_block=digest.update)
    index = build_index(docs, workers=args.workers)
    fmt = _corpus_format(args.corpus, args.format)
    save_index(replace(index, corpus=CorpusFingerprint(fmt, digest.digest())), args.index)
    print(
        f"indexed {len(index.documents)} documents / {len(index.sentences)} sentences: "
        f"{len(index)} terms -> {args.index}",
        file=err,
    )
    return ""


def _candidate_documents(args, index, rules) -> Iterator:
    """Build only the rules' candidate sentences, in the documents that hold them.

    The file is read, hashed and parsed once by ``_documents``, whose
    parser keeps only the documents at the positions where the index's
    document table lists one with a candidate sentence, and in them only
    those sentences.  The index must fingerprint this very file: then every
    byte left out was parsed and validated in full when the index was
    built, duplicate document ids included, and the scan's result is
    unchanged.  Every fault is held until the last block is hashed, so a
    different corpus is reported first; then each kept document must carry
    the id the table gives its position and hold every candidate sentence.
    """
    import hashlib

    from .matching import candidate_sentence_ids

    corpus = index.corpus
    if corpus is None:
        raise InputError(
            f"{args.index}: index has no corpus fingerprint; "
            "rebuild the index with 'spacevents index'"
        )
    fmt = _corpus_format(args.corpus, args.format)
    wanted = candidate_sentence_ids(index, rules)
    keep = {at: wanted[doc_id] for at, doc_id in enumerate(index.documents) if doc_id in wanted}
    digest = hashlib.sha256()
    kept_ids, sizes = [], []  # of each document kept, in file order
    fault = None
    try:
        for doc in _documents(args.corpus, args.format, on_block=digest.update, keep=keep):
            kept_ids.append(doc.id)
            sizes.append(len(doc.sentences))
            yield doc
    except InputError as exc:
        fault = exc
    if corpus.format != fmt or corpus.sha256 != digest.digest():
        raise InputError(f"{args.index}: built for a different corpus")
    if fault is not None:
        raise fault
    positions = sorted(keep)
    if kept_ids != [index.documents[at] for at in positions]:
        raise InputError(f"{args.index}: document table does not match the corpus")
    if sizes != [len(keep[at]) for at in positions]:
        raise InputError(f"{args.index}: sentence table does not match the corpus")


def _keeping_tagged(docs, layer, kept: list):
    """``docs`` and ``layer``, wrapped so that ``kept`` gets the sentences ``layer`` tags.

    Each document with a tagged sentence is added, holding just those.
    ``extract_events`` tags a sentence before it builds an event in it, and
    is done with a document when it reads the next one.
    """
    tagged = []

    def tag(sentence):
        tagged.append(sentence)
        return layer(sentence)

    def read():
        for doc in docs:
            yield doc
            if tagged:
                kept.append(replace(doc, sentences=tagged))
                tagged.clear()

    return read(), tag


def _extract(args, kept: list | None = None):
    """The rules' events, from one pass over the corpus, or its candidates with ``--index``.

    The rules and the gazetteer are read first.  ``kept`` gets the
    documents that may hold an event (``_keeping_tagged``).
    """
    from .gazetteer import ner_layer
    from .index import load_index
    from .matching import extract_events

    rules = _load_rules(args.rules)
    layer = ner_layer(_load_gazetteer(args.gazetteer))
    if args.index:
        docs = _candidate_documents(args, load_index(args.index), rules)
    else:
        docs = _documents(args.corpus, args.format)
    if kept is not None:
        docs, layer = _keeping_tagged(docs, layer, kept)
    return extract_events(docs, rules, ner=layer, workers=args.workers)


def _cmd_extract(args, err) -> Iterator[dict]:
    from .matching import event_to_dict

    events = _extract(args)
    yield from map(event_to_dict, events)
    print(f"{len(events)} events", file=err)


def _cmd_shortlist(args, err) -> Iterator[dict]:
    from .matching import event_to_dict
    from .schemas import sample_fractions, shortlist

    sample = sample_fractions(dict(args.sample))  # checked before any file is read
    events = _extract(args)
    candidates = shortlist(events, sample=sample, seed=args.seed)
    for cand in candidates:
        yield {
            "doc_id": cand.doc_id,
            "sentence_id": cand.sentence_id,
            "event_type": cand.event_type,
            "sampled": cand.sampled,
            "events": [event_to_dict(ev) for ev in cand.events],
        }
    kept = sum(1 for c in candidates if c.sampled)
    print(f"{kept} of {len(candidates)} candidate sentences sampled", file=err)


def _cmd_export_annotation(args, err) -> Iterator[dict]:
    from .schemas import ANNOTATION_HEADER, annotation_task_records, sample_fractions, shortlist

    sample = sample_fractions(dict(args.sample))  # checked before any file is read
    docs: list = []
    events = _extract(args, kept=docs)
    candidates = shortlist(events, sample=sample, seed=args.seed)
    yield ANNOTATION_HEADER
    records = annotation_task_records(candidates, docs)
    yield from records
    print(f"exported {len(records)} annotation tasks", file=err)


def _report(args, table: str, payload: dict) -> str:
    # the JSON first, so a path that cannot be written leaves stdout empty
    if args.json:
        try:
            Path(args.json).write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
        except OSError as exc:
            raise InputError(f"cannot write {args.json}: {exc.strerror or exc}")
    return table + "\n"


def _cmd_score(args, err) -> str:
    from .evaluation import read_annotations, score_slots

    gold = read_annotations(_read_text(args.gold))
    pred = read_annotations(_read_text(args.pred))
    report = score_slots(gold, pred)
    return _report(args, report.format_table(), report.to_dict())


def _cmd_stats(args, err) -> str:
    from .evaluation import corpus_stats, format_stats, read_annotations

    rows = corpus_stats(read_annotations(_read_text(args.annotations)))
    return _report(args, format_stats(rows), {"rows": [asdict(row) for row in rows]})


def _cmd_errors(args, err) -> str:
    from .evaluation import classify_errors, read_annotations

    gold = read_annotations(_read_text(args.gold))
    pred = read_annotations(_read_text(args.pred))
    buckets = classify_errors(gold, pred)
    payload = {**asdict(buckets), "proportions": buckets.proportions()}
    return _report(args, buckets.format_table(), payload)


# ---------------------------------------------------------------------------
# wiring


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors (exit 1), not internal ones
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_corpus(sub) -> None:
    sub.add_argument("--corpus", required=True, help="corpus file (.conllu or .jsonl)")
    sub.add_argument("--format", choices=("conllu", "jsonl"), help="override format sniffing")


def _add_extract_inputs(sub) -> None:
    _add_corpus(sub)
    sub.add_argument("--rules", help="rule file (default: packaged reference rules)")
    sub.add_argument("--gazetteer", help="gazetteer TSV (default: packaged gazetteer)")
    sub.add_argument("--index", help="prebuilt index file to narrow the scan")
    _add_workers(sub)


def _add_workers(sub) -> None:
    sub.add_argument(
        "--workers", type=_workers, default=1, help="accepted for compatibility; runs are serial"
    )


def _add_sampling(sub) -> None:
    sub.add_argument(
        "--sample", action="append", type=_sample_pair, metavar="TYPE=FRACTION", default=[]
    )
    sub.add_argument("--seed", type=_seed, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spacevents", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", parser_class=_Parser)
    commands.required = True

    sub = commands.add_parser("ingest", help="normalize a corpus to document JSON lines")
    _add_corpus(sub)
    sub.set_defaults(func=_cmd_ingest)

    sub = commands.add_parser("validate", help="read a corpus as every command reads it")
    _add_corpus(sub)
    sub.set_defaults(func=_cmd_validate)

    sub = commands.add_parser("dedup", help="pool near-duplicates and assign splits")
    _add_corpus(sub)
    # None stands for the library's defaults, read when the command runs
    sub.add_argument("--threshold", type=_fraction)
    sub.add_argument("--unseen-fraction", type=_fraction)
    sub.set_defaults(func=_cmd_dedup)

    sub = commands.add_parser("ner", help="tag sentences with the merged NER layer")
    _add_corpus(sub)
    sub.add_argument("--gazetteer", help="gazetteer TSV (default: packaged gazetteer)")
    sub.set_defaults(func=_cmd_ner)

    sub = commands.add_parser("index", help="build and save the inverted index")
    _add_corpus(sub)
    sub.add_argument("--index", required=True, help="output index file")
    _add_workers(sub)
    sub.set_defaults(func=_cmd_index)

    sub = commands.add_parser("extract", help="run the rules and emit events")
    _add_extract_inputs(sub)
    sub.set_defaults(func=_cmd_extract)

    sub = commands.add_parser("shortlist", help="validated candidate sentences, sampled")
    _add_extract_inputs(sub)
    _add_sampling(sub)
    sub.set_defaults(func=_cmd_shortlist)

    sub = commands.add_parser("export-annotation", help="write annotation task records")
    _add_extract_inputs(sub)
    _add_sampling(sub)
    sub.set_defaults(func=_cmd_export_annotation)

    sub = commands.add_parser("score", help="span-level P/R/F1 per event type and slot")
    sub.add_argument("--gold", required=True)
    sub.add_argument("--pred", required=True)
    sub.add_argument("--json", help="also write the report as JSON to this file")
    sub.set_defaults(func=_cmd_score)

    sub = commands.add_parser("stats", help="corpus statistics per event type and split")
    sub.add_argument("--annotations", required=True)
    sub.add_argument("--json", help="also write the table as JSON to this file")
    sub.set_defaults(func=_cmd_stats)

    sub = commands.add_parser("errors", help="bucket prediction errors against gold")
    sub.add_argument("--gold", required=True)
    sub.add_argument("--pred", required=True)
    sub.add_argument("--json", help="also write the buckets as JSON to this file")
    sub.set_defaults(func=_cmd_errors)

    return parser


def main(argv=None, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        with redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        output = args.func(args, err)
        if isinstance(output, str):
            chunks = [output]
        else:
            from .documents import json_line

            # a chunk per record, held until the command has succeeded (one
            # joined string would double ingest's peak memory)
            chunks = [json_line(record) for record in output]
        for chunk in chunks:
            out.write(chunk)
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=err)
        return 1
    except BrokenPipeError:
        return 0
    except SpaceventsError as exc:
        print(f"internal error: {exc}", file=err)
        return 2
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"internal error: {exc!r}", file=err)
        return 2


def console_main() -> None:
    sys.exit(main())
