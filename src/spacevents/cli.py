"""Command-line pipeline around the library.

Subcommands: ingest, dedup, ner, index, extract, shortlist,
export-annotation, score, stats, errors, validate.  Record output goes
to stdout as JSON lines (the score/stats/errors tables are plain text);
diagnostics go to stderr.  Exit codes: 0 success, 1 input error, 2
internal error.

Every subcommand is a pure function of its inputs and flags, and record
output is fully sorted, so two runs over the same files produce
byte-identical output regardless of ``--workers``.

Each subcommand imports the library modules it uses when it runs, so
start-up loads only those.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import redirect_stderr
from dataclasses import asdict, replace
from pathlib import Path

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


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}")


def _decode(data: bytes, path: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})")


def _read_text(path: str) -> str:
    """A rules, gazetteer or annotation file; each of their readers owns its line endings."""
    return _decode(_read_bytes(path), path)


def _corpus_format(path: str, fmt: str | None) -> str:
    return fmt or ("conllu" if path.endswith(".conllu") else "jsonl")


def _parse(text: str, fmt: str, sentence_ids=None):
    # with ``sentence_ids``, only the sentences with those ids are built
    from .documents import _parse_conllu, _parse_jsonl

    return (_parse_conllu if fmt == "conllu" else _parse_jsonl)(text, sentence_ids)


def _unique(docs, path: str):
    # output is keyed by (document id, sentence id), so a repeated document
    # id would mislabel it: every command that reads a corpus refuses one
    seen: set[str] = set()
    for doc in docs:
        if doc.id in seen:
            raise InputError(f"{path}: duplicate document id {doc.id!r}")
        seen.add(doc.id)
    return docs


def _read_documents(path: str, fmt: str | None):
    # corpus bytes are decoded as they are, without newline translation: the
    # parsers own line endings, so index offsets agree with the parsed lines
    return _unique(_parse(_decode(_read_bytes(path), path), _corpus_format(path, fmt)), path)


def _packaged(name: str) -> str:
    from importlib import resources

    return resources.files("spacevents").joinpath("data", name).read_text("utf-8")


def _load_gazetteer(path: str | None):
    from .gazetteer import compile_gazetteer, read_gazetteer

    text = _read_text(path) if path else _packaged("gazetteer.tsv")
    return compile_gazetteer(read_gazetteer(text))


def _load_rules(path: str | None):
    from .rules import parse_rules

    text = _read_text(path) if path else _packaged("reference.rules")
    return parse_rules(text)


def _emit(out, record: dict) -> None:
    out.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")))
    out.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ingest(args, out, err) -> int:
    from .documents import serialize_jsonl_documents

    docs = _read_documents(args.corpus, args.format)
    out.write(serialize_jsonl_documents(docs))
    print(f"ingested {len(docs)} documents", file=err)
    return 0


def _cmd_validate(args, out, err) -> int:
    docs = _read_documents(args.corpus, args.format)
    print(f"corpus ok: {len(docs)} documents", file=err)
    return 0


def _cmd_dedup(args, out, err) -> int:
    from .dedup import DEFAULT_THRESHOLD, DEFAULT_UNSEEN_FRACTION, assign_splits, pool_duplicates

    threshold = DEFAULT_THRESHOLD if args.threshold is None else args.threshold
    unseen = DEFAULT_UNSEEN_FRACTION if args.unseen_fraction is None else args.unseen_fraction
    docs = _read_documents(args.corpus, args.format)
    assignment = pool_duplicates(docs, threshold=threshold)
    assignment = assign_splits(assignment, docs, unseen_fraction=unseen)
    for doc_id in sorted(assignment.pool_of):
        _emit(
            out,
            {
                "doc_id": doc_id,
                "pool_id": assignment.pool_of[doc_id],
                "split": assignment.split_for(doc_id),
            },
        )
    print(f"{len(assignment.split_of)} pools over {len(assignment.pool_of)} documents", file=err)
    return 0


def _cmd_ner(args, out, err) -> int:
    from .gazetteer import ner_layer

    docs = _read_documents(args.corpus, args.format)
    layer = ner_layer(_load_gazetteer(args.gazetteer))
    for doc in docs:
        for sent in doc.sentences:
            mentions = layer(sent)
            _emit(
                out,
                {
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
                },
            )
    return 0


def _cmd_index(args, out, err) -> int:
    from .index import build_index, corpus_fingerprint, save_index

    fmt = _corpus_format(args.corpus, args.format)
    data = _read_bytes(args.corpus)
    docs = _unique(_parse(_decode(data, args.corpus), fmt), args.corpus)
    index = build_index(docs, workers=args.workers)
    corpus = corpus_fingerprint(data, fmt, [doc.id for doc in docs])
    save_index(replace(index, corpus=corpus), args.index)
    n_sentences = sum(len(doc.sentences) for doc in docs)
    print(
        f"indexed {len(docs)} documents / {n_sentences} sentences: "
        f"{len(index)} terms -> {args.index}",
        file=err,
    )
    return 0


def _candidate_documents(args, index, rules):
    """Build only the rules' candidate sentences, in the documents that hold them.

    Each such document is parsed from its byte span alone and holds just
    its candidate sentences, in file order.  The index must fingerprint
    this very file: then every skipped byte was parsed and validated in
    full when the index was built, duplicate document ids included, and
    the scan's result is unchanged.
    """
    from .matching import candidate_sentence_ids

    corpus = index.corpus
    if corpus is None:
        raise InputError(
            f"{args.index}: index has no corpus fingerprint; "
            "rebuild the index with 'spacevents index'"
        )
    fmt = _corpus_format(args.corpus, args.format)
    data = _read_bytes(args.corpus)
    if not corpus.matches(data, fmt):
        raise InputError(f"{args.index}: built for a different corpus")
    wanted = candidate_sentence_ids(index, rules)
    docs = []
    for doc_id, offset, length in corpus.documents:
        sentence_ids = wanted.pop(doc_id, None)
        if sentence_ids is not None:
            text = _decode(data[offset : offset + length], args.corpus)
            parsed = _parse(text, fmt, sentence_ids)
            if [doc.id for doc in parsed] != [doc_id]:
                raise InputError(f"{args.index}: document table does not match the corpus")
            if len(parsed[0].sentences) != len(sentence_ids):
                raise InputError(f"{args.index}: sentence table does not match the corpus")
            docs.extend(parsed)
    if wanted:
        raise InputError(f"{args.index}: document table does not match the corpus")
    return docs


def _extract(args):
    from .gazetteer import ner_layer
    from .index import load_index
    from .matching import extract_events

    rules = _load_rules(args.rules)
    if getattr(args, "index", None):
        # the documents hold only candidate sentences, so a scan of them
        # visits what the index would select
        docs = _candidate_documents(args, load_index(args.index), rules)
    else:
        docs = _read_documents(args.corpus, args.format)
    layer = ner_layer(_load_gazetteer(args.gazetteer))
    events = extract_events(docs, rules, ner=layer, workers=args.workers)
    return docs, events


def _cmd_extract(args, out, err) -> int:
    from .matching import event_to_dict

    _, events = _extract(args)
    for event in events:
        _emit(out, event_to_dict(event))
    print(f"{len(events)} events", file=err)
    return 0


def _cmd_shortlist(args, out, err) -> int:
    from .matching import event_to_dict
    from .schemas import sample_fractions, shortlist

    sample = sample_fractions(dict(args.sample))  # checked before any file is read
    _, events = _extract(args)
    candidates = shortlist(events, sample=sample, seed=args.seed)
    for cand in candidates:
        _emit(
            out,
            {
                "doc_id": cand.doc_id,
                "sentence_id": cand.sentence_id,
                "event_type": cand.event_type,
                "sampled": cand.sampled,
                "events": [event_to_dict(ev) for ev in cand.events],
            },
        )
    kept = sum(1 for c in candidates if c.sampled)
    print(f"{kept} of {len(candidates)} candidate sentences sampled", file=err)
    return 0


def _cmd_export_annotation(args, out, err) -> int:
    from .schemas import ANNOTATION_HEADER, annotation_task_records, sample_fractions, shortlist

    sample = sample_fractions(dict(args.sample))  # checked before any file is read
    docs, events = _extract(args)
    candidates = shortlist(events, sample=sample, seed=args.seed)
    _emit(out, ANNOTATION_HEADER)
    records = annotation_task_records(candidates, docs)
    for record in records:
        _emit(out, record)
    print(f"exported {len(records)} annotation tasks", file=err)
    return 0


def _write_report(args, out, table: str, payload: dict) -> None:
    # the JSON first, so a path that cannot be written leaves stdout empty
    if args.json:
        try:
            Path(args.json).write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
        except OSError as exc:
            raise InputError(f"cannot write {args.json}: {exc.strerror or exc}")
    out.write(table + "\n")


def _cmd_score(args, out, err) -> int:
    from .evaluation import read_annotations, score_slots

    gold = read_annotations(_read_text(args.gold))
    pred = read_annotations(_read_text(args.pred))
    report = score_slots(gold, pred)
    _write_report(args, out, report.format_table(), report.to_dict())
    return 0


def _cmd_stats(args, out, err) -> int:
    from .evaluation import corpus_stats, format_stats, read_annotations

    rows = corpus_stats(read_annotations(_read_text(args.annotations)))
    _write_report(args, out, format_stats(rows), {"rows": [asdict(row) for row in rows]})
    return 0


def _cmd_errors(args, out, err) -> int:
    from .evaluation import classify_errors, read_annotations

    gold = read_annotations(_read_text(args.gold))
    pred = read_annotations(_read_text(args.pred))
    buckets = classify_errors(gold, pred)
    payload = {**asdict(buckets), "proportions": buckets.proportions()}
    _write_report(args, out, buckets.format_table(), payload)
    return 0


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
        return args.func(args, out, err)
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
