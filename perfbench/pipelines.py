"""The CLI's subcommands re-enacted in-process, with a span around each library call.

Each function calls the same public ``spacevents`` functions as the
matching ``spacevents.cli`` subcommand, in the same order and with the
same defaults.  It returns what the subcommand would print and a
``counts`` function that gives the counts seen on the way (none when
untraced).  ``counts`` holds on to the run's objects, so a caller that
stops its timer before calling it times neither the counting nor the
freeing of the parsed corpus.  Given a ``NullTracer`` a function runs
untraced; the difference between the two totals is the tracing overhead.

Two calls are made from inside library functions rather than by the
CLI, so the traced run times them by swapping the module attribute the
library looks them up through, and restores it afterwards:
``spacevents.matching.candidate_sentences`` (called once per rule by
``extract_events`` when an index is given) and
``spacevents.dedup.cosine_similarity`` (called per scored pair by
``pool_duplicates``).  If a later version drops the attribute, the
traced run fails rather than reading 0.  The untraced run calls the
library as it is.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import contextmanager, nullcontext
from importlib import resources
from pathlib import Path
from typing import Callable

import spacevents
import spacevents.dedup
import spacevents.matching
from spacevents import (assign_splits, build_index, candidate_sentences, compile_gazetteer,
                        event_to_dict, extract_events, load_index, ner_layer, parse_conllu,
                        parse_jsonl_documents, parse_rules, pool_duplicates, read_gazetteer,
                        save_index)

from spans import CountingNer, Tracer


def cli_workers() -> int:
    """The CLI's default ``--workers``."""
    return os.cpu_count() or 1


def packaged(name: str) -> str:
    return resources.files("spacevents").joinpath("data", name).read_text("utf-8")


def _emit(out, record: dict) -> None:
    out.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")))
    out.write("\n")


def _read_documents(corpus: Path):
    text = corpus.read_text(encoding="utf-8")
    return parse_conllu(text) if corpus.name.endswith(".conllu") else parse_jsonl_documents(text)


@contextmanager
def _patched(module, name: str, make_wrapper):
    original = getattr(module, name)
    setattr(module, name, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def _corpus_facts(corpus: Path, docs) -> dict:
    return {
        "documents.sentences": sum(len(d.sentences) for d in docs),
        "documents.tokens": sum(len(s.tokens) for d in docs for s in d.sentences),
        "documents.input_mb": corpus.stat().st_size / 2**20,
    }


def index_setup(tracer, corpus: Path, index_path: Path) -> Callable[[], dict]:
    """``spacevents index --corpus CORPUS --index INDEX_PATH``; returns ``counts``."""
    traced = isinstance(tracer, Tracer)
    with tracer.span("setup"):
        with tracer.span("documents.parse"):
            docs = _read_documents(corpus)
        with tracer.span("index.build"):
            index = build_index(docs, workers=cli_workers())
        with tracer.span("index.save"):
            save_index(index, index_path)

    def counts() -> dict:
        if not traced:
            return {}
        return {**_corpus_facts(corpus, docs), "index.file_mb": index_path.stat().st_size / 2**20,
                "index.terms": len(index)}
    return counts


def extract_command(tracer, corpus: Path, index_path: Path | None = None):
    """``spacevents extract --corpus CORPUS [--index INDEX_PATH]`` with default flags."""
    traced = isinstance(tracer, Tracer)
    out = io.StringIO()

    def timed_candidates(original):
        def wrapper(index, rule):
            with tracer.span("index.candidates"):
                return original(index, rule)
        return wrapper

    with tracer.span("command"):
        with tracer.span("documents.parse"):
            docs = _read_documents(corpus)
        with tracer.span("rules.parse"):
            rules = parse_rules(packaged("reference.rules"))
        index = None
        if index_path is not None:
            with tracer.span("index.load"):
                index = load_index(index_path)
        with tracer.span("gazetteer.compile"):
            matcher = compile_gazetteer(read_gazetteer(packaged("gazetteer.tsv")))
        ner = ner_layer(matcher)
        if traced:
            ner = CountingNer(ner, {id(s): d.id for d in docs for s in d.sentences})
        with tracer.span("matching.extract"), (
            _patched(spacevents.matching, "candidate_sentences", timed_candidates)
            if traced else nullcontext()
        ):
            events = extract_events(docs, rules, index=index, ner=ner, workers=cli_workers())
            if traced:
                tracer.aggregate("gazetteer.tag", ner.cpu_s, calls=ner.calls)
        with tracer.span("cli.emit"):
            for event in events:
                _emit(out, event_to_dict(event))

    def counts() -> dict:
        if not traced:
            return {}
        facts = _corpus_facts(corpus, docs)
        hit = {(ev.doc_id, ev.sentence_id) for ev in events}
        facts.update({
            "rules.count": len(rules),
            "matching.events": len(events),
            "matching.sentences_visited": len(ner.visited),
            "matching.hit_ratio": len(hit) / len(ner.visited) if ner.visited else 0.0,
            "gazetteer.sentences_tagged": ner.calls,
            "gazetteer.mentions": ner.mentions,
        })
        if index is not None:
            # Counted through the public function, outside the timed calls.
            candidates = set().union(*(candidate_sentences(index, rule) for rule in rules))
            facts["index.terms"] = len(index)
            facts["index.candidates"] = len(candidates)
            facts["index.candidate_precision"] = len(hit) / len(candidates) if candidates else 0.0
        return facts
    return out.getvalue(), counts


def dedup_command(tracer, corpus: Path):
    """``spacevents dedup --corpus CORPUS`` with default flags."""
    traced = isinstance(tracer, Tracer)
    out = io.StringIO()
    scored = [0]

    def counted_cosine(original):
        def wrapper(a, b):
            scored[0] += 1
            return original(a, b)
        return wrapper

    with tracer.span("command"):
        with tracer.span("documents.parse"):
            docs = _read_documents(corpus)
        with tracer.span("dedup.pool"), (
            _patched(spacevents.dedup, "cosine_similarity", counted_cosine)
            if traced else nullcontext()
        ):
            assignment = pool_duplicates(docs, threshold=spacevents.DEFAULT_THRESHOLD)
        with tracer.span("dedup.split"):
            assignment = assign_splits(
                assignment, docs, unseen_fraction=spacevents.DEFAULT_UNSEEN_FRACTION
            )
        with tracer.span("cli.emit"):
            for doc_id in sorted(assignment.pool_of):
                _emit(out, {"doc_id": doc_id, "pool_id": assignment.pool_of[doc_id],
                            "split": assignment.split_for(doc_id)})

    def counts() -> dict:
        if not traced:
            return {}
        n = len(docs)
        return {**_corpus_facts(corpus, docs),
                "dedup.docs": n,
                "dedup.pools": len(set(assignment.pool_of.values())),
                "dedup.pairs_possible": n * (n - 1) // 2,
                "dedup.pairs_scored": scored[0]}
    return out.getvalue(), counts
