"""Event extraction for space-domain news over dependency parses.

The pipeline: parse documents (CoNLL-U or JSON lines), pool
near-duplicates into train/dev/test splits, tag entity mentions from a
gazetteer, index trigger terms, run declarative trigger + dependency
path rules, and score the results span by span.
"""

import importlib

# Each public name and the module that defines it.  A name's module is
# imported the first time the name is looked up (PEP 562), so a command
# loads only the modules it uses.
_EXPORTS = {
    "dedup": (
        "DEFAULT_THRESHOLD",
        "DEFAULT_UNSEEN_FRACTION",
        "PoolAssignment",
        "TermVector",
        "assign_splits",
        "cosine_similarity",
        "pool_duplicates",
        "unigram_vector",
    ),
    "documents": (
        "ROOT",
        "SPLITS",
        "DepEdge",
        "Document",
        "Sentence",
        "Token",
        "parse_conllu",
        "parse_jsonl_documents",
        "serialize_conllu",
        "serialize_jsonl_documents",
    ),
    "errors": (
        "InputError",
        "ParseError",
        "RuleError",
        "SchemaError",
        "SpaceventsError",
        "StructureError",
    ),
    "evaluation": (
        "AnnotationLayer",
        "ErrorBuckets",
        "EvalReport",
        "LabeledSpan",
        "SentenceAnnotation",
        "SlotScore",
        "agreement",
        "bio_to_spans",
        "classify_errors",
        "consensus",
        "corpus_stats",
        "micro_average",
        "read_annotations",
        "score_slots",
        "spans_to_bio",
    ),
    "gazetteer": (
        "ENTITY_TYPES",
        "GazetteerEntry",
        "GazetteerMatcher",
        "Mention",
        "compile_gazetteer",
        "generic_mentions",
        "merge_ner",
        "ner_layer",
        "read_gazetteer",
        "tag_sentence",
    ),
    "index": ("InvertedIndex", "build_index", "candidate_sentences", "load_index", "save_index"),
    "matching": (
        "EventMention",
        "chunk_span",
        "event_to_dict",
        "extract_events",
        "match_rule",
        "traverse_path",
        "trigger_anchor",
    ),
    "rules": ("Atom", "DepPathStep", "Rule", "SlotPattern", "TokenPattern", "parse_rules"),
    "schemas": (
        "ANCHOR_SLOTS",
        "ANNOTATION_HEADER",
        "EVENT_TYPES",
        "SCHEMAS",
        "CandidateSentence",
        "EventSchema",
        "SlotSpec",
        "ValidationResult",
        "annotation_task_records",
        "shortlist",
        "validate_event",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
