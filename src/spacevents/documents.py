"""Dependency-parsed documents: the data model and its two interchange formats.

Documents arrive already tokenized, lemmatized, tagged, and parsed; this
module only loads, validates, and re-serializes them.  Two formats are
supported and round-trip through each other:

* CoNLL-U with ``# newdoc id`` / ``# sent_id`` comments (plus optional
  ``# split``, ``# source``, ``# collected_at``) and ``Ner=`` / ``Chunk=``
  pairs in the MISC column.
* JSON lines, one document object per line; see ``parse_jsonl_documents``.

In both a line ends at ``\n``, after dropping one ``\r`` before it (see
``_lines``).  ``read_conllu`` and ``read_jsonl`` yield the documents as
they read them, a few at a time, and the public parsers return the list.
Each parser alone decides where a document starts.  Given ``keep``, a map
from a document's position in the file to the ids of the sentences wanted
in it, a parser builds only those sentences of those documents, so an
index can name them without knowing where they lie.

A parsed sentence is its columns: per token a surface, lemma, POS,
generic NER label, chunk tag, head and edge label, each a tuple.  The
``heads`` and ``labels`` columns are its dependency tree, and the only
copy of it: token ``i`` hangs from ``heads[i]`` by ``labels[i]``, and its
dependents are the ``d`` with ``heads[d] == i``.  Its ``tokens`` and
``edges`` are built from the columns only when first read, and every
reader in the package reads the columns instead.  Within one parse
call, equal strings in a kept sentence's columns share one object, and
``_sentence`` alone shares them.  ``Sentence(id, tokens, edges)`` takes
any tokens and edges, however malformed, so that ``sentence_issues`` can
explain them; a token's head and label in its columns come from the last
edge to it.

Every loaded sentence is checked for structural sanity: exactly one edge
per token, exactly one root, no cycles.  Edges are kept in a canonical
order (by dependent) so that equal sentences compare equal regardless of
the order edges appeared in the input.

The two parsers share one reader of document facts, ``_fact``, whose
inverse ``_fact_texts`` serves both writers, and one gate for sentences,
``_sentence``: the readers hand it the columns they read, and it alone
refuses a sentence or shares a kept one's strings.  A sentence's id must
be new in its document, and its heads must pass ``_is_tree``, a
single-pass test that builds no message; only a sentence that fails it,
or whose JSONL tokens and edges give no columns, is built, once, and goes
to ``sentence_issues``, which owns every structure message.  A refused
sentence is reported at its first line, with its document.  ``json_lines``
alone decides which lines of a JSON-lines file, here or of annotations,
are records; ``json_value`` decodes each, and ``json_line`` spells each
record that any command writes.  A JSONL record is read once, by
``_doc_from_dict`` and ``_read_sentences``, which passes over a sentence
``keep`` leaves out: each value's exact JSON type is checked in record
order, and only the first value refused builds a message, through
``_refused``, raised where the value is found.  The cyclic garbage
collector is paused while a parser runs, since parsing creates no cycles.
"""

from __future__ import annotations

import gc
import json
import re
from dataclasses import dataclass
from datetime import date
from functools import cached_property, wraps
from itertools import islice
from operator import attrgetter, lt
from typing import Iterable, Iterator

from .errors import ParseError, SchemaError, StructureError

ROOT = -1

SPLITS = ("train", "dev", "test", "unseen", "unassigned")


@dataclass(frozen=True, slots=True)
class Token:
    index: int
    surface: str
    lemma: str
    pos: str
    generic_ner: str | None = None
    chunk: str | None = None


@dataclass(frozen=True, slots=True)
class DepEdge:
    head: int  # token index, or ROOT (-1)
    dependent: int
    label: str


_BY_DEPENDENT = attrgetter("dependent")
_TOKEN_FIELDS = attrgetter("surface", "lemma", "pos", "generic_ner", "chunk")

# A sentence's columns, in the order of ``Token``'s fields and then ``DepEdge``'s.
_COLUMNS = ("surfaces", "lemmas", "pos", "ners", "chunks", "heads", "labels")


@dataclass(frozen=True, init=False)
class Sentence:
    """A sentence: its id and, per token, its columns.

    ``surfaces``, ``lemmas``, ``pos``, ``ners`` (generic NER, or None) and
    ``chunks`` (or None) hold the token fields.  ``heads`` and ``labels``
    are the tree: each token's head index (``ROOT`` for the root) and its
    edge label, so the dependents of token ``i`` are the ``d`` with
    ``heads[d] == i``.  ``tokens`` and ``edges``, the dataclass fields,
    are built from the columns when first read.  A sentence built from
    tokens and edges keeps them, and a token's head and label come from
    the last edge to it, ``ROOT`` and ``""`` without one.  Equality,
    hashing and ``repr`` are the dataclass's, over ``id``, ``tokens`` and
    ``edges``.
    """

    id: str
    # fields for equality, hashing, ``repr`` and ``dataclasses.replace``; each
    # is the cached property of its name below, so a parsed sentence builds it late
    tokens: tuple[Token, ...]
    edges: tuple[DepEdge, ...]

    def __init__(self, id: str, tokens: Iterable[Token], edges: Iterable[DepEdge]):
        tokens = tuple(tokens)
        edges = tuple(sorted(edges, key=_BY_DEPENDENT))
        n = len(tokens)
        heads, labels = [ROOT] * n, [""] * n
        for edge in edges:
            if 0 <= edge.dependent < n:
                heads[edge.dependent], labels[edge.dependent] = edge.head, edge.label
        columns = tuple(zip(*map(_TOKEN_FIELDS, tokens))) or ((),) * 5
        self.__dict__.update(zip(_COLUMNS, (*columns, tuple(heads), tuple(labels))))
        self.__dict__.update(id=id, tokens=tokens, edges=edges)

    @cached_property
    def tokens(self) -> tuple[Token, ...]:
        columns = self.surfaces, self.lemmas, self.pos, self.ners, self.chunks
        return tuple(map(Token, range(len(self.surfaces)), *columns))

    @cached_property
    def edges(self) -> tuple[DepEdge, ...]:
        return tuple(map(DepEdge, self.heads, range(len(self.heads)), self.labels))

    def __len__(self) -> int:
        return len(self.surfaces)

    def text(self) -> str:
        return " ".join(self.surfaces)


def _parsed(sent_id: str, columns: tuple) -> Sentence:
    """The sentence a parser read: ``columns`` in ``_COLUMNS`` order, each a tuple once kept."""
    sent = object.__new__(Sentence)
    sent.__dict__.update(zip(_COLUMNS, columns), id=sent_id)
    return sent


@dataclass(frozen=True)
class Document:
    id: str
    sentences: tuple[Sentence, ...]
    source: str | None = None
    collected_at: date | None = None
    split: str = "unassigned"

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(self.sentences))


def sentence_issues(sentence: Sentence) -> list[str]:
    """All structural problems of one sentence, as human-readable strings.

    An empty list means the sentence is a well-formed dependency tree:
    every token has exactly one incoming edge, exactly one edge points at
    the artificial root, and following head links never loops.
    """
    issues: list[str] = []
    n = len(sentence.tokens)
    if n == 0:
        return ["sentence has no tokens"]
    for i, tok in enumerate(sentence.tokens):
        if not tok.surface:
            issues.append(f"token {i} has an empty surface form")
        if tok.index != i:
            issues.append(f"token at position {i} carries index {tok.index}")
    heads: dict[int, int] = {}
    root_count = 0
    for edge in sentence.edges:
        if not 0 <= edge.dependent < n:
            issues.append(f"edge dependent {edge.dependent} out of range")
            continue
        if edge.head != ROOT and not 0 <= edge.head < n:
            issues.append(f"head {edge.head} of token {edge.dependent} out of range")
            continue
        if edge.dependent in heads:
            issues.append(f"token {edge.dependent} has more than one head")
            continue
        heads[edge.dependent] = edge.head
        if edge.head == ROOT:
            root_count += 1
    for i in range(n):
        if i not in heads:
            issues.append(f"token {i} has no incoming edge (orphan)")
    if root_count != 1:
        issues.append(f"expected exactly one root edge, found {root_count}")
    if issues:
        return issues
    cycle = _cycle_token([heads[i] for i in range(n)])
    if cycle is not None:
        issues.append(f"dependency cycle through token {cycle}")
    return issues


def _cycle_token(heads: list[int]) -> int | None:
    """The first token found on a cycle of head links, or None.

    ``heads[i]`` is token ``i``'s head, ``ROOT`` or a token index.  Chains
    are walked from token 0 up, each token once; None means every chain
    reaches ``ROOT``.
    """
    state = bytearray(len(heads))  # 0 unvisited, 1 on the current chain, 2 reaches ROOT
    for start in range(len(heads)):
        chain = []
        node = start
        while node != ROOT and not state[node]:
            state[node] = 1
            chain.append(node)
            node = heads[node]
        if node != ROOT and state[node] == 1:
            return node
        for visited in chain:
            state[visited] = 2
    return None


def _is_tree(heads: list[int]) -> bool:
    """The parsers' accept test: whether per-token head links form one tree.

    ``heads[i]`` is token ``i``'s head, ``ROOT`` or a token index; any
    other value fails.  True exactly when ``sentence_issues`` would find no
    problem with the links, so ``_sentence`` calls that only on False, to
    explain the failure.
    """
    n = len(heads)
    if not n or heads.count(ROOT) != 1 or min(heads) < ROOT:
        return False
    if all(map(lt, heads, range(n))):
        return True  # every head precedes its dependent, so no chain can loop
    return max(heads) < n and _cycle_token(heads) is None


def _lines(source) -> Iterable[str]:
    """The lines of a string or line iterable, for both formats.

    A line ends at ``\n`` only, and one ``\r`` before it is dropped, so
    characters such as U+2028 or U+0085 stay inside a token.
    """
    if isinstance(source, str):
        lines = source.split("\n")
        if not lines[-1]:
            lines.pop()  # the text ends with a newline, or is empty
        if "\r" not in source:
            return lines
    else:
        lines = (raw[:-1] if raw.endswith("\n") else raw for raw in source)
    return (line[:-1] if line.endswith("\r") else line for line in lines)


def text_lines(source) -> list[str]:
    """The lines of a rule, gazetteer or annotation text, or of a line iterable.

    In a string a line ends at ``\n``, ``\r\n`` or a lone ``\r``, and
    nowhere else: unlike ``str.splitlines``, characters such as U+2028 or
    U+0085 stay inside a line, where JSON strings and names may hold them.
    Each element of a line iterable loses one ``\n``, then one ``\r``.
    """
    if isinstance(source, str):
        return source.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return [line.removesuffix("\n").removesuffix("\r") for line in source]


_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile("[\ud800-\udfff]")


def json_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """Each record line's number, counted from 1, and its text, stripped.

    A line is a record unless ``str.strip`` leaves it empty, as it does a
    line of Unicode whitespace such as U+3000; ``json_value`` decodes one.
    """
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line:
            yield line_no, line


def json_value(line: str, line_no: int):
    """The JSON value of record ``line``, line ``line_no`` of its file.

    Besides what ``json.loads`` refuses, a line is invalid JSON when its value
    nests too deeply, holds an integer past Python's digit limit, or holds a
    lone surrogate, which no UTF-8 output can write: a value is re-encoded to
    look for one only when its line has a ``\\u`` escape that may spell one.
    """
    try:
        value = json.loads(line)
        if "\\" in line and _SURROGATE_ESCAPE.search(line):
            if _SURROGATE.search(json.dumps(value, ensure_ascii=False)):
                raise ValueError("lone surrogate in a string")
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise SchemaError(f"invalid JSON: {exc}", line=line_no)
    return value


# A document's facts besides its id and sentences, in the order both formats write them.
_FACTS = ("source", "collected_at", "split")


def _fact(key: str, text: str, line: int):
    """The value of fact ``key`` of a document from its text, read at ``line``.

    A ``collected_at`` must be an ISO date, and a split one of ``SPLITS``.
    """
    if key == "collected_at":
        try:
            return date.fromisoformat(text)
        except ValueError:
            raise ParseError(f"collected_at is not an ISO date: {text!r}", line=line)
    if key == "split" and text not in SPLITS:
        raise ParseError(f"unknown split {text!r}", line=line)
    return text


def _fact_texts(doc: Document) -> Iterator[tuple[str, str]]:
    """Each ``(key, text)`` that ``_fact`` reads back as a fact of ``doc``, in ``_FACTS`` order.

    A fact left at its default is not written.
    """
    if doc.source is not None:
        yield "source", doc.source
    if doc.collected_at is not None:
        yield "collected_at", doc.collected_at.isoformat()
    if doc.split != "unassigned":
        yield "split", doc.split


def _shared(values, share) -> tuple:
    """``values``, each string as the one object ``share`` (a ``dict.setdefault``) keeps for it.

    Sharing keeps a batch's memory, and ``dedup``'s term vectors, from
    holding one string per token.  A column of None and empty strings, such
    as an absent NER layer, is kept as it is.  The tuple is built from a
    list, so it is allocated at its size: one grown from an iterator is
    allocated at a guessed size and resized, and a parse would leave
    thousands of them in CPython's tuple free lists.
    """
    if not any(values):
        return tuple(values)
    return tuple(list(map(share, values, values)))


def _sentence(sent_id, columns, seen, doc_id, line, share, parts=None) -> Sentence:
    """The sentence a reader found at ``line`` of document ``doc_id``, once it is checked.

    This is the one gate between a reader and a sentence: it alone refuses
    one, and it alone shares a kept sentence's strings.  The id must be new
    among the ids in ``seen``, to which it is then added.  ``columns`` are
    the columns read, in ``_COLUMNS`` order.  With ``parts``, tokens and
    edges as read, or heads that fail ``_is_tree``, the sentence is built
    once, from ``parts`` or its columns, and refused with what
    ``sentence_issues`` finds.  Otherwise each string column is shared
    through ``share``, the parse call's ``dict.setdefault``.
    """
    if sent_id in seen:
        raise ParseError(f"duplicate sentence id {sent_id!r} in document {doc_id!r}", line=line)
    if parts is not None or not _is_tree(columns[5]):
        sent = _parsed(sent_id, columns) if parts is None else Sentence(sent_id, *parts)
        raise StructureError(
            f"sentence {sent_id!r} in document {doc_id!r}: " + "; ".join(sentence_issues(sent)),
            line=line,
        )
    seen.add(sent_id)
    surfaces, lemmas, pos, ners, chunks, heads, labels = columns
    return _parsed(sent_id, (
        _shared(surfaces, share), _shared(lemmas, share), _shared(pos, share),
        _shared(ners, share), _shared(chunks, share), tuple(heads), _shared(labels, share),
    ))


# Documents a parser builds at a time before it yields them.
_BATCH = 16


def _collector_paused(read):
    """``read``, a generator of documents, run with the cyclic garbage collector off.

    Parsing builds no reference cycles, so a collection pass during a
    parse only walks the documents being built and frees nothing.  The
    documents are read ``_BATCH`` at a time with the collector paused and
    then yielded with its state restored, so the caller's work between
    batches runs as it would without the parse.  Parsing and the caller's
    work then alternate in runs long enough to keep each one's data in the
    processor caches: ``extract`` on a scan corpus ran about 6% faster than
    when each document was yielded as it closed.
    """

    @wraps(read)
    def paused(*args, **kwargs):
        documents = read(*args, **kwargs)
        while True:
            enabled = gc.isenabled()
            gc.disable()
            try:
                batch = list(islice(documents, _BATCH))
            finally:
                if enabled:
                    gc.enable()
            if not batch:
                return
            yield from batch
            del batch  # freed before the next batch is built, unless the caller holds it

    return paused


# ---------------------------------------------------------------------------
# CoNLL-U

# A line that starts with a digit is neither blank nor a comment, so it
# skips those two checks.
_TOKEN_LINE_START = frozenset("0123456789")
# The plain spelling of each small number, so a well-formed token line's id
# and head convert with one lookup; any other text takes the checked path.
_DECIMAL = {str(i): i for i in range(1024)}


class _Misc(dict):
    """MISC text -> its ``Ner`` and ``Chunk`` values, each text split once per parse call."""

    def __missing__(self, misc: str) -> tuple:
        ner = chunk = None
        for part in misc.split("|"):
            key, _, value = part.partition("=")
            if key == "Ner":
                ner = value
            elif key == "Chunk":
                chunk = value
        self[misc] = pair = (ner, chunk)
        return pair


def _or(values: tuple, fallbacks: tuple):
    """``values``, each ``_`` among them replaced by the fallback at its position."""
    if "_" in values:
        return [f if v == "_" else v for v, f in zip(values, fallbacks)]
    return values


def parse_conllu(source) -> list[Document]:
    """Parse CoNLL-U text (a string or a line iterable) into documents.

    Multiword-token ranges (``1-2``) and empty nodes (``1.1``) are
    rejected; the corpus contract is one syntactic token per line.  An ID
    or HEAD is ASCII digits with no sign, padding or leading zero.
    """
    return list(read_conllu(_lines(source)))


@_collector_paused
def read_conllu(lines: Iterable[str], keep=None) -> Iterator[Document]:
    """Each document of CoNLL-U ``lines`` (as ``_lines`` gives them), in order.

    A document starts at a ``# newdoc id`` line and closes at the next one
    or at the end of the lines.  Documents are yielded in batches
    (``_collector_paused``), so a fault raises before any document of its
    batch is yielded.  With ``keep``, only the documents whose position
    (counted from 0) is a key are yielded, each with just the sentences
    whose id is in its value.  A sentence's ``# sent_id`` comes before its
    token lines, so the token lines of a sentence left out, or of any
    sentence of a document left out, are skipped unread; holding neither
    id nor tokens, it closes as nothing.  What is skipped is not checked:
    filter only text that parses in full.
    """
    position = -1  # of the current document
    wanted = None  # the ids of the current document's sentences to keep, None for all
    doc_meta: dict | None = None
    sentences: list[Sentence] = []
    sent_ids: set[str] = set()
    sent_id: str | None = None
    sent_line = 0
    rows: list[list[str]] = []  # the current sentence's token lines, split into columns
    heads: list[int] = []
    skip = False  # the current sentence is left out
    share = {}.setdefault
    misc_fields = _Misc()

    def close_sentence() -> None:
        nonlocal sent_id, sent_line, rows, heads
        if sent_id is None and not rows:
            return
        if doc_meta is None:
            raise ParseError("sentence outside any '# newdoc id' block", line=sent_line)
        if sent_id is None:
            raise ParseError("sentence is missing a '# sent_id' comment", line=sent_line)
        if not rows:
            raise ParseError(f"sentence {sent_id!r} has no tokens", line=sent_line)
        _, forms, lemmas, upos, xpos, _, _, labels, _, miscs = zip(*rows)
        ners, chunks = zip(*list(map(misc_fields.__getitem__, miscs)))
        columns = forms, _or(lemmas, forms), _or(upos, xpos), ners, chunks, heads, labels
        sentences.append(_sentence(sent_id, columns, sent_ids, doc_meta["id"], sent_line, share))
        sent_id, sent_line, rows, heads = None, 0, [], []

    def close_doc():
        nonlocal doc_meta, sentences, sent_ids
        doc = None
        if doc_meta is not None and (keep is None or position in keep):
            doc = Document(doc_meta.pop("id"), sentences, **doc_meta)
        doc_meta, sentences, sent_ids = None, [], set()
        return doc

    for line_no, line in enumerate(lines, start=1):
        if line[:1] not in _TOKEN_LINE_START:
            if not line.strip():
                close_sentence()
                continue
            if line.startswith("#"):
                if rows:
                    raise ParseError("comment lines must precede token lines", line=line_no)
                if "\r" in line:
                    # a file with lone \r line endings reads as one comment line
                    raise ParseError(
                        "carriage return inside a comment line (lines end in \\n or \\r\\n)",
                        line=line_no,
                    )
                key, sep, value = line[1:].partition("=")
                key = key.strip()
                value = value.strip()
                if not sep:
                    continue  # free-form comment
                if key == "newdoc id":
                    close_sentence()
                    doc = close_doc()
                    if doc is not None:
                        yield doc
                    position += 1
                    if keep is not None:
                        wanted = keep.get(position, ())
                    doc_meta = {"id": value}
                elif key == "sent_id":
                    skip = wanted is not None and value not in wanted
                    # a sentence left out gets neither id nor tokens, so
                    # close_sentence passes over it
                    sent_id = None if skip else value
                    sent_line = line_no
                elif key in _FACTS:
                    if doc_meta is None:
                        raise ParseError(f"'# {key}' comment outside a document", line=line_no)
                    doc_meta[key] = _fact(key, value, line_no)
                continue
        # a token line: any line that is neither blank nor a comment
        if skip:
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ParseError(
                f"expected 10 tab-separated columns, got {len(cols)}", line=line_no
            )
        tid, form, _, _, _, _, head, _, _, _ = cols
        index = len(rows)
        if _DECIMAL.get(tid) != index + 1:
            if "-" in tid:
                raise ParseError("multiword token ranges are not supported", line=line_no)
            if "." in tid:
                raise ParseError("empty nodes are not supported", line=line_no)
            try:
                index1 = int(tid)
            except ValueError:
                raise ParseError(f"malformed token id {tid!r}", line=line_no)
            if index1 != index + 1:
                raise ParseError(
                    f"token id {index1} out of sequence (expected {index + 1})", line=line_no
                )
            if str(index1) != tid:  # one spelling per number: no sign, padding or leading zero
                raise ParseError(f"malformed token id {tid!r}", line=line_no)
        if not index:
            sent_line = sent_line or line_no
        if not form:
            raise ParseError("empty FORM column", line=line_no)
        head1 = _DECIMAL.get(head)
        if head1 is None:
            try:
                head1 = int(head)
            except ValueError:
                raise ParseError(f"malformed head {head!r}", line=line_no)
            if head1 < 0:
                raise ParseError(f"negative head {head1}", line=line_no)
            if str(head1) != head:
                raise ParseError(f"malformed head {head!r}", line=line_no)
        rows.append(cols)
        heads.append(head1 - 1)  # CoNLL-U head 0 is the root, and ROOT == -1

    close_sentence()
    doc = close_doc()
    if doc is not None:
        yield doc


def _rows(sent: Sentence) -> Iterator[tuple]:
    """Each token's columns, in ``_COLUMNS`` order."""
    return zip(*(getattr(sent, name) for name in _COLUMNS))


def serialize_conllu(docs: Iterable[Document]) -> str:
    out: list[str] = []
    for doc in docs:
        out.append(f"# newdoc id = {doc.id}")
        out.extend(f"# {key} = {text}" for key, text in _fact_texts(doc))
        for sent in doc.sentences:
            out.append(f"# sent_id = {sent.id}")
            for i, (surface, lemma, pos, ner, chunk, head, label) in enumerate(_rows(sent), 1):
                misc_parts = []
                if ner is not None:
                    misc_parts.append(f"Ner={ner}")
                if chunk is not None:
                    misc_parts.append(f"Chunk={chunk}")
                misc = "|".join(misc_parts) or "_"
                cols = (str(i), surface, lemma, pos, "_", "_", str(head + 1), label, "_", misc)
                out.append("\t".join(cols))
            out.append("")
    return "\n".join(out) + ("\n" if out else "")


# ---------------------------------------------------------------------------
# JSON lines


_OPTIONAL = frozenset(("source", "collected_at", "split", "ner", "chunk"))


def _refused(obj: dict, key: str, line: int, path: str = "") -> SchemaError:
    """The error for field ``key`` of ``obj``, whose value the reader refused.

    A required field is missing or has the wrong type; an optional field (in
    ``_OPTIONAL``) is refused only when present, and must then be a string.
    """
    if key in _OPTIONAL:
        return SchemaError(f"field {path}{key} must be a string", line=line)
    if key not in obj:
        return SchemaError(f"missing required field {path}{key}", line=line)
    return SchemaError(f"field {path}{key} has the wrong type", line=line)


def _read_sentences(raw_sentences: list, line: int, doc_id: str, share, wanted) -> list[Sentence]:
    """A JSONL record's sentences, raising the message of the first value refused.

    Each value is checked once, in record order, for its exact JSON type
    (``type(x) is``), and a message is built only for the value refused.
    With ``wanted``, a set of ids, a sentence whose id is not in it is
    passed over once its object and id are checked.  ``share``, the parse
    call's ``dict.setdefault``, goes to ``_sentence``.
    An empty surface, or edges that do not give each token one head, are
    not refused on sight: they keep the sentence from its columns, so
    ``_sentence`` builds it from its tokens and edges as read, and
    ``sentence_issues`` explains it.
    """
    sentences: list[Sentence] = []
    seen: set[str] = set()
    for i, raw_sent in enumerate(raw_sentences):
        if type(raw_sent) is not dict:
            raise SchemaError(f"sentences[{i}] must be an object", line=line)
        sent_id = raw_sent.get("id")
        if type(sent_id) is not str:
            raise _refused(raw_sent, "id", line, f"sentences[{i}].")
        if wanted is not None and sent_id not in wanted:
            continue
        raw_tokens = raw_sent.get("tokens")
        if type(raw_tokens) is not list:
            raise _refused(raw_sent, "tokens", line, f"sentences[{i}].")
        raw_edges = raw_sent.get("edges")
        if type(raw_edges) is not list:
            raise _refused(raw_sent, "edges", line, f"sentences[{i}].")
        n = len(raw_tokens)
        ok = len(raw_edges) == n  # every token has a surface and one head, so far
        rows: list[tuple] = []
        for j, raw_tok in enumerate(raw_tokens):
            if type(raw_tok) is not dict:
                raise SchemaError(f"sentences[{i}].tokens[{j}] must be an object", line=line)
            surface = raw_tok.get("surface")
            if type(surface) is not str:
                raise _refused(raw_tok, "surface", line, f"sentences[{i}].tokens[{j}].")
            lemma = raw_tok.get("lemma")
            if type(lemma) is not str:
                raise _refused(raw_tok, "lemma", line, f"sentences[{i}].tokens[{j}].")
            pos = raw_tok.get("pos")
            if type(pos) is not str:
                raise _refused(raw_tok, "pos", line, f"sentences[{i}].tokens[{j}].")
            ner = raw_tok.get("ner")
            if type(ner) is not str and "ner" in raw_tok:
                raise _refused(raw_tok, "ner", line, f"sentences[{i}].tokens[{j}].")
            chunk = raw_tok.get("chunk")
            if type(chunk) is not str and "chunk" in raw_tok:
                raise _refused(raw_tok, "chunk", line, f"sentences[{i}].tokens[{j}].")
            if not surface:
                ok = False
            rows.append((surface, lemma, pos, ner, chunk))
        heads: list = [None] * n
        labels: list = [None] * n
        for j, raw_edge in enumerate(raw_edges):
            if type(raw_edge) is not dict:
                raise SchemaError(f"sentences[{i}].edges[{j}] must be an object", line=line)
            head = raw_edge.get("head")
            if type(head) is not int:
                raise _refused(raw_edge, "head", line, f"sentences[{i}].edges[{j}].")
            dep = raw_edge.get("dep")
            if type(dep) is not int:
                raise _refused(raw_edge, "dep", line, f"sentences[{i}].edges[{j}].")
            label = raw_edge.get("label")
            if type(label) is not str:
                raise _refused(raw_edge, "label", line, f"sentences[{i}].edges[{j}].")
            if 0 <= dep < n and heads[dep] is None:
                heads[dep] = head
                labels[dep] = label
            else:
                ok = False
        if ok:
            surfaces, lemmas, pos, ners, chunks = zip(*rows) if rows else ((),) * 5
            columns = surfaces, lemmas, pos, ners, chunks, heads, labels
            parts = None
        else:  # built as read, for sentence_issues
            columns = ()
            parts = (
                [Token(j, *row) for j, row in enumerate(rows)],
                [DepEdge(edge["head"], edge["dep"], edge["label"]) for edge in raw_edges],
            )
        sentences.append(_sentence(sent_id, columns, seen, doc_id, line, share, parts))
    return sentences


def _doc_from_dict(obj, line: int, share, wanted) -> Document:
    if type(obj) is not dict:
        raise SchemaError("document record must be an object", line=line)
    doc_id = obj.get("id")
    if type(doc_id) is not str:
        raise _refused(obj, "id", line)
    facts = {}
    for key in _FACTS:
        if key in obj:
            text = obj[key]
            if type(text) is not str:
                raise _refused(obj, key, line)
            facts[key] = _fact(key, text, line)
    raw_sentences = obj.get("sentences")
    if type(raw_sentences) is not list:
        raise _refused(obj, "sentences", line)
    return Document(doc_id, _read_sentences(raw_sentences, line, doc_id, share, wanted), **facts)


def parse_jsonl_documents(source) -> list[Document]:
    """Parse JSON-lines text (a string or a line iterable) into documents."""
    return list(read_jsonl(_lines(source)))


@_collector_paused
def read_jsonl(lines: Iterable[str], keep=None) -> Iterator[Document]:
    """Each document of JSON ``lines`` (as ``_lines`` gives them), in order and in batches.

    A document is a record of ``json_lines``, and its position counts
    records from 0.  With ``keep``, only the documents whose position is a
    key are yielded, each with just the sentences whose id is in its
    value: a record left out is never decoded, and in a record kept only
    the sentences kept are read past their id (``_read_sentences``).  What
    is left out is not checked: filter only text that parses in full.
    """
    share = {}.setdefault
    for position, (line_no, line) in enumerate(json_lines(lines)):
        if keep is None or position in keep:
            wanted = None if keep is None else keep[position]
            yield _doc_from_dict(json_value(line, line_no), line_no, share, wanted)


def document_to_dict(doc: Document) -> dict:
    record: dict = {"id": doc.id}
    record.update(_fact_texts(doc))
    record["sentences"] = []
    for sent in doc.sentences:
        tokens, edges = [], []
        for i, (surface, lemma, pos, ner, chunk, head, label) in enumerate(_rows(sent)):
            t: dict = {"surface": surface, "lemma": lemma, "pos": pos}
            if ner is not None:
                t["ner"] = ner
            if chunk is not None:
                t["chunk"] = chunk
            tokens.append(t)
            edges.append({"head": head, "dep": i, "label": label})
        record["sentences"].append({"id": sent.id, "tokens": tokens, "edges": edges})
    return record


def json_line(record) -> str:
    """``record`` as one compact JSON line, ``\n`` included: every JSON-lines output's spelling."""
    return json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n"


def serialize_jsonl_documents(docs: Iterable[Document]) -> str:
    return "".join(json_line(document_to_dict(doc)) for doc in docs)
