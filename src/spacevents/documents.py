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

Every loaded sentence is checked for structural sanity: exactly one edge
per token, exactly one root, no cycles.  Edges are kept in a canonical
order (by dependent) so that equal sentences compare equal regardless of
the order edges appeared in the input.

The two parsers share one reader of document facts, ``_fact``, whose
inverse ``_fact_texts`` serves both writers, and one sentence check,
``_sentence``: a sentence's id must be new in its document, and its head
links must pass ``_is_tree``, a single-pass test that builds no message;
only a sentence that fails it goes to ``sentence_issues``, which owns
every structure message.  A refused sentence is reported at its first
line, with its document.  ``json_lines`` alone decides which lines of a
JSON-lines file, here or of annotations, are records; ``json_value``
decodes each.  A JSONL record is read once, by ``_doc_from_dict`` and
``_read_sentences``, which passes over a sentence ``keep`` leaves out:
each value's exact JSON type is checked in record order, and only the
first value refused builds a message, through ``_refused``, raised where
the value is found.  Within one parse call, equal tokens, equal edges and
equal strings in them share one object each, through ``_sharing``, which
builds a new (frozen) token or edge with ``object.__new__`` and its slot
descriptors instead of the dataclass ``__init__``.  The cyclic garbage
collector is paused while a parser runs, since parsing creates no cycles.
"""

from __future__ import annotations

import gc
import json
import re
from dataclasses import dataclass, fields
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


@dataclass(frozen=True)
class Sentence:
    id: str
    tokens: tuple[Token, ...]
    edges: tuple[DepEdge, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(
            self, "edges", tuple(sorted(self.edges, key=_BY_DEPENDENT))
        )

    def __len__(self) -> int:
        return len(self.tokens)

    def text(self) -> str:
        return " ".join(tok.surface for tok in self.tokens)

    @cached_property
    def head_of(self) -> tuple[tuple[int, str], ...]:
        """Per token: (head index or ROOT, edge label)."""
        arr: list[tuple[int, str]] = [(ROOT, "")] * len(self.tokens)
        for edge in self.edges:
            if 0 <= edge.dependent < len(arr):
                arr[edge.dependent] = (edge.head, edge.label)
        return tuple(arr)

    @cached_property
    def dependents_of(self) -> tuple[tuple[tuple[int, str], ...], ...]:
        """Per token: ((dependent index, edge label), ...) for outgoing edges."""
        out: list[list[tuple[int, str]]] = [[] for _ in self.tokens]
        for edge in self.edges:
            if 0 <= edge.head < len(out):
                out[edge.head].append((edge.dependent, edge.label))
        return tuple(tuple(deps) for deps in out)


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
    problem with the links, so a parser calls that only on False, to
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
        raise SchemaError(f"line {line_no}: invalid JSON: {exc}")
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


def _sentence(sent_id, tokens, edges, heads, ok, seen, doc_id, line) -> Sentence:
    """The sentence a reader found at ``line`` of document ``doc_id``, once it is checked.

    Its id must be new among the ids in ``seen``, to which it is then added,
    and its head links one tree: ``ok`` False, or ``heads`` failing
    ``_is_tree``, has ``sentence_issues`` explain the sentence.
    """
    if sent_id in seen:
        raise ParseError(f"duplicate sentence id {sent_id!r} in document {doc_id!r}", line=line)
    sent = Sentence(sent_id, tokens, edges)
    if not (ok and _is_tree(heads)):
        problems = sentence_issues(sent)
        if problems:
            raise StructureError(
                f"line {line}: sentence {sent_id!r} in document {doc_id!r}: "
                + "; ".join(problems)
            )
    seen.add(sent_id)
    return sent


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
    def paused(*args):
        documents = read(*args)
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

    return paused


# A new token or edge is built without the frozen ``__init__``, which sets
# each field through ``object.__setattr__``: ``object.__new__``, then each
# slot's own member descriptor.  Unpacking fails on import if a field is added.
_new = object.__new__
_set_index, _set_surface, _set_lemma, _set_pos, _set_ner, _set_chunk = (
    getattr(Token, f.name).__set__ for f in fields(Token)
)
_set_head, _set_dependent, _set_label = (getattr(DepEdge, f.name).__set__ for f in fields(DepEdge))


# Tokens a parse keeps for sharing, so a parse that yields documents as it
# goes holds no more of the tokens it built for earlier ones.
_TOKENS_KEPT = 1 << 15


def _sharing(token_fields=None) -> tuple:
    """One parse call's ``(token_of, new_token, edge_of, new_edge)``.

    ``token_of(key) or new_token(key)`` is the one token for ``key``, an
    index and five strings (or None) that ``token_fields(key, share)`` turns
    into the token's fields (without it, they are the key); ``edge_of(key)
    or new_edge(key)`` is the one edge for ``(head, dependent, label)``.  A
    new token or edge, and the key it is stored under, hold one ``str`` per
    distinct value, so a lemma equal to its surface is that surface.  The
    token table is emptied when it holds ``_TOKENS_KEPT`` tokens; strings
    grow with the vocabulary and edges with sentence length and labels.
    """
    tokens: dict[tuple, Token] = {}
    edges: dict[tuple, DepEdge] = {}
    share = {}.setdefault

    def new_token(key: tuple) -> Token:
        index, a, b, c, d, e = key
        key = (index, share(a, a), share(b, b), share(c, c), share(d, d), share(e, e))
        index, surface, lemma, pos, ner, chunk = token_fields(key, share) if token_fields else key
        if len(tokens) == _TOKENS_KEPT:
            tokens.clear()
        token = tokens[key] = _new(Token)
        _set_index(token, index)
        _set_surface(token, surface)
        _set_lemma(token, lemma)
        _set_pos(token, pos)
        _set_ner(token, ner)
        _set_chunk(token, chunk)
        return token

    def new_edge(key: tuple) -> DepEdge:
        head, dependent, label = key
        label = share(label, label)
        edge = edges[head, dependent, label] = _new(DepEdge)
        _set_head(edge, head)
        _set_dependent(edge, dependent)
        _set_label(edge, label)
        return edge

    return tokens.get, new_token, edges.get, new_edge


# ---------------------------------------------------------------------------
# CoNLL-U

# A line that starts with a digit is neither blank nor a comment, so it
# skips those two checks.
_TOKEN_LINE_START = frozenset("0123456789")
# The plain spelling of each small number, so a well-formed token line's id
# and head convert with one lookup; any other text takes the checked path.
_DECIMAL = {str(i): i for i in range(1024)}


def _conllu_token_fields(key: tuple, share) -> tuple:
    """A token's field values from its key: index, FORM, LEMMA, UPOS, XPOS and MISC."""
    index, form, lemma, upos, xpos, misc = key
    ner = chunk = None
    if misc and misc != "_":
        for part in misc.split("|"):
            k, _, v = part.partition("=")
            if k == "Ner":
                ner = share(v, v)
            elif k == "Chunk":
                chunk = share(v, v)
    return index, form, lemma if lemma != "_" else form, upos if upos != "_" else xpos, ner, chunk


def parse_conllu(source) -> list[Document]:
    """Parse CoNLL-U text (a string or a line iterable) into documents.

    Multiword-token ranges (``1-2``) and empty nodes (``1.1``) are
    rejected; the corpus contract is one syntactic token per line.
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
    tokens: list[Token] = []
    edges: list[DepEdge] = []
    heads: list[int] = []
    skip = False  # the current sentence is left out
    token_of, new_token, edge_of, new_edge = _sharing(_conllu_token_fields)

    def close_sentence() -> None:
        nonlocal sent_id, sent_line, tokens, edges, heads
        if sent_id is None and not tokens:
            return
        if doc_meta is None:
            raise ParseError("sentence outside any '# newdoc id' block", line=sent_line)
        if sent_id is None:
            raise ParseError("sentence is missing a '# sent_id' comment", line=sent_line)
        if not tokens:
            raise ParseError(f"sentence {sent_id!r} has no tokens", line=sent_line)
        sentences.append(
            _sentence(sent_id, tokens, edges, heads, True, sent_ids, doc_meta["id"], sent_line)
        )
        sent_id, sent_line, tokens, edges, heads = None, 0, [], [], []

    def close_doc() -> Document | None:
        nonlocal doc_meta, sentences, sent_ids
        doc = None
        if doc_meta is not None and (keep is None or position in keep):
            doc = Document(sentences=sentences, **doc_meta)
        doc_meta, sentences, sent_ids = None, [], set()
        return doc

    for line_no, line in enumerate(lines, start=1):
        if line[:1] not in _TOKEN_LINE_START:
            if not line.strip():
                close_sentence()
                continue
            if line.startswith("#"):
                if tokens:
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
        tid, form, lemma, upos, xpos, _feats, head, deprel, _deps, misc = cols
        index = len(tokens)
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
        key = (index, form, lemma, upos, xpos, misc)
        tokens.append(token_of(key) or new_token(key))
        head0 = head1 - 1  # CoNLL-U head 0 is the root, and ROOT == -1
        heads.append(head0)
        key = (head0, index, deprel)
        edges.append(edge_of(key) or new_edge(key))

    close_sentence()
    doc = close_doc()
    if doc is not None:
        yield doc


def serialize_conllu(docs: Iterable[Document]) -> str:
    out: list[str] = []
    for doc in docs:
        out.append(f"# newdoc id = {doc.id}")
        out.extend(f"# {key} = {text}" for key, text in _fact_texts(doc))
        for sent in doc.sentences:
            out.append(f"# sent_id = {sent.id}")
            by_dep = {edge.dependent: edge for edge in sent.edges}
            for tok in sent.tokens:
                edge = by_dep[tok.index]
                misc_parts = []
                if tok.generic_ner is not None:
                    misc_parts.append(f"Ner={tok.generic_ner}")
                if tok.chunk is not None:
                    misc_parts.append(f"Chunk={tok.chunk}")
                out.append(
                    "\t".join(
                        (
                            str(tok.index + 1),
                            tok.surface,
                            tok.lemma,
                            tok.pos,
                            "_",
                            "_",
                            str(edge.head + 1) if edge.head != ROOT else "0",
                            edge.label,
                            "_",
                            "|".join(misc_parts) or "_",
                        )
                    )
                )
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
        return SchemaError(f"line {line}: field {path}{key} must be a string")
    if key not in obj:
        return SchemaError(f"line {line}: missing required field {path}{key}")
    return SchemaError(f"line {line}: field {path}{key} has the wrong type")


def _read_sentences(
    raw_sentences: list, line: int, doc_id: str, shared: tuple, wanted
) -> list[Sentence]:
    """A JSONL record's sentences, raising the message of the first value refused.

    Each value is checked once, in record order, for its exact JSON type
    (``type(x) is``), and a message is built only for the value refused.
    With ``wanted``, a set of ids, a sentence whose id is not in it is
    passed over once its object and id are checked.
    An empty surface, or edges that do not give each token one head, are
    not refused on sight: they keep the sentence from the ``_is_tree``
    test, so ``_sentence`` has ``sentence_issues`` explain it after its
    edges are read.
    """
    token_of, new_token, edge_of, new_edge = shared
    sentences: list[Sentence] = []
    seen: set[str] = set()
    for i, raw_sent in enumerate(raw_sentences):
        if type(raw_sent) is not dict:
            raise SchemaError(f"line {line}: sentences[{i}] must be an object")
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
        tokens: list[Token] = []
        for j, raw_tok in enumerate(raw_tokens):
            if type(raw_tok) is not dict:
                raise SchemaError(f"line {line}: sentences[{i}].tokens[{j}] must be an object")
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
            key = (j, surface, lemma, pos, ner, chunk)
            tokens.append(token_of(key) or new_token(key))
        heads: list = [None] * n
        edges: list[DepEdge] = []
        for j, raw_edge in enumerate(raw_edges):
            if type(raw_edge) is not dict:
                raise SchemaError(f"line {line}: sentences[{i}].edges[{j}] must be an object")
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
            else:
                ok = False
            key = (head, dep, label)
            edges.append(edge_of(key) or new_edge(key))
        sentences.append(_sentence(sent_id, tokens, edges, heads, ok, seen, doc_id, line))
    return sentences


def _doc_from_dict(obj, line: int, shared: tuple, wanted) -> Document:
    if type(obj) is not dict:
        raise SchemaError(f"line {line}: document record must be an object")
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
    return Document(doc_id, _read_sentences(raw_sentences, line, doc_id, shared, wanted), **facts)


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
    shared = _sharing()
    for position, (line_no, line) in enumerate(json_lines(lines)):
        if keep is None or position in keep:
            wanted = None if keep is None else keep[position]
            yield _doc_from_dict(json_value(line, line_no), line_no, shared, wanted)


def document_to_dict(doc: Document) -> dict:
    record: dict = {"id": doc.id}
    record.update(_fact_texts(doc))
    record["sentences"] = []
    for sent in doc.sentences:
        tokens = []
        for tok in sent.tokens:
            t: dict = {"surface": tok.surface, "lemma": tok.lemma, "pos": tok.pos}
            if tok.generic_ner is not None:
                t["ner"] = tok.generic_ner
            if tok.chunk is not None:
                t["chunk"] = tok.chunk
            tokens.append(t)
        edges = [
            {"head": e.head, "dep": e.dependent, "label": e.label} for e in sent.edges
        ]
        record["sentences"].append({"id": sent.id, "tokens": tokens, "edges": edges})
    return record


def serialize_jsonl_documents(docs: Iterable[Document]) -> str:
    lines = [
        json.dumps(document_to_dict(doc), ensure_ascii=False, separators=(",", ":"))
        for doc in docs
    ]
    return "\n".join(lines) + ("\n" if lines else "")
