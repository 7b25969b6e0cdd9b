"""Shared test machinery: hand-drawn sentences, random corpora, oracles.

Random generators take an explicit ``random.Random`` so every test run
is reproducible; parent pointers always go to an earlier token, which
keeps every generated parse a well-formed tree by construction.
"""

from __future__ import annotations

import json
import random
import re
from datetime import date, timedelta
from itertools import count
from pathlib import Path
from typing import Iterator, Sequence

from spacevents import (
    ROOT,
    SPLITS,
    Atom,
    DepEdge,
    DepPathStep,
    Document,
    ParseError,
    Rule,
    SchemaError,
    Sentence,
    SlotPattern,
    StructureError,
    Token,
    TokenPattern,
    parse_conllu,
    unigram_vector,
    cosine_similarity,
)
from spacevents.schemas import SCHEMAS

FIXTURES = Path(__file__).parent / "fixtures"


def line_ending_copies(text: str) -> list:
    """``text`` as LF, CRLF and lone-CR strings and as line lists with and without endings."""
    crlf, cr = text.replace("\n", "\r\n"), text.replace("\n", "\r")
    return [text, crlf, cr, text.splitlines(), text.splitlines(keepends=True),
            crlf.splitlines(keepends=True), cr.splitlines(keepends=True)]


def undecodable_json_lines(record: dict, field: str) -> list[tuple[str, str]]:
    """Three copies of ``record`` as lines the readers refuse as invalid JSON,
    each with the start of what the message says after ``invalid JSON: ``.

    One nests too deeply and one holds an integer past Python's digit
    limit, so ``json.loads`` fails on them with an error other than
    ``JSONDecodeError``; the third decodes, but its string ``field`` holds a
    lone surrogate, which no UTF-8 output can write.
    """
    line = json.dumps(record)
    return [
        ("[" * 100_000 + line + "]" * 100_000, "maximum recursion depth exceeded"),
        (line[:-1] + ', "n": ' + "7" * 5_000 + "}", "Exceeds the limit (4300 digits)"),
        (json.dumps({**record, field: "\ud800"}), "lone surrogate in a string"),
    ]

DEP_LABELS = (
    "nsubj", "dobj", "obj", "nmod", "obl", "compound",
    "det", "case", "amod", "punct", "advmod", "conj",
)

TRIGGER_WORDS = (
    ("launched", "launch", "VERB"),
    ("launch", "launch", "NOUN"),
    ("failed", "fail", "VERB"),
    ("failure", "failure", "NOUN"),
    ("decommissioned", "decommission", "VERB"),
    ("retired", "retire", "VERB"),
    ("suffered", "suffer", "VERB"),
)

ENTITY_WORDS = (
    ("Telkom-3", "SPACECRAFT"),
    ("NOAA-19", "SPACECRAFT"),
    ("Proton-M", "LAUNCH_VEHICLE"),
    ("NASA", "ORGANIZATION"),
)


def make_sentence(sent_id, rows):
    """Build a Sentence from (surface, lemma, pos, head, label[, ner[, chunk]]) rows.

    Heads are 0-based token indices, -1 for the root.
    """
    tokens = []
    edges = []
    for i, row in enumerate(rows):
        surface, lemma, pos, head, label = row[:5]
        ner = row[5] if len(row) > 5 else None
        chunk = row[6] if len(row) > 6 else None
        tokens.append(
            Token(index=i, surface=surface, lemma=lemma, pos=pos, generic_ner=ner, chunk=chunk)
        )
        edges.append(DepEdge(head=head, dependent=i, label=label))
    return Sentence(id=sent_id, tokens=tuple(tokens), edges=tuple(edges))


def load_small_corpus():
    return parse_conllu(FIXTURES.joinpath("small.conllu").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# random corpora


def word_vocab(size: int) -> list[str]:
    return [f"w{i:03d}" for i in range(size)]


def random_sentence(rng: random.Random, sent_id: str, vocab, min_len=4, max_len=12,
                    trigger_chance=0.0, entity_chance=0.0) -> Sentence:
    """A random dependency tree; parents always precede their dependents."""
    n = rng.randint(min_len, max_len)
    rows = []
    for i in range(n):
        surface = rng.choice(vocab)
        lemma, pos, ner = surface, rng.choice(("NOUN", "VERB", "ADJ", "ADP", "PROPN")), None
        if trigger_chance and rng.random() < trigger_chance:
            surface, lemma, pos = rng.choice(TRIGGER_WORDS)
        elif entity_chance and rng.random() < entity_chance:
            surface, ner = rng.choice(ENTITY_WORDS)
            lemma, pos = surface, "PROPN"
        head = -1 if i == 0 else rng.randrange(i)
        label = "root" if i == 0 else rng.choice(DEP_LABELS)
        rows.append((surface, lemma, pos, head, label, ner))
    return make_sentence(sent_id, rows)


def random_corpus(rng: random.Random, n_docs: int, vocab=None, sentences_per_doc=(1, 4),
                  min_len=4, max_len=12, trigger_chance=0.0, entity_chance=0.0,
                  dated=False) -> list[Document]:
    vocab = vocab if vocab is not None else word_vocab(80)
    docs = []
    for d in range(n_docs):
        n_sents = rng.randint(*sentences_per_doc)
        sentences = tuple(
            random_sentence(rng, f"s{k}", vocab, min_len, max_len,
                            trigger_chance, entity_chance)
            for k in range(n_sents)
        )
        collected = date(2015, 1, 1) + timedelta(days=rng.randrange(2000)) if dated else None
        docs.append(Document(id=f"doc{d:04d}", sentences=sentences, collected_at=collected))
    return docs


def dedup_corpus(rng: random.Random, n_docs: int, vocab_size=500,
                 min_len=50, max_len=500) -> list[Document]:
    """Documents as flat word bags, with planted near-duplicate clusters.

    Roughly a third of the documents are light edits of an earlier one
    (a few tokens replaced), which lands their pairwise similarity
    around the interesting region near the 0.90 threshold.
    """
    vocab = word_vocab(vocab_size)
    docs: list[Document] = []
    bags: list[list[str]] = []
    for d in range(n_docs):
        if docs and rng.random() < 0.35:
            words = list(rng.choice(bags))
            n_edits = rng.randint(0, max(1, len(words) // 12))
            for _ in range(n_edits):
                words[rng.randrange(len(words))] = rng.choice(vocab)
        else:
            words = [rng.choice(vocab) for _ in range(rng.randint(min_len, max_len))]
        bags.append(words)
        rows = [(w, w, "NOUN", -1 if i == 0 else 0, "root" if i == 0 else "dep")
                for i, w in enumerate(words)]
        docs.append(
            Document(
                id=f"doc{d:04d}",
                sentences=(make_sentence("s0", rows),),
                collected_at=date(2015, 1, 1) + timedelta(days=rng.randrange(2000)),
            )
        )
    return docs


def brute_force_pools(docs, threshold):
    """All-pairs cosine + transitive closure, no pruning.

    Returns (doc id -> pool id, list of above-threshold pairs).
    """
    vectors = [unigram_vector(doc) for doc in docs]
    n = len(vectors)
    above = []
    neighbors = {i: set() for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if cosine_similarity(vectors[i], vectors[j]) > threshold:
                above.append((docs[i].id, docs[j].id))
                neighbors[i].add(j)
                neighbors[j].add(i)
    pool_of = {}
    seen = set()
    for start in range(n):
        if start in seen:
            continue
        component = []
        stack = [start]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            component.append(node)
            stack.extend(neighbors[node])
        pool_id = min(docs[i].id for i in component)
        for i in component:
            pool_of[docs[i].id] = pool_id
    return pool_of, above


# ---------------------------------------------------------------------------
# random rules


def random_rule(rng: random.Random, name: str, vocab) -> Rule:
    """A structurally valid rule with an indexable trigger."""
    event_type = rng.choice(tuple(SCHEMAS))

    def atom():
        field = rng.choice(("lemma", "surface"))
        values = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 3)))
        return Atom(field=field, values=values)

    def branch():
        atoms = [atom()]
        if rng.random() < 0.3:
            atoms.append(Atom("pos", (rng.choice(("NOUN", "VERB", "PROPN")),)))
        if rng.random() < 0.2:
            atoms.append(Atom("ner", ("DATE",), negated=True))
        return tuple(atoms)

    trigger = tuple(
        TokenPattern(branches=tuple(branch() for _ in range(rng.randint(1, 2))))
        for _ in range(rng.randint(1, 2))
    )
    slots = []
    slot_names = list(SCHEMAS[event_type].slot_names())
    rng.shuffle(slot_names)
    for slot_name in slot_names[: rng.randint(0, 3)]:
        path = tuple(
            DepPathStep(
                direction=rng.choice(("out", "in")),
                labels=tuple(rng.sample(DEP_LABELS, rng.randint(1, 2))),
                optional=rng.random() < 0.3,
            )
            for _ in range(rng.randint(1, 2))
        )
        if rng.random() < 0.5:
            filler = None
        else:
            filler = (rng.choice(("SPACECRAFT", "LAUNCH_VEHICLE", "ORGANIZATION", "DATE")),)
        slots.append(
            SlotPattern(
                name=slot_name,
                path=path,
                entity_types=filler,
                required=rng.random() < 0.4,
            )
        )
    return Rule(
        name=name,
        event_type=event_type,
        tier="backoff",
        trigger=trigger,
        slots=tuple(slots),
    )


# ---------------------------------------------------------------------------
# the reference trigger scan: every token position, every atom, no dispatch


def _atom_matches(atom, token, ner_types) -> bool:
    if atom.field == "surface":
        value: str | None = token.surface
    elif atom.field == "lemma":
        value = token.lemma
    elif atom.field == "pos":
        value = token.pos
    else:
        value = ner_types[token.index]
    hit = value is not None and value in atom.values
    return hit != atom.negated


def _pattern_matches(pattern: TokenPattern, token, ner_types) -> bool:
    for branch in pattern.branches:
        if all(_atom_matches(atom, token, ner_types) for atom in branch):
            return True
    return False


def find_trigger_spans(
    sentence: Sentence, trigger: Sequence[TokenPattern], ner_types: Sequence[str | None]
) -> list[tuple[int, int]]:
    tokens = sentence.tokens
    width = len(trigger)
    spans = []
    for i in range(len(tokens) - width + 1):
        if all(
            _pattern_matches(trigger[j], tokens[i + j], ner_types)
            for j in range(width)
        ):
            spans.append((i, i + width))
    return spans


# ---------------------------------------------------------------------------
# the flat corpus for timing runs


def timing_corpus(n_sentences: int, trigger_every: int = 200,
                  sentence_length: int = 8, vocab_size: int = 400,
                  per_doc: int = 50) -> list[Document]:
    """``n_sentences`` short chain-parse sentences with sparse triggers.

    Every ``trigger_every``-th sentence carries one trigger verb and an
    object; everything else draws from a filler vocabulary that no rule
    mentions, so an index prunes almost the whole corpus.
    """
    rng = random.Random(1234)
    vocab = word_vocab(vocab_size)
    # one edge skeleton per sentence length: token 0 is the root,
    # everything else hangs off it
    skeleton = tuple(
        DepEdge(head=0 if i else -1, dependent=i, label="dep" if i else "root")
        for i in range(sentence_length)
    )
    token_cache: dict[tuple[int, str], Token] = {}

    def tok(i: int, word: str, lemma: str | None = None, pos: str = "NOUN") -> Token:
        key = (i, word)
        cached = token_cache.get(key)
        if cached is None:
            cached = Token(index=i, surface=word, lemma=lemma or word, pos=pos)
            token_cache[key] = cached
        return cached

    docs: list[Document] = []
    sentences: list[Sentence] = []
    doc_ids = count()
    for s in range(n_sentences):
        words = [vocab[rng.randrange(vocab_size)] for _ in range(sentence_length)]
        tokens = [tok(i, w) for i, w in enumerate(words)]
        if s % trigger_every == 0:
            tokens[0] = Token(index=0, surface="launched", lemma="launch", pos="VERB")
            tokens[1] = Token(index=1, surface="Telkom-3", lemma="Telkom-3", pos="PROPN")
            edges = skeleton[:1] + (DepEdge(head=0, dependent=1, label="obj"),) + skeleton[2:]
        else:
            edges = skeleton
        sentences.append(Sentence(id=f"s{s % per_doc}", tokens=tuple(tokens), edges=edges))
        if len(sentences) == per_doc:
            docs.append(Document(id=f"doc{next(doc_ids):05d}", sentences=tuple(sentences)))
            sentences = []
    if sentences:
        docs.append(Document(id=f"doc{next(doc_ids):05d}", sentences=tuple(sentences)))
    return docs


# ---------------------------------------------------------------------------
# the reference parsers: the CoNLL-U and JSONL readers as they were before
# the accept-path rewrite, kept verbatim so every parse result and every
# error message of ``spacevents.documents`` can be compared with them


def reference_sentence_issues(sentence: Sentence) -> list[str]:
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
    # With one head per token the head links form a functional graph; walk
    # each chain once to rule out cycles.
    state = [0] * n  # 0 unvisited, 1 on current chain, 2 known good
    for start in range(n):
        if state[start]:
            continue
        chain = []
        node = start
        while True:
            if state[node] == 1:
                issues.append(f"dependency cycle through token {node}")
                break
            if state[node] == 2:
                break
            state[node] = 1
            chain.append(node)
            head = heads[node]
            if head == ROOT:
                break
            node = head
        for visited in chain:
            state[visited] = 2
        if issues:
            break
    return issues


def _lines(source) -> Iterator[str]:
    """The lines of a string or line iterable, for both formats.

    A line ends at ``\n`` only, and one ``\r`` before it is dropped, so
    characters such as U+2028 or U+0085 stay inside a token.
    """
    if isinstance(source, str):
        lines = source.split("\n")
        if not lines[-1]:
            lines.pop()  # the text ends with a newline, or is empty
    else:
        lines = (raw[:-1] if raw.endswith("\n") else raw for raw in source)
    return (line[:-1] if line.endswith("\r") else line for line in lines)


def _parse_date(value: str, line: int) -> date:
    try:
        return date.fromisoformat(value)
    except ValueError:
        raise ParseError(f"collected_at is not an ISO date: {value!r}", line=line)


# the one spelling of a token id or head: ASCII digits, no sign, padding or leading zero
_PLAIN_NUMBER = re.compile("0|[1-9][0-9]*")


def reference_parse_conllu(source) -> list[Document]:
    """Parse CoNLL-U text (a string or a line iterable) into documents.

    Multiword-token ranges (``1-2``) and empty nodes (``1.1``) are
    rejected; the corpus contract is one syntactic token per line.
    """
    docs: list[Document] = []
    doc_meta: dict | None = None
    sentences: list[Sentence] = []
    sent_ids: set[str] = set()
    sent_id: str | None = None
    sent_line = 0
    tokens: list[Token] = []
    edges: list[DepEdge] = []
    last_line = 0

    def close_sentence() -> None:
        nonlocal sent_id, sent_line, tokens, edges
        if sent_id is None and not tokens:
            return
        if doc_meta is None:
            raise ParseError(
                "sentence outside any '# newdoc id' block", line=sent_line
            )
        if sent_id is None:
            raise ParseError("sentence is missing a '# sent_id' comment", line=sent_line)
        if not tokens:
            raise ParseError(f"sentence {sent_id!r} has no tokens", line=sent_line)
        if sent_id in sent_ids:
            raise ParseError(
                f"duplicate sentence id {sent_id!r} in document {doc_meta['id']!r}",
                line=sent_line,
            )
        sent = Sentence(id=sent_id, tokens=tuple(tokens), edges=tuple(edges))
        problems = reference_sentence_issues(sent)
        if problems:
            raise StructureError(
                f"line {sent_line}: sentence {sent_id!r} in document {doc_meta['id']!r}: "
                + "; ".join(problems)
            )
        sent_ids.add(sent_id)
        sentences.append(sent)
        sent_id = None
        sent_line = 0
        tokens = []
        edges = []

    def close_doc() -> None:
        nonlocal doc_meta, sentences, sent_ids
        if doc_meta is None:
            return
        docs.append(
            Document(
                id=doc_meta["id"],
                sentences=tuple(sentences),
                source=doc_meta["source"],
                collected_at=doc_meta["collected_at"],
                split=doc_meta["split"],
            )
        )
        doc_meta = None
        sentences = []
        sent_ids = set()

    for line_no, line in enumerate(_lines(source), start=1):
        last_line = line_no
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
                close_doc()
                doc_meta = {
                    "id": value,
                    "source": None,
                    "collected_at": None,
                    "split": "unassigned",
                }
            elif key == "sent_id":
                sent_id = value
                sent_line = line_no
            elif key in ("split", "source", "collected_at"):
                if doc_meta is None:
                    raise ParseError(f"'# {key}' comment outside a document", line=line_no)
                if key == "split":
                    if value not in SPLITS:
                        raise ParseError(f"unknown split {value!r}", line=line_no)
                    doc_meta["split"] = value
                elif key == "source":
                    doc_meta["source"] = value
                else:
                    doc_meta["collected_at"] = _parse_date(value, line_no)
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ParseError(
                f"expected 10 tab-separated columns, got {len(cols)}", line=line_no
            )
        tid, form, lemma, upos, xpos, _feats, head, deprel, _deps, misc = cols
        if "-" in tid:
            raise ParseError("multiword token ranges are not supported", line=line_no)
        if "." in tid:
            raise ParseError("empty nodes are not supported", line=line_no)
        try:
            index1 = int(tid)
        except ValueError:
            raise ParseError(f"malformed token id {tid!r}", line=line_no)
        if not tokens:
            sent_line = sent_line or line_no
        expected = len(tokens) + 1
        if index1 != expected:
            raise ParseError(
                f"token id {index1} out of sequence (expected {expected})", line=line_no
            )
        if not _PLAIN_NUMBER.fullmatch(tid):
            raise ParseError(f"malformed token id {tid!r}", line=line_no)
        if not form:
            raise ParseError("empty FORM column", line=line_no)
        try:
            head1 = int(head)
        except ValueError:
            raise ParseError(f"malformed head {head!r}", line=line_no)
        if head1 < 0:
            raise ParseError(f"negative head {head1}", line=line_no)
        if not _PLAIN_NUMBER.fullmatch(head):
            raise ParseError(f"malformed head {head!r}", line=line_no)
        ner = chunk = None
        if misc and misc != "_":
            for part in misc.split("|"):
                k, _, v = part.partition("=")
                if k == "Ner":
                    ner = v
                elif k == "Chunk":
                    chunk = v
        pos = upos if upos != "_" else xpos
        tokens.append(
            Token(
                index=index1 - 1,
                surface=form,
                lemma=lemma if lemma != "_" else form,
                pos=pos,
                generic_ner=ner,
                chunk=chunk,
            )
        )
        edges.append(
            DepEdge(
                head=head1 - 1 if head1 > 0 else ROOT,
                dependent=index1 - 1,
                label=deprel,
            )
        )

    sent_line = sent_line or last_line
    close_sentence()
    close_doc()
    return docs


def _require(obj: dict, key: str, kinds, line: int, path: str):
    if key not in obj:
        raise SchemaError(f"line {line}: missing required field {path}{key}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise SchemaError(f"line {line}: field {path}{key} has the wrong type")
    return value


def _optional_str(obj: dict, key: str, line: int, path: str) -> str | None:
    if key not in obj:
        return None
    value = obj[key]
    if not isinstance(value, str):
        raise SchemaError(f"line {line}: field {path}{key} must be a string")
    return value


def _doc_from_dict(obj, line: int) -> Document:
    if not isinstance(obj, dict):
        raise SchemaError(f"line {line}: document record must be an object")
    doc_id = _require(obj, "id", str, line, "")
    source = _optional_str(obj, "source", line, "")
    collected_raw = _optional_str(obj, "collected_at", line, "")
    collected = _parse_date(collected_raw, line) if collected_raw is not None else None
    split = _optional_str(obj, "split", line, "")
    if split is None:
        split = "unassigned"
    elif split not in SPLITS:
        raise ParseError(f"unknown split {split!r}", line=line)
    raw_sentences = _require(obj, "sentences", list, line, "")
    sentences: list[Sentence] = []
    seen: set[str] = set()
    for i, raw_sent in enumerate(raw_sentences):
        path = f"sentences[{i}]."
        if not isinstance(raw_sent, dict):
            raise SchemaError(f"line {line}: sentences[{i}] must be an object")
        sent_id = _require(raw_sent, "id", str, line, path)
        raw_tokens = _require(raw_sent, "tokens", list, line, path)
        raw_edges = _require(raw_sent, "edges", list, line, path)
        tokens: list[Token] = []
        for j, raw_tok in enumerate(raw_tokens):
            tpath = f"{path}tokens[{j}]."
            if not isinstance(raw_tok, dict):
                raise SchemaError(f"line {line}: {path}tokens[{j}] must be an object")
            tokens.append(
                Token(
                    index=j,
                    surface=_require(raw_tok, "surface", str, line, tpath),
                    lemma=_require(raw_tok, "lemma", str, line, tpath),
                    pos=_require(raw_tok, "pos", str, line, tpath),
                    generic_ner=_optional_str(raw_tok, "ner", line, tpath),
                    chunk=_optional_str(raw_tok, "chunk", line, tpath),
                )
            )
        edges: list[DepEdge] = []
        for j, raw_edge in enumerate(raw_edges):
            epath = f"{path}edges[{j}]."
            if not isinstance(raw_edge, dict):
                raise SchemaError(f"line {line}: {path}edges[{j}] must be an object")
            edges.append(
                DepEdge(
                    head=_require(raw_edge, "head", int, line, epath),
                    dependent=_require(raw_edge, "dep", int, line, epath),
                    label=_require(raw_edge, "label", str, line, epath),
                )
            )
        if sent_id in seen:
            raise ParseError(
                f"duplicate sentence id {sent_id!r} in document {doc_id!r}", line=line
            )
        sent = Sentence(id=sent_id, tokens=tuple(tokens), edges=tuple(edges))
        problems = reference_sentence_issues(sent)
        if problems:
            raise StructureError(
                f"line {line}: sentence {sent_id!r} in document {doc_id!r}: "
                + "; ".join(problems)
            )
        seen.add(sent_id)
        sentences.append(sent)
    return Document(
        id=doc_id,
        sentences=tuple(sentences),
        source=source,
        collected_at=collected,
        split=split,
    )


def reference_parse_jsonl_documents(source) -> list[Document]:
    """Parse JSON-lines text (a string or a line iterable) into documents."""
    docs: list[Document] = []
    for line_no, raw in enumerate(_lines(source), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"line {line_no}: invalid JSON: {exc}")
        docs.append(_doc_from_dict(obj, line_no))
    return docs
