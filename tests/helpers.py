"""Shared test machinery: hand-drawn sentences, random corpora, oracles.

Random generators take an explicit ``random.Random`` so every test run
is reproducible; parent pointers always go to an earlier token, which
keeps every generated parse a well-formed tree by construction.
"""

from __future__ import annotations

import random
from datetime import date, timedelta
from itertools import count
from pathlib import Path
from typing import Sequence

from spacevents import (
    Atom,
    DepEdge,
    DepPathStep,
    Document,
    Rule,
    Sentence,
    SlotPattern,
    Token,
    TokenPattern,
    parse_conllu,
    unigram_vector,
    cosine_similarity,
)
from spacevents.schemas import SCHEMAS

FIXTURES = Path(__file__).parent / "fixtures"

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
