"""Seeded corpus generators for the three benchmark workloads.

Every generator takes the workload seed and writes plain CoNLL-U or JSON
lines text itself, with word lists fixed in this file, so that edits to
the package's tests, rules or gazetteer can never change what the
benchmark feeds the program.  Random draws come from ``random.Random``
seeded with a string, which Python hashes with SHA-512, so a seed gives
byte-identical files on every run and machine.

The sizes below are the benchmark's: each measured command runs for
two to three seconds on a 2-core machine, so one 38-second run takes
seven to eleven samples, and a full comparison of two commits stays
under an hour.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

# Trigger tokens built from the lemmas of the packaged reference rules:
# (surface, lemma, pos) per token; two-token entries are the particle
# triggers such as ``[lemma=lift] [surface=off]``.
TRIGGERS = (
    (("launched", "launch", "VERB"),),
    (("launch", "launch", "NOUN"),),
    (("failed", "fail", "VERB"),),
    (("failure", "failure", "NOUN"),),
    (("malfunction", "malfunction", "NOUN"),),
    (("anomaly", "anomaly", "NOUN"),),
    (("suffered", "suffer", "VERB"),),
    (("experienced", "experience", "VERB"),),
    (("decommissioned", "decommission", "VERB"),),
    (("retired", "retire", "VERB"),),
    (("deactivated", "deactivate", "VERB"),),
    (("retirement", "retirement", "NOUN"),),
    (("deorbited", "deorbit", "VERB"),),
    (("lifted", "lift", "VERB"), ("off", "off", "ADP")),
    (("blasted", "blast", "VERB"), ("off", "off", "ADP")),
    (("sent", "send", "VERB"), ("into", "into", "ADP")),
    (("placed", "place", "VERB"), ("into", "into", "ADP")),
)

# Names from the packaged gazetteer: multi-token names, hyphenated names,
# and short all-caps acronyms (which the gazetteer matches case-sensitively;
# the lowercase "iss" is there to exercise that rule).
NAMES = (
    "Telkom-3", "NOAA-19", "Envisat", "Starlink", "Cassini", "Kepler",
    "Hubble", "Hubble Space Telescope", "International Space Station",
    "James Webb Space Telescope", "Landsat 9", "Galaxy 15", "GOES-17",
    "Proton-M", "Falcon 9", "Falcon Heavy", "Atlas V", "Ariane 5",
    "Soyuz", "Long March 3B", "Electron", "Vega",
    "Cape Canaveral", "Baikonur", "Kennedy Space Center", "Kourou",
    "NASA", "ESA", "ISS", "HST", "JWST", "KSC", "ULA", "JAXA", "iss",
    "SpaceX", "Roscosmos", "Arianespace", "Rocket Lab",
)

# Runs of tokens carrying a generic NER tag from an upstream tagger.
DATES = (("Monday",), ("March", "3"), ("2012",), ("last", "week"), ("September", "2014"))

FILLER_POS = ("NOUN", "NOUN", "VERB", "ADJ", "ADP", "PROPN", "DET")

# Labels the reference rules' paths follow, weighted up, plus the rest.
SCAN_LABELS = (
    ("obj", 4), ("nsubj", 4), ("nmod", 4), ("obl", 4), ("compound", 4),
    ("nsubj:pass", 1), ("dobj", 1), ("acl", 1), ("nmod:of", 1),
    ("det", 2), ("amod", 2), ("case", 2), ("punct", 1), ("advmod", 1), ("conj", 1),
)

# extract-scan: documents, filler vocabulary, and the shares of slots that
# are triggers and names (a dense news-like mix, so matching and NER dominate).
SCAN_DOCS = 1500
SCAN_VOCAB = 2000
SCAN_TRIGGER_SHARE = 0.10
SCAN_NAME_SHARE = 0.15

# extract-indexed: sentences, sentences per document, tokens per sentence,
# filler vocabulary, and one planted event per this many sentences (so an
# index prunes almost everything and parsing dominates).
INDEXED_SENTENCES = 12500
INDEXED_PER_DOC = 50
INDEXED_LENGTH = 8
INDEXED_VOCAB = 400
INDEXED_PLANT_EVERY = 200

# dedup: vocabulary and Zipf exponent (realistic term overlap), the range of
# original document lengths, and the share of documents that are light edits.
DEDUP_DOCS = 240
DEDUP_VOCAB = 30000
DEDUP_EXPONENT = 0.9
DEDUP_MIN_LEN = 50
DEDUP_MAX_LEN = 500
DEDUP_EDIT_SHARE = 0.35


@dataclass
class Corpus:
    """One generated input file and what is known about it."""

    path: Path
    docs: int = 0
    sentences: int = 0
    tokens: int = 0
    first_doc: str = ""  # the first document's text, for the one-document corpus
    planted: list[dict] = field(default_factory=list)  # events the generator planted

    def describe(self) -> dict:
        data = self.path.read_bytes()
        return {
            "file": self.path.name,
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
            "documents": self.docs,
            "sentences": self.sentences,
            "tokens": self.tokens,
        }


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def _conllu_line(i: int, form: str, lemma: str, pos: str, head: int, label: str,
                 misc: str = "_") -> str:
    return f"{i}\t{form}\t{lemma}\t{pos}\t_\t_\t{head}\t{label}\t_\t{misc}"


# ---------------------------------------------------------------------------
# extract-scan: a news-like CoNLL-U corpus dense in triggers and names


def scan_corpus(path: Path, seed: int) -> Corpus:
    """``SCAN_DOCS`` documents of 1-4 random-tree sentences of 4-12 slots each.

    A slot is a trigger (``SCAN_TRIGGER_SHARE``), a name or a generic DATE
    run (``SCAN_NAME_SHARE``, multi-token names counting once), or a filler
    word no rule or gazetteer entry mentions.  Every head precedes its dependent,
    so each sentence is a well-formed tree.
    """
    rng = _rng("extract-scan", seed)
    vocab = [f"v{i:04d}" for i in range(SCAN_VOCAB)]
    labels = [name for name, _ in SCAN_LABELS]
    label_weights = [weight for _, weight in SCAN_LABELS]
    corpus = Corpus(path=path)
    with path.open("w", encoding="utf-8", newline="\n") as out:
        for d in range(SCAN_DOCS):
            block = [f"# newdoc id = doc{d:05d}"]
            for s in range(rng.randint(1, 4)):
                block.append(f"# sent_id = s{s}")
                rows: list[tuple[str, str, str, str]] = []  # form, lemma, pos, misc
                tied: list[bool] = []  # token continues the previous name or trigger
                for _ in range(rng.randint(4, 12)):
                    r = rng.random()
                    if r < SCAN_TRIGGER_SHARE:
                        unit = [(f, l, p, "_") for f, l, p in rng.choice(TRIGGERS)]
                    elif r < SCAN_TRIGGER_SHARE + SCAN_NAME_SHARE:
                        if rng.random() < 0.7:
                            unit = [(w, w, "PROPN", "_") for w in rng.choice(NAMES).split()]
                        else:
                            unit = [(w, w, "NOUN", "Ner=DATE") for w in rng.choice(DATES)]
                    else:
                        word = rng.choice(vocab)
                        unit = [(word, word, rng.choice(FILLER_POS), "_")]
                    rows.extend(unit)
                    tied.extend([False] + [True] * (len(unit) - 1))
                for i, (form, lemma, pos, misc) in enumerate(rows):
                    if i == 0:
                        head, label = 0, "root"
                    elif tied[i]:
                        head, label = i, "flat"  # 1-based: the previous token
                    else:
                        head = rng.randrange(i) + 1
                        label = rng.choices(labels, label_weights)[0]
                    block.append(_conllu_line(i + 1, form, lemma, pos, head, label, misc))
                block.append("")
                corpus.sentences += 1
                corpus.tokens += len(rows)
            text = "\n".join(block) + "\n"
            if d == 0:
                corpus.first_doc = text
            out.write(text)
            corpus.docs += 1
    return corpus


# ---------------------------------------------------------------------------
# extract-indexed: a large JSONL archive with sparse planted events

# Planted sentence templates: the tokens placed at positions 0 and 1 of
# an otherwise filler sentence, the edge from token 0 to token 1, and the
# single event the packaged rules must produce for it (high-tier rules
# claim the trigger, so the backoff rules on the same lemma are filtered).
PLANTS = (
    (("launched", "launch", "VERB"), ("Telkom-3", "Telkom-3", "PROPN"), "obj",
     {"event_type": "LAUNCH", "rule": "launch-verb-object", "tier": "high",
      "slots": {"SatelliteName": [[1, 2]]}}),
    (("failed", "fail", "VERB"), ("Proton-M", "Proton-M", "PROPN"), "nsubj",
     {"event_type": "FAILURE", "rule": "failure-vehicle-subject", "tier": "high",
      "slots": {"LaunchVehicle": [[1, 2]]}}),
    (("decommissioned", "decommission", "VERB"), ("NOAA-19", "NOAA-19", "PROPN"), "obj",
     {"event_type": "DECOMMISSIONING", "rule": "decommission-active", "tier": "high",
      "slots": {"SatelliteName": [[1, 2]]}}),
)


def indexed_corpus(path: Path, seed: int) -> Corpus:
    """Short star-parse sentences of filler words, one planted event per ``INDEXED_PLANT_EVERY``.

    Token 0 is the root and every other token hangs off it; filler words
    appear in no rule, so an index prunes all but the planted sentences.
    """
    rng = _rng("extract-indexed", seed)
    per_doc, length = INDEXED_PER_DOC, INDEXED_LENGTH
    vocab = [f"w{i:03d}" for i in range(INDEXED_VOCAB)]
    star = [{"head": -1, "dep": 0, "label": "root"}] + [
        {"head": 0, "dep": i, "label": "dep"} for i in range(1, length)
    ]
    offset = rng.randrange(INDEXED_PLANT_EVERY)
    corpus = Corpus(path=path)
    with path.open("w", encoding="utf-8", newline="\n") as out:
        sentences: list[dict] = []
        for s in range(INDEXED_SENTENCES):
            doc_id = f"doc{s // per_doc:05d}"
            sent_id = f"s{s % per_doc}"
            words = rng.choices(vocab, k=length)
            tokens = [{"surface": w, "lemma": w, "pos": "NOUN"} for w in words]
            edges = star
            if s % INDEXED_PLANT_EVERY == offset:
                trigger, name, label, event = rng.choice(PLANTS)
                for i, (form, lemma, pos) in enumerate((trigger, name)):
                    tokens[i] = {"surface": form, "lemma": lemma, "pos": pos}
                edges = [star[0], {"head": 0, "dep": 1, "label": label}] + star[2:]
                corpus.planted.append(
                    {"doc_id": doc_id, "sentence_id": sent_id, "event_type": event["event_type"],
                     "rule": event["rule"], "tier": event["tier"], "trigger": [0, 1],
                     "slots": event["slots"]}
                )
            sentences.append({"id": sent_id, "tokens": tokens, "edges": edges})
            corpus.sentences += 1
            corpus.tokens += length
            if len(sentences) == per_doc or s == INDEXED_SENTENCES - 1:
                out.write(json.dumps({"id": doc_id, "sentences": sentences},
                                     separators=(",", ":")) + "\n")
                corpus.docs += 1
                sentences = []
    corpus.planted.sort(key=lambda r: (r["doc_id"], r["sentence_id"], r["rule"],
                                       r["trigger"], r["event_type"]))
    return corpus


# ---------------------------------------------------------------------------
# dedup: Zipfian word bags with planted light edits


def dedup_corpus(path: Path, seed: int, n_docs: int = DEDUP_DOCS) -> Corpus:
    """``n_docs`` single-sentence documents of words drawn from Zipf(``DEDUP_EXPONENT``).

    The most frequent words act as stopwords shared by every document,
    and the long tail makes most word pairs rare, as in real text.
    Exactly ``DEDUP_EDIT_SHARE`` of the documents are light edits (up to
    one token in five replaced) of a random earlier document, so some
    edited pairs land just either side of the 0.90 threshold and the pool
    oracle checks the boundary.  Original lengths are spread evenly over
    [``DEDUP_MIN_LEN``, ``DEDUP_MAX_LEN``] in shuffled order so that the
    total work varies little from seed to seed.
    """
    rng = _rng("dedup", seed)
    vocab = [f"t{i}" for i in range(DEDUP_VOCAB)]
    cum_weights = list(itertools.accumulate(1.0 / (k ** DEDUP_EXPONENT)
                                            for k in range(1, DEDUP_VOCAB + 1)))
    n_edits = round(DEDUP_EDIT_SHARE * n_docs)
    edited = set(rng.sample(range(1, n_docs), n_edits))
    n_orig = n_docs - n_edits
    lengths = [DEDUP_MIN_LEN + (k * (DEDUP_MAX_LEN - DEDUP_MIN_LEN)) // max(1, n_orig - 1)
               for k in range(n_orig)]
    rng.shuffle(lengths)
    start = date(2015, 1, 1)
    corpus = Corpus(path=path)
    bags: list[list[str]] = []
    with path.open("w", encoding="utf-8", newline="\n") as out:
        for d in range(n_docs):
            if d in edited:
                words = list(rng.choice(bags))
                for _ in range(rng.randint(0, max(1, len(words) // 5))):
                    words[rng.randrange(len(words))] = rng.choices(vocab, cum_weights=cum_weights)[0]
            else:
                words = rng.choices(vocab, cum_weights=cum_weights, k=lengths.pop())
            bags.append(words)
            collected = start + timedelta(days=rng.randrange(2000))
            block = [f"# newdoc id = doc{d:04d}", f"# collected_at = {collected.isoformat()}",
                     "# sent_id = s0"]
            for i, word in enumerate(words):
                block.append(_conllu_line(i + 1, word, word, "NOUN", 0 if i == 0 else 1,
                                          "root" if i == 0 else "dep"))
            text = "\n".join(block) + "\n\n"
            if d == 0:
                corpus.first_doc = text
            out.write(text)
            corpus.docs += 1
            corpus.sentences += 1
            corpus.tokens += len(words)
    return corpus
