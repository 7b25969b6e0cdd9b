"""Field-tagged inverted index over sentences, with a small binary file format.

Terms are spelled by ``index_term``: ``surface:<lowercased form>`` and
``lemma:<lemma as written>``.  ``Rule`` guarantees every trigger
alternative an indexable atom (see ``rules``), so the postings of those
atoms bound the sentences a trigger can match, which is what lets
extraction skip almost the whole corpus.

In memory the index keeps the file's layout: ``documents`` holds the
document ids and ``sentences`` the (document id, sentence id) refs of
every indexed sentence, both in reading order, and each term's postings
are a sorted, duplicate-free ``array('I')`` of positions in
``sentences``.  Arrays hold plain integers, so the garbage collector
never traverses them, and loading a file copies each posting list in one
step.  ``refs`` turns a posting list back into refs.

An index may also carry the ``CorpusFingerprint`` of the file it was
built from: its format and the ``sha256`` of its bytes.  With it a reader
that finds the same hash can build only the sentences it needs, in the
documents at the positions that hold them, because every other byte is
known to be what the index was built from.  Only the parsers find where
a document starts.  ``build_index`` leaves the fingerprint unset.

On-disk layout, all integers little-endian:

    magic      6 bytes   b"SEVIDX"
    version    u16       currently 4
    n_docs     u32
    docs       n_docs x (u16 + utf-8 doc id), in reading order
    counts     n_docs x u32: each document's count of indexed sentences
    sentences  sum(counts) x (u16 + utf-8 sentence id), in reading order
    n_terms    u32
    terms      n_terms x (u16 + utf-8 term, u32 count, count x u32 ref index)
    format     u16 + utf-8 corpus format ("conllu" or "jsonl"), empty when
               the index has no fingerprint
    sha256     32 bytes  digest of the corpus file, present when format is set
    digest     32 bytes  sha256 of every byte before it

Each document id is stored once.  Terms are sorted, so the same
documents in the same order always serialize to the same bytes.  The
digest is checked after the rest is read: a changed byte that still
reads as an index is refused, never loaded as another index.  A file of
an earlier version (1 had no fingerprint, 2 located documents by byte
offset, 3 repeated document ids in its refs) is refused with a request
to rebuild it.
"""

from __future__ import annotations

import struct
import sys
from array import array
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from .documents import Document
from .errors import InputError

if TYPE_CHECKING:  # pragma: no cover
    from .rules import Atom, Rule

MAGIC = b"SEVIDX"
VERSION = 4

Ref = tuple[str, str]  # (doc id, sentence id)


@dataclass(frozen=True)
class CorpusFingerprint:
    """The corpus file an index was built from."""

    format: str  # "conllu" or "jsonl"
    sha256: bytes  # digest of the file's bytes


@dataclass(frozen=True)
class InvertedIndex:
    postings: Mapping[str, array]  # term -> ids: positions in ``sentences``
    documents: tuple[str, ...] = ()  # doc ids, in reading order
    sentences: tuple[Ref, ...] = ()  # refs, in the order of their documents
    corpus: CorpusFingerprint | None = None

    def refs(self, term: str) -> tuple[Ref, ...]:
        return tuple(map(self.sentences.__getitem__, self.postings.get(term, ())))

    def __len__(self) -> int:
        return len(self.postings)


def index_term(field: str, value: str) -> str:
    """The index term for a ``surface`` or ``lemma`` value."""
    return f"surface:{value.lower()}" if field == "surface" else f"lemma:{value}"


def build_index(docs: Iterable[Document], workers: int = 1) -> InvertedIndex:
    """Index every token's lowercased surface and lemma, per sentence.

    ``docs`` is read once, in order, and no sentence is kept: sentence N
    is the N-th sentence read that has a token, so every posting list is
    built sorted.  ``workers`` is accepted for compatibility and ignored:
    the build is pure-Python work, which threads only slow down.
    """
    documents: list[str] = []
    refs: list[Ref] = []
    postings: dict[str, array] = {}
    for doc in docs:
        documents.append(doc.id)
        for sent in doc.sentences:
            if not sent.surfaces:
                continue
            ref_id = len(refs)
            refs.append((doc.id, sent.id))
            for surface, lemma in zip(sent.surfaces, sent.lemmas):
                for term in (index_term("surface", surface), index_term("lemma", lemma)):
                    ids = postings.get(term)
                    if ids is None:
                        postings[term] = array("I", (ref_id,))
                    elif ids[-1] != ref_id:
                        ids.append(ref_id)
    return InvertedIndex(postings=postings, documents=tuple(documents), sentences=tuple(refs))


def candidate_sentences(index: InvertedIndex, rule: Rule) -> set[Ref]:
    """A guaranteed superset of the sentences whose tokens can match the trigger.

    Each bracket of the trigger narrows the candidate set (a matching
    sentence must contain a token for every bracket); within a bracket,
    alternatives widen it, and each alternative is the intersection of
    the postings of its indexable atoms.
    """

    def atom_ids(atom: Atom) -> set[int]:
        return set().union(
            *(index.postings.get(index_term(atom.field, v), ()) for v in atom.values)
        )

    def branch_ids(branch: tuple[Atom, ...]) -> set[int]:
        return set.intersection(*(atom_ids(atom) for atom in branch if atom.indexable))

    ids = set.intersection(
        *(set().union(*map(branch_ids, pattern.branches)) for pattern in rule.trigger)
    )
    return {index.sentences[i] for i in ids}


def _u32s(ids: array) -> bytes:
    """``ids`` as little-endian u32 bytes, the file's spelling of an array."""
    if sys.byteorder == "big":
        ids = array("I", ids)
        ids.byteswap()
    return ids.tobytes()


def _string(text: str, what: str) -> bytes:
    """``text`` as u16 length + utf-8 bytes."""
    data = text.encode("utf-8")
    if len(data) > 0xFFFF:
        raise InputError(f"{what} too long to serialize: {text[:40]!r}...")
    return struct.pack("<H", len(data)) + data


def _counts(index: InvertedIndex) -> array:
    """Each document's count of refs, which must follow the order of ``documents``."""
    counts = array("I", bytes(4 * len(index.documents)))
    at = 0
    try:
        for doc_id, _ in index.sentences:
            while index.documents[at] != doc_id:
                at += 1
            counts[at] += 1
    except IndexError:
        raise InputError(f"index refs do not follow its document table at {doc_id!r}") from None
    return counts


def save_index(index: InvertedIndex, path) -> None:
    import hashlib  # loads OpenSSL, which commands that write no index need not pay for

    chunks: list[bytes] = [MAGIC, struct.pack("<HI", VERSION, len(index.documents))]
    chunks.extend(_string(doc_id, "identifier") for doc_id in index.documents)
    chunks.append(_u32s(_counts(index)))
    chunks.extend(_string(sent_id, "identifier") for _, sent_id in index.sentences)
    terms = sorted(index.postings)
    chunks.append(struct.pack("<I", len(terms)))
    for term in terms:
        ids = index.postings[term]
        chunks.append(_string(term, "term"))
        chunks.append(struct.pack("<I", len(ids)))
        chunks.append(_u32s(ids))
    corpus = index.corpus
    chunks.append(_string("" if corpus is None else corpus.format, "format"))
    if corpus is not None:
        chunks.append(corpus.sha256)
    data = b"".join(chunks)
    try:
        Path(path).write_bytes(data + hashlib.sha256(data).digest())
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}")


_TRUNCATED = "index file is truncated"
_NOT_UTF8 = "index file holds a string that is not UTF-8"


class _Reader:
    """The bytes of an index file, read in order; a read past the end is ``_TRUNCATED``."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def take(self, count: int) -> bytes:
        if self._pos + count > len(self._data):
            raise InputError(_TRUNCATED)
        chunk = self._data[self._pos : self._pos + count]
        self._pos += count
        return chunk

    def unpack(self, fmt: str) -> tuple:
        """The next values, laid out as the ``struct`` format ``fmt``."""
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def u32s(self, count: int) -> array:
        """The next ``count`` little-endian u32 values."""
        ids = array("I", self.take(4 * count))
        if sys.byteorder == "big":
            ids.byteswap()
        return ids

    def strings(self, count: int) -> list[str]:
        """The next ``count`` strings, each a u16 length and that many UTF-8 bytes.

        Each is checked whole before it is decoded, so a cut reads as
        ``_TRUNCATED`` even inside a character.
        """
        data, pos, size = self._data, self._pos, len(self._data)
        strings: list[str] = []
        try:
            for _ in range(count):
                start = pos + 2
                pos = start + (data[pos] | data[pos + 1] << 8)  # u16 length
                if pos > size:
                    raise InputError(_TRUNCATED)
                strings.append(data[start:pos].decode("utf-8"))
        except IndexError:  # the length itself is cut off
            raise InputError(_TRUNCATED)
        except UnicodeDecodeError:
            raise InputError(_NOT_UTF8)
        self._pos = pos
        return strings

    def done(self) -> bool:
        return self._pos == len(self._data)


def load_index(path) -> InvertedIndex:
    import hashlib

    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}")
    reader = _Reader(data)
    if reader.take(len(MAGIC)) != MAGIC:
        raise InputError(f"{path}: not an index file (bad magic)")
    version = reader.unpack("<H")[0]
    if version < VERSION:
        raise InputError(
            f"{path}: index version {version} predates version {VERSION}; "
            "rebuild the index with 'spacevents index'"
        )
    if version != VERSION:
        raise InputError(f"{path}: unsupported index version {version}")
    documents = tuple(reader.strings(reader.unpack("<I")[0]))
    counts = reader.u32s(len(documents))
    doc_of_ref = chain.from_iterable(map(repeat, documents, counts))
    sentences = tuple(zip(doc_of_ref, reader.strings(sum(counts))))
    postings: dict[str, array] = {}
    for _ in range(reader.unpack("<I")[0]):
        (term,) = reader.strings(1)
        ids = postings[term] = reader.u32s(reader.unpack("<I")[0])
        if ids and max(ids) >= len(sentences):
            raise InputError(f"{path}: posting references unknown ref")
    (fmt,) = reader.strings(1)
    corpus = CorpusFingerprint(format=fmt, sha256=reader.take(32)) if fmt else None
    digest = reader.take(32)
    if not reader.done():
        raise InputError(f"{path}: trailing bytes after index data")
    if hashlib.sha256(memoryview(data)[:-32]).digest() != digest:
        raise InputError(f"{path}: index file is corrupt")
    return InvertedIndex(postings=postings, documents=documents, sentences=sentences, corpus=corpus)
