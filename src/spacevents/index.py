"""Field-tagged inverted index over sentences, with a small binary file format.

Terms are spelled by ``index_term``: ``surface:<lowercased form>`` and
``lemma:<lemma as written>``.  ``Rule`` guarantees every trigger
alternative an indexable atom (see ``rules``), so the postings of those
atoms bound the sentences a trigger can match, which is what lets
extraction skip almost the whole corpus.

In memory the index keeps the file's layout: ``sentences`` is the
sorted tuple of (document id, sentence id) refs of every indexed
sentence, and each term's postings are a sorted, duplicate-free
``array('I')`` of positions in that tuple.  Arrays hold plain integers,
so the garbage collector never traverses them, and loading a file copies
each posting list in one step.  ``refs`` turns a posting list back into
refs.

An index may also carry the ``CorpusFingerprint`` of the file it was
built from: its format, the ``sha256`` of its bytes, and the ids of its
documents in file order.  With it a reader that finds the same hash can
build only the sentences it needs, in the documents at the positions that
hold them, because every other byte is known to be what the index was
built from.  Only the parsers find where a document starts.
``build_index`` leaves the fingerprint unset.

On-disk layout, all integers little-endian:

    magic    6 bytes   b"SEVIDX"
    version  u16       currently 3
    n_refs   u32
    refs     n_refs x (u16 + utf-8 doc id, u16 + utf-8 sentence id)
    n_terms  u32
    terms    n_terms x (u16 + utf-8 term, u32 count, count x u32 ref index)
    format   u16 + utf-8 corpus format ("conllu" or "jsonl"), empty when
             the index has no fingerprint and the file ends here
    sha256   32 bytes  digest of the corpus file
    n_docs   u32
    docs     n_docs x (u16 + utf-8 doc id), in file order

Refs and terms are sorted by id, so the same corpus file always
serializes to the same bytes.  A file of an earlier version (1 had no
fingerprint, 2 located documents by byte offset) is refused with a
request to rebuild it.
"""

from __future__ import annotations

import struct
import sys
from array import array
from dataclasses import dataclass
from operator import attrgetter, lt
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from .documents import Document
from .errors import InputError

if TYPE_CHECKING:  # pragma: no cover
    from .rules import Atom, Rule

MAGIC = b"SEVIDX"
VERSION = 3

Ref = tuple[str, str]  # (doc id, sentence id)

_BY_ID = attrgetter("id")


@dataclass(frozen=True)
class CorpusFingerprint:
    """The corpus file an index was built from."""

    format: str  # "conllu" or "jsonl"
    sha256: bytes  # digest of the file's bytes
    documents: tuple[str, ...]  # doc ids, in file order


@dataclass(frozen=True)
class InvertedIndex:
    postings: Mapping[str, array]  # term -> ids: positions in ``sentences``
    sentences: tuple[Ref, ...] = ()
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

    ``docs`` is read once, in order, and no sentence is kept: postings
    are built on refs numbered in reading order, each document's sentences
    by id, then renumbered in ref order unless the documents came in id
    order.  ``workers`` is accepted for compatibility and ignored: the
    build is pure-Python work, which threads only slow down.
    """
    refs: list[Ref] = []
    postings: dict[str, array] = {}
    for doc in docs:
        for sent in sorted(doc.sentences, key=_BY_ID):
            if not sent.tokens:
                continue
            ref_id = len(refs)
            refs.append((doc.id, sent.id))
            for tok in sent.tokens:
                for term in (index_term("surface", tok.surface), index_term("lemma", tok.lemma)):
                    ids = postings.get(term)
                    if ids is None:
                        postings[term] = array("I", (ref_id,))
                    elif ids[-1] != ref_id:
                        ids.append(ref_id)
    if all(map(lt, refs, refs[1:])):
        return InvertedIndex(postings=postings, sentences=tuple(refs))
    sentences = sorted(set(refs))  # equal refs (a repeated document id) become one
    final = array("I", map({ref: i for i, ref in enumerate(sentences)}.__getitem__, refs))
    for term, ids in postings.items():
        ids = map(final.__getitem__, ids)
        postings[term] = array("I", sorted(ids if len(sentences) == len(refs) else set(ids)))
    return InvertedIndex(postings=postings, sentences=tuple(sentences))


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
    """``ids`` as little-endian u32 bytes, the file's spelling of a posting list."""
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


def save_index(index: InvertedIndex, path) -> None:
    chunks: list[bytes] = [MAGIC, struct.pack("<H", VERSION)]
    chunks.append(struct.pack("<I", len(index.sentences)))
    for doc_id, sent_id in index.sentences:
        chunks.append(_string(doc_id, "identifier"))
        chunks.append(_string(sent_id, "identifier"))
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
        chunks.append(struct.pack("<I", len(corpus.documents)))
        chunks.extend(_string(doc_id, "identifier") for doc_id in corpus.documents)
    try:
        Path(path).write_bytes(b"".join(chunks))
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

    def strings(self, count: int) -> list[str]:
        """The next ``count`` strings, each a u16 length and that many UTF-8 bytes.

        Each is checked whole before it is decoded, so a cut reads as
        ``_TRUNCATED`` even inside a character.  Equal strings share one
        ``str``, as the ids repeated across the ref table do.
        """
        data, pos, size = self._data, self._pos, len(self._data)
        decoded: dict[bytes, str] = {}
        strings: list[str] = []
        try:
            for _ in range(count):
                start = pos + 2
                pos = start + (data[pos] | data[pos + 1] << 8)  # u16 length
                if pos > size:
                    raise InputError(_TRUNCATED)
                raw = data[start:pos]
                text = decoded.get(raw)
                if text is None:
                    text = decoded[raw] = raw.decode("utf-8")
                strings.append(text)
        except IndexError:  # the length itself is cut off
            raise InputError(_TRUNCATED)
        except UnicodeDecodeError:
            raise InputError(_NOT_UTF8)
        self._pos = pos
        return strings

    def done(self) -> bool:
        return self._pos == len(self._data)


def load_index(path) -> InvertedIndex:
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
    refs = reader.strings(2 * reader.unpack("<I")[0])  # a doc id and a sentence id per ref
    sentences = tuple(zip(refs[::2], refs[1::2]))
    postings: dict[str, array] = {}
    for _ in range(reader.unpack("<I")[0]):
        (term,) = reader.strings(1)
        ids = array("I", reader.take(4 * reader.unpack("<I")[0]))
        if sys.byteorder == "big":
            ids.byteswap()
        if ids and max(ids) >= len(sentences):
            raise InputError(f"{path}: posting references unknown ref")
        postings[term] = ids
    corpus = None
    (fmt,) = reader.strings(1)
    if fmt:
        digest = reader.take(32)
        documents = tuple(reader.strings(reader.unpack("<I")[0]))
        corpus = CorpusFingerprint(format=fmt, sha256=digest, documents=documents)
    if not reader.done():
        raise InputError(f"{path}: trailing bytes after index data")
    return InvertedIndex(postings=postings, sentences=sentences, corpus=corpus)
