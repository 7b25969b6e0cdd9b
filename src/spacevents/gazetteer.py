"""Gazetteer NER for the space domain, merged with generic entity labels.

The domain entity types come from a hand-maintained dictionary of
spacecraft, launch vehicles, launch sites, and organizations.  Matching
is leftmost-longest over the token stream and case-insensitive, except
for short all-uppercase entries (acronyms of up to five characters)
which must match exactly; that keeps a press-agency abbreviation from
being read as a spacecraft name.

Generic labels (dates, organizations, ...) ride in on the tokens from
the upstream pipeline.  ``merge_ner`` gives the domain dictionary
priority: a generic mention survives only if it overlaps no domain
mention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .documents import Sentence, text_lines
from .errors import InputError, ParseError

ENTITY_TYPES = ("SPACECRAFT", "LAUNCH_VEHICLE", "LAUNCH_SITE", "ORGANIZATION")

ACRONYM_MAX_LEN = 5


@dataclass(frozen=True)
class GazetteerEntry:
    entity_type: str
    canonical: str
    alternates: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "alternates", tuple(self.alternates))
        if self.entity_type not in ENTITY_TYPES:
            raise InputError(f"unknown gazetteer entity type {self.entity_type!r}")
        if not self.canonical.split():
            raise InputError("gazetteer entry has an empty canonical form")
        if self.canonical in self.alternates:
            raise InputError(
                f"alternate duplicates canonical form: {self.canonical!r}"
            )
        for form in self.alternates:
            if not form.split():  # the tokens a matcher reads a form as
                raise InputError(f"gazetteer form {form!r} tokenizes to nothing")

    def forms(self) -> tuple[str, ...]:
        return (self.canonical, *self.alternates)


@dataclass(frozen=True, slots=True)
class Mention:
    sentence_id: str
    start: int
    end: int  # exclusive
    entity_type: str
    origin: str  # "domain", "generic", or "chunk"


def _is_acronym(form: str) -> bool:
    return len(form) <= ACRONYM_MAX_LEN and form.isupper()


class _TrieNode:
    __slots__ = ("children", "entries")

    def __init__(self) -> None:
        self.children: dict[str, _TrieNode] = {}
        # (entity type, original tokens, case sensitive), in insertion order
        self.entries: list[tuple[str, tuple[str, ...], bool]] = []


class GazetteerMatcher:
    """Token trie over folded forms; produced by ``compile_gazetteer``."""

    def __init__(self) -> None:
        self._root = _TrieNode()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _insert(self, entity_type: str, form: str) -> None:
        tokens = tuple(form.split())
        node = self._root
        for tok in tokens:
            node = node.children.setdefault(tok.lower(), _TrieNode())
        node.entries.append((entity_type, tokens, _is_acronym(" ".join(tokens))))
        self._size += 1

    def longest_match(
        self, surfaces: Sequence[str], folded: Sequence[str], start: int
    ) -> tuple[int, str] | None:
        """Longest entry matching at ``start``; returns (length, entity type)."""
        node = self._root
        best: tuple[int, str] | None = None
        i = start
        while i < len(folded):
            node = node.children.get(folded[i])
            if node is None:
                break
            i += 1
            for entity_type, original, case_sensitive in node.entries:
                if case_sensitive and tuple(surfaces[start:i]) != original:
                    continue
                best = (i - start, entity_type)
                break
        return best


def compile_gazetteer(entries: Iterable[GazetteerEntry]) -> GazetteerMatcher:
    matcher = GazetteerMatcher()
    for entry in entries:
        for form in entry.forms():
            matcher._insert(entry.entity_type, form)
    if not len(matcher):
        raise InputError("gazetteer is empty")
    return matcher


def read_gazetteer(source) -> list[GazetteerEntry]:
    """Read the TSV gazetteer format: type, canonical, pipe-joined alternates."""
    entries: list[GazetteerEntry] = []
    for line_no, line in enumerate(text_lines(source), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) not in (2, 3):
            raise ParseError(
                f"expected 2 or 3 tab-separated columns, got {len(cols)}", line=line_no
            )
        alternates = cols[2].split("|") if len(cols) == 3 else ()
        try:
            entries.append(
                GazetteerEntry(
                    entity_type=cols[0].strip(),
                    canonical=cols[1].strip(),
                    alternates=tuple(filter(None, map(str.strip, alternates))),
                )
            )
        except InputError as exc:
            raise ParseError(str(exc), line=line_no)
    return entries


def tag_sentence(sentence: Sentence, matcher: GazetteerMatcher) -> list[Mention]:
    """Non-overlapping, leftmost-longest domain mentions for one sentence."""
    surfaces = sentence.surfaces
    folded = [s.lower() for s in surfaces]
    mentions: list[Mention] = []
    i = 0
    while i < len(surfaces):
        hit = matcher.longest_match(surfaces, folded, i)
        if hit is None:
            i += 1
            continue
        length, entity_type = hit
        mentions.append(Mention(sentence.id, i, i + length, entity_type, "domain"))
        i += length
    return mentions


def generic_mentions(sentence: Sentence) -> list[Mention]:
    """Coalesce per-token generic NER labels into maximal same-label runs.

    ``O`` and missing labels both mean "no entity".
    """
    mentions: list[Mention] = []
    run_label: str | None = None
    run_start = 0
    for i, ner in enumerate(sentence.ners):
        label = ner if ner not in (None, "O", "") else None
        if label != run_label:
            if run_label is not None:
                mentions.append(Mention(sentence.id, run_start, i, run_label, "generic"))
            run_label = label
            run_start = i
    if run_label is not None:
        mentions.append(Mention(sentence.id, run_start, len(sentence), run_label, "generic"))
    return mentions


def merge_ner(
    domain: Sequence[Mention], generic: Sequence[Mention]
) -> list[Mention]:
    """Domain mentions always win; generic ones survive only off to the side."""
    kept = list(domain)
    for g in generic:
        clash = any(
            d.sentence_id == g.sentence_id and d.start < g.end and g.start < d.end
            for d in domain
        )
        if not clash:
            kept.append(g)
    return sorted(kept, key=lambda m: (m.sentence_id, m.start, m.end))


def ner_layer(
    matcher: GazetteerMatcher | None = None,
) -> Callable[[Sentence], list[Mention]]:
    """The merged mention layer as a per-sentence callable."""

    def tag(sentence: Sentence) -> list[Mention]:
        domain = tag_sentence(sentence, matcher) if matcher is not None else []
        return merge_ner(domain, generic_mentions(sentence))

    return tag
