"""Near-duplicate pooling and leak-free corpus splits.

Wire stories get reprinted with light edits, so the corpus is grouped
into pools of near-duplicates before any split is drawn.  Documents are
compared by cosine similarity over raw lowercased unigram counts
(punctuation-only tokens dropped); any pair whose similarity strictly
exceeds the threshold is forced into one pool, transitively, and a pool
always lands in a single split.  That makes memorizing a training
near-duplicate useless on dev or test.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .documents import Document
from .errors import InputError

DEFAULT_THRESHOLD = 0.90
DEFAULT_UNSEEN_FRACTION = 0.41


@dataclass(frozen=True)
class TermVector:
    doc_id: str
    counts: Mapping[str, int]
    norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "norm", math.sqrt(sum(c * c for c in self.counts.values())))


def term_vector(doc_id: str, surfaces: Iterable[str]) -> TermVector:
    """Raw lowercased unigram counts of a document's token ``surfaces``.

    Tokens without a single alphanumeric character (bare punctuation)
    are not counted; a document with nothing countable is an error
    because cosine similarity would be undefined for it.
    """
    counts: dict[str, int] = {}
    for surface, n in Counter(surfaces).items():
        term = surface.lower()
        if term == surface:
            term = surface  # keep the token's string rather than a copy of it
        if term.isalnum() or any(ch.isalnum() for ch in term):
            counts[term] = counts.get(term, 0) + n
    if not counts:
        raise InputError(f"document {doc_id!r} has no countable tokens")
    return TermVector(doc_id=doc_id, counts=counts)


def unigram_vector(doc: Document) -> TermVector:
    """``term_vector`` of the surfaces of ``doc``'s tokens."""
    return term_vector(doc.id, (tok.surface for sent in doc.sentences for tok in sent.tokens))


def cosine_similarity(a: TermVector, b: TermVector) -> float:
    if not a.counts or not b.counts:
        raise InputError("cosine similarity of an empty term vector is undefined")
    small, large = (a.counts, b.counts) if len(a.counts) <= len(b.counts) else (b.counts, a.counts)
    dot = sum(count * large.get(term, 0) for term, count in small.items())
    if dot == 0:
        return 0.0
    return dot / (a.norm * b.norm)


@dataclass(frozen=True)
class PoolAssignment:
    """Pool membership and, once drawn, the pool-level split assignment."""

    pool_of: Mapping[str, str]  # doc id -> pool id (lowest member doc id)
    split_of: Mapping[str, str]  # pool id -> split name
    threshold: float

    def split_for(self, doc_id: str, default: str = "unassigned") -> str:
        pool = self.pool_of.get(doc_id)
        if pool is None:
            return default
        return self.split_of.get(pool, default)

    def pools(self) -> dict[str, list[str]]:
        members: dict[str, list[str]] = defaultdict(list)
        for doc_id, pool_id in self.pool_of.items():
            members[pool_id].append(doc_id)
        return {pool: sorted(ids) for pool, ids in sorted(members.items())}


# Pruning compares against threshold - _PRUNE_MARGIN, so float rounding in
# a bound can only let a pair through to the exact cosine, never drop one.
_PRUNE_MARGIN = 1e-9


def _prefix(
    counts: Mapping[str, int], rank: Mapping[str, int], floor: float
) -> tuple[list[str], list[int]]:
    """A vector's prefix terms in global rank order, and the weight left at each.

    The prefix is the shortest leading run of terms (at least one) after
    which less than ``floor**2`` of the squared norm is left.  ``left[k]``
    is the exact squared weight of the vector's terms from prefix position
    ``k`` on, so ``left[-1]`` is what the prefix leaves out.
    """
    terms = sorted(counts, key=rank.__getitem__)
    remaining = sum(c * c for c in counts.values())
    limit = floor * floor * remaining
    left = [remaining]
    for term in terms:
        remaining -= counts[term] ** 2
        left.append(remaining)
        if remaining < limit:
            break
    return terms[: len(left) - 1], left


def pool_duplicates(
    docs: Sequence[Document], threshold: float = DEFAULT_THRESHOLD
) -> PoolAssignment:
    """Group documents into near-duplicate pools: ``pool_vectors`` of their unigram vectors."""
    return pool_vectors([unigram_vector(doc) for doc in docs], threshold)


def pool_vectors(
    vectors: Sequence[TermVector], threshold: float = DEFAULT_THRESHOLD
) -> PoolAssignment:
    """Group documents, given as term vectors, into near-duplicate pools (transitive closure).

    Every pair that can still exceed the threshold is decided by
    ``cosine_similarity(a, b) > threshold``, so the pools equal those of
    scoring all pairs.  The rest are pruned with the L2 prefix bounds of
    L2AP (Anastasiu & Karypis, ICDE 2014), which refine the prefix filter
    of AllPairs (Bayardo, Ma & Srikant, WWW 2007).  With ``t = threshold
    - margin`` and terms ranked rarest first (document frequency, then the
    term itself):

    * A vector's prefix is its shortest leading run of terms whose
      left-over squared weight is below ``t**2 * |x|**2``.  If two
      vectors share no prefix term, all their shared terms lie past the
      prefix of one of them, so by Cauchy-Schwarz their cosine is below
      ``t``.  Only prefix terms are indexed and probed.
    * The dot product of a candidate pair is what its shared prefix terms
      contribute plus at most ``|x_>r| * |y_>r|``, the norms of both
      vectors' terms ranked after ``r``, the earlier of the two prefix
      ends.  A pair whose bound is below ``t * |x| * |y|`` is skipped.

    The bounds use exact integer sums of squared counts, and the margin
    (``_PRUNE_MARGIN``) is far wider than the float rounding in comparing
    them, so a pair is pruned only when its exact cosine is below ``t``.
    """
    if not 0.0 < threshold <= 1.0:
        raise InputError(f"threshold must be in (0, 1], got {threshold}")
    ids = [v.doc_id for v in vectors]
    if len(set(ids)) != len(ids):
        raise InputError("duplicate document ids in corpus")

    parent = list(range(len(vectors)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    df: Counter[str] = Counter()
    for vec in vectors:
        df.update(vec.counts.keys())
    rank = {term: r for r, term in enumerate(sorted(df, key=lambda term: (df[term], term)))}
    del df
    floor = max(threshold - _PRUNE_MARGIN, 0.0)
    # prefix term -> [vector, count, vector, count, ...], flat to stay small
    index: dict[str, list[int]] = defaultdict(list)
    tails: list[tuple[list[int], list[int]]] = []  # per vector: prefix ranks, weight left
    for i, vec in enumerate(vectors):
        terms, left = _prefix(vec.counts, rank, floor)
        ranks = [rank[term] for term in terms]
        shared: dict[int, int] = defaultdict(int)  # vector -> dot over shared prefix terms
        for term in terms:
            weight = vec.counts[term]
            postings = iter(index.get(term, ()))
            for j, count in zip(postings, postings):
                shared[j] += weight * count
        for j, dot in shared.items():
            if find(i) == find(j):
                continue
            other_ranks, other_left = tails[j]
            r = min(ranks[-1], other_ranks[-1])
            # squared weight ranked after r, in each vector
            after = left[bisect_right(ranks, r)]
            other_after = other_left[bisect_right(other_ranks, r)]
            if dot + math.sqrt(after * other_after) < floor * vec.norm * vectors[j].norm:
                continue
            if cosine_similarity(vec, vectors[j]) > threshold:
                union(i, j)
        for term in terms:
            index[term] += (i, vec.counts[term])
        tails.append((ranks, left))

    groups: dict[int, list[str]] = defaultdict(list)
    for i, doc_id in enumerate(ids):
        groups[find(i)].append(doc_id)
    pool_of = {}
    for members in groups.values():
        pool_id = min(members)
        for doc_id in members:
            pool_of[doc_id] = pool_id
    return PoolAssignment(pool_of=pool_of, split_of={}, threshold=threshold)


def assign_splits(
    assignment: PoolAssignment,
    docs: Sequence[Document],
    unseen_fraction: float = DEFAULT_UNSEEN_FRACTION,
) -> PoolAssignment:
    """Assign every pool to train/dev/test, newest pools held out.

    Of each document only its ``id`` and ``collected_at`` are read.

    Pools are ordered by their newest member, keyed on collected_at
    (ISO order) with the document id as fallback, so the held-out data
    is drawn from the most recently collected material.  Walking from
    the newest pool down, whole pools are held out until they cover
    round(unseen_fraction * corpus size) documents; held-out pools then
    alternate dev, test, dev, ... and the rest is train.
    """
    if not 0.0 < unseen_fraction <= 1.0:
        raise InputError(f"unseen fraction must be in (0, 1], got {unseen_fraction}")
    docs_by_id = {doc.id: doc for doc in docs}

    def doc_key(doc_id: str) -> tuple[str, str]:
        doc = docs_by_id.get(doc_id)
        collected = ""
        if doc is not None and doc.collected_at is not None:
            collected = doc.collected_at.isoformat()
        return (collected, doc_id)

    members = assignment.pools()
    ordered = sorted(members, key=lambda p: max(doc_key(d) for d in members[p]))

    total = len(assignment.pool_of)
    target = math.floor(total * unseen_fraction + 0.5)
    split_of: dict[str, str] = {}
    held_out: list[str] = []
    covered = 0
    for pool_id in reversed(ordered):  # newest first
        if covered < target:
            held_out.append(pool_id)
            covered += len(members[pool_id])
        else:
            split_of[pool_id] = "train"
    for k, pool_id in enumerate(held_out):
        split_of[pool_id] = "dev" if k % 2 == 0 else "test"
    return PoolAssignment(
        pool_of=assignment.pool_of, split_of=split_of, threshold=assignment.threshold
    )
