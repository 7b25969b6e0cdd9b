import math
import random
from datetime import date, timedelta

import pytest

import spacevents.dedup
from spacevents import (
    Document,
    TermVector,
    assign_splits,
    cosine_similarity,
    pool_duplicates,
    unigram_vector,
)
from spacevents.dedup import DEFAULT_THRESHOLD, DEFAULT_UNSEEN_FRACTION, PoolAssignment
from spacevents.errors import InputError

from helpers import brute_force_pools, dedup_corpus, make_sentence


def _doc(doc_id, words, collected=None):
    rows = [(words[0], words[0], "X", -1, "root")]
    rows += [(w, w, "X", 0, "dep") for w in words[1:]]
    return Document(
        id=doc_id,
        sentences=(make_sentence("s", rows),),
        collected_at=collected,
    )


def _chain_docs():
    # da/db and db/dc overlap in 19 of 20 unit-count terms (cosine 0.95);
    # da/dc overlap in 18 (cosine 0.90, not strictly above the threshold).
    words = [f"w{i:02d}" for i in range(1, 23)]
    return [
        _doc("da", words[0:20]),
        _doc("db", words[1:21]),
        _doc("dc", words[2:22]),
    ]


def test_unigram_vector_counts_and_filters():
    doc = _doc("d", ["The", "the", "Proton-M", ".", ","])
    vec = unigram_vector(doc)
    assert vec.doc_id == "d"
    assert vec.counts == {"the": 2, "proton-m": 1}


def test_unigram_vector_rejects_uncountable_document():
    with pytest.raises(InputError, match="no countable tokens"):
        unigram_vector(_doc("d", [".", ",", "!"]))


def test_cosine_identical_disjoint_and_mixed():
    a = TermVector("a", {"x": 1, "y": 2})
    b = TermVector("b", {"x": 1, "y": 1})
    disjoint = TermVector("c", {"z": 3})
    assert cosine_similarity(a, a) == pytest.approx(1.0)
    assert cosine_similarity(a, disjoint) == 0.0
    assert cosine_similarity(a, b) == pytest.approx(3 / math.sqrt(10))
    assert cosine_similarity(a, b) == pytest.approx(0.9486832980505138)
    assert cosine_similarity(a, b) == cosine_similarity(b, a)


def test_cosine_rejects_empty_vector():
    with pytest.raises(InputError, match="empty term vector"):
        cosine_similarity(TermVector("a", {}), TermVector("b", {"x": 1}))


def test_chain_of_near_duplicates_pools_transitively():
    docs = _chain_docs()
    assignment = pool_duplicates(docs, threshold=0.9)
    # da~dc alone is exactly at the threshold and must NOT pool, but the
    # shared neighbour db pulls all three together.
    assert assignment.pool_of == {"da": "da", "db": "da", "dc": "da"}
    ends_only = pool_duplicates([docs[0], docs[2]], threshold=0.9)
    assert ends_only.pool_of == {"da": "da", "dc": "dc"}


def test_pool_id_is_lowest_member_id():
    docs = _chain_docs()
    renamed = [
        Document(id=new_id, sentences=doc.sentences)
        for new_id, doc in zip(["z9", "m5", "a1"], docs)
    ]
    assignment = pool_duplicates(renamed, threshold=0.9)
    assert set(assignment.pool_of.values()) == {"a1"}


def test_threshold_validation():
    docs = _chain_docs()
    for bad in (0.0, -0.5, 1.0001, 2.0):
        with pytest.raises(InputError, match="threshold"):
            pool_duplicates(docs, threshold=bad)


def test_threshold_one_keeps_identical_documents_apart():
    words = [f"w{i}" for i in range(20)]
    docs = [_doc("d1", words), _doc("d2", words)]
    assert pool_duplicates(docs, threshold=1.0).pool_of == {"d1": "d1", "d2": "d2"}
    assert pool_duplicates(docs, threshold=0.9).pool_of == {"d1": "d1", "d2": "d1"}


def test_duplicate_document_ids_rejected():
    doc = _doc("d", ["a", "b"])
    with pytest.raises(InputError, match="duplicate document ids"):
        pool_duplicates([doc, doc])


def test_documents_without_shared_terms_stay_singletons():
    docs = [_doc(f"d{i}", [f"u{i}a", f"u{i}b"]) for i in range(5)]
    assignment = pool_duplicates(docs)
    assert assignment.pool_of == {f"d{i}": f"d{i}" for i in range(5)}
    assert assignment.threshold == DEFAULT_THRESHOLD


def test_pools_match_brute_force_on_random_corpora():
    for seed in (11, 42, 303, 3, 17, 29):
        docs = dedup_corpus(random.Random(seed), 60)
        for threshold in (0.5, 0.9, 0.99, 1.0):
            assignment = pool_duplicates(docs, threshold=threshold)
            expected_pools, pairs = brute_force_pools(docs, threshold)
            assert assignment.pool_of == expected_pools
            # every above-threshold pair really shares a pool
            for left, right in pairs:
                assert assignment.pool_of[left] == assignment.pool_of[right]


def test_assign_splits_alternates_newest_first():
    docs = [
        _doc(f"d{i}", [f"w{i}", "shared"], collected=date(2020, 1, 1) + timedelta(days=i))
        for i in range(10)
    ]
    pooled = pool_duplicates(docs, threshold=0.9999)
    assert len(set(pooled.pool_of.values())) == 10
    assignment = assign_splits(pooled, docs, unseen_fraction=0.4)
    expected = {
        "d9": "dev",
        "d8": "test",
        "d7": "dev",
        "d6": "test",
        **{f"d{i}": "train" for i in range(6)},
    }
    assert {d: assignment.split_for(d) for d in expected} == expected


def test_assign_splits_orders_by_id_without_dates():
    docs = [_doc(f"d{i}", [f"w{i}", "shared"]) for i in range(4)]
    pooled = pool_duplicates(docs, threshold=0.9999)
    assignment = assign_splits(pooled, docs, unseen_fraction=0.5)
    assert assignment.split_for("d3") == "dev"
    assert assignment.split_for("d2") == "test"
    assert assignment.split_for("d1") == "train"
    assert assignment.split_for("d0") == "train"


def test_assign_splits_holds_out_whole_pools():
    chain = _chain_docs()
    chain = [
        Document(
            id=doc.id,
            sentences=doc.sentences,
            collected_at=date(2021, 1, 1 + i),
        )
        for i, doc in enumerate(chain)
    ]
    singles = [
        _doc("s1", ["q1", "q2"], collected=date(2020, 1, 1)),
        _doc("s2", ["q3", "q4"], collected=date(2020, 1, 2)),
    ]
    docs = chain + singles
    assignment = assign_splits(pool_duplicates(docs), docs, unseen_fraction=0.2)
    # target is 1 document, but the newest pool has three members; the
    # whole pool goes to dev rather than splitting it.
    assert [assignment.split_for(d.id) for d in chain] == ["dev", "dev", "dev"]
    assert assignment.split_for("s1") == "train"
    assert assignment.split_for("s2") == "train"


def test_pool_members_always_share_a_split():
    rng = random.Random(7)
    docs = dedup_corpus(rng, 40)
    assignment = assign_splits(pool_duplicates(docs), docs)
    by_pool = assignment.pools()
    for members in by_pool.values():
        splits = {assignment.split_for(d) for d in members}
        assert len(splits) == 1
        assert splits <= {"train", "dev", "test"}


def test_unseen_fraction_validation_and_default():
    docs = [_doc("d0", ["a"]), _doc("d1", ["b"])]
    pooled = pool_duplicates(docs)
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(InputError, match="unseen fraction"):
            assign_splits(pooled, docs, unseen_fraction=bad)
    assert 0.0 < DEFAULT_UNSEEN_FRACTION <= 1.0


def test_split_for_default_and_pools_listing():
    docs = _chain_docs()
    assignment = pool_duplicates(docs, threshold=0.9)
    assert assignment.split_for("missing") == "unassigned"
    assert assignment.split_for("missing", default="train") == "train"
    # pooled but no splits drawn yet
    assert assignment.split_for("da") == "unassigned"
    assert assignment.pools() == {"da": ["da", "db", "dc"]}


def test_pools_lists_each_pool_and_its_members_sorted():
    pool_of = {"d3": "d1", "d2": "d2", "d4": "d1", "d0": "d0", "d1": "d1"}
    pools = PoolAssignment(pool_of=pool_of, split_of={}, threshold=0.9).pools()
    assert list(pools.items()) == [("d0", ["d0"]), ("d1", ["d1", "d3", "d4"]), ("d2", ["d2"])]


def test_term_vector_norm_matches_recomputed_value():
    vectors = [TermVector("h", {"x": 1, "y": 2}), TermVector("e", {})]
    vectors += [unigram_vector(doc) for doc in dedup_corpus(random.Random(5), 20)]
    for vec in vectors:
        assert vec.norm == math.sqrt(sum(c * c for c in vec.counts.values()))


def test_threshold_equal_to_a_pairs_cosine_keeps_it_apart():
    # Strict ">" at the boundary: the pruning margin must never drop a pair
    # whose exact cosine sits one ulp above the threshold.
    docs = dedup_corpus(random.Random(13), 30)
    vectors = [unigram_vector(doc) for doc in docs]
    checked = 0
    for i, a in enumerate(vectors):
        for j in range(i + 1, len(vectors)):
            c = cosine_similarity(a, vectors[j])
            if c <= 0.5:
                continue
            pair = [docs[i], docs[j]]
            apart = pool_duplicates(pair, threshold=c).pool_of
            assert apart == {a.doc_id: a.doc_id, vectors[j].doc_id: vectors[j].doc_id}
            joined = pool_duplicates(pair, threshold=math.nextafter(c, 0)).pool_of
            assert set(joined.values()) == {min(a.doc_id, vectors[j].doc_id)}
            checked += 1
    assert checked >= 5, "corpus generator drifted: too few similar pairs"


def test_pooling_scores_fewer_pairs_than_all(monkeypatch):
    # Pairs are scored through the module attribute, so a wrapper counts them.
    scored = []
    original = spacevents.dedup.cosine_similarity

    def counting(a, b):
        scored.append((a.doc_id, b.doc_id))
        return original(a, b)

    monkeypatch.setattr(spacevents.dedup, "cosine_similarity", counting)
    docs = dedup_corpus(random.Random(42), 60)
    assignment = pool_duplicates(docs, threshold=0.9)
    assert assignment.pool_of == brute_force_pools(docs, 0.9)[0]
    assert 0 < len(scored) < len(docs) * (len(docs) - 1) // 2 // 2
