#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that one seed gives byte-identical inputs, that a corrupted or
failed CLI invocation is counted as a failed operation, that the NER
counters are exact under thread switching, and that the metrics a real
run prints match BENCHMARK.json by name and unit.
Exits 0 when every check passes.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace

import corpora
import oracles
import run
from spans import CountingNer

GENERATORS = (corpora.scan_corpus, corpora.indexed_corpus, corpora.dedup_corpus)


def expect(condition, detail="") -> None:
    if not condition:
        raise AssertionError(detail)


def fingerprint(generator, work: Path, seed: int) -> str:
    work.mkdir(exist_ok=True)
    corpus = generator(work / f"{generator.__name__}-{seed}.txt", seed)
    return hashlib.sha256(corpus.path.read_bytes()).hexdigest()


def check_inputs_repeat(work: Path) -> None:
    for generator in GENERATORS:
        first = fingerprint(generator, work / "a", 7)
        expect(first == fingerprint(generator, work / "b", 7), f"{generator.__name__}: seed 7 differs")
        expect(first != fingerprint(generator, work / "a", 8), f"{generator.__name__}: ignores the seed")


def check_failures_counted(work: Path) -> None:
    corpus = corpora.dedup_corpus(work / "tiny.conllu", 3, n_docs=20)
    expected = oracles.dedup_records(corpus.path)
    ledger = run.Ledger()
    child = run.spawn(run.LAUNCHER, ["dedup", "--corpus", str(corpus.path)], work)
    ledger.check_cli("clean", child, expected)
    expect((ledger.attempted, ledger.failures) == (1, []), ledger.failures)

    lines = child.stdout.splitlines(keepends=True)
    record = json.loads(lines[0])
    record["split"] = "test" if record["split"] != "test" else "dev"
    corrupted = [json.dumps(record, separators=(",", ":")).encode() + b"\n", *lines[1:]]
    for label, stdout in (("changed record", b"".join(corrupted)),
                          ("missing record", b"".join(lines[1:])),
                          ("not JSON", child.stdout[:-5])):
        child.stdout = stdout
        before = len(ledger.failures)
        ledger.check_cli(label, child, expected)
        expect(len(ledger.failures) == before + 1, f"{label} was not counted as failed")

    missing = run.spawn(run.LAUNCHER, ["dedup", "--corpus", str(work / "absent.conllu")], work)
    ledger.check_cli("non-zero exit", missing, expected)
    expect(missing.exit_code == 1 and len(ledger.failures) == 4, ledger.failures)
    expect(ledger.attempted == 5)


def check_ner_counts_under_threads() -> None:
    """The NER wrapper runs on the CLI's worker threads; a lost update would break its totals."""
    sentences = [SimpleNamespace(id=f"s{i}") for i in range(50)]
    ner = CountingNer(lambda sentence: [sentence.id], {id(s): "d" for s in sentences})
    workers, rounds = 8, 50

    def work() -> None:
        for _ in range(rounds):
            for sentence in sentences:
                ner(sentence)

    threads = [threading.Thread(target=work) for _ in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    expect(not any(thread.is_alive() for thread in threads), "NER stress threads did not finish")
    total = workers * rounds * len(sentences)
    expect(ner.calls == ner.mentions == total, f"{ner.calls} calls, {ner.mentions} mentions, expected {total}")
    expect(len(ner.visited) == len(sentences))


def check_metric_names() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS))
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    expect(declared[0] == dict(run.END_TO_END))
    expect(declared[1] == {name: unit for name, unit, *_ in run.PER_LAYER})
    expect({m["name"]: m["better"] for m in bench["per_layer"]}
           == {name: better for name, _, better, *_ in run.PER_LAYER})
    for trace in (0, 1):
        argv = [sys.executable, str(run.HERE / "run.py"), "--workload", "dedup", "--seed", "1",
                "--seconds", "1", "--trace", str(trace)]
        done = subprocess.run(argv, capture_output=True, text=True, cwd=run.ROOT, timeout=180)
        expect(done.returncode == 0, done.stderr)
        result = json.loads(done.stdout.splitlines()[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"})
        expect(result["correct"] and result["failed"] == 0, result)
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(printed == declared[trace], f"trace {trace}: {sorted(printed)}")


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    sys.path.insert(0, str(run.SRC))
    try:
        check_inputs_repeat(work)
        print("ok: the same seed gives byte-identical inputs")
        check_failures_counted(work)
        print("ok: corrupted stdout and non-zero exits count as failed operations")
        check_ner_counts_under_threads()
        print("ok: NER counters lose no update under thread switching")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    check_metric_names()
    print("ok: printed metric names and units match BENCHMARK.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
