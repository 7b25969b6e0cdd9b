#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``spacevents`` CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload extract-scan --seed 1 --seconds 38 --trace 0

The harness generates its input corpora from ``--seed``, computes each
workload's expected output with an oracle that avoids the measured path,
and then runs the CLI from this checkout's ``src/`` as a child process.

``--trace 0`` times the CLI: the set-up a user pays once per corpus and
the measured command, alternating for ``--seconds``.  Every invocation's
exit code and stdout are checked against the oracle.  ``--trace 1`` runs the
same library calls in-process, untraced and then traced with a span
around each call, and reports per-layer times and counts.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it are a readable report
and a JSON record with sample counts, input fingerprints and run
metadata.  Only the harness's own child processes are measured: it
cannot drop the page cache, pin CPUs or change machine settings, so
other load on the machine shows up as noise.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import corpora
import oracles
from spans import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# Imports the CLI from the checkout's src/ and reports which file it loaded
# on stderr before handing over to the console entry point.
LAUNCHER = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); import spacevents, spacevents.cli; "
    "sys.stderr.write('perfbench-import ' + spacevents.__file__ + '\\n'); "
    "spacevents.cli.console_main()"
)
# Interpreter start plus importing the CLI: the cli.startup_s probe.
PROBE = "import sys; sys.path.insert(0, sys.argv.pop(1)); import spacevents.cli"

CHILD_TIMEOUT_S = 160  # a child running longer is killed and counted as failed
RUN_BUDGET_S = 120  # no new sample starts after this much of the run has passed
STARTUP_REPS = 25  # start-up probes of a traced run
# Set-up samples taken before each command sample: start-up is short, building the index is not.
STARTUP_PER_COMMAND = 3
INDEX_PER_COMMAND = 1

END_TO_END = (
    ("cpu_s", "s"),
    ("sentences_per_cpu_s", "sentences/cpu-s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)
# Printed in the report but not bounded: on a shared virtual machine the
# hypervisor takes CPU time away in spells of minutes, which moves wall
# time by up to 75% between runs.  The child's CPU time excludes stolen
# time and moves far less.
WALL_TIME = (
    ("wall_s", "s"),
    ("sentences_per_s", "sentences/s"),
)

# (name, unit, better, the end-to-end metric it should move, on which workloads)
PER_LAYER = (
    ("matching.self_s", "s", "lower", "cpu_s, sentences_per_cpu_s", "extract-scan (about 80%); no change on extract-indexed"),
    ("matching.sentences_visited", "count", "lower", "cpu_s, sentences_per_cpu_s", "extract-scan"),
    ("matching.events", "count", "higher", "none: fixed by the oracle", "extract-scan, extract-indexed"),
    ("matching.hit_ratio", "fraction", "higher", "cpu_s, sentences_per_cpu_s", "extract-scan"),
    ("gazetteer.tag_s", "s", "lower", "cpu_s", "extract-scan (about 3%); a few hundred calls on extract-indexed"),
    ("gazetteer.sentences_tagged", "count", "lower", "cpu_s", "extract-scan"),
    ("gazetteer.mentions", "count", "higher", "none: fixed by the input", "extract-scan"),
    ("documents.parse_s", "s", "lower", "cpu_s, setup_s, peak_rss_mb", "all; about 90% of extract-indexed"),
    ("documents.sentences", "count", "higher", "none: input size", "all"),
    ("documents.tokens", "count", "higher", "none: input size", "all"),
    ("documents.input_mb", "MiB", "lower", "none: input size", "all"),
    ("index.build_s", "s", "lower", "setup_s", "extract-indexed"),
    ("index.save_s", "s", "lower", "setup_s", "extract-indexed"),
    ("index.file_mb", "MiB", "lower", "setup_s", "extract-indexed"),
    ("index.terms", "count", "lower", "setup_s", "extract-indexed"),
    ("index.load_s", "s", "lower", "cpu_s", "extract-indexed"),
    ("index.candidate_s", "s", "lower", "cpu_s", "extract-indexed"),
    ("index.candidates", "count", "lower", "cpu_s", "extract-indexed"),
    ("index.candidate_precision", "fraction", "higher", "cpu_s", "extract-indexed"),
    ("dedup.pool_s", "s", "lower", "cpu_s", "dedup only"),
    ("dedup.split_s", "s", "lower", "cpu_s", "dedup only"),
    ("dedup.docs", "count", "higher", "none: input size", "dedup only"),
    ("dedup.pools", "count", "higher", "none: fixed by the oracle", "dedup only"),
    ("dedup.pairs_possible", "count", "higher", "none: input size", "dedup only"),
    ("dedup.pairs_scored", "count", "lower", "cpu_s", "dedup only"),
    ("rules.parse_s", "s", "lower", "setup_s", "extract-scan"),
    ("rules.count", "count", "higher", "none: packaged rules", "extract-scan, extract-indexed"),
    ("gazetteer.compile_s", "s", "lower", "setup_s", "extract-scan"),
    ("cli.startup_s", "s", "lower", "setup_s", "extract-scan, dedup"),
    ("cli.emit_s", "s", "lower", "cpu_s", "all"),
    ("cli.cpu_s", "s", "lower", "cpu_s (may rise while cli.wall_s falls under parallelism)", "all"),
    ("cli.wall_s", "s", "lower", "none: wall time, not bounded because host steal moves it", "all"),
    ("cli.unaccounted_s", "s", "lower", "cli.wall_s", "all"),
    ("trace.overhead_s", "s", "lower", "none", "all"),
)

# Span name (below the given phase) whose duration or self time is each timing metric.
SPAN_METRICS = {
    "documents.parse_s": ("duration", "documents.parse", "command"),
    "rules.parse_s": ("duration", "rules.parse", "command"),
    "gazetteer.compile_s": ("duration", "gazetteer.compile", "command"),
    "gazetteer.tag_s": ("duration", "gazetteer.tag", "command"),
    "index.build_s": ("duration", "index.build", "setup"),
    "index.save_s": ("duration", "index.save", "setup"),
    "index.load_s": ("duration", "index.load", "command"),
    "index.candidate_s": ("duration", "index.candidates", "command"),
    "matching.self_s": ("self", "matching.extract", "command"),
    "dedup.pool_s": ("duration", "dedup.pool", "command"),
    "dedup.split_s": ("duration", "dedup.split", "command"),
    "cli.emit_s": ("duration", "cli.emit", "command"),
}


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Prepared:
    """One workload's generated corpus, CLI invocations, expected outputs and in-process calls."""

    corpus: corpora.Corpus
    setup_args: list[str]
    setup_expected: list[dict]
    command_args: list[str]
    expected: list[dict]
    command: Callable  # tracer -> (stdout, counts function): the command's library calls
    setup: Callable | None = None  # tracer -> counts function: the set-up's, when not start-up


WORKLOADS = ("extract-scan", "extract-indexed", "dedup")


def prepare(workload: str, seed: int, work: Path) -> Prepared:
    import pipelines

    if workload == "extract-scan":
        corpus = corpora.scan_corpus(work / "scan.conllu", seed)
        one = work / "scan-one.conllu"
        one.write_text(corpus.first_doc, encoding="utf-8")
        expected = oracles.indexed_extraction(corpus.path, pipelines.packaged("reference.rules"),
                                              pipelines.packaged("gazetteer.tsv"))
        first_id = corpus.first_doc.split("\n", 1)[0].split("= ", 1)[1]
        return Prepared(corpus, ["extract", "--corpus", str(one)],
                        [r for r in expected if r["doc_id"] == first_id],
                        ["extract", "--corpus", str(corpus.path)], expected,
                        lambda tracer: pipelines.extract_command(tracer, corpus.path))
    if workload == "extract-indexed":
        corpus = corpora.indexed_corpus(work / "archive.jsonl", seed)
        index, own_index = work / "archive.idx", work / "in-process.idx"
        return Prepared(corpus, ["index", "--corpus", str(corpus.path), "--index", str(index)], [],
                        ["extract", "--corpus", str(corpus.path), "--index", str(index)],
                        corpus.planted,
                        lambda tracer: pipelines.extract_command(tracer, corpus.path, own_index),
                        lambda tracer: pipelines.index_setup(tracer, corpus.path, own_index))
    if workload == "dedup":
        corpus = corpora.dedup_corpus(work / "wire.conllu", seed)
        one = work / "wire-one.conllu"
        one.write_text(corpus.first_doc, encoding="utf-8")
        return Prepared(corpus, ["dedup", "--corpus", str(one)], oracles.dedup_records(one),
                        ["dedup", "--corpus", str(corpus.path)], oracles.dedup_records(corpus.path),
                        lambda tracer: pipelines.dedup_command(tracer, corpus.path))
    raise ValueError(workload)


def in_process(prepared: Prepared, tracer) -> tuple[str, dict, float, float]:
    """The workload's set-up and command as library calls: (stdout, counts, setup s, command s).

    Each timer stops before the layers are counted and before the call's
    objects are freed, so traced and untraced times cover the same work.
    """
    facts: dict = {}
    setup_s = 0.0
    if prepared.setup is not None:
        start = time.perf_counter()
        counts = prepared.setup(tracer)
        setup_s = time.perf_counter() - start
        facts.update(counts())
        del counts  # frees the set-up's objects before the command runs
    start = time.perf_counter()
    text, counts = prepared.command(tracer)
    command_s = time.perf_counter() - start
    facts.update(counts())
    return text, facts, setup_s, command_s


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mib: float
    exit_code: int
    stdout: bytes
    stderr: str


def spawn(code: str, args: list[str], work: Path) -> Child:
    """Run ``python -c code SRC args...``; time it from spawn to exit and reap it with wait4."""
    out_path, err_path = work / "child.stdout", work / "child.stderr"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code, str(SRC), *args],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=work)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mib=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        exit_code=proc.returncode,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


class Ledger:
    """Every checked operation of a run, and why the failed ones failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.imported: set[str] = set()

    def check_cli(self, label: str, child: Child, expected: list[dict]) -> None:
        lines = child.stderr.splitlines()
        marker = "perfbench-import "
        imported = lines[0][len(marker):] if lines and lines[0].startswith(marker) else None
        self.imported.add(str(imported))
        if child.exit_code != 0:
            self._record(label, f"exit code {child.exit_code}: {' | '.join(lines[-3:])}")
        elif imported != str(SRC / "spacevents" / "__init__.py"):
            self._record(label, f"imported spacevents from {imported}, not from {SRC}")
        else:
            self._record(label, oracles.check_output(child.stdout, expected))

    def check_text(self, label: str, text: str, expected: list[dict]) -> None:
        self._record(label, oracles.check_output(text.encode("utf-8"), expected))

    def _record(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(f"{label}: {problem}")


def median_tail(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile with at least ten samples beyond it."""
    summary: dict = {"median": statistics.median(samples), "samples": len(samples)}
    for pct in (99.9, 99, 90):
        if len(samples) * (100 - pct) / 100 >= 10:
            ranked = sorted(samples)
            summary[f"p{pct:g}"] = ranked[min(len(ranked) - 1, math.ceil(len(ranked) * pct / 100) - 1)]
            break
    return summary


# ---------------------------------------------------------------------------
# the two kinds of run


def measure_cli(prepared: Prepared, seconds: int, work: Path, ledger: Ledger,
                started: float) -> tuple[dict, dict]:
    # Set-up and command samples alternate over the whole run, so that both
    # medians span the same window and a slow spell of the host weighs on
    # both alike.  A cycle starts if one of median length would end nearer
    # the end of the window than stopping now does.
    per_command = STARTUP_PER_COMMAND if prepared.setup is None else INDEX_PER_COMMAND
    setup_walls: list[float] = []
    walls: list[float] = []
    rss: list[float] = []
    cpu: list[float] = []
    cycles: list[float] = []
    loop_start = time.perf_counter()
    while not cycles or (time.perf_counter() - loop_start + statistics.median(cycles) / 2 <= seconds
                         and time.perf_counter() - started < RUN_BUDGET_S):
        cycle_start = time.perf_counter()
        for _ in range(per_command):
            child = spawn(LAUNCHER, prepared.setup_args, work)
            ledger.check_cli(f"setup {len(setup_walls)}", child, prepared.setup_expected)
            setup_walls.append(child.wall_s)
        child = spawn(LAUNCHER, prepared.command_args, work)
        ledger.check_cli(f"command {len(walls)}", child, prepared.expected)
        walls.append(child.wall_s)
        rss.append(child.rss_mib)
        cpu.append(child.cpu_s)
        cycles.append(time.perf_counter() - cycle_start)
    cpu_time, wall = median_tail(cpu), median_tail(walls)
    sentences = prepared.corpus.sentences
    metrics = {
        "cpu_s": cpu_time["median"],
        "sentences_per_cpu_s": sentences / cpu_time["median"],
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup_walls),
    }
    detail = {
        "cpu_s": cpu_time,
        "sentences_per_cpu_s": {"median": metrics["sentences_per_cpu_s"], "samples": len(cpu),
                                "sentences": sentences},
        "peak_rss_mb": {"median": metrics["peak_rss_mb"], "samples": len(rss)},
        "setup_s": median_tail(setup_walls),
        "wall_s": wall,
        "sentences_per_s": {"median": sentences / wall["median"], "samples": len(walls),
                            "sentences": sentences},
        "cpu_samples_s": cpu,
        "wall_samples_s": walls,
        "setup_samples_s": setup_walls,
    }
    return metrics, detail


def measure_layers(prepared: Prepared, seconds: int, work: Path, ledger: Ledger, started: float,
                   run_id: str) -> tuple[dict, dict]:
    startup = [spawn(PROBE, [], work).wall_s for _ in range(STARTUP_REPS)]
    child = spawn(LAUNCHER, prepared.setup_args, work)
    ledger.check_cli("setup", child, prepared.setup_expected)

    # Each repetition runs the CLI command, then the same calls in-process
    # untraced, then traced; every figure is the median over repetitions.
    reps: list[dict] = []
    tracer = None
    durations: list[float] = []
    loop_start = time.perf_counter()
    while not reps or (time.perf_counter() - loop_start + statistics.median(durations) <= seconds
                       and time.perf_counter() - started < RUN_BUDGET_S):
        rep_start = time.perf_counter()
        child = spawn(LAUNCHER, prepared.command_args, work)
        ledger.check_cli(f"command {len(reps)}", child, prepared.expected)
        gc.collect()
        text, _, plain_setup, plain_command = in_process(prepared, NullTracer())
        ledger.check_text(f"in-process untraced {len(reps)}", text, prepared.expected)
        gc.collect()
        tracer = Tracer(run_id)
        with tracer.span("run"):
            text, facts, traced_setup, traced_command = in_process(prepared, tracer)
        ledger.check_text(f"in-process traced {len(reps)}", text, prepared.expected)
        rep = {name: 0 for name, *_ in PER_LAYER}
        rep.update(facts)
        for name, (kind, span, phase) in SPAN_METRICS.items():
            rep[name] = (tracer.self_time if kind == "self" else tracer.duration)(span, under=phase)
        rep["cli.startup_s"] = statistics.median(startup)
        rep["cli.cpu_s"] = child.cpu_s
        rep["cli.wall_s"] = child.wall_s
        rep["cli.unaccounted_s"] = child.wall_s - plain_command
        rep["trace.overhead_s"] = (traced_setup + traced_command) - (plain_setup + plain_command)
        reps.append(rep)
        durations.append(time.perf_counter() - rep_start)
    metrics = {name: statistics.median(rep[name] for rep in reps) for name, *_ in PER_LAYER}
    detail = {"repetitions": len(reps), "startup_samples_s": startup, "trace": tracer.dump()}
    return metrics, detail


# ---------------------------------------------------------------------------
# reporting


def steal_s() -> float | None:
    """CPU time the hypervisor gave to other guests since boot, all CPUs; None if unknown."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def git_sha(root: Path) -> str | None:
    """The checked-out commit; None when ``root`` is not a git work tree or git is missing."""
    # The ceiling stops git from finding a repository that merely contains the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def report_lines(workload: str, seed: int, trace: int, metrics: dict, detail: dict,
                 ledger: Ledger) -> list[str]:
    lines = [f"perfbench {workload} seed={seed} trace={trace}"]
    if trace:
        for name, unit, _, moves, on in PER_LAYER:
            lines.append(f"  {name:<28} {metrics[name]:>14.6g} {unit:<9} moves {moves}; on {on}")
    else:
        for name, unit in END_TO_END + WALL_TIME:
            info = detail[name]
            tail = [f"{k} {v:.6g}" for k, v in info.items() if k.startswith("p")]
            lines.append(f"  {name:<19} {info['median']:>12.6g} {unit:<15} median of "
                         f"{info['samples']} samples" + (f", {', '.join(tail)}" if tail else
                                                        ", no tail percentile (needs 10 samples beyond it)")
                         + ("; not bounded" if (name, unit) in WALL_TIME else ""))
    rate = len(ledger.failures) / ledger.attempted
    lines.append(f"  {'error_rate':<19} {rate:>12.6g} {'fraction':<15} "
                 f"{len(ledger.failures)} of {ledger.attempted} checked invocations failed")
    lines.extend(f"  failure: {reason}" for reason in ledger.failures[:5])
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spacevents" / "__init__.py").is_file():
        print(f"error: no spacevents package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    started = time.perf_counter()
    steal_start = steal_s()
    meta = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cli_default_workers": os.cpu_count() or 1,
        "git_sha": git_sha(ROOT),
        "loadavg_start": list(os.getloadavg()),
        "limits": "measures only its own child processes; cannot drop caches, pin CPUs "
                  "or change machine settings",
    }
    run_id = uuid.uuid4().hex
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    ledger = Ledger()
    try:
        prepared = prepare(args.workload, args.seed, work)
        inputs = prepared.corpus.describe()
        spawn(PROBE, [], work)  # compiles bytecode before anything is timed
        if args.trace:
            metrics, detail = measure_layers(prepared, args.seconds, work, ledger, started, run_id)
        else:
            metrics, detail = measure_cli(prepared, args.seconds, work, ledger, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    meta["loadavg_end"] = list(os.getloadavg())
    steal_end = steal_s()
    meta["cpu_steal_s"] = None if None in (steal_start, steal_end) else steal_end - steal_start
    meta["spacevents_imported"] = sorted(ledger.imported)
    meta["run_s"] = time.perf_counter() - started

    for line in report_lines(args.workload, args.seed, args.trace, metrics, detail, ledger):
        print(line)
    units = {name: unit for name, unit, *_ in PER_LAYER} if args.trace else dict(END_TO_END)
    print(json.dumps({"report": {"workload": args.workload, "seed": args.seed, "run_id": run_id,
                                 "inputs": inputs, "metadata": meta, "detail": detail,
                                 "error_rate": len(ledger.failures) / ledger.attempted,
                                 "failures": ledger.failures}}))
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
