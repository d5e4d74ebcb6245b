"""Corpus-scale lint throughput: memoized/indexed path vs reference.

Two layers:

* **Corpus benchmark** (``main()`` / ``test_corpus_lint_throughput``) —
  lints one seeded corpus three ways through the staged
  :mod:`repro.engine` pipeline and records certs/sec for each:

  - ``before``: the per-lint reference loop with every derived-view
    cache disabled (``optimized=False`` through the serial executor) —
    the oracle the equivalence suites compare against, kept callable so
    the speedup claim is measured in the same tree it ships in;
  - ``after``: the compiled single-process path (per-run LintContext,
    RegistryIndex family skipping, effective-date bisect, memoized
    extension/name views, char-class kernel dispatch) through the
    serial executor;
  - ``after_jobs``: the compiled path through the process-pool
    executor at ``--jobs N``.

  Each mode threads an :class:`repro.engine.EngineStats` collector, so
  the record carries a per-stage (compile/decode/lint/sink) seconds
  breakdown alongside the headline rate.  Every run asserts the three
  summaries serialize byte-identically before any rate is reported,
  then writes the machine-readable record to
  ``benchmarks/output/BENCH_lint_throughput.json``.  A steady-state
  lint-stage leg then times the compiled dispatch against the
  ``optimized=False`` reference over the same certificates: the
  compiled-kernel gate is that same-run ratio.

* **Micro benchmarks** (pytest-benchmark) — single-certificate lint,
  DER parse, Punycode round-trip, build+sign; unchanged componentry.

CLI::

    PYTHONPATH=src python benchmarks/bench_linter_throughput.py \
        --scale 0.0002 --jobs 4
    # regression gate against a committed record (CI bench-smoke):
    ... --check benchmarks/output/BENCH_lint_throughput.json --tolerance 0.30
"""

import argparse
import datetime as dt
import json
import os
import pathlib
import sys
import time

from repro.ct import CorpusGenerator
from repro.engine import Engine, EngineStats
from repro.lint import run_lints, summary_to_json
from repro.lint.parallel import LintPool, usable_cpus
from repro.uni import punycode
from repro.x509 import (
    Certificate,
    CertificateBuilder,
    GeneralName,
    generate_keypair,
    subject_alt_name,
)

KEY = generate_keypair(seed=2024)

DEFAULT_SCALE = float(os.environ.get("REPRO_BENCH_THROUGHPUT_SCALE", 1 / 5000))
DEFAULT_SEED = int(os.environ.get("REPRO_BENCH_SEED", 2025))
DEFAULT_JOBS = int(os.environ.get("REPRO_BENCH_THROUGHPUT_JOBS", 4))

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"
RECORD_PATH = OUTPUT_DIR / "BENCH_lint_throughput.json"


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _corpus_ders(corpus) -> list[bytes]:
    return [record.certificate.to_der() for record in corpus.records]


def _lint_stage_seconds(certs, optimized: bool) -> float:
    """Seconds for one serial ``run_lints`` pass over ``certs``.

    The lint-stage legs of :func:`measure` share one prebuilt schedule
    and one certificate list, so repeated calls time dispatch alone —
    every derived-view memo is warm after the first compiled pass (the
    ``optimized=False`` reference runs with caches disabled by design).
    """
    from repro.lint import REGISTRY, index_for

    lints = REGISTRY.snapshot()
    index = index_for(lints)
    start = time.perf_counter()
    for cert in certs:
        run_lints(cert, lints=lints, index=index, optimized=optimized)
    return time.perf_counter() - start


def _stage_block(stats: EngineStats) -> dict:
    """Per-stage wall/CPU seconds in canonical order, rounded.

    Wall is elapsed time as the caller saw it ("execute" spans the
    whole distributed phase on pool runs); cpu is processor time summed
    across every process that worked — the two are deliberately
    separate columns because summing worker wall clocks across
    time-sliced processes is exactly the inflation the old single-clock
    schema reported.
    """
    return {
        "wall": {
            stage: round(seconds, 3)
            for stage, seconds in stats.stage_wall_seconds().items()
        },
        "cpu": {
            stage: round(seconds, 3)
            for stage, seconds in stats.stage_cpu_seconds().items()
        },
    }


def measure(scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED, jobs: int = DEFAULT_JOBS) -> dict:
    """Measure before/after corpus lint throughput; returns the record.

    All three modes route through the staged engine (serial executor
    for ``before``/``after``, process-pool executor for ``after_jobs``)
    with an injected stats collector, so each mode's entry carries a
    ``stages`` breakdown.  Equivalence is asserted, not sampled: the
    reference, compiled and ``--jobs N`` summaries must serialize
    byte-identically or the benchmark dies before reporting a rate.
    """
    corpus = CorpusGenerator(seed=seed, scale=scale).generate()
    total = len(corpus.records)

    before_stats = EngineStats()
    before, before_s = _timed(
        lambda: Engine(before_stats).run_corpus(corpus, jobs=1, optimized=False)
    )
    after_stats = EngineStats()
    after, after_s = _timed(
        lambda: Engine(after_stats).run_corpus(corpus, jobs=1)
    )
    # The fanout run measures the production shape: a warm pool
    # (workers forked, schedule built) dispatching O(1) substrate shard
    # references — worker start-up and corpus serialization are paid
    # before the clock starts, exactly as a long-lived caller pays them.
    fanout_stats = EngineStats()
    with LintPool(jobs) as pool:
        pool.prewarm()
        fanout, fanout_s = _timed(
            lambda: Engine(fanout_stats).run_corpus(corpus, jobs=jobs, pool=pool)
        )

    baseline_json = summary_to_json(before.summary)
    assert summary_to_json(after.summary) == baseline_json, (
        "optimized single-process summary diverged from the reference path"
    )
    assert summary_to_json(fanout.summary) == baseline_json, (
        f"--jobs {jobs} summary diverged from the reference path"
    )

    before_rate = total / before_s
    after_rate = total / after_s
    fanout_rate = total / fanout_s
    # The kernel claim is stated on the lint stage alone, in steady
    # state: decode and sink are untouched by the compiled plan.  Both
    # legs run over the *same* certificate objects and time only the
    # run_lints loop, compiled against the optimized=False reference in
    # the same run; best-of-three absorbs scheduler noise on loaded
    # hosts.
    stage_certs = [Certificate.from_der(der) for der in _corpus_ders(corpus)]
    compiled_lint_s = min(
        _lint_stage_seconds(stage_certs, optimized=True) for _ in range(3)
    )
    reference_lint_s = min(
        _lint_stage_seconds(stage_certs, optimized=False) for _ in range(3)
    )
    lint_stage_speedup = (
        reference_lint_s / compiled_lint_s if compiled_lint_s else 0.0
    )
    return {
        "bench": "lint_throughput",
        "certs": total,
        "scale": scale,
        "seed": seed,
        #: CPUs the run could actually use — parallel rates measured
        #: with effective_cpus < jobs carry no scaling information.
        "effective_cpus": usable_cpus(),
        "before": {
            "path": "unoptimized per-lint loop, caches disabled",
            "seconds": round(before_s, 3),
            "certs_per_sec": round(before_rate, 1),
            "stages": _stage_block(before_stats),
        },
        "after": {
            "path": "LintContext + RegistryIndex + compiled kernels, serial executor",
            "seconds": round(after_s, 3),
            "certs_per_sec": round(after_rate, 1),
            "stages": _stage_block(after_stats),
        },
        "after_jobs": {
            "path": f"warm pool + mmap substrate, --jobs {jobs}",
            "jobs": jobs,
            "shards": fanout.shards,
            "seconds": round(fanout_s, 3),
            "certs_per_sec": round(fanout_rate, 1),
            "stages": _stage_block(fanout_stats),
        },
        "lint_stage": {
            "path": "serial run_lints loop over the same certificates, "
            "compiled vs the optimized=False reference (best of 3)",
            "compiled_seconds": round(compiled_lint_s, 3),
            "reference_seconds": round(reference_lint_s, 3),
        },
        "single_process_speedup": round(after_rate / before_rate, 2),
        "lint_stage_speedup_vs_reference": round(lint_stage_speedup, 2),
        "parallel_speedup": round(fanout_rate / after_rate, 2),
        "summaries_byte_identical": True,
    }


def write_record(record: dict) -> pathlib.Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    RECORD_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return RECORD_PATH


def check_regression(record: dict, committed_path: pathlib.Path, tolerance: float) -> list[str]:
    """Compare a fresh record against a committed one.

    Returns failure messages (empty when the gate passes).  The gate is
    on certs/sec of the optimized single-process path — the number the
    PR's speedup claim is stated in — with ``tolerance`` headroom for
    machine variance between the committing host and the CI runner.
    """
    committed = json.loads(committed_path.read_text())
    failures: list[str] = []
    baseline = committed["after"]["certs_per_sec"]
    floor = baseline * (1.0 - tolerance)
    fresh = record["after"]["certs_per_sec"]
    if fresh < floor:
        failures.append(
            f"optimized throughput regressed: {fresh:.1f} certs/sec vs "
            f"committed {baseline:.1f} (floor {floor:.1f} at "
            f"{tolerance:.0%} tolerance)"
        )
    # Parallel-scaling gate: a warm --jobs N pool must not be slower
    # than the serial path — but only where N cores actually exist; a
    # multi-process speedup claim measured on fewer cores than workers
    # would be fiction, so the gate arms itself on capable hosts only.
    jobs = record["after_jobs"]["jobs"]
    if record["effective_cpus"] >= jobs:
        parallel = record["after_jobs"]["certs_per_sec"]
        if parallel < record["after"]["certs_per_sec"]:
            failures.append(
                f"--jobs {jobs} throughput ({parallel:.1f} certs/sec) fell "
                f"below serial ({record['after']['certs_per_sec']:.1f}) on "
                f"a {record['effective_cpus']}-CPU host"
            )
    # Compiled-kernel gate: the compiled dispatch must hold >=3x on the
    # lint stage over the optimized=False reference, a ratio taken
    # within this run.  CPU-gated like the parallel gate above: on an
    # oversubscribed sub-2-CPU runner even serial wall clocks are
    # scheduling noise, and a timing gate that fires on noise trains
    # people to ignore it.
    if record["effective_cpus"] >= 2:
        compiled_speedup = record["lint_stage_speedup_vs_reference"]
        if compiled_speedup < 3.0:
            failures.append(
                f"compiled lint-stage speedup fell below 3x: "
                f"{compiled_speedup:.2f}x vs the optimized=False reference"
            )
    if not record["summaries_byte_identical"]:
        failures.append("summaries no longer byte-identical")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--jobs", type=int, default=DEFAULT_JOBS)
    parser.add_argument(
        "--check",
        type=pathlib.Path,
        default=None,
        metavar="RECORD",
        help="compare against a committed BENCH_lint_throughput.json "
        "instead of overwriting it",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed certs/sec regression fraction for --check "
        "(default 0.30)",
    )
    args = parser.parse_args(argv)

    record = measure(scale=args.scale, seed=args.seed, jobs=args.jobs)
    print(json.dumps(record, indent=2, sort_keys=True))

    if args.check is not None:
        failures = check_regression(record, args.check, args.tolerance)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0

    path = write_record(record)
    print(f"wrote {path}")
    return 0


def test_corpus_lint_throughput(write_output):
    """Pytest entry: smaller corpus, asserts the >=2x single-process and
    >=3x lint-stage speedup claims."""
    record = measure(scale=1 / 20000)
    write_output(
        "bench_linter_throughput",
        [
            f"corpus: {record['certs']} certs (seed={record['seed']}, "
            f"scale={record['scale']:g})",
            f"before (uncached):  {record['before']['seconds']:8.2f}s  "
            f"{record['before']['certs_per_sec']:10.1f} certs/s",
            f"after  (compiled):  {record['after']['seconds']:8.2f}s  "
            f"{record['after']['certs_per_sec']:10.1f} certs/s",
            f"after  (--jobs {record['after_jobs']['jobs']}):  "
            f"{record['after_jobs']['seconds']:8.2f}s  "
            f"{record['after_jobs']['certs_per_sec']:10.1f} certs/s",
            f"single-process speedup: {record['single_process_speedup']:.2f}x",
            f"compiled lint-stage speedup vs reference: "
            f"{record['lint_stage_speedup_vs_reference']:.2f}x",
            f"parallel speedup vs serial: {record['parallel_speedup']:.2f}x "
            f"({record['effective_cpus']} effective CPU(s))",
            "summaries byte-identical across all three paths: yes",
        ],
    )
    assert record["single_process_speedup"] >= 2.0, (
        f"expected >= 2x single-process speedup, "
        f"measured {record['single_process_speedup']:.2f}x"
    )
    # Timing assertions only where the cores exist to back them.
    if record["effective_cpus"] >= 2:
        assert record["lint_stage_speedup_vs_reference"] >= 3.0, (
            f"expected >= 3x compiled lint-stage speedup over the "
            f"reference, measured {record['lint_stage_speedup_vs_reference']:.2f}x"
        )
    if record["effective_cpus"] >= record["after_jobs"]["jobs"]:
        assert record["parallel_speedup"] >= 1.0, (
            f"warm --jobs {record['after_jobs']['jobs']} pool slower than "
            f"serial: {record['parallel_speedup']:.2f}x"
        )


# ---------------------------------------------------------------------------
# Component micro-benchmarks (pytest-benchmark)
# ---------------------------------------------------------------------------


def _sample_cert() -> Certificate:
    return (
        CertificateBuilder()
        .subject_cn("xn--mnchen-3ya.example.de")
        .not_before(dt.datetime(2024, 1, 1))
        .validity_days(90)
        .add_extension(subject_alt_name(GeneralName.dns("xn--mnchen-3ya.example.de")))
        .sign(KEY)
    )


def test_linter_throughput(benchmark):
    cert = _sample_cert()
    report = benchmark(run_lints, cert)
    assert not report.noncompliant


def test_der_parse_throughput(benchmark):
    der = _sample_cert().to_der()
    cert = benchmark(Certificate.from_der, der)
    assert cert.subject_common_names


def test_punycode_roundtrip_throughput(benchmark):
    def roundtrip():
        return punycode.decode(punycode.encode("bücher-münchen-straße"))

    assert benchmark(roundtrip) == "bücher-münchen-straße"


def test_build_and_sign_throughput(benchmark):
    cert = benchmark(_sample_cert)
    assert cert.tbs_der


if __name__ == "__main__":
    sys.exit(main())
