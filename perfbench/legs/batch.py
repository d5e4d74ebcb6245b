"""batch-corpus leg: the ``repro corpus`` job in a fresh interpreter.

``--mode serial`` lints the pickled corpus through ``Engine.run_corpus``
at ``jobs=1`` (the reference serial executor); ``--mode pool`` lints the
same corpus as a ``CorpusStore`` on a prewarmed ``LintPool``.  A ``rep``
request runs the job once: collect reports, build the paper's tables
from them, and reply the certificate count and wall time plus the
digest of the summary and tables.  ``finish`` runs the serial mode's reference check
(the ``optimized=False`` oracle on a fixed slice) and, when traced, one
more job with span wrappers installed, for the per-layer self times and
the traced wall time against the last untraced repetition's.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import time

from perfbench.common import child_pids, peak_rss_mb, rss_mb, serve

#: Leading certificates the ``optimized=False`` reference check covers.
REFERENCE_SLICE = 48


class RecordingExecutor:
    """A pool executor that keeps the public ``ShardResult`` list."""

    distributed = True

    def __init__(self, inner):
        self.inner = inner
        self.jobs = inner.jobs
        self.results = []
        self.wall = 0.0

    def run(self, tasks):
        start = time.perf_counter()
        self.results = self.inner.run(tasks)
        self.wall = time.perf_counter() - start
        return self.results


class TracedAnalysis:
    """``repro.analysis`` seen through span wrappers (the analysis layer)."""

    def __init__(self, tracer, module):
        for name in ("build_table1", "top_lints", "issuance_trend", "validity_cdfs", "field_matrix"):
            setattr(self, name, tracer.wrap("analysis", getattr(module, name)))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("serial", "pool"), required=True)
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--spans", default=None, help="where a traced finish writes its spans")
    args = parser.parse_args()

    import repro.analysis as analysis
    from repro.corpusstore import CorpusStore
    from repro.ct.corpus import Corpus
    from repro.engine import Engine, PoolExecutor
    from repro.lint import LintPool
    from repro.lint.serialization import summary_to_json

    from perfbench.inputs import load_corpus
    from perfbench.legs import tables

    # The pool forks before the inputs load, so no worker holds them.
    Engine().warm_compiled_plan()
    pool = None
    if args.mode == "pool":
        pool = LintPool(args.jobs)
        pool.prewarm()

    before = rss_mb()
    corpus = load_corpus(args.corpus)
    input_mb = rss_mb() - before
    gc.freeze()  # the benchmark's input objects stay out of the job's collections
    total = len(corpus.records)
    source = corpus if pool is None else CorpusStore(args.store)

    def job(api=analysis, executor=None, root=None):
        """One timed job; returns (wall seconds, check text)."""
        engine = Engine()
        start = time.perf_counter()
        with root if root is not None else contextlib.nullcontext():
            outcome = engine.run_corpus(
                source, args.jobs, collect_reports=True, pool=pool, executor=executor
            )
            built = tables.build(api, corpus, outcome.reports)
        wall = time.perf_counter() - start
        # Rendering the check text is the benchmark's work, not the job's.
        return wall, tables.render(summary_to_json(outcome.summary), built)

    walls: list[float] = []

    def rep() -> dict:
        executor = None
        if pool is not None:
            executor = RecordingExecutor(PoolExecutor(args.jobs, pool=pool))
        wall, text = job(executor=executor)
        walls.append(wall)
        out = {"certs": total, "wall": wall, "digest": hashlib.sha256(text.encode()).hexdigest()}
        if executor is not None:
            shard_cpu = [
                sum(r.timings.cpu.values()) for r in executor.results if r.timings is not None
            ]
            out["worker_cpu_s"] = sum(shard_cpu)
            out["busy_ratio"] = sum(shard_cpu) / (executor.jobs * executor.wall)
            out["shard_skew"] = max(shard_cpu) / (sum(shard_cpu) / len(shard_cpu))
        return out

    def finish(trace: int = 0) -> dict:
        result: dict = {"certs": total}
        if args.mode == "serial":
            head = Corpus(records=corpus.records[:REFERENCE_SLICE], scale=corpus.scale)
            texts = []
            for optimized in (True, False):
                outcome = Engine().run_corpus(head, 1, collect_reports=True, optimized=optimized)
                texts.append(tables.render(
                    summary_to_json(outcome.summary),
                    tables.build(analysis, head, outcome.reports),
                ))
            result["reference_match"] = texts[0] == texts[1]
        if trace and args.mode == "serial":
            from perfbench import trace as tracing

            untraced = walls[-1] if walls else job()[0]
            tracer = tracing.Tracer()
            tracing.install_lint_layers(tracer)
            wall, text = job(TracedAnalysis(tracer, analysis), root=tracer.span("harness.batch"))
            result["traced_digest"] = hashlib.sha256(text.encode()).hexdigest()
            result["trace"] = {
                "untraced_wall": untraced,
                "traced_wall": wall,
                "layers": tracing.self_times(tracer.spans),
                "closure": tracing.closure(tracer.spans),
            }
            if args.spans:
                tracer.dump(args.spans)
        peak = peak_rss_mb() - input_mb
        if pool is not None:
            peak += sum(peak_rss_mb(pid) for pid in child_pids())
            pool.shutdown()
        result["peak_rss_mb"] = peak
        return result

    job()  # warm-up: lazy program state fills before anything is timed
    serve({"certs": total}, {"rep": rep, "finish": finish})


if __name__ == "__main__":
    main()
