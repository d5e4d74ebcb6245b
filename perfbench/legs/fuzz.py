"""fuzz-campaign leg: ``run_fuzz_campaign`` with the CLI defaults.

Every campaign is the ``repro fuzz`` default one (seed 2025, 10k
mutants), whatever the run's ``--seed``: a campaign's cost varies with
its seed by about 15%, with the number of witnesses it builds, and two
campaigns a run cannot average that out.  A ``rep`` request runs one
campaign at ``jobs=1`` with witness minimisation and witness writes into
a fresh directory, and replies its wall time, the mutant and novel-cell
counts and a digest of the written witness files.  A traced ``finish``
runs one more campaign with span wrappers installed and reports
per-layer self times, and the traced wall time against the last
untraced campaign's.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import time

from perfbench.common import peak_rss_mb, serve


def witness_digest(directory: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode())
        with open(os.path.join(directory, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None, help="where a traced finish writes its spans")
    args = parser.parse_args()

    from repro.fuzz import FuzzConfig, run_fuzz_campaign

    untraced: list[dict] = []

    def campaign(root=None) -> dict:
        witness_dir = os.path.join(args.workdir, "witnesses")
        shutil.rmtree(witness_dir, ignore_errors=True)
        os.makedirs(witness_dir)
        config = FuzzConfig(jobs=1, witness_dir=witness_dir)
        start = time.perf_counter()
        if root is None:
            result = run_fuzz_campaign(config)
        else:
            with root:
                result = run_fuzz_campaign(config)
        wall = time.perf_counter() - start
        outcome = {
            "wall": wall,
            "mutants": result.mutants,
            "novel_cells": result.novel_cells,
            "witnesses": len(result.witnesses),
            "digest": witness_digest(witness_dir),
        }
        shutil.rmtree(witness_dir, ignore_errors=True)
        if root is None:
            untraced.append(outcome)
        return outcome

    def finish(trace: int = 0) -> dict:
        result: dict = {}
        if trace:
            from perfbench import trace as tracing

            if not untraced:
                campaign()
            tracer = tracing.Tracer()
            tracing.install_fuzz_layers(tracer)
            traced = campaign(root=tracer.span("harness.fuzz"))
            result["runs"] = [traced]
            result["trace"] = {
                "untraced_wall": untraced[-1]["wall"],
                "traced_wall": traced["wall"],
                "layers": tracing.self_times(tracer.spans),
                "closure": tracing.closure(tracer.spans),
            }
            if args.spans:
                tracer.dump(args.spans)
        result["peak_rss_mb"] = peak_rss_mb()
        return result

    serve({}, {"rep": campaign, "finish": finish})


if __name__ == "__main__":
    main()
