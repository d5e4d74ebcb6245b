"""Span tracing from outside the program: wrappers, self time, closure.

The benchmark never edits ``src/``.  A traced run installs wrappers
around the public functions of each layer (module functions, methods,
properties), and each wrapped call records one span::

    (span_id, name, start, end, parent_id, request_id)

Spans stay in memory and are written out when the workload ends.  A
layer's *self time* is its spans' duration minus the part of each
interval that its child spans cover; summed over every span, self
times add up exactly to the root spans' wall time, which is what the
accounting-closure check relies on.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict

#: Span names of harness-owned roots; their self time is the run's
#: unattributed remainder.
ROOT_PREFIX = "harness."


class Tracer:
    """In-memory span recorder shared by every installed wrapper."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.request_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        """Context manager recording one span around a block."""
        return _Span(self, name)

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records a span."""
        if getattr(fn, "__perfbench_span__", None) is not None:
            return fn
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, name, start, end, parent, tracer.request_id)
                )

        traced.__perfbench_span__ = name
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self, path) -> None:
        """Write the spans out, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        stack = self.tracer._stack()
        self.sid = next(self.tracer._ids)
        self.parent = stack[-1] if stack else None
        stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(
            (self.sid, self.name, self.start, end, self.parent,
             self.tracer.request_id)
        )
        return False


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------


def covered(interval, children) -> float:
    """Length of the part of ``interval`` covered by ``children``."""
    lo, hi = interval
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in children if min(hi, b) > max(lo, a)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[str, dict]:
    """Per span name: ``self`` and ``total`` seconds and ``calls``."""
    children = defaultdict(list)
    for sid, _name, start, end, parent, _rid in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, dict] = {}
    for sid, name, start, end, _parent, _rid in spans:
        row = out.setdefault(name, {"self": 0.0, "total": 0.0, "calls": 0})
        duration = end - start
        row["total"] += duration
        row["calls"] += 1
        row["self"] += duration - covered((start, end), children.get(sid, ()))
    return out


def closure(spans) -> dict:
    """Accounting closure over the harness root spans.

    ``wall`` is the summed duration of the root spans, ``attributed``
    the self time of every layer span beneath them, ``unattributed``
    the roots' own self time; ``attributed + unattributed == wall``.
    Spans outside every harness root (say, the simulated log publishing
    between polls) are left out.
    """
    parent = {span[0]: span[4] for span in spans}
    name = {span[0]: span[1] for span in spans}
    top: dict = {}

    def root_of(sid):
        chain = []
        while sid not in top and parent.get(sid) is not None:
            chain.append(sid)
            sid = parent[sid]
        found = top.get(sid, sid)
        for link in chain:
            top[link] = found
        return found

    table = self_times(
        [s for s in spans if name.get(root_of(s[0]), "").startswith(ROOT_PREFIX)]
    )
    wall = sum(r["total"] for n, r in table.items() if n.startswith(ROOT_PREFIX))
    rest = sum(r["self"] for n, r in table.items() if n.startswith(ROOT_PREFIX))
    attributed = sum(
        r["self"] for n, r in table.items() if not n.startswith(ROOT_PREFIX)
    )
    return {
        "wall": wall,
        "attributed": attributed,
        "unattributed": rest,
        "unattributed_share": rest / wall if wall else 0.0,
        "residual": wall - attributed - rest,
    }


# ---------------------------------------------------------------------------
# Installing wrappers
# ---------------------------------------------------------------------------


def patch_function(tracer: Tracer, module, attr: str, name: str) -> None:
    """Wrap ``module.attr`` and every ``repro`` module binding the same
    function object (``from x import f`` copies the reference)."""
    original = getattr(module, attr)
    wrapped = tracer.wrap(name, original)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def patch_method(tracer: Tracer, cls, attr: str, name: str) -> None:
    """Wrap a method, classmethod, staticmethod or property on ``cls``."""
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(tracer.wrap(name, raw.__func__)))
    elif isinstance(raw, property):
        setattr(cls, attr, property(tracer.wrap(name, raw.fget)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw))


def patch_instance(tracer: Tracer, obj, attr: str, name: str) -> None:
    """Wrap a bound method or callable attribute on one object."""
    setattr(obj, attr, tracer.wrap(name, getattr(obj, attr)))


def install_lint_layers(tracer: Tracer) -> None:
    """Decode, lint dispatch, checks, sinks and ingest of the engine."""
    import repro.asn1.der as der
    import repro.engine.pipeline as pipeline
    import repro.engine.sinks as sinks
    import repro.lint.runner as runner
    import repro.lint.serialization as serialization
    from repro.lint.compiled import warm_default_plan
    from repro.lint.framework import REGISTRY, index_for
    from repro.x509 import Certificate

    patch_function(tracer, der, "parse", "asn1.der")
    patch_method(tracer, Certificate, "from_der", "x509.decode")
    patch_function(tracer, runner, "run_lints", "lint.runner")
    patch_method(tracer, runner.CertificateReport, "findings", "lint.report.findings")
    for attr in ("add", "merge"):
        patch_method(tracer, runner.CorpusSummary, attr, "engine.sinks")
    patch_function(tracer, serialization, "report_to_json", "engine.sinks")
    patch_function(tracer, sinks, "render_json_report", "engine.sinks")
    patch_function(tracer, sinks, "merge_shard_results", "engine.sinks")
    for attr in (
        "corpus_records",
        "build_shard_tasks",
        "build_store_shard_tasks",
        "build_pair_shard_tasks",
    ):
        patch_function(tracer, pipeline, attr, "engine.ingest")
    warm_default_plan()
    plan = index_for(REGISTRY.snapshot()).compiled_plan()
    patch_instance(tracer, plan, "resolve_scope", "lint.compiled")
    for lint in REGISTRY.snapshot():
        patch_instance(tracer, lint, "check", "lint.checks")


def install_monitor_layers(tracer: Tracer) -> None:
    """The simulated log, Merkle verification, windows, segments,
    checkpoints (on top of :func:`install_lint_layers`)."""
    import repro.ct.tail as tail
    import repro.engine.windows as windows
    from repro.corpusstore import SegmentWriter

    for attr in ("advance", "sth", "get_entries", "prove_consistency", "prove_inclusion"):
        patch_method(tracer, tail.TailLog, attr, "ct.tail_log")
    patch_method(tracer, tail.SignedTreeHead, "verify", "ct.merkle")
    patch_function(tracer, tail, "verify_consistency", "ct.merkle")
    patch_function(tracer, tail, "verify_inclusion", "ct.merkle")
    patch_function(tracer, windows, "cert_facts", "engine.windows.facts")
    patch_method(tracer, windows.WindowedSummary, "fold", "engine.windows.fold")
    patch_method(tracer, windows.AlertPolicy, "evaluate", "engine.windows.alerts")
    patch_method(tracer, SegmentWriter, "append", "corpusstore.segments.append")
    patch_function(tracer, tail, "write_checkpoint", "ct.checkpoint.write")


def install_fuzz_layers(tracer: Tracer) -> None:
    """Mutators, oracle, parser models, minimizer, witness building."""
    from importlib import import_module

    from repro.tlslibs.profiles import ALL_PROFILES

    # import_module: the package re-exports a function named ``minimize``
    # that shadows the submodule attribute.
    minimize = import_module("repro.fuzz.minimize")
    mutators = import_module("repro.fuzz.mutators")
    oracle = import_module("repro.fuzz.oracle")
    witness = import_module("repro.fuzz.witness")
    keys = import_module("repro.x509.keys")

    patch_function(tracer, mutators, "sample_mutations", "fuzz.mutators")
    patch_function(tracer, mutators, "apply_mutations", "fuzz.mutators")
    patch_function(tracer, oracle, "evaluate_batch", "fuzz.oracle")
    patch_function(tracer, oracle, "evaluate", "fuzz.oracle")
    patch_function(tracer, oracle, "baseline_coverage", "fuzz.oracle")
    seen = set()
    for profile in ALL_PROFILES:
        for cls in type(profile).__mro__:
            for attr in ("decode_dn_attribute", "decode_gn"):
                if attr in cls.__dict__ and (cls, attr) not in seen:
                    seen.add((cls, attr))
                    patch_method(tracer, cls, attr, "tlslibs.decode")
    patch_function(tracer, minimize, "minimize", "fuzz.minimize")
    patch_function(tracer, witness, "witness_from_spec", "fuzz.witness.build")
    patch_function(tracer, witness, "write_witness", "fuzz.witness.write")
    patch_function(tracer, keys, "generate_keypair", "x509.keys.keygen")
