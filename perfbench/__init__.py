"""The benchmark of record: every surface of ``repro``, end to end and
layer by layer.  Entry point: ``python3 perfbench/run.py``."""
