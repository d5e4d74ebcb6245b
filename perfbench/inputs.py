"""Seeded benchmark inputs, cached under ``perfbench/.cache``.

Generating a calibrated corpus costs about 2.5 ms per certificate,
mostly signing, so every generated corpus is pickled (plus its
corpus-store substrate) under a key made of the seed, the scale and a
digest of the generator's source.  A change to the generator,
``CertificateBuilder`` or the DER encoder invalidates the cache; the same
seed always yields the same inputs.

Run as a module to fill one cache entry::

    python3 -m perfbench.inputs --seed 7 --scale 3.3e-05
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pathlib
import pickle

from perfbench.common import CACHE_DIR, ROOT, use_checkout_sources

#: Sources whose change alters generated inputs.
GENERATOR_SOURCES = ("src/repro/ct", "src/repro/x509", "src/repro/asn1", "src/repro/uni")


def generator_digest() -> str:
    """sha256 over the generator's sources and this module."""
    digest = hashlib.sha256()
    files = [pathlib.Path(__file__)]
    for rel in GENERATOR_SOURCES:
        files.extend(sorted((ROOT / rel).rglob("*.py")))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def corpus_paths(seed: int, scale: float, digest: str) -> tuple[pathlib.Path, pathlib.Path]:
    """(pickled corpus, corpus-store substrate) paths of one entry."""
    stem = f"corpus-{seed}-{scale:.3e}-{digest}"
    return CACHE_DIR / f"{stem}.pkl", CACHE_DIR / f"{stem}.rcs"


def generate(seed: int, scale: float, digest: str) -> None:
    """Generate one corpus and write both cache files atomically."""
    use_checkout_sources()
    from repro.ct import CorpusGenerator

    pkl, rcs = corpus_paths(seed, scale, digest)
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    corpus = CorpusGenerator(seed=seed, scale=scale).generate()
    tmp = rcs.with_suffix(f".{os.getpid()}.tmp")
    corpus.to_store(str(tmp))
    os.replace(tmp, rcs)
    tmp = pkl.with_suffix(f".{os.getpid()}.tmp")
    with open(tmp, "wb") as handle:
        pickle.dump(corpus, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, pkl)


def load_corpus(path):
    with open(path, "rb") as handle:
        return pickle.load(handle)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--digest", default=None)
    args = parser.parse_args()
    generate(args.seed, args.scale, args.digest or generator_digest())


if __name__ == "__main__":
    main()
