"""The packed schedule corpus (``repro corpus``, ``repro serve --corpus``).

One binary file, millions of frames, O(1) answers: the corpus is the
precomputed-answer store behind the service — generate once (per coset
where the construction's translation symmetry allows), serve forever.
Layering, bottom up:

:mod:`repro.corpus.format`
    the ``repro-corpus/1`` on-disk layout — fixed little-endian header
    and trailer, concatenated int64 section planes, a canonical-JSON
    footer with per-section sha256 digests and the
    ``(graph spec, scheduler, k, seed)`` group index.  Golden
    byte-pinned like the io v2 writers.
:mod:`repro.corpus.writer`
    the streaming append builder and the ``build`` front-end (coset
    derivation for the paper's scheme, per-source ``api.schedule`` runs
    for registry schedulers).
:mod:`repro.corpus.reader`
    mmap loading and zero-copy frame slicing into read-only
    :class:`~repro.frame.ScheduleFrame` views that feed the engine
    caches unchanged.
:mod:`repro.corpus.verify`
    digest checks plus re-validation of a seeded sample slice against
    the reference validator.

This package is also the RL011 lint boundary: raw ``struct``/``mmap``
corpus-file access lives here and nowhere else.
"""

from repro.corpus.format import CORPUS_FORMAT, CORPUS_VERSION
from repro.corpus.reader import CorpusReader
from repro.corpus.verify import VerifyReport, verify_corpus
from repro.corpus.writer import CorpusWriter, build_corpus

__all__ = [
    "CORPUS_FORMAT",
    "CORPUS_VERSION",
    "CorpusReader",
    "CorpusWriter",
    "VerifyReport",
    "build_corpus",
    "verify_corpus",
]
