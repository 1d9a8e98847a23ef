"""Out-of-core spectrum and tile construction (Sec. 2.3, 'Overall
Complexity').

'When the collection of input short reads R does not fit in main
memory, we propose a divide and merge strategy where R is partitioned
into chunks ... for each chunk, we stream through each read and record
the k-spectrum and tile information, merging it with the data from
previous chunks.  Reads need not be stored in memory after they have
been processed.'

Merging two sorted count tables is one ``np.unique`` over their
concatenation with count aggregation, so merges are associative and
order-independent: any merge tree over the same chunks yields the same
sorted arrays, and a corrector built from streamed chunks is
bit-identical to one built monolithically.

The chunk stream is folded with a **balanced merge** (a binary-counter
stack that only merges same-size partials, as external merge sorts
do): each k-mer occurrence participates in O(log C) merges for C
chunks, for O(N log C) total merge work — against the O(N·C) of
re-merging one ever-growing accumulator with every new chunk.  With a
``max_memory_bytes`` budget the accumulators switch to the disk-spill
external counter of :mod:`repro.kmer.external` (KMC/RECKONER-style
partition-and-merge), so the partial tables themselves no longer need
to fit in RAM.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from ..io.readset import ReadSet
from .spectrum import KmerSpectrum, spectrum_from_reads
from .tiles import TileTable, tile_table_from_reads

T = TypeVar("T")


def merge_spectra(a: KmerSpectrum, b: KmerSpectrum) -> KmerSpectrum:
    """Sum two k-spectra (counts add; k must match)."""
    if a.k != b.k:
        raise ValueError("cannot merge spectra with different k")
    kmers = np.concatenate([a.kmers, b.kmers])
    counts = np.concatenate([a.counts, b.counts])
    uniq, inverse = np.unique(kmers, return_inverse=True)
    summed = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(summed, inverse, counts)
    return KmerSpectrum(k=a.k, kmers=uniq, counts=summed)


def merge_tile_tables(a: TileTable, b: TileTable) -> TileTable:
    """Sum two tile tables (Oc and Og add)."""
    if (a.k, a.overlap) != (b.k, b.overlap):
        raise ValueError("cannot merge tile tables with different shape")
    tiles = np.concatenate([a.tiles, b.tiles])
    uniq, inverse = np.unique(tiles, return_inverse=True)
    oc = np.zeros(uniq.size, dtype=np.int64)
    og = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(oc, inverse, np.concatenate([a.oc, b.oc]))
    np.add.at(og, inverse, np.concatenate([a.og, b.og]))
    return TileTable(k=a.k, overlap=a.overlap, tiles=uniq, oc=oc, og=og)


class _BalancedStack:
    """Binary-counter merge stack with byte-size accounting.

    Slot ``i`` holds a partial built from ``2^i`` inputs; a pushed part
    cascades carries exactly like binary increment, so only same-size
    partials are ever merged.  Each input participates in O(log C)
    merges (total work O(N log C) for size-proportional merge cost)
    instead of the O(N·C) of ``reduce(merge_two, parts)``.
    """

    def __init__(
        self, merge_two: Callable, nbytes_of: Callable = lambda part: 0
    ) -> None:
        self._merge_two = merge_two
        self._nbytes_of = nbytes_of
        # (level, partial), levels strictly decreasing bottom to top.
        self._stack: list[tuple[int, object]] = []
        self.peak_bytes = 0

    def push(self, part) -> None:
        level, cur = 0, part
        while self._stack and self._stack[-1][0] == level:
            _, prev = self._stack.pop()
            cur = self._merge_two(prev, cur)
            level += 1
        self._stack.append((level, cur))
        held = sum(self._nbytes_of(p) for _, p in self._stack)
        self.peak_bytes = max(self.peak_bytes, held)

    def result(self):
        if not self._stack:
            return None
        acc = self._stack.pop()[1]
        while self._stack:
            acc = self._merge_two(self._stack.pop()[1], acc)
        return acc


def balanced_merge(
    parts: Iterable[T], merge_two: Callable[[T, T], T]
) -> T | None:
    """Fold ``parts`` with ``merge_two`` over a :class:`_BalancedStack`.

    Returns ``None`` for an empty iterable.  The result equals any
    other merge order whenever ``merge_two`` is associative.
    """
    stack = _BalancedStack(merge_two)
    for part in parts:
        stack.push(part)
    return stack.result()


class _Accumulator:
    """Shared body of the two streaming builders: feed read chunks,
    finalize once.

    In-memory partials are folded with the balanced merge; with a
    ``max_memory_bytes`` budget the per-chunk tables are routed to a
    disk-spill :class:`~repro.kmer.external.ExternalCodeCounter`
    instead, bounding resident table memory.  Either way the result is
    bitwise identical to tabulating the concatenated chunks at once.

    A subclass says how one chunk is tabulated (``_tabulate``), how two
    tables merge (``_merge``), and how a table maps to and from the
    counter's ``(codes, count columns...)`` form (``_columns`` /
    ``_wrap``).
    """

    _n_values: int
    _merge: Callable

    def __init__(
        self,
        code_bits: int,
        max_memory_bytes: int | None,
        tmp_dir,
        prefilter_fp_rate: float | None,
    ) -> None:
        self.prefilter_fp_rate = prefilter_fp_rate
        self._counter = None
        self._stack = None
        if max_memory_bytes is not None:
            from .external import ExternalCodeCounter

            self._counter = ExternalCodeCounter(
                code_bits=code_bits,
                n_values=self._n_values,
                max_memory_bytes=max_memory_bytes,
                tmp_dir=tmp_dir,
            )
        else:
            self._stack = _BalancedStack(
                self._merge,
                lambda part: sum(a.nbytes for a in self._columns(part)),
            )

    @property
    def spill_bytes(self) -> int:
        return 0 if self._counter is None else self._counter.spill_bytes

    @property
    def peak_bytes(self) -> int:
        if self._counter is not None:
            return self._counter.peak_buffer_bytes
        return self._stack.peak_bytes

    @property
    def max_add_bytes(self) -> int:
        """Largest single chunk table fed in (external mode only)."""
        return 0 if self._counter is None else self._counter.max_add_bytes

    def _tabulate(self, chunk: ReadSet):
        raise NotImplementedError

    def _columns(self, part) -> tuple:
        raise NotImplementedError

    def _wrap(self, codes: np.ndarray, *columns: np.ndarray):
        raise NotImplementedError

    def add_chunk(self, chunk: ReadSet) -> None:
        part = self._tabulate(chunk)
        if self._counter is not None:
            codes, *columns = self._columns(part)
            self._counter.add(codes, np.stack(columns, axis=1))
        else:
            self._stack.push(part)

    def finalize(self):
        if self._counter is not None:
            codes, values = self._counter.finalize()
            out = self._wrap(codes, *values.T)
        else:
            out = self._stack.result()
            if out is None:
                out = self._wrap(
                    np.empty(0, dtype=np.uint64),
                    *np.empty((self._n_values, 0), dtype=np.int64),
                )
        if self.prefilter_fp_rate is not None:
            # The stream already paid for the accumulation pass; the
            # prefilter is one extra vectorized hash over the final
            # unique codes.
            out = out.with_prefilter(self.prefilter_fp_rate)
        return out


class SpectrumAccumulator(_Accumulator):
    """Streaming k-spectrum builder; the result equals
    :func:`spectrum_from_reads` on the concatenated chunks."""

    _n_values = 1
    _merge = staticmethod(merge_spectra)

    def __init__(
        self,
        k: int,
        both_strands: bool = True,
        max_memory_bytes: int | None = None,
        tmp_dir=None,
        prefilter_fp_rate: float | None = None,
    ) -> None:
        from ..seq.encoding import check_k

        check_k(k)
        self.k = k
        self.both_strands = both_strands
        super().__init__(2 * k, max_memory_bytes, tmp_dir, prefilter_fp_rate)

    def _tabulate(self, chunk: ReadSet) -> KmerSpectrum:
        return spectrum_from_reads(chunk, self.k, self.both_strands)

    def _columns(self, part: KmerSpectrum) -> tuple:
        return part.kmers, part.counts

    def _wrap(self, codes, *columns) -> KmerSpectrum:
        return KmerSpectrum(k=self.k, kmers=codes, counts=columns[0])


class TileAccumulator(_Accumulator):
    """Streaming tile-table builder (Oc + Og); the result equals
    :func:`tile_table_from_reads` on the concatenated chunks."""

    _n_values = 2
    _merge = staticmethod(merge_tile_tables)

    def __init__(
        self,
        k: int,
        overlap: int = 0,
        quality_cutoff: int = 0,
        both_strands: bool = True,
        max_memory_bytes: int | None = None,
        tmp_dir=None,
        prefilter_fp_rate: float | None = None,
    ) -> None:
        if not 0 <= overlap < k:
            raise ValueError("overlap must be in [0, k)")
        self.k = k
        self.overlap = overlap
        self.quality_cutoff = quality_cutoff
        self.both_strands = both_strands
        super().__init__(
            2 * (2 * k - overlap), max_memory_bytes, tmp_dir, prefilter_fp_rate
        )

    def _tabulate(self, chunk: ReadSet) -> TileTable:
        return tile_table_from_reads(
            chunk,
            k=self.k,
            overlap=self.overlap,
            quality_cutoff=self.quality_cutoff,
            both_strands=self.both_strands,
        )

    def _columns(self, part: TileTable) -> tuple:
        return part.tiles, part.oc, part.og

    def _wrap(self, codes, *columns) -> TileTable:
        oc, og = columns
        return TileTable(
            k=self.k, overlap=self.overlap, tiles=codes, oc=oc, og=og
        )


def build_from_chunks(chunks: Iterable[ReadSet], accumulators: Sequence):
    """Feed one pass over ``chunks`` to several accumulators at once.

    This is how phase 1 builds the spectrum *and* the tile table from
    a single traversal of a stream that cannot be rewound cheaply —
    the previous implementation ``itertools.tee``'d the stream, which
    silently buffered every chunk and defeated out-of-core operation.
    Returns the list of finalized structures, in accumulator order.
    """
    for chunk in chunks:
        for acc in accumulators:
            acc.add_chunk(chunk)
    return [acc.finalize() for acc in accumulators]


def spectrum_from_chunks(
    chunks: Iterable[ReadSet],
    k: int,
    both_strands: bool = True,
    max_memory_bytes: int | None = None,
    tmp_dir=None,
) -> KmerSpectrum:
    """k-spectrum over a stream of read chunks (constant read memory,
    O(N log C) merge work; disk-spill counting under a memory budget)."""
    acc = SpectrumAccumulator(
        k,
        both_strands=both_strands,
        max_memory_bytes=max_memory_bytes,
        tmp_dir=tmp_dir,
    )
    return build_from_chunks(chunks, [acc])[0]


def tile_table_from_chunks(
    chunks: Iterable[ReadSet],
    k: int,
    overlap: int = 0,
    quality_cutoff: int = 0,
    both_strands: bool = True,
    max_memory_bytes: int | None = None,
    tmp_dir=None,
) -> TileTable:
    """Tile table over a stream of read chunks."""
    acc = TileAccumulator(
        k,
        overlap=overlap,
        quality_cutoff=quality_cutoff,
        both_strands=both_strands,
        max_memory_bytes=max_memory_bytes,
        tmp_dir=tmp_dir,
    )
    return build_from_chunks(chunks, [acc])[0]


def iter_read_chunks(reads: ReadSet, chunk_size: int) -> Iterator[ReadSet]:
    """Split an in-memory ReadSet into chunks (testing convenience; in
    production the chunks come straight from
    :func:`repro.io.fastq.read_fastq_chunks`)."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    for start in range(0, reads.n_reads, chunk_size):
        idx = np.arange(start, min(start + chunk_size, reads.n_reads))
        yield reads.subset(idx)
