"""k-mer machinery: spectra, Hamming neighborhoods, neighbor indexes,
and tile tables."""

from .neighbor_index import (
    PrecomputedNeighborIndex,
    ProbingNeighborIndex,
    xor_patterns,
)
from .neighborhood import (
    complete_neighbors,
    neighborhood_size,
    neighbors_d1,
    neighbors_d1_batch,
)
from .prefilter import BloomPrefilter
from .external import ExternalCodeCounter
from .streaming import (
    SpectrumAccumulator,
    TileAccumulator,
    balanced_merge,
    build_from_chunks,
    iter_read_chunks,
    merge_spectra,
    merge_tile_tables,
    spectrum_from_chunks,
    tile_table_from_chunks,
)
from .spectrum import (
    KmerSpectrum,
    read_kmer_codes,
    spectrum_from_reads,
    spectrum_from_sequence,
)
from .tiles import (
    TileTable,
    compose_tile,
    compose_tiles_batch,
    split_tile,
    tile_og_rows,
    tile_table_from_reads,
)

__all__ = [
    "BloomPrefilter",
    "KmerSpectrum",
    "spectrum_from_reads",
    "spectrum_from_sequence",
    "read_kmer_codes",
    "complete_neighbors",
    "neighbors_d1",
    "neighbors_d1_batch",
    "neighborhood_size",
    "ProbingNeighborIndex",
    "PrecomputedNeighborIndex",
    "xor_patterns",
    "TileTable",
    "tile_og_rows",
    "tile_table_from_reads",
    "compose_tile",
    "compose_tiles_batch",
    "split_tile",
    "merge_spectra",
    "merge_tile_tables",
    "spectrum_from_chunks",
    "tile_table_from_chunks",
    "iter_read_chunks",
    "balanced_merge",
    "build_from_chunks",
    "SpectrumAccumulator",
    "TileAccumulator",
    "ExternalCodeCounter",
]
