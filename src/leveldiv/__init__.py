"""Tile-pattern divergence metrics and evolutionary level generation."""

from .analysis import (
    Dendrogram,
    DendrogramMerge,
    DistanceMatrix,
    HeatmapCell,
    HeatmapTable,
    average_linkage,
    compare_sets,
    cut_dendrogram,
    pairwise_matrix,
)
from .divergence import (
    ContributionEntry,
    DivergenceConfig,
    DivergenceResult,
    contributions,
    fitness,
    kl_div,
)
from .errors import LevelDivError, LevelIoError
from .evolve import (
    Conv,
    EvolutionConfig,
    EvolutionResult,
    Flip,
    GridEdit,
    hill_climb,
    snippet_fitness,
)
from .levels import (
    LevelSet,
    TileGrid,
    load_level,
    parse_level,
    serialize_level,
)
from .patterns import (
    FilterDims,
    PatternDistribution,
    extract_distribution,
    merge_distributions,
)

__version__ = "0.1.0"

__all__ = [
    "ContributionEntry",
    "Conv",
    "Dendrogram",
    "DendrogramMerge",
    "DistanceMatrix",
    "DivergenceConfig",
    "DivergenceResult",
    "EvolutionConfig",
    "EvolutionResult",
    "FilterDims",
    "Flip",
    "GridEdit",
    "HeatmapCell",
    "HeatmapTable",
    "LevelDivError",
    "LevelIoError",
    "LevelSet",
    "PatternDistribution",
    "TileGrid",
    "average_linkage",
    "compare_sets",
    "contributions",
    "cut_dendrogram",
    "extract_distribution",
    "fitness",
    "hill_climb",
    "kl_div",
    "load_level",
    "merge_distributions",
    "pairwise_matrix",
    "parse_level",
    "serialize_level",
    "snippet_fitness",
]
