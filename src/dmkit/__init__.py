"""Distribution-matching toolkit.

Synthesizes fixed-length LUT-tree distribution matchers by energy-ranked
table construction, runs the exact matcher/dematcher pair, provides a
constant-composition baseline built on exact enumerative coding and a
Maxwell-Boltzmann reference solver, and computes shaped-signal statistics
(exact and sampled) for 16-PAM / 256-QAM signaling.
"""

from .bits import BitWord, pack_symbols, read_bitfile, unpack_symbols, write_bitfile
from .ccdm import (
    CcdmCode,
    Composition,
    CompositionMismatch,
    RankOverflow,
    ccdm_decode,
    ccdm_encode,
    rank,
    unrank,
)
from .codec import (
    InvalidWord,
    decode,
    decode_stream,
    dump_test_vectors,
    encode,
    encode_stream,
    load_test_vectors,
)
from .config import ToolkitConfig, builtin_config_path, load_config, parse_config
from .mapping import (
    AMPLITUDES,
    BITS_PER_QAM,
    CLASS_BITS,
    CLASS_ENERGIES,
    PAIR_BASE,
    SHAPED_BITS_PER_QAM,
    amplitude_pairs,
)
from .maxwell import MbDistribution, entropy_bits, mb_distribution, mb_fit
from .stats import (
    PUBLISHED_REFERENCE,
    StatsReport,
    comparison_report,
    exact_class_pmf,
    monte_carlo_pmf,
    render_csv,
    render_text,
    stats_for_ccdm,
    stats_for_lutset,
    stats_for_mb,
    stats_from_pmf,
)
from .synthesis import (
    Lut,
    LutFormatError,
    LutSet,
    load_lutset,
    save_lutset,
    synthesize_leaf_lut,
    synthesize_parent_lut,
    synthesize_tree,
)
from .tree import (
    CountViolation,
    CouplingViolation,
    GranularityViolation,
    LayerParams,
    TreeConfigError,
    TreeSpec,
    WidthViolation,
    lut_size_report,
    spec_fingerprint,
    spec_to_mappings,
    validate_tree,
)

__version__ = "0.1.0"

__all__ = [
    "AMPLITUDES",
    "BITS_PER_QAM",
    "BitWord",
    "CLASS_BITS",
    "CLASS_ENERGIES",
    "CcdmCode",
    "Composition",
    "CompositionMismatch",
    "CountViolation",
    "CouplingViolation",
    "GranularityViolation",
    "InvalidWord",
    "LayerParams",
    "Lut",
    "LutFormatError",
    "LutSet",
    "MbDistribution",
    "PAIR_BASE",
    "PUBLISHED_REFERENCE",
    "RankOverflow",
    "SHAPED_BITS_PER_QAM",
    "StatsReport",
    "ToolkitConfig",
    "TreeConfigError",
    "TreeSpec",
    "WidthViolation",
    "amplitude_pairs",
    "builtin_config_path",
    "ccdm_decode",
    "ccdm_encode",
    "comparison_report",
    "decode",
    "decode_stream",
    "dump_test_vectors",
    "encode",
    "encode_stream",
    "entropy_bits",
    "exact_class_pmf",
    "load_config",
    "load_lutset",
    "load_test_vectors",
    "lut_size_report",
    "mb_distribution",
    "mb_fit",
    "monte_carlo_pmf",
    "pack_symbols",
    "parse_config",
    "rank",
    "read_bitfile",
    "render_csv",
    "render_text",
    "save_lutset",
    "spec_fingerprint",
    "spec_to_mappings",
    "stats_for_ccdm",
    "stats_for_lutset",
    "stats_for_mb",
    "stats_from_pmf",
    "synthesize_leaf_lut",
    "synthesize_parent_lut",
    "synthesize_tree",
    "unpack_symbols",
    "unrank",
    "validate_tree",
    "write_bitfile",
]
