"""domainport: how well NLP performance transports across domains.

The toolkit has three layers. Corpus ingestion and profiling turn raw
text into comparable domain profiles; similarity measures quantify the
gap between a source domain and any target; transport measures and the
exponential decay fit relate that gap to observed performance.
"""

from .corpus import (
    Corpus,
    TokenizerConfig,
    parse_conll,
    parse_interchange,
    parse_jsonl_pairs,
    parse_plaintext,
    tokenize,
)
from .divergence import (
    KLSettings,
    SimilarityRecord,
    cosine_distance,
    kl_divergence,
    lexical_difference,
    similarity_table,
)
from .errors import ComputationError, ConfigError, DomainportError, ParseError
from .features import (
    DomainProfile,
    EmbeddingConfig,
    build_profile,
    build_profile_external,
    embed_builtin,
    load_external_embeddings,
)
from .regression import (
    FitModel,
    curve_points,
    fit,
    mean_absolute_error,
    predict,
)
from .transport import (
    ScoreEntry,
    ScoreTable,
    TauObservation,
    build_report,
    load_score_table,
    tau_p_mean,
    tau_p_pair,
    tau_var,
    tau_var_general,
)

# any change to a stored layout, hash or key bumps the version: the stage stamps and
# artifacts of another version miss and are refused (see domainport.cli)
__version__ = "0.2.0"

__all__ = [
    "__version__",
    "Corpus",
    "TokenizerConfig",
    "parse_conll",
    "parse_interchange",
    "parse_jsonl_pairs",
    "parse_plaintext",
    "tokenize",
    "KLSettings",
    "SimilarityRecord",
    "cosine_distance",
    "kl_divergence",
    "lexical_difference",
    "similarity_table",
    "ComputationError",
    "ConfigError",
    "DomainportError",
    "ParseError",
    "DomainProfile",
    "EmbeddingConfig",
    "build_profile",
    "build_profile_external",
    "embed_builtin",
    "load_external_embeddings",
    "FitModel",
    "curve_points",
    "fit",
    "mean_absolute_error",
    "predict",
    "ScoreEntry",
    "ScoreTable",
    "TauObservation",
    "build_report",
    "load_score_table",
    "tau_p_mean",
    "tau_p_pair",
    "tau_var",
    "tau_var_general",
]
