"""Arabic corpus cleaning, clitic segmentation, and subword tokenization."""

from .corpus import (
    Document,
    FilterConfig,
    FilterVerdict,
    IngestStats,
    arabic_ratio,
    filter_document,
    filter_stream,
    load_documents,
)
from .eval import (
    ComparisonReport,
    MetricsRow,
    compare_grid,
    evaluate_model,
    evaluate_sizes,
    roundtrip_audit,
    train_model,
)
from .morphseg import CliticTable, Segmentation, desegment_text, segment_word
from .normalize import NormalizerConfig, normalize
from .subword import (
    ALL_KINDS,
    Encoding,
    SPECIALS,
    TokenizerModel,
    count_pretokens,
    decode,
    encode,
    load_model,
    save_model,
    truncate_model,
)
from .trainers import train_from_pretokens

__version__ = "0.1.0"
