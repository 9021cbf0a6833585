"""Correlation-based minimal spanning tree analytics for equity panels.

Pipeline: price table -> aligned panel -> log returns -> Pearson
correlation -> distances -> minimum spanning tree -> degree statistics,
tree-compactness metrics, and phase labels, optionally over rolling
windows with a transition report.
"""

from .correlation import pearson_matrix, to_distance
from .errors import (
    AssetTreeError,
    ConfigurationError,
    DegenerateSeriesError,
    DuplicateRecordError,
    FormatError,
    InsufficientDataError,
    InvariantError,
    MissingVertexError,
)
from .ingestion import (
    ParseResult,
    ReturnPanel,
    align_and_filter,
    parse_price_table,
)
from .metrics import (
    PhaseLabel,
    PhaseRule,
    PowerLawFit,
    TreeSummary,
    PHASE_MULTI_HUB,
    PHASE_POWER_LAW,
    PHASE_SUPERHUB,
    classify_phase,
    fit_power_law,
    summarize,
    summarize_batch,
)
from .mst import (
    Tree,
    check_tree,
    prim_batch,
)
from .rolling import (
    MetricSeries,
    TransitionReport,
    WindowSpec,
    detect_transitions,
    evolve,
    period_center,
    windows,
)
from .synth import (
    FactorModelParams,
    HubRegimeParams,
    hub_regime_returns,
    one_factor_returns,
)

__version__ = "0.1.0"
