"""Exception hierarchy shared by all pipeline stages.

Every error raised on purpose by this package derives from AssetTreeError,
so callers can catch one type at the top level. The concrete subclasses
mirror the failure vocabulary of the pipeline stages: input format,
alignment, numerical degeneracy, configuration, and broken invariants.
"""


class AssetTreeError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(AssetTreeError):
    """Invalid parameter combination (window sizes, thresholds, intervals)."""


class FormatError(AssetTreeError):
    """Input text does not match its expected format."""


class DuplicateRecordError(FormatError):
    """The same (ticker, date) pair appeared more than once."""


class InsufficientDataError(AssetTreeError):
    """Fewer than two usable companies, or an empty period."""


class DegenerateSeriesError(AssetTreeError):
    """A return row has zero variance over the requested window."""

    def __init__(self, tickers):
        self.tickers = tuple(tickers)
        super().__init__("zero-variance return series: %s" % ", ".join(self.tickers))


class MissingVertexError(AssetTreeError):
    """A requested ticker is not a vertex of the tree or panel."""


class SizeLimitError(AssetTreeError):
    """Exhaustive enumeration requested beyond its hard size cap."""


class UnderdeterminedFitError(AssetTreeError):
    """Fewer than three distinct degree values; no line can be assessed."""


class InvariantError(AssetTreeError):
    """A structural invariant failed: not a spanning tree, or a weight outside [0, inf)."""
