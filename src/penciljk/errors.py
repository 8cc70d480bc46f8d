"""Exception types raised across the package."""


class PencilJKError(Exception):
    """Base class for all package-specific errors."""


class InternalConsistencyError(PencilJKError):
    """A computed result failed one of its own bookkeeping identities.

    This always indicates a bug, never bad input.
    """


class JacobiError(PencilJKError):
    """Structure constants do not satisfy the Jacobi identity."""


class HomomorphismError(PencilJKError):
    """A claimed representation is not a Lie algebra homomorphism."""


class SparsityPatternError(PencilJKError):
    """A block-partitioned pencil violates the required zero pattern."""


class ConstantRankHypothesisError(PencilJKError):
    """The off-diagonal sub-pencil of a block reduction is not of full row
    rank at every parameter value (including infinity)."""


class RegularPointHypothesisError(PencilJKError):
    """The square diagonal sub-pencil of a block reduction is degenerate at
    every parameter value; no regular point exists."""


class CertificateNotApplicableError(PencilJKError):
    """The inputs fall outside the hypotheses of a genericity certificate."""


class DominanceSelectionError(PencilJKError):
    """Sampled invariants admit no dominance-maximal element."""


class FactorizationLimitError(PencilJKError):
    """Factoring a polynomial over Z tried more subsets of its modular
    factors than the fixed work limit allows."""


class ClosureSearchLimitError(PencilJKError):
    """Deciding a bundle closure tried more set partitions of the upper
    signature's eigenvalue slots than the fixed work limit allows."""


class InputFormatError(PencilJKError):
    """A JSON payload or command-line argument is malformed."""
