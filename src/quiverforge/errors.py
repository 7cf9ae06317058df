"""Exception hierarchy with stable machine-readable codes (used by the CLI)."""
import math
import numbers


class QuiverforgeError(Exception):
    """Base class; ``code`` is stable across releases."""

    code = "error"


class NonComposable(QuiverforgeError):
    code = "non_composable"


class LengthOverflow(QuiverforgeError):
    """A path-algebra product produced a term beyond the configured truncation
    length.  Signals the truncation boundary, not a mathematical error."""

    code = "length_overflow"


class TwistedRelationUnsupported(QuiverforgeError):
    code = "twisted_relation_unsupported"


class TwistedModuleUnsupported(QuiverforgeError):
    code = "twisted_module_unsupported"


class ShapeMismatch(QuiverforgeError):
    code = "shape_mismatch"


class NonFiniteData(QuiverforgeError):
    code = "non_finite_data"


class QuiverMismatch(QuiverforgeError):
    code = "quiver_mismatch"


class VertexSetMismatch(QuiverforgeError):
    code = "vertex_set_mismatch"


class DimensionOverflow(QuiverforgeError):
    code = "dimension_overflow"


class ZeroTotalRank(QuiverforgeError):
    code = "zero_total_rank"


class NonpositiveScale(QuiverforgeError):
    code = "nonpositive_scale"


class SingularMetric(QuiverforgeError):
    code = "singular_metric"


class IllConditionedSpectrum(QuiverforgeError):
    code = "ill_conditioned_spectrum"


class InadmissibleParameters(QuiverforgeError):
    code = "inadmissible_parameters"


class NotDivergent(QuiverforgeError):
    """Destabilizer extraction requires a divergent flow report."""

    code = "not_divergent"


class NoSeparation(QuiverforgeError):
    """The limiting endomorphism has no spectral gap above threshold.

    Carries the raw spectrum so callers can inspect it.
    """

    code = "no_separation"

    def __init__(self, message, spectrum=None):
        super().__init__(message)
        self.spectrum = spectrum


class NotASolution(QuiverforgeError):
    code = "not_a_solution"


class GaugeViolation(QuiverforgeError):
    code = "gauge_violation"


class NewtonStall(QuiverforgeError):
    """The vortex solver stopped without reaching its tolerance.

    Raised before any Newton step on data with no solution (a vertex subset
    fails the solvability test; the message names it), and otherwise when
    the Newton budget runs out or the line search on the energy finds no
    step.  Carries the best state reached and the residual history.
    """

    code = "newton_stall"

    def __init__(self, message, best_state=None, history=None):
        super().__init__(message)
        self.best_state = best_state
        self.history = history or []


class NotFlatCase(QuiverforgeError):
    code = "not_flat_case"


class UnsupportedDegrees(QuiverforgeError):
    code = "unsupported_degrees"


class UsageError(QuiverforgeError):
    """Command-line arguments that do not parse."""

    code = "usage_error"


class SchemaError(QuiverforgeError):
    """Instance validation failure; ``errors`` lists every problem found,
    each as a (json_pointer, message) pair."""

    code = "schema_error"

    def __init__(self, errors):
        self.errors = list(errors)
        lines = "; ".join(f"{ptr}: {msg}" for ptr, msg in self.errors)
        super().__init__(f"{len(self.errors)} validation error(s): {lines}")


def check_tolerance(name: str, value: float) -> None:
    """Refuse a tolerance (or scale) that is not finite and positive: NaN
    fails every comparison and infinity passes every one, so either would
    decide a verdict by itself."""
    if not math.isfinite(value):
        raise NonFiniteData(f"{name} must be finite, got {value}")
    if value <= 0:
        raise NonpositiveScale(f"{name} must be positive, got {value}")


def check_count(name: str, value: int) -> None:
    """Refuse a count or seed that is not a nonnegative integer: a float or
    a bool would fail deep inside numpy or ``range``, and a negative count
    would silently mean zero."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise NonpositiveScale(f"{name} must be a nonnegative integer, got {value!r}")


def check_seed(seed: int | None) -> None:
    """Refuse a random seed that is neither None nor a nonnegative integer
    (numpy's generators reject it)."""
    if seed is not None:
        check_count("seed", seed)
