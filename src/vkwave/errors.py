"""Exception types shared across the package, the rule for which error a
batched computation raises, and the test of a number argument."""

import math
import numbers


class VkwaveError(Exception):
    """Base class for all package-specific errors."""


def _first_failure(batch, one, items):
    """batch(), the batched form of one(item) over ``items``.

    When batch raises a VkwaveError, one(item) runs for each item in turn,
    and the error raised is that of the first item that fails on its own
    (batch's own error when none does).  An error row therefore quotes the
    first failing point, time or draw whatever batch holds it, and
    ``items`` is consumed only up to that item.
    """
    try:
        return batch()
    except VkwaveError:
        for item in items:
            one(item)
        raise


class ValidationError(VkwaveError, ValueError):
    """A constructor argument is outside its admissible range."""


def _is_real(value) -> bool:
    """Whether ``value`` is a real number; a bool or a str is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer, numpy's included; a bool is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _real(name: str, value) -> float:
    """``value`` as a float; raises ValidationError naming ``name`` unless
    it is a finite real number."""
    if not _is_real(value):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return float(value)


def _positive_number(name: str, value) -> float:
    """``value`` as a float; raises ValidationError naming ``name`` unless
    it is a positive finite real number (numpy's included; a bool is not
    a number here).  The float keeps a numpy scalar's type out of the
    caller's arithmetic: t + np.float32(dt) is a float32."""
    if not (_is_real(value) and math.isfinite(value) and value > 0):
        raise ValidationError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


class UnfilledSlotError(VkwaveError, LookupError):
    """A jet filled in some slots only was read in a slot it does not hold."""


class SingularFrontError(VkwaveError):
    """The spatial gradient of the level set vanishes, so the front has no
    well-defined normal direction or speed at the requested point."""


class NotOnFrontError(VkwaveError):
    """A jump quantity was requested at a point that does not lie on the
    front within tolerance."""


class SideRequiredError(VkwaveError):
    """Automatic branch selection is ambiguous exactly on the front; the
    caller must pass an explicit side."""


class NonAdmissibleRecordError(VkwaveError):
    """Closed-form jump conditions only apply to jump records that pass the
    acceleration-wave structure test."""


class ScenarioError(VkwaveError, ValueError):
    """A scenario document failed validation.  The message lists every
    offending field by path."""
