"""Exception types shared across the package, and the rule for which
error a batched computation raises."""


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


class UnfilledSlotError(VkwaveError, LookupError):
    """A jet filled in some slots only was read in a slot it does not hold."""


class SingularFrontError(VkwaveError):
    """The spatial gradient of the level set vanishes, so the front has no
    well-defined normal direction or speed at the requested point."""


class FrontProximityError(VkwaveError):
    """A finite-difference stencil would straddle the discontinuity front,
    which would silently mix values from the two branches."""


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
