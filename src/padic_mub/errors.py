"""Exception types shared across the package."""


class PrecisionError(ValueError):
    """A value does not carry enough significant digits for the operation."""


class ResolutionError(ValueError):
    """A grid is too coarse for the requested function to be cell-constant."""


class CapError(RuntimeError):
    """An exhaustive computation would exceed its configured size cap."""


class OddPrimeError(ValueError):
    """Raised where a closed-form norm formula requires p != 2
    (`check_odd_prime`)."""

    def __init__(self, context: str = "closed-form quadratic Gauss norm"):
        super().__init__(
            f"{context} requires an odd prime: the case analysis relies on "
            "2 being invertible, so p = 2 is outside its hypothesis"
        )


def check_odd_prime(p: int, *context: str) -> None:
    """Raise OddPrimeError(*context) for p = 2, the one prime outside the
    hypothesis of the closed norm table and the p + 1 families: the only
    place in the package that compares p with 2."""
    if p == 2:
        raise OddPrimeError(*context)


def check_power_cap(p: int, e: int, cap: float, message: str) -> None:
    """Raise CapError(message.format(size="p^e", cap=cap)) if p^e > cap, for
    p, e >= 0; no power past p * cap is formed, so a huge e costs no time."""
    size = 1
    for _ in range(e):
        size *= p
        if size > cap or size < 2:  # over the cap, or p^e = size for p < 2
            break
    if size > cap:
        raise CapError(message.format(size=f"{p}^{e}", cap=cap))
