"""Names the command line reads before it loads any other module: the two
error types and the integral names and defaults.

This module imports nothing, so `sievelab.cli` can parse arguments and map
errors to exit codes while commands that never read the catalog load
neither `catalog`, `params` nor `regions`.  Those modules re-export the
names defined here; each is one object wherever it is imported from.
"""

__all__ = ["RegionError", "AmbiguityError", "NAMED", "DEFAULT_SEED", "DEFAULT_BUDGET"]

# The catalogued loss integrals `quadrature.named_integral` evaluates by
# name, and the seed and sample budget of an integral by default.
NAMED = ("I1", "I2", "I3", "I4", "I5", "I6", "S235", "S236", "S237", "U233", "U234")
DEFAULT_SEED = 0x5EED
DEFAULT_BUDGET = 1 << 22


class RegionError(ValueError):
    """Domain/configuration error raised by region evaluation."""


class AmbiguityError(RegionError):
    """Point sits on a subregion boundary; all matches are listed."""

    def __init__(self, matches):
        self.matches = list(matches)
        super().__init__("ambiguous classification: " + ", ".join(self.matches))
