"""Exception hierarchy shared across the package."""


class SubstdynError(Exception):
    """Base class for all errors raised by this package."""


class SymbolError(SubstdynError):
    """A symbol does not belong to the declared alphabet."""


class RuleParseError(SubstdynError):
    """A substitution file or rule string could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EmptySubshiftError(SubstdynError):
    """The substitution generates an empty subshift."""


class WildInputError(SubstdynError):
    """A tame-only operation was invoked on a wild substitution."""


class WitnessError(SubstdynError):
    """A supplied wildness witness does not support the requested construction."""


class MarginError(SubstdynError):
    """Language stabilisation was not reached at the computed margin order."""


class NonClosureError(SubstdynError):
    """The return-word system failed to close; evidence against minimality."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class PrimitivityError(SubstdynError):
    """A substitution required to be primitive is not."""


class BlockPrefixError(SubstdynError):
    """sigma^N of a return word does not begin with sigma^N of the seed letter."""


class DerivedLengthError(SubstdynError):
    """The return-word expansion of a derived rule image does not cover
    sigma^N of its return word."""


class BlockShortfallError(SubstdynError):
    """A derived rule image stayed shorter than its return word after power lifting."""


class ConjugacyError(SubstdynError):
    """A sampled conjugacy check failed; carries a counterexample window."""

    def __init__(self, message, window=None):
        super().__init__(message)
        self.window = window


class PaddingError(SubstdynError):
    """The padding letter for a collaring is invalid or inconsistent."""


class BorderForcingError(SubstdynError):
    """Direct verification of border forcing failed; the radius is too small."""


class InconsistentRuleError(SubstdynError):
    """Internal consistency guard tripped while building a cellular map."""


class EdgeBudgetError(SubstdynError):
    """A collared alphabet exceeded the configured edge budget."""
