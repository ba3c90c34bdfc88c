"""Shared exception and warning types."""


class BudgetError(RuntimeError):
    """A request exceeds a configured enumeration or size budget."""


class RankDeficiencyWarning(UserWarning):
    """Generator rows are linearly dependent; spectra count the row space once."""
