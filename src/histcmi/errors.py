"""Exception types shared across the package."""


class InputError(ValueError):
    """Rejected input: non-finite values, empty data, bad parameters."""


class LabelingError(InputError):
    """A value fell outside every bin (bins were built from different data)."""


class ModelError(RuntimeError):
    """Invalid histogram model state (e.g. a cell with non-positive volume)."""
