"""Exception types shared across the package."""


class SetlabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SetlabError):
    """Input lies outside the admissible domain (e.g. an element beyond [-1, 1])."""


class ShapeError(SetlabError):
    """Array or network shapes are inconsistent."""


class SizeError(SetlabError):
    """A size parameter is out of the supported range (set size, tuple count, ...)."""


class InfeasibleLatent(SetlabError):
    """A latent vector is not the encoding of any admissible multiset."""


class SearchExhausted(SetlabError):
    """Collision search ran out of budget before certifying a zero."""

    def __init__(self, message, best_residual=None, trace=None):
        super().__init__(message)
        self.best_residual = best_residual
        self.trace = trace


class CertMismatch(SetlabError):
    """A certificate does not belong to the encoder it is being used against."""


class ProbeDegenerate(SetlabError):
    """Supplied probes give no max-decomposition counterexample."""


class DivergenceError(SetlabError):
    """Training loss became non-finite."""


class ConfigError(SetlabError):
    """A run configuration failed to parse or validate."""
