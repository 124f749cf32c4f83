"""Exception hierarchy. Every error names the violated invariant and,
where meaningful, carries the measured violation."""


class ReductionLabError(Exception):
    """Base class for all package errors."""


class NotHermitian(ReductionLabError):
    def __init__(self, deviation, tol):
        self.deviation = deviation
        self.tol = tol
        super().__init__(
            f"matrix is not Hermitian: max |A - A^dag| = {deviation:.3e} "
            f"exceeds tolerance {tol:.3e}"
        )


class NotTraceOne(ReductionLabError):
    def __init__(self, trace, tol):
        self.trace = trace
        self.tol = tol
        super().__init__(
            f"trace = {trace} deviates from 1 by more than {tol:.3e}"
        )


class NotPositive(ReductionLabError):
    def __init__(self, min_eigenvalue, tol):
        self.min_eigenvalue = min_eigenvalue
        self.tol = tol
        super().__init__(
            f"matrix is not positive semidefinite: smallest eigenvalue "
            f"{min_eigenvalue:.3e} is below -{tol:.3e}"
        )


class EigenSolverFailure(ReductionLabError):
    pass


class ZeroProbabilitySubspace(ReductionLabError):
    def __init__(self, level, probability):
        self.level = level
        self.probability = probability
        super().__init__(
            f"subspace {level} has probability {probability:.3e}; "
            "conditioning on it is ill-defined"
        )


class DegenerateDistribution(ReductionLabError):
    pass


class DimensionMismatch(ReductionLabError):
    def __init__(self, *shapes):
        self.shapes = shapes
        super().__init__(f"incompatible operator dimensions: {shapes}")


class StepDivergence(ReductionLabError):
    def __init__(self, message, step=None):
        self.step = step
        if step is not None:
            message = f"step {step}: {message}"
        super().__init__(message)


class NonFiniteInput(ReductionLabError):
    pass


class ParseError(ReductionLabError):
    """Config text could not be parsed; message carries position/field."""


class ValidationError(ReductionLabError):
    """Parsed config violates a schema invariant; message names the field."""
