"""Exception types shared across the package."""


class InputError(ValueError):
    """A run input breaking its rule; ``name`` is the parameter at fault."""

    def __init__(self, name, message):
        self.name = name
        super().__init__(message)


class SingularResolventError(ValueError):
    """Raised when (I - z*a) or a stage block (I - h*a (x) A_k) is singular.

    Carries the offending argument ``where``: the complex point ``z`` for
    scalar stability-function evaluation, or the mode index for a step
    size's stage blocks, whose message also names the step size ``h``.
    ``step_matrices`` finds a singular block in its s x s inverse;
    ``stability_function`` and ``stability_growth`` find it as a zero of
    the stability denominator det(I - z a) at z = h lambda.
    """

    def __init__(self, where, h=None):
        self.where = where
        super().__init__(
            f"singular resolvent at {where!r}" if h is None
            else f"singular stage block at mode {where} for h = {float(h)!r}"
        )


class ConvergenceFailureError(RuntimeError):
    """Fixed-point stage iteration did not converge within the iteration cap.

    Usually a sign that the step size is too large for the contraction
    regime.  ``stats`` holds the StepStats of the failed solve.
    """

    def __init__(self, stats, fp_tol, h):
        self.stats = stats
        super().__init__(
            f"stage iteration failed to reach fp_tol={fp_tol:g} at h={h:g} "
            f"(iterations={stats.iterations}, residual={stats.final_residual:.3e})"
        )


class NumericalBlowupError(RuntimeError):
    """NaN or Inf appeared during stage iteration or stepping."""


class UnreliableReferenceError(RuntimeError):
    """Reference-solution self-validation failed.

    No rung's discrepancy between the reference computed at h_ref and at
    h_ref/2 was small enough relative to the errors it is meant to
    resolve.  ``rungs`` lists every rung tried, in order, as the
    ``{h_ref, discrepancy, required}`` dicts a passing study reports;
    ``discrepancy`` and ``required`` are the last rung's.
    ``stage_iterations`` counts the stage iterations spent on the
    ``ladder`` and ``reference`` runs.
    """

    def __init__(self, rungs, stage_iterations):
        self.rungs = [dict(rung) for rung in rungs]
        self.stage_iterations = dict(stage_iterations)
        self.discrepancy = self.rungs[-1]["discrepancy"]
        self.required = self.rungs[-1]["required"]
        tried = "; ".join(
            f"h_ref={r['h_ref']!r} gap {r['discrepancy']:.3e} required {r['required']:.3e}"
            for r in self.rungs
        )
        super().__init__(
            f"reference self-validation failed: discrepancy {self.discrepancy:.3e} "
            f"exceeds {self.required:.3e} after {len(self.rungs)} rung(s) [{tried}]; "
            f"stage iterations: ladder {self.stage_iterations['ladder']}, "
            f"reference {self.stage_iterations['reference']}"
        )
