"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: invalid input -> 1, verification
failure -> 2, infeasible parameters -> 3.
"""


class ChromatileError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(ChromatileError):
    """Malformed or inconsistent user input (files, vectors, flags)."""


class VerificationError(ChromatileError):
    """A produced coloring failed one of its verifiers."""


class ColorConflictError(VerificationError):
    """An edge was written twice with different colors.

    Conflicting writes always indicate a bug in a coloring algorithm,
    never bad user input; constructions are designed so that every
    double write carries the same color.  So the CLI reports a conflict
    as a verification failure.
    """


class InfeasibleError(ChromatileError):
    """Parameters are structurally infeasible (not malformed).

    Examples: a torus circumference that is not a sum of d and d+1
    parts, a core coloring requested on an odd-sided box, or no
    admissible core shift at the requested marker distance.
    """
