"""The homology lift by span growth, as a test reference.

Representatives of a basis of H_n are chosen by growing a span: the boundary
basis is registered first, and each cycle-basis column that stays independent
of the span so far is inserted and kept.  A chain map is lifted by a second
solver over [reps | boundary basis], keeping the coordinates of the reps.
Both solvers are `elimination_reference.SolverReference`, and the cycle and
boundary bases come from the same field-generic elimination, so nothing here
runs the package's elimination.  `complexes.HomologyLift` selects its
representatives from the pivot pairs of one reduction instead; the two must
pick the same columns and induce the same matrices.
"""

from elimination_reference import SolverReference, column_space_basis, kernel_basis
from hopfcross.linalg import ExactMatrix


def homology_representatives(c, n):
    """(reps, boundary basis) at degree n, each a list of column dicts."""
    field, dim = c.field, c.dims[n]
    og, inc = c.outgoing(n), c.incoming(n)
    cycles = kernel_basis(og) if og is not None else [{j: field.one} for j in range(dim)]
    bounds = column_space_basis(inc) if inc is not None else []
    solver = SolverReference(ExactMatrix(field, dim, len(bounds), bounds))
    # each chosen rep joins the solver, so later columns are reduced mod it too
    reps = [dict(col) for col in cycles if solver.insert(col)]
    return reps, bounds


def induced_reference(c, n, chain_map) -> ExactMatrix:
    """The matrix induced on H_n by chain_map, given at degree n."""
    field = c.field
    reps, bounds = homology_representatives(c, n)
    rank = len(reps)
    solver = SolverReference(ExactMatrix(field, c.dims[n], rank + len(bounds), reps + bounds))
    cols = []
    for rep in reps:
        coords = solver.coordinates(chain_map.apply(rep))
        if coords is None:
            raise ValueError(f"map does not preserve cycles mod boundaries at degree {n}")
        cols.append({i: coords[i] for i in range(rank) if not field.is_zero(coords[i])})
    return ExactMatrix(field, rank, rank, cols)
