"""Shared numerical tolerances.

The tolerances that validation and the test assertions share; step floors,
cut-offs and check bounds used by one module only stay literals there.
"""

# Input validation (hermiticity, orthonormality, trace, ...).
VALIDATION_TOL = 1e-10

# Analytic assertions (inequalities, equalities between closed forms).
ASSERTION_TOL = 1e-9

# Gap allowed between a sampled lower bound and the analytic value it chases.
ORACLE_GAP = 1e-3

# Looser orthonormality tolerance for bases read from files, which may have
# been written with fewer digits; such bases go through Gram-Schmidt repair.
FILE_INPUT_TOL = 1e-8

# Values within this of a maximum count as tied with it; a witness index is
# the lowest tied index, so round-off cannot pick among exact ties.
TIE_TOL = 1e-12
