"""Numerical tolerance constants used across operators and tests.

Kept in one place so every module checks the same contracts.
"""

# Hermiticity defect allowed in assembled sparse operators
HERMITICITY = 1e-12

# Projection contracts: idempotency P*P = P and resolution sum_k P_k = 1
IDEMPOTENCY = 1e-10
RESOLUTION = 1e-10

# Trace of a represented cyclic projection vs |G|/nu
TRACE = 1e-8

# Eigenvalue containment between successive quotient levels
CONTAINMENT = 1e-8

# Numeric matrices must preserve the bilinear form to this accuracy
FORM_PRESERVATION = 1e-9

# Hyperboloid sheet drift beyond which a point is renormalized with a warning
SHEET_DRIFT = 1e-8

# Geodesic midpoint must bisect distances to this accuracy
MIDPOINT = 1e-10

# Partition-of-unity sum defect
PARTITION = 1e-12

# eval_real ring homomorphism check (relative)
EVAL_HOMOMORPHISM = 1e-9

# Normwise backward error of a sparse LU solve in eigenpairs_near
FACTOR_BACKWARD = 1e-10

# Residual ||H x - lambda x|| of every unit eigenvector eigenpairs_near returns
EIGENPAIR_RESIDUAL = 1e-9
