"""Critical-exponent analysis for higher-order dissipative evolution models.

The package answers, for a linear evolution operator with lower-order
spatial terms and a power-type nonlinearity acting on a chosen time
derivative, where the blow-up/global-existence threshold sits, and backs
the exact arithmetic with numerical evidence: spectral simulation,
linear decay fits, and a weak-form identity residual.
"""
