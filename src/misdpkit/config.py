"""Central tolerance policy: `DEFAULT`, the one fixed set of float tolerances.

There is no per-call or environment override.  The Jacobi kernel's
convergence constants live beside it in `_kernels`.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # is_psd accepts lambda_min >= -psd_scale * max(1, ||A||_inf)
    psd_scale: float = 1e-8
    # num_rank counts |lambda| > rank_scale * max(1, max|lambda|)
    rank_scale: float = 1e-7
    # residual tolerance for linear rows over float data (integer data is exact)
    lin_feas: float = 1e-9
    # spectral-projection clustering tolerance for association schemes
    eig_group: float = 1e-7

    def psd_tol(self, inf_norm: float) -> float:
        return self.psd_scale * max(1.0, inf_norm)

    def rank_tol(self, max_abs_eig: float) -> float:
        return self.rank_scale * max(1.0, max_abs_eig)


DEFAULT = Tolerances()
