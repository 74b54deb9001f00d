"""Random-projection test of Gaussianity for strictly stationary time series.

A path is projected onto a random direction drawn by stick breaking in a
weighted sequence space; marginal-normality tests (characteristic-function
and skewness-kurtosis) run on the projected series, and their p-values are
combined by a dependence-robust FDR rule. A simulation harness estimates
rejection rates for AR(1) processes and for a pairwise-independent process
with exactly Gaussian marginal.

The names below are the user API; the kernels behind them are importable
from their modules (rpgauss.epps, rpgauss.projection, rpgauss.special, ...).
"""

from .epps import epps_test
from .exceptions import DegenerateSeriesError, NumericalError
from .lobato_velasco import LvConfig, lv_test
from .rng import InnovationFamily, RngStream
from .rp import rp_test
from .series import Series
from .simulation import Ar1Process, rejection_rate

__version__ = "0.1.0"

__all__ = [
    "Ar1Process", "DegenerateSeriesError", "InnovationFamily", "LvConfig",
    "NumericalError", "RngStream", "Series", "epps_test", "lv_test",
    "rejection_rate", "rp_test",
]
