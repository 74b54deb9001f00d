"""The random-projection test: draw directions, test projected marginals,
combine the p-values with the dependence-robust FDR rule.

The design is one recipe scaled by k_pairs: 2*k_pairs projections, half with
Beta(100, 1) directions (nearly the identity, good against non-Gaussian
marginals) and half with Beta(2, 7) directions (mixing several lags, good
against dependent non-Gaussianity with Gaussian marginal), the marginal test
alternating between the characteristic-function and the skewness-kurtosis
test within each half. The default k_pairs = 2 gives four projections, each
direction family paired once with each marginal test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

from .epps import RANDOM, epps_test
from .exceptions import DegenerateSeriesError, NumericalError
from .fdr import combined_p
from .lobato_velasco import LvConfig, lv_test
from .projection import ProjectionVector, StickBreakingParams, draw_projection_vector, project_series
from .rng import RngStream
from .series import Series

EPPS = "epps"
LV = "lv"
DELTA = 1e-15  # stick mass left unassigned when breaking stops
BETAS = ((100.0, 1.0), (2.0, 7.0))  # (alpha1, alpha2) of each half of the directions


@dataclass(frozen=True)
class ProjectionRecord:
    alpha1: float
    alpha2: float
    test: str
    statistic: float
    p_value: float
    stream_id: int
    direction: ProjectionVector
    lam: tuple | None

    def as_dict(self) -> dict:
        out = {
            "alpha1": self.alpha1,
            "alpha2": self.alpha2,
            "test": self.test,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "stream_id": self.stream_id,
            "h": [float(v) for v in self.direction.h],
        }
        out["lambda"] = None if self.lam is None else [float(v) for v in self.lam]
        return out


@dataclass(frozen=True)
class RpReport:
    projections: tuple[ProjectionRecord, ...]
    combined_p: float
    alpha: float | None
    reject: bool | None
    master_seed: int
    stream_id: int

    def p_values(self) -> list[float]:
        return [rec.p_value for rec in self.projections]

    def as_dict(self) -> dict:
        return {
            "projections": [rec.as_dict() for rec in self.projections],
            "combined_p": self.combined_p,
            "alpha": self.alpha,
            "reject": self.reject,
            "seed": {"master_seed": self.master_seed, "stream_id": self.stream_id},
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def rp_test(x: Series, rng: RngStream, k_pairs: int = 2, alpha: float | None = None,
            epps_mode: str = RANDOM, lv: LvConfig = LvConfig()) -> RpReport:
    """Run the projection test with 2*k_pairs projections on an observed path.

    The first k_pairs directions are Beta(100, 1), the other k_pairs
    Beta(2, 7); within each half the marginal test alternates, starting with
    the characteristic-function test. Projection j draws its direction from
    the substream j of `rng`, projects the path, and runs its marginal test
    on the projection; the per-projection p-values are FDR-combined. A
    degenerate projection aborts the run with a diagnostic rather than
    imputing a p-value, since silent imputation would bias rejection rates.
    """
    if int(k_pairs) != k_pairs or k_pairs < 1:
        raise ValueError("k_pairs must be a positive integer")
    if rng is None:
        raise ValueError("rp_test needs an RngStream")
    if x.n < 8:
        raise ValueError(f"series too short for testing (n={x.n} < 8)")
    if x.autocovariance(0) <= 0.0:
        raise DegenerateSeriesError("constant input cannot be tested")

    records = []
    for j, ((alpha1, alpha2), i) in enumerate(product(BETAS, range(int(k_pairs)))):
        test = EPPS if i % 2 == 0 else LV
        sub = rng.substream(j)
        params = StickBreakingParams(alpha1, alpha2, n_cap=x.n, delta=DELTA)
        direction = draw_projection_vector(params, sub)
        projected = project_series(x, direction)
        try:
            if test == EPPS:
                res = epps_test(projected, epps_mode, sub)
                lam = tuple(res.lam.values)
            else:
                res = lv_test(projected, lv)
                lam = None
        except (DegenerateSeriesError, NumericalError) as exc:
            raise type(exc)(
                f"projection {j} (beta=({alpha1:g},{alpha2:g}), "
                f"test={test}) failed: {exc}") from exc
        records.append(ProjectionRecord(
            alpha1=alpha1, alpha2=alpha2, test=test,
            statistic=res.statistic, p_value=res.p_value,
            stream_id=sub.stream_id, direction=direction, lam=lam))

    combined = combined_p([rec.p_value for rec in records])
    reject = None if alpha is None else combined <= alpha
    return RpReport(projections=tuple(records), combined_p=combined, alpha=alpha,
                    reject=reject, master_seed=rng.master_seed, stream_id=rng.stream_id)
