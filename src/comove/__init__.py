"""Time-frequency co-movement analysis for small sets of aligned series.

The pieces: a Morlet continuous wavelet transform (:mod:`comove.cwt`),
multiple and partial wavelet coherence on up to eight series
(:mod:`comove.coherence`), an orthonormal wavelet packet transform for
trend/noise splitting (:mod:`comove.packets`), shrinkage de-noising with nine
threshold selectors (:mod:`comove.denoising`), first-order ARMA/VARMA fitting
and forecast comparison (:mod:`comove.varma`), and CSV-centric data handling
(:mod:`comove.timeseries`). The ``comove`` command line tool chains them; see
:mod:`comove.cli`.
"""

from .coherence import (
    CoherenceField,
    CoherenceResult,
    coherence_matrix_field,
    coherence_result,
)
from .cwt import (
    ScaleGrid,
    WaveletField,
    cwt_morlet,
    make_scale_grid,
    smooth,
)
from .denoising import (
    DenoiseReport,
    denoise,
    method_sweep,
)
from .packets import (
    PacketTree,
    energy_fractions,
    frequency_index,
    reconstruct_node,
    wpt_forward,
    wpt_inverse,
)
from .timeseries import (
    DataError,
    MultiSeries,
    load_csv,
    window,
)
from .varma import (
    ForecastResult,
    VarmaModel,
    evaluate_mse,
    fit_arma11,
    fit_varma11,
    forecast,
    mse_comparison,
    residuals,
    simulate_varma,
)

__version__ = "0.1.0"

__all__ = [
    "CoherenceField",
    "CoherenceResult",
    "DataError",
    "DenoiseReport",
    "ForecastResult",
    "MultiSeries",
    "PacketTree",
    "ScaleGrid",
    "VarmaModel",
    "WaveletField",
    "coherence_matrix_field",
    "coherence_result",
    "cwt_morlet",
    "denoise",
    "energy_fractions",
    "evaluate_mse",
    "fit_arma11",
    "fit_varma11",
    "forecast",
    "frequency_index",
    "load_csv",
    "make_scale_grid",
    "method_sweep",
    "mse_comparison",
    "reconstruct_node",
    "residuals",
    "simulate_varma",
    "smooth",
    "window",
    "wpt_forward",
    "wpt_inverse",
]
