"""vdtptune: metaheuristic tuning of VDTP file-transfer parameters.

Five optimizers (PSO, DE, GA, ES, SA) search the 3-parameter protocol space;
candidates are scored by replicated simulations of chunked file transfer over
a stochastic vehicular channel; a statistics harness compares algorithms
across independent runs.
"""

from .space import DEFAULT_BOUNDS, Bounds, VdtpConfig, quantize_for_protocol

__version__ = "0.1.0"

__all__ = [
    "Bounds",
    "DEFAULT_BOUNDS",
    "VdtpConfig",
    "quantize_for_protocol",
    "__version__",
]
