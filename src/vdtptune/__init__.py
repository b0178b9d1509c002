"""vdtptune: metaheuristic tuning of VDTP file-transfer parameters.

Five optimizers (PSO, DE, GA, ES, SA) search the 3-parameter protocol space;
candidates are scored by replicated simulations of chunked file transfer over
a stochastic vehicular channel; a statistics harness compares algorithms
across independent runs.
"""

__version__ = "0.1.0"
