"""A stand-in for numba whose `njit` compiles nothing.

With the directory above this package first on PYTHONPATH, vdtptune takes
its compiled path (`U64 = np.uint64`, one `run_sessions` call per
replication in `transfer.simulate_batch`) but runs that source as plain
Python. Each decorated function runs under `np.errstate(over="ignore")`,
since the uint64 words wrap on purpose, and keeps the undecorated function
as `py_func`, as numba's dispatchers do.

Nothing is compiled, so neither numba's type unification nor its speed is
checked. What is checked is the arithmetic of the source: uint64 words
mixed with int64 or float64 values change the draws.
"""

import functools

import numpy as np


def njit(*args, **kwargs):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*fn_args):
            with np.errstate(over="ignore"):
                return fn(*fn_args)

        run.py_func = fn
        return run

    if args and callable(args[0]):
        return wrap(args[0])
    return wrap
