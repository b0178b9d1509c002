import itertools

import numpy as np

from vdtptune.stats import average_ranks

ACCEPTANCE_VERDICTS = []


def brute_force_signed_rank_p(a, b):
    """Reference signed-rank p: enumerate all 2^n sign assignments explicitly."""
    diffs = np.asarray(a, float) - np.asarray(b, float)
    diffs = diffs[diffs != 0.0]
    n = len(diffs)
    if n == 0:
        return 1.0
    ranks = average_ranks(np.abs(diffs))
    w_plus = ranks[diffs > 0].sum()
    num_le = num_ge = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s)
        if w <= w_plus + 1e-12:
            num_le += 1
        if w >= w_plus - 1e-12:
            num_ge += 1
    return min(2 * min(num_le, num_ge), 2**n) / 2**n


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # pass/fail lines from test_acceptance.py, shown even for passing tests
    # (pytest otherwise swallows their captured stdout)
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)
