"""A fixed unit of work that gauges how fast the host runs at the moment.

The benchmark's host is a shared virtual machine whose speed drifts by a
quarter within minutes, and the drift moves every op of a run together, CPU
time included. A client therefore runs this unit after every op, outside the
timed region, and ``run.py`` rescales each op's times by ``REF_S`` over
the median time of the units run nearest to it. The end-to-end times read as
they would on a host where the unit takes ``REF_S``; a change to the program
moves them as before, since the unit does not call the program.

The unit mixes the kinds of work the ops do: interpreted Python, small
numpy array operations, small linear programs solved by scipy's HiGHS, and
the special functions the smoothing sweep evaluates over megabyte arrays.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linprog
from scipy.special import erfc, ndtri

# the unit's median wall time on the 2-vCPU host the benchmark was defined on
REF_S = 0.035

_N = 4
_COST = np.abs(np.subtract.outer(np.arange(_N, dtype=float), np.arange(_N, dtype=float))).ravel()
# row sums and column sums of an N x N transport plan
_A_EQ = np.vstack([np.kron(np.eye(_N), np.ones(_N)), np.kron(np.ones(_N), np.eye(_N))])
_B_EQ = np.concatenate([np.full(_N, 1.0 / _N), np.linspace(0.1, 0.4, _N)])
_X = np.linspace(-6.0, 6.0, 128 * 1024).reshape(128, 1024)


def _work() -> float:
    acc = 0
    for i in range(50000):
        acc += (i * 7) % 13
    m = np.full((6, 6), 1.0 / 6) + np.eye(6)
    for _ in range(400):
        m = m @ m
        m /= m.sum(axis=1, keepdims=True)
    for _ in range(6):
        res = linprog(_COST, A_eq=_A_EQ, b_eq=_B_EQ, bounds=(0, None), method="highs")
        acc += res.fun
    u = 0.5 * erfc(-0.5 * _X)
    acc += float(ndtri(np.minimum(u, 1.0 - u)).sum())
    return acc


def measure() -> tuple:
    """Wall and CPU seconds of one unit of work."""
    c0, t0 = time.process_time(), time.perf_counter()
    _work()
    return time.perf_counter() - t0, time.process_time() - c0
