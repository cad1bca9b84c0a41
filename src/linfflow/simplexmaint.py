"""The dense simplex recursion of mirror-prox's dual (Nemirovski 2004).

``ReferenceSimplex`` keeps y proportional to exp(v) under the pair

    v_{t+1/2} = (1 - c) v_t - delta_t
    v_{t+1}   = v_t - c v_{t+1/2} - delta_t - zeta_t

at O(n) per update.  Over the doubled rows it is the oracle of the folded
``mirrorprox.phase_iterates`` kernel.  The paper's implicit structure for this
recursion, ``SimplexMaintainer``, was measured slower than the dense dual at
every size and no solver calls it, so it is a tested reference under
``tests/simplex_maintainer.py``.  The module keeps its name because the
benchmark's span tracer imports every linfflow module by name.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, SolverFault


class ReferenceSimplex:
    """Dense twin: the same recursion carried with explicit vectors.

    It serves as the oracle the tests compare ``SimplexMaintainer`` against,
    and, over the doubled rows, the folded mirror-prox kernel.  Each query costs
    O(n); the normalised weights and those of the half step are cached until
    the next update.
    """

    def __init__(self, v0, eps, kappa):
        self.v = np.asarray(v0, dtype=np.float64).copy()
        self.v -= self.v.max()
        self.n = len(self.v)
        log_n = max(math.log(self.n), 1.0)
        self.c = eps / (4.0 * kappa * log_n)
        self.vh = None
        self._half_delta = None
        self._yh = None
        self._y = None

    def update_half(self, delta):
        delta = np.asarray(delta, dtype=np.float64)
        if delta.shape != (self.n,):
            raise InputError("delta length mismatch")
        if np.abs(delta).max() > 1.0 / (8.0 * self.n) + 1e-12:
            raise InputError("dense update exceeds the 1/(8n) stability bound")
        self.vh = (1.0 - self.c) * self.v - delta
        self._half_delta = delta.copy()
        self._yh = None

    def update(self, delta, zeta=()):
        if self._half_delta is None:
            self.update_half(delta)
        elif not np.array_equal(self._half_delta, delta):
            raise InputError("update delta differs from the update_half delta")
        zvec = np.zeros(self.n)
        for i, val in (zeta.items() if isinstance(zeta, dict) else zeta):
            zvec[int(i)] += float(val)
        self.v = self.v - self.c * self.vh - self._half_delta - zvec
        self.vh = None
        self._half_delta = None
        self._yh = None
        self._y = None

    def y(self):
        e = np.exp(self.v - self.v.max())
        return e / e.sum()

    def y_half(self):
        e = np.exp(self.vh - self.vh.max())
        return e / e.sum()

    def y_power(self, power):
        e = np.exp(power * (self.v - self.v.max()))
        return e / e.sum()

    def values(self):
        return self.v.copy()

    def coord(self, i):
        if self._y is None:
            self._y = self.y()
        return float(self._y[i])

    def coord_half(self, i):
        if self.vh is None:
            raise SolverFault("coord_half before update_half")
        if self._yh is None:
            self._yh = self.y_half()
        return float(self._yh[i])
