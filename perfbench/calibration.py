"""Host-speed calibration, so pass times compare across a noisy shared host.

On the 2-core x86-64 container this benchmark was built on, the host's speed
drifts by up to 2x over seconds to minutes as other tenants' load comes and
goes, and different code slows by different amounts.  Raw median pass times
of 30-second runs spread by 13-30% across runs, which swamps a 25%
regression bound.  So each workload interleaves its passes with a fixed
calibration kernel that does the same kind of work in plain numpy, with no
sampledkf code:

* ``dense``: chained 61x61 complex products, like the dense filter steps of
  ``rate_curves``;
* ``mixed``: an interpreter-bound loop of 21x21 products and ufunc calls on
  10-element arrays, per-trial Philox generators and large batched
  products, like the call-heavy paths of ``telescope`` and
  ``driven_validation``.

A pass's time is reported at reference speed: its measured seconds times
``reference / measured``, where ``measured`` is the mean kernel time of the
samples taken just before and just after the pass and ``reference`` is the
kernel's time there in a fast phase.  Over 5-minute recordings on that
container this cut the spread of 30-second medians from 26% to 8%
(``rate_curves`` with ``dense``), 27% to 5% (``driven_validation``) and 14%
to 8% (``telescope``, both with ``mixed``); kernels that did not match a
workload's kind of work made its spread worse.  Set-up time is scaled by
``mixed`` samples taken around each set-up process; that tracks only once
the run is pinned to one CPU (see ``run._pin_fastest_cpu``), which cut the
spread of 5-process medians from 38% to 10% there.  Raw times stay in the
run manifest.
"""

from __future__ import annotations

import time

import numpy as np



def _arrays():
    rng = np.random.default_rng(0)
    dense = rng.standard_normal((61, 61)) + 1j * rng.standard_normal((61, 61))
    dense /= np.abs(np.linalg.eigvals(dense)).max()
    return dense, dense[:21, :21].copy(), rng.standard_normal(10) + 0j


_DENSE, _SMALL, _VEC = _arrays()


def _dense() -> float:
    x = _DENSE.copy()
    for _ in range(300):
        x = _DENSE @ x @ _DENSE.conj().T
        x = (x + x.conj().T) / 2.0
        x /= np.abs(x).max()
    return float(x.real.sum())


def _mixed() -> float:
    x = _SMALL.copy()
    acc = 0.0
    for i in range(1000):
        x = _SMALL @ x
        x = x / np.abs(x).max()
        y = np.expm1(_VEC * (i % 7)) / (_VEC + 1.0)
        acc += float(np.abs(y).sum())
    rows = np.empty((2000, 22))
    for j in range(2000):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence([7, j])))
        rows[j] = gen.standard_normal(22)
    state = rows @ (_SMALL[:, :1] * np.ones((1, 22))).T
    for _ in range(10):
        state = state @ _SMALL.T
        state /= np.abs(state).max()
    return acc + float(np.abs(state).sum())


#: name -> (kernel, calls per sample, reference seconds per call on the
#: 2-core container).  A sample is the mean time per call.  ``dense`` serves
#: passes of about 8 s, which average over the host's sub-second switching
#: between fast and slow states, so its samples are long enough to do the
#: same; ``mixed`` serves passes of 2-4 s.
KERNELS = {
    "dense": (_dense, 20, 0.042),
    "mixed": (_mixed, 3, 0.054),
}


class Calibrator:
    """Takes calibration samples of one kernel and turns times into
    reference-speed times."""

    def __init__(self, kind: str):
        self.kernel, self.calls, self.reference = KERNELS[kind]
        self.samples: list[float] = []
        self.kernel()  # first-call set-up in numpy and BLAS stays out of the samples

    def sample(self) -> float:
        start = time.perf_counter()
        for _ in range(self.calls):
            self.kernel()
        value = (time.perf_counter() - start) / self.calls
        self.samples.append(value)
        return value

    def factor(self, before: float, after: float) -> float:
        """Turns seconds measured between two samples into reference-speed
        seconds."""
        return self.reference / ((before + after) / 2.0)
