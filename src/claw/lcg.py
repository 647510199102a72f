"""Pinned 64-bit linear congruential generator.

All experiment randomness flows through this generator so that a config
file plus a seed reproduces byte-identical results anywhere, independent of
any library RNG.  The recurrence is

    x_{k+1} = (6364136223846793005 * x_k + 1442695040888963407) mod 2^64

and uniform doubles take the top 53 bits: u = (x >> 11) / 2^53.

``lcg_floats`` produces n successive doubles in O(log n) numpy operations
by block doubling.  m steps of the recurrence are one affine map
x_{k+m} = A_m x_k + C_m (mod 2^64), and two such maps compose as

    (A_{2m}, C_{2m}) = (A_m^2, A_m C_m + C_m)  (mod 2^64),

so the states x_1..x_m give x_{m+1}..x_{2m} in one wrapping uint64 multiply
and add.  The doubling starts from x_1, the first state of ``Lcg64``.
The states, and hence the doubles, are those of ``Lcg64``.
"""

from __future__ import annotations

import numpy as np

from .measures import _checked_count

__all__ = ["Lcg64", "lcg_floats"]

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class Lcg64:
    def __init__(self, seed: int):
        self.state = int(seed) & _MASK

    def next_u64(self) -> int:
        self.state = (_MULT * self.state + _INC) & _MASK
        return self.state

    def next_float(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) / float(1 << 53)

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * self.next_float()

    def choice(self, items):
        idx = int(self.next_float() * len(items))
        return items[min(idx, len(items) - 1)]


def _doubled(mult: int, inc: int) -> tuple[int, int]:
    """The affine map x -> mult*x + inc applied twice, mod 2^64."""
    return (mult * mult) & _MASK, (mult * inc + inc) & _MASK


def lcg_floats(seed: int, count: int) -> np.ndarray:
    """The next ``count`` values of ``Lcg64(seed).next_float()``, as an array."""
    count = _checked_count(count, "count", least=0)
    # states[:m] holds x_1..x_m, and (mult, inc) maps x_k to x_{k+m}
    states = np.empty(count, dtype=np.uint64)
    states[:1] = Lcg64(seed).next_u64()
    m, mult, inc = 1, _MULT, _INC
    while m < count:
        k = min(m, count - m)
        # numpy uint64 array arithmetic wraps mod 2^64
        states[m : m + k] = states[:k] * np.uint64(mult) + np.uint64(inc)
        mult, inc = _doubled(mult, inc)
        m *= 2
    # the top 53 bits convert to float64 exactly; scaling by 2^-53 is exact
    return (states >> np.uint64(11)) * (1.0 / (1 << 53))
