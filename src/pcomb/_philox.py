"""Philox4x64-10 (Salmon et al., SC'11) evaluated in numpy for a range of
replicates at once.

Row r of ``uniforms(seed, config_index, lo, hi, n)`` is bit for bit
``Generator(Philox(key=seed, counter=(config_index << 192) | (r << 64))).random(n)``:
Philox is counter-based, so the words of every replicate are a pure function
of (key, counter) and need no generator state, and words that are constant
along a replicate or a counter need not be computed at full size.
"""

from __future__ import annotations

import numpy as np

ROUNDS = 10
_MASK64 = (1 << 64) - 1
_LO32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of m * x, the high word from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _SHIFT32
    lh = x_lo * m_hi
    cross = ((x_lo * m_lo) >> _SHIFT32) + (lh & _LO32) + x_hi * m_lo
    hi = x_hi * m_hi + (lh >> _SHIFT32) + (cross >> _SHIFT32)
    return hi, x * np.uint64(m)


def uniforms(seed: int, config_index: int, lo: int, hi: int, n: int) -> np.ndarray:
    """(hi - lo, n) doubles in [0, 1): the first n draws of replicates lo..hi-1.

    The b-th counter of replicate r has the words (b + 1, r, 0, config_index);
    each counter gives four words, and a word w gives the double
    (w >> 11) * 2**-53, as ``Generator.random`` does.  The words are laid
    out as (counters, replicates): c0 starts as one column, c1 as one row
    and c2, c3 as 1x1, and the rounds broadcast them to full size, so only
    15 of the 20 ``_mulhilo`` calls run on the whole block.  The lanes are
    written as contiguous rows: the result is the transpose of a
    C-contiguous (n, replicates) array."""
    reps, counters = hi - lo, -(-n // 4)
    c0 = np.arange(1, counters + 1, dtype=np.uint64)[:, None]
    c1 = np.arange(lo, hi, dtype=np.uint64)[None, :]
    c2 = np.zeros((1, 1), dtype=np.uint64)
    c3 = np.full((1, 1), config_index, dtype=np.uint64)
    k0, k1 = seed & _MASK64, seed >> 64
    for _ in range(ROUNDS):
        hi0, lo0 = _mulhilo(_M0, c0)
        hi1, lo1 = _mulhilo(_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
        # key bumps in Python ints, so no numpy scalar can overflow
        k0, k1 = (k0 + _W0) & _MASK64, (k1 + _W1) & _MASK64
    u = np.empty((counters, 4, reps))
    for lane, c in enumerate((c0, c1, c2, c3)):
        np.multiply(c >> np.uint64(11), 2.0 ** -53, out=u[:, lane])
    return u.reshape(4 * counters, reps)[:n].T
