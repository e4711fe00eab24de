"""Deterministic PRNG (splitmix64) for weight init and data generation.

Every source of randomness in the package goes through this generator so that
runs are reproducible bit-for-bit from a single u64 seed, independent of
numpy's global state.
"""

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_NORMAL_CHUNK = 1 << 16  # Box-Muller pairs per chunk: about 3 MB of f64 temporaries


def mix64(z: int) -> int:
    """splitmix64 finalizer: avalanche a 64-bit value."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps mod 2^64, which is exactly what splitmix64 wants
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class Prng:
    """splitmix64 stream. Same seed => same sequence, f32 draws in [0,1)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        return mix64(self.state)

    def next_u64_array(self, n: int) -> np.ndarray:
        """n raw outputs, bit-identical to n calls of next_u64."""
        out = self._u64_at(0, n)
        self.state = (self.state + n * _GAMMA) & _MASK64
        return out

    def _u64_at(self, lo: int, hi: int) -> np.ndarray:
        """Outputs lo..hi-1 of the stream ahead, without advancing it: the
        k-th is mix64(state + (k+1)*gamma)."""
        steps = np.arange(lo + 1, hi + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        return _mix64_vec(np.uint64(self.state) + steps)

    def next_f32(self) -> float:
        # top 24 bits -> [0,1) on the f32 grid
        return float(np.float32((self.next_u64() >> 40) * 2.0**-24))

    def uniform_array(self, n: int) -> np.ndarray:
        """n f32 values in [0,1), same stream as repeated next_f32."""
        bits = self.next_u64_array(n) >> np.uint64(40)
        return (bits * 2.0**-24).astype(np.float32)

    def normal(self, shape, std: float = 1.0) -> np.ndarray:
        """Zero-mean Gaussian f32 array via Box-Muller.

        Consumes two u64 draws per pair of outputs: for n outputs and
        m = ceil(n/2) pairs, draws 0..m-1 give u1 and draws m..2m-1 give u2.
        Pair i yields the cos value at position i and the sin value at
        position m+i; the sin value past position n-1 is dropped. u1 is
        shifted into (0,1] so log never sees zero. Computed in f64, stored
        f32, a bounded chunk of pairs at a time.
        """
        n = int(np.prod(shape)) if shape else 1
        m = (n + 1) // 2
        out = np.empty(n, dtype=np.float32)
        for lo in range(0, m, _NORMAL_CHUNK):
            hi = min(lo + _NORMAL_CHUNK, m)
            a = self._u64_at(lo, hi) >> np.uint64(40)
            b = self._u64_at(m + lo, m + hi) >> np.uint64(40)
            u1 = (a.astype(np.float64) + 1.0) * 2.0**-24  # (0,1]
            u2 = b.astype(np.float64) * 2.0**-24  # [0,1)
            r = np.sqrt(-2.0 * np.log(u1))
            out[lo:hi] = std * (r * np.cos(2.0 * math.pi * u2))
            sin = std * (r * np.sin(2.0 * math.pi * u2))
            out[m + lo: min(m + hi, n)] = sin[: n - m - lo]
        self.state = (self.state + 2 * m * _GAMMA) & _MASK64
        return out.reshape(shape)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates using next_u64 % i (determinism over uniformity)."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            items[i], items[j] = items[j], items[i]
