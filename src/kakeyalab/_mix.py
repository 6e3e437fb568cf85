"""Deterministic 64-bit mixing used for all randomness in this package.

Every random quantity is derived by hashing integer keys through splitmix64,
so a fixed master seed reproduces every bit regardless of query order.

Published derivation rules:

* ``mix64(x)``: one splitmix64 finalization round.
* warehouse bit for cube at height ``k`` with per-axis cell indices
  ``(i_1, .., i_d)``::

      z = mix64(seed ^ GOLDEN)
      z = mix64(z ^ k)
      z = mix64(z ^ i_1); ... ; z = mix64(z ^ i_d)
      bit = z & 1

* trial seed for (master seed, experiment tag, N, trial index)::

      z = mix64(master ^ GOLDEN)
      z = mix64(z ^ tag); z = mix64(z ^ N); z = mix64(z ^ trial)
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z = (x + GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def mix_chain(seed: int, *keys: int) -> int:
    z = mix64((seed ^ GOLDEN) & MASK64)
    for k in keys:
        z = mix64((z ^ (k & MASK64)) & MASK64)
    return z


def bit_from_keys(seed: int, *keys: int) -> int:
    return mix_chain(seed, *keys) & 1


def trial_seed(master: int, tag: str, n: int, trial: int) -> int:
    tag_key = 0
    for ch in tag.encode():
        tag_key = mix64(tag_key ^ ch)
    return mix_chain(master, tag_key, n, trial)


def float01(seed: int, *keys: int) -> float:
    """Uniform float in [0,1) derived from the key chain."""
    return mix_chain(seed, *keys) / float(1 << 64)
