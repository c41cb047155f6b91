"""Deterministic random-number plumbing.

Replications are grouped into fixed-size tiles; each tile gets its own
counter-based Philox stream keyed by (master seed, tile index).  Because the
tile size is a constant of the algorithm, the thresholds drawn for replication
r depend only on (master seed, r) and never on batch sizes, row chunks or
worker counts.

Purchase tie-breaks use a stateless splitmix64 hash keyed by
(master seed, replication, node, step) so the outcome is independent of the
order in which nodes are examined.  The hash works elementwise on uint64
arrays, so the kernel breaks every tie of a step in one call; an int key
gives bit-for-bit the value the same key gives inside an array.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

# Replications per threshold tile.  Part of the deterministic contract: changing
# this value changes which uniforms a given replication sees.
TILE_SIZE = 4096

_MIX_KEY_INIT = 0x243F6A8885A308D3


def splitmix64(x):
    """One round of the splitmix64 mixer (Steele et al.), elementwise on uint64.

    Arithmetic wraps modulo 2**64.  An int gives an int (any int is first
    reduced modulo 2**64); an array gives a uint64 array of the same shape.
    """
    if isinstance(x, int):
        # Python int arithmetic: a numpy round trip costs more than the hash
        z = (x + 0x9E3779B97F4A7C15) & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)
    z = np.array(x, dtype=np.uint64, ndmin=1)
    with np.errstate(over="ignore"):
        z += np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return z.reshape(np.shape(x))


def _as_uint64(part) -> np.ndarray:
    """A key part reduced modulo 2**64: ints of any size, integer arrays of any sign."""
    if isinstance(part, (int, np.integer)):
        return np.uint64(int(part) & MASK64)
    return np.asarray(part).astype(np.uint64)


def mix_key(*parts):
    """Fold integer parts into a single well-mixed 64-bit key.

    Parts may be ints or integer arrays, which broadcast: scalars give an
    int, otherwise the result is a uint64 array with one key per element.
    """
    if all(isinstance(p, (int, np.integer)) for p in parts):
        # all scalars: fold in Python ints, no numpy round trip per part
        acc = _MIX_KEY_INIT
        for p in parts:
            acc = splitmix64(acc ^ (int(p) & MASK64))
        return acc
    acc = np.uint64(_MIX_KEY_INIT)
    for p in parts:
        acc = splitmix64(acc ^ _as_uint64(p))
    return int(acc) if np.ndim(acc) == 0 else acc


def key_uniform(*parts):
    """Deterministic uniform in [0, 1) derived from the given key parts.

    Takes the parts mix_key takes; one call hashes a whole array of keys.
    """
    key = mix_key(*parts)
    if isinstance(key, int):
        return key / 2.0**64
    return key.astype(np.float64) / 2.0**64


def tile_rng(master_seed: int, tile_index: int, skip: int = 0) -> np.random.Generator:
    """Counter-based generator for one replication tile, past its first skip doubles.

    Philox4x64 makes four 64-bit words per counter step and random() takes
    one word per double, so the skip costs one counter jump plus at most
    three draws: any row of a tile is drawn without the rows before it.
    """
    ss = np.random.SeedSequence(entropy=(int(master_seed) & MASK64, int(tile_index)))
    gen = np.random.Generator(np.random.Philox(seed=ss))
    if skip:
        gen.bit_generator.advance(skip // 4)
        gen.random(skip % 4)
    return gen


def derive_seed(*parts: int) -> int:
    """A 63-bit sub-seed for nested components (optimizer inner runs etc.)."""
    return mix_key(*parts) >> 1
