import numpy as np

from campaignsim.rng import TILE_SIZE, derive_seed, key_uniform, mix_key, splitmix64, tile_rng


def test_splitmix64_reference_values():
    # published test vectors: first two outputs of the seed-0 sequence
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4


def test_splitmix64_stays_in_64_bits():
    for x in (0, 1, 2**63, 2**64 - 1, 123456789):
        y = splitmix64(x)
        assert 0 <= y < 2**64


def test_mix_key_sensitive_to_order_and_parts():
    assert mix_key(1, 2) != mix_key(2, 1)
    assert mix_key(1) != mix_key(1, 0)
    assert mix_key(5, 7, 9) == mix_key(5, 7, 9)


def test_key_uniform_range_and_determinism():
    vals = [key_uniform(3, i, 17, 2) for i in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert vals == [key_uniform(3, i, 17, 2) for i in range(1000)]
    # crude uniformity: the mean of 1000 hashed uniforms is near 1/2
    assert abs(np.mean(vals) - 0.5) < 0.05


def test_tile_rng_streams_are_reproducible_and_distinct():
    a1 = tile_rng(9, 0).random(8)
    a2 = tile_rng(9, 0).random(8)
    b = tile_rng(9, 1).random(8)
    c = tile_rng(10, 0).random(8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_tile_size_is_the_documented_constant():
    # replication -> tile mapping is part of the reproducibility contract
    assert TILE_SIZE == 4096


def test_derive_seed_fits_in_63_bits():
    for parts in ((0,), (1, 2, 3), (2**64 - 1, 5)):
        s = derive_seed(*parts)
        assert 0 <= s < 2**63
    assert derive_seed(4, 2) == derive_seed(4, 2)
    assert derive_seed(4, 2) != derive_seed(2, 4)


# Outputs of the scalar splitmix64 / mix_key / key_uniform, recorded before
# the hash was vectorized; the array forms must reproduce them bit for bit.
SPLITMIX64_GOLDEN = [
    (0x0, 0xe220a8397b1dcdaf),
    (0x1, 0x910a2dec89025cc1),
    (0x2, 0x975835de1c9756ce),
    (0x9e3779b97f4a7c15, 0x6e789e6aa1b965f4),
    (0xffffffff, 0x73b13ba2aff181c0),
    (0x100000000, 0xc42c5a1aa3820138),
    (0x7fffffffffffffff, 0x2a67d7552e039ea7),
    (0x8000000000000000, 0x481ec0a212a9f3db),
    (0xfffffffffffffffe, 0xf3203e9039f4a821),
    (0xffffffffffffffff, 0xe4d971771b652c20),
    (0x75bcd15, 0x223c74d93deb7679),
    (0x61c8864680b583eb, 0x0),
]

KEY_GOLDEN = [  # (master seed, replication, node, step, mix_key, key_uniform)
    (0, 0, 0, 1, 0xecbbcf8377eabd17, float.fromhex('0x1.d9779f06efd58p-1')),
    (5, 3, 2, 1, 0xff09de768d5ecb58, float.fromhex('0x1.fe13bced1abd9p-1')),
    (0x13527d7, 4096, 3775, 17, 0x45dda547e6b0ac8b, float.fromhex('0x1.1776951f9ac2bp-2')),
    (0x8000000000000000, 0x100000000, 7, 2, 0xf52795687247f24e, float.fromhex('0x1.ea4f2ad0e48fep-1')),
    (0xffffffffffffffff, 0xffffffffffffffff, 0xffffffffffffffff, 0xffffffffffffffff, 0x825c3a7815b9446c, float.fromhex('0x1.04b874f02b729p-1')),
    (0x8000000000003039, 0x100000007, 3000, 40, 0xf627cdae584e1c63, float.fromhex('0x1.ec4f9b5cb09c4p-1')),
    (1, 0x10000000000, 0, 1, 0x6d0c5f1786b9a05d, float.fromhex('0x1.b4317c5e1ae68p-2')),
    (77, 3, 9, 5, 0xbaa8aa90359dae86, float.fromhex('0x1.755155206b3b6p-1')),
]


def test_splitmix64_golden_values_scalar_and_array():
    xs = np.array([x for x, _ in SPLITMIX64_GOLDEN], dtype=np.uint64)
    got = splitmix64(xs)
    assert got.dtype == np.uint64
    for (x, want), y in zip(SPLITMIX64_GOLDEN, got.tolist()):
        assert splitmix64(x) == want
        assert type(splitmix64(x)) is int
        assert y == want


def test_key_hash_golden_values_scalar_and_array():
    for *parts, key, u in KEY_GOLDEN:
        assert mix_key(*parts) == key
        assert key_uniform(*parts) == u
    # one call over arrays of keys, each part as an array or an int
    cols = [np.array([row[i] for row in KEY_GOLDEN], dtype=np.uint64) for i in range(4)]
    keys = mix_key(*cols)
    uniforms = key_uniform(*cols)
    assert keys.tolist() == [row[4] for row in KEY_GOLDEN]
    assert uniforms.tolist() == [row[5] for row in KEY_GOLDEN]
    master, rep, node, step = KEY_GOLDEN[2][:4]
    assert key_uniform(master, np.array([rep]), np.array([node]), step)[0] == KEY_GOLDEN[2][5]


def test_array_key_uniform_matches_scalar_on_kernel_keys():
    # the kernel passes rep_offset + r as int64 and node ids as intp
    rng = np.random.default_rng(3)
    reps = rng.integers(0, 2**62, size=500)
    nodes = rng.integers(0, 10**6, size=500)
    for master in (0, 7, 2**63 + 5, 2**64 - 1):
        got = key_uniform(master, reps, nodes, 9)
        want = [key_uniform(master, int(r), int(v), 9) for r, v in zip(reps, nodes)]
        assert got.tolist() == want
    assert np.all((got >= 0.0) & (got < 1.0))


def test_tile_prefix_rows_equal_the_full_tile():
    # the estimator draws only the rows a short tile uses
    for n in (1, 5, 37):
        full = tile_rng(11, 2).random((TILE_SIZE, n))
        for m in (1, 7, 1000, TILE_SIZE):
            assert np.array_equal(tile_rng(11, 2).random((m, n)), full[:m])


def test_skip_ahead_rows_equal_the_full_tile():
    # a row chunk is drawn from its own place in the tile's stream; Philox4x64
    # gives four doubles per counter step, so the widths cover every residue
    for n in (4, 5, 6, 7, 37):
        full = tile_rng(11, 2).random((TILE_SIZE, n))
        for lo in (0, 1, 3, 4095):
            rows = min(5, TILE_SIZE - lo)
            assert np.array_equal(tile_rng(11, 2, lo * n).random((rows, n)), full[lo : lo + rows])


def test_key_parts_are_reduced_modulo_2_64():
    # negative, over-wide and numpy-scalar parts key like their residues,
    # whether the fold runs on ints or on arrays
    cases = [
        ((-1,), (2**64 - 1,)),
        ((-(2**63), 5), (2**63, 5)),
        ((2**64 + 3, -7, 0), (3, 2**64 - 7, 0)),
        ((np.int64(-9), np.uint64(2**64 - 1), 4), (2**64 - 9, 2**64 - 1, 4)),
    ]
    for parts, residues in cases:
        want = mix_key(*residues)
        assert mix_key(*parts) == want
        assert mix_key(*(np.array([r], dtype=np.uint64) for r in residues))[0] == want
        assert derive_seed(*parts) == want >> 1
