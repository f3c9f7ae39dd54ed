import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdyson import (
    BlockId,
    InputError,
    ResourceLimitError,
    TreeGeometry,
    collapse_sites_to_shells,
    distance_of_site,
    expand_shells_to_sites,
    hierarchical_distance,
    multiplet_degeneracy,
    shell_sites,
    shell_size,
    sibling_block,
)
from hdyson.geometry import block_bounds, block_range, pair_level
from hdyson.profiles import shell_sums, shell_weights

from reference import partition_scan_distance


def test_paper_distance_examples():
    geom = TreeGeometry(3)
    assert hierarchical_distance(1, 1, geom) == 0
    assert hierarchical_distance(1, 2, geom) == 1
    assert hierarchical_distance(1, 3, geom) == 2
    assert hierarchical_distance(1, 4, geom) == 2


def test_distance_matches_partition_scan():
    geom = TreeGeometry(4)
    for i in range(1, geom.length + 1):
        for j in range(1, geom.length + 1):
            assert hierarchical_distance(i, j, geom) == partition_scan_distance(
                i, j, geom.levels
            )


def test_distance_5_7_is_2():
    geom = TreeGeometry(3)
    assert partition_scan_distance(5, 7, 3) == 2
    assert hierarchical_distance(5, 7, geom) == 2


def test_distance_symmetry_and_identity():
    geom = TreeGeometry(5)
    for i in range(1, geom.length + 1):
        for j in range(1, geom.length + 1):
            r = hierarchical_distance(i, j, geom)
            assert r == hierarchical_distance(j, i, geom)
            assert (r == 0) == (i == j)


def test_ultrametric_inequality_exhaustive():
    geom = TreeGeometry(6)
    L = geom.length
    labels = np.arange(L)
    bits = labels[:, None] ^ labels[None, :]
    r = np.zeros((L, L), dtype=int)
    mask = bits > 0
    r[mask] = np.floor(np.log2(bits[mask])).astype(int) + 1
    worst = np.max(r[:, None, :] - np.maximum(r[:, :, None], r[None, :, :]))
    assert worst <= 0


def test_distance_of_site():
    geom = TreeGeometry(3)
    assert distance_of_site(1, geom) == 0
    assert distance_of_site(3, geom) == 2
    assert distance_of_site(8, geom) == 3
    for x in range(1, geom.length + 1):
        assert distance_of_site(x, geom) == hierarchical_distance(1, x, geom)
        if x >= 2:
            assert distance_of_site(x, geom) == int(np.ceil(np.log2(x)))


def test_shell_sizes_and_census():
    geom = TreeGeometry(10)
    assert shell_size(0, geom) == 1
    assert shell_size(3, geom) == 4
    census = {r: 0 for r in range(geom.levels + 1)}
    for x in range(1, geom.length + 1):
        census[distance_of_site(x, geom)] += 1
    for r in range(geom.levels + 1):
        assert census[r] == shell_size(r, geom)
    assert sum(census.values()) == geom.length


def test_shell_sites_ranges():
    geom = TreeGeometry(4)
    assert shell_sites(0, geom) == (1, 1)
    for r in range(1, geom.levels + 1):
        first, last = shell_sites(r, geom)
        assert last - first + 1 == shell_size(r, geom)
        for x in range(first, last + 1):
            assert distance_of_site(x, geom) == r


def test_sibling_block_examples():
    geom = TreeGeometry(3)
    assert sibling_block(BlockId(0, 1), geom) == BlockId(0, 2)
    assert sibling_block(BlockId(1, 3), geom) == BlockId(1, 4)
    assert sibling_block(BlockId(2, 2), geom) == BlockId(2, 1)


def test_sibling_block_involution_and_merge():
    geom = TreeGeometry(4)
    for p in range(geom.levels):
        for q in range(1, (1 << (geom.levels - p)) + 1):
            block = BlockId(p, q)
            partner = sibling_block(block, geom)
            assert sibling_block(partner, geom) == block
            lo = min(block.sites()[0], partner.sites()[0])
            hi = max(block.sites()[1], partner.sites()[1])
            # merged pair is exactly one block of the next level up
            assert (lo - 1) % (1 << (p + 1)) == 0 and hi - lo + 1 == 1 << (p + 1)


def test_block_site_ranges():
    assert BlockId(2, 2).sites() == (5, 8)
    assert BlockId(0, 7).sites() == (7, 7)


def test_input_validation():
    geom = TreeGeometry(3)
    with pytest.raises(InputError):
        hierarchical_distance(0, 1, geom)
    with pytest.raises(InputError):
        hierarchical_distance(1, 9, geom)
    with pytest.raises(InputError):
        shell_size(4, geom)
    with pytest.raises(InputError):
        shell_size(-1, geom)
    with pytest.raises(InputError):
        sibling_block(BlockId(3, 1), geom)
    with pytest.raises(InputError):
        sibling_block(BlockId(0, 9), geom)
    with pytest.raises(InputError):
        TreeGeometry(0)
    with pytest.raises(InputError):
        TreeGeometry.from_length(12)
    assert TreeGeometry.from_length(8) == TreeGeometry(3)
    # the largest multiplicity, 2^(N-1), must fit in an int64
    assert TreeGeometry(63).length == 2 ** 63
    with pytest.raises(ResourceLimitError):
        TreeGeometry(64)
    with pytest.raises(ResourceLimitError):
        TreeGeometry.from_length(2 ** 70)


@settings(max_examples=60, deadline=None)
@given(levels=st.integers(1, 20), data=st.data())
def test_block_layout_properties(levels, data):
    geom = TreeGeometry(levels)
    bounds = block_bounds(levels)
    # the N+2 bounds cut [0, 2^N) into N+1 consecutive nonempty blocks
    assert len(bounds) == levels + 2
    assert bounds[0] == 0 and bounds[-1] == geom.length
    widths = np.diff(bounds)
    assert np.all(widths > 0)
    for r, width in enumerate(widths):
        assert block_range(r) == (bounds[r], bounds[r + 1])
        assert width == shell_size(r, geom) == multiplet_degeneracy(r)
        assert shell_sites(r, geom) == (bounds[r] + 1, bounds[r + 1])
    assert np.array_equal(widths, shell_weights(levels))

    labels = st.integers(0, geom.length - 1)
    i = np.array(data.draw(st.lists(labels, min_size=1, max_size=50)))
    j = np.array(data.draw(st.lists(labels, min_size=i.size, max_size=i.size)))
    expected = [(int(a) ^ int(b)).bit_length() - 1 for a, b in zip(i, j)]
    assert pair_level(i, j).tolist() == expected
    assert [pair_level(int(a), int(b)) for a, b in zip(i, j)] == expected

    small = min(levels, 12)  # arrays of 2^N sites stay small
    geom = TreeGeometry(small)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shells = rng.normal(size=(3, small + 1)) + 1j * rng.normal(size=(3, small + 1))
    assert np.array_equal(
        collapse_sites_to_shells(expand_shells_to_sites(shells, geom), geom), shells
    )
    sites = rng.normal(size=(3, geom.length))
    bounds = block_bounds(small)
    per_block = np.array([[np.sum(row[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
                          for row in sites])
    assert np.array_equal(shell_sums(sites, geom), per_block)
    assert np.array_equal(shell_sums(sites[0], geom), per_block[0])
