import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdyson import (
    InputError,
    ResourceLimitError,
    TreeGeometry,
    collapse_sites_to_shells,
    expand_shells_to_sites,
)
from hdyson.geometry import block_bounds, block_range, pair_level
from hdyson.profiles import shell_sums, shell_weights

from reference import partition_scan_distance


def distance(i, j):
    """Hierarchical distance r(i, j) of 1-based sites: one above their coupling level."""
    return pair_level(i - 1, j - 1) + 1


def test_paper_distance_examples():
    assert distance(1, 1) == 0
    assert distance(1, 2) == 1
    assert distance(1, 3) == 2
    assert distance(1, 4) == 2


def test_distance_matches_partition_scan():
    geom = TreeGeometry(4)
    sites = np.arange(1, geom.length + 1)
    scanned = [[partition_scan_distance(i, j, geom.levels) for j in sites] for i in sites]
    assert np.array_equal(distance(sites[:, None], sites[None, :]), scanned)


def test_distance_5_7_is_2():
    assert partition_scan_distance(5, 7, 3) == 2
    assert distance(5, 7) == 2


def test_distance_symmetry_and_identity():
    geom = TreeGeometry(5)
    for i in range(1, geom.length + 1):
        for j in range(1, geom.length + 1):
            r = distance(i, j)
            assert r == distance(j, i)
            assert (r == 0) == (i == j)


def test_ultrametric_inequality_exhaustive():
    geom = TreeGeometry(6)
    labels = np.arange(geom.length)
    r = pair_level(labels[:, None], labels[None, :]) + 1
    worst = np.max(r[:, None, :] - np.maximum(r[:, :, None], r[None, :, :]))
    assert worst <= 0


def test_distance_of_site():
    geom = TreeGeometry(3)
    assert distance(1, 1) == 0
    assert distance(1, 3) == 2
    assert distance(1, 8) == 3
    for x in range(2, geom.length + 1):
        assert distance(1, x) == int(np.ceil(np.log2(x)))


def test_shell_sizes_and_census():
    # shell r holds the sites at distance r from site 1: block r's width
    geom = TreeGeometry(10)
    widths = [stop - start for start, stop in map(block_range, range(geom.levels + 1))]
    assert widths[0] == 1 and widths[3] == 4
    sites = np.arange(1, geom.length + 1)
    census = np.bincount(distance(1, sites), minlength=geom.levels + 1)
    assert census.tolist() == widths
    assert census.sum() == geom.length


def test_shell_sites_ranges():
    # block r of the 0-based labels is shell r: sites start + 1 .. stop
    geom = TreeGeometry(4)
    assert block_range(0) == (0, 1)
    for r in range(geom.levels + 1):
        start, stop = block_range(r)
        for x in range(start + 1, stop + 1):
            assert distance(1, x) == r


def level_block(p, q):
    """Sites of block q (1-based) of the level-p partition, from the distances:
    those within distance p of its first site (q - 1) 2^p + 1."""
    first = (q - 1) * (1 << p) + 1
    sites = np.arange(1, 1 << 12)
    inside = sites[distance(first, sites) <= p]
    return int(inside[0]), int(inside[-1])


def test_sibling_block_examples():
    # siblings are the two halves of one level-(p + 1) block: every pair
    # across them is at distance exactly p + 1
    assert distance(1, 2) == 1
    assert {distance(i, j) for i in (5, 6) for j in (7, 8)} == {2}
    assert {distance(i, j) for i in range(5, 9) for j in range(1, 5)} == {3}


def test_sibling_block_involution_and_merge():
    geom = TreeGeometry(4)
    labels = np.arange(geom.length)
    for p in range(geom.levels):
        width = 1 << p
        for q in range(geom.length // width):
            block = labels[q * width:(q + 1) * width]
            partner = labels[(q ^ 1) * width:((q ^ 1) + 1) * width]  # q ^ 1 ^ 1 = q
            # within a block the level is below p, across the pair exactly p,
            # so the pair merges into one block of the next level up
            assert np.all(pair_level(block[:, None], block[None, :]) < p)
            assert np.all(pair_level(block[:, None], partner[None, :]) == p)
            lo, hi = min(block[0], partner[0]), max(block[-1], partner[-1])
            assert lo % (2 * width) == 0 and hi - lo + 1 == 2 * width


def test_block_site_ranges():
    assert level_block(2, 2) == (5, 8)
    assert level_block(0, 7) == (7, 7)


def test_input_validation():
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
        assert width == (1 if r == 0 else 1 << (r - 1))
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
