"""Mode partitions: parsing, enumeration, refinement, block labels and masks."""
from __future__ import annotations

import re

import numpy as np
import pytest

from cvwitness.partitions import (
    Partition,
    PartitionError,
    all_partitions,
    bipartitions,
    free_mask,
    is_finer,
    parse_partition,
    symmetric_bipartition_representatives,
)


def test_parse_and_canonical_text():
    p = parse_partition("12|34", 4)
    assert p.blocks == ((1, 2), (3, 4))
    assert p.text == "12|34"
    assert parse_partition("21|43", 4) == p
    assert parse_partition("34|12", 4) == p


def test_parse_singletons_and_trivial():
    assert parse_partition("1|2|3", 3) == Partition.singletons(3)
    assert parse_partition("123", 3) == Partition.trivial(3)
    assert Partition.trivial(3).k == 1
    assert Partition.singletons(3).k == 3


def test_parse_rejects_bad_input():
    for text in ("1|2", "12|33", "0|1234", "1|245", "|1234", "1||234", "1|23x", ""):
        with pytest.raises(PartitionError):
            parse_partition(text, 4)


@pytest.mark.parametrize("text, n", [("1|\u00b2", 2), ("\u00b2,1|3", 3)])
def test_superscript_digit_is_not_a_mode_label(text, n):
    # "\u00b2" passes str.isdigit() but int() rejects it.
    with pytest.raises(PartitionError, match="invalid mode label '\u00b2'"):
        parse_partition(text, n)


def test_multidigit_modes_need_commas():
    p = parse_partition("1,10|2,3,4,5,6,7,8,9", 10)
    assert p.blocks[0] == (2, 3, 4, 5, 6, 7, 8, 9) or p.blocks[0] == (1, 10)
    assert p.k == 2
    assert sorted(sum(p.blocks, ())) == list(range(1, 11))


@pytest.mark.parametrize("n", [10, 11, 12])
def test_text_parses_back_above_nine_modes(n):
    # "12|1,2,...,11" must read 12 as one label, not as modes 1 and 2.
    for p in bipartitions(n):
        assert parse_partition(p.text, n) == p


def test_partition_of_validates():
    with pytest.raises(PartitionError):
        Partition.of([[1, 2], [2, 3]], 3)
    with pytest.raises(PartitionError):
        Partition.of([[1], [3]], 3)
    with pytest.raises(PartitionError):
        Partition.of([[1, 2], []], 2)


def test_block_of():
    p = parse_partition("13|24", 4)
    assert [p.block_of(i) for i in (1, 2, 3, 4)] == [0, 1, 0, 1]


def test_labels_match_block_membership():
    for n in range(1, 8):
        for p in all_partitions(n):
            want = []
            for i in range(1, n + 1):
                for k, block in enumerate(p.blocks):
                    if i in block:
                        want.append(k)
            assert p.labels.tolist() == want
            assert p.labels is p.labels  # computed once per partition object


def test_cached_block_arrays_are_read_only():
    p = parse_partition("13|24", 4)
    for array in (p.labels, free_mask(p), p.indices[0]):
        with pytest.raises(ValueError):
            array[0] = 1
    assert p.labels.tolist() == [0, 1, 0, 1]
    assert [idx.tolist() for idx in p.indices] == [[0, 2], [1, 3]]


def test_all_partitions_bell_numbers():
    # Bell numbers count set partitions.
    for n, bell in ((1, 1), (2, 2), (3, 5), (4, 15), (5, 52)):
        parts = all_partitions(n)
        assert len(parts) == bell
        assert len(set(parts)) == bell


def test_bipartition_counts_and_order():
    for n in (2, 3, 4, 5, 6):
        bips = bipartitions(n)
        assert len(bips) == 2 ** (n - 1) - 1
    texts = [p.text for p in bipartitions(4)]
    assert texts == ["1|234", "2|134", "3|124", "4|123", "12|34", "13|24", "14|23"]


def test_symmetric_bipartition_representatives():
    reps = [p.text for p in symmetric_bipartition_representatives(4)]
    assert reps == ["1|234", "12|34"]
    assert len(symmetric_bipartition_representatives(7)) == 3


def test_is_finer():
    fine = parse_partition("1|2|34", 4)
    coarse = parse_partition("12|34", 4)
    assert is_finer(fine, coarse)
    assert not is_finer(coarse, fine)
    assert is_finer(Partition.singletons(4), coarse)
    assert is_finer(coarse, Partition.trivial(4))
    assert not is_finer(parse_partition("13|24", 4), coarse)
    assert is_finer(coarse, coarse)


@pytest.mark.parametrize(
    "call, cause",
    [
        (lambda: bipartitions(1), "bipartitions need n >= 2, got 1"),
        (lambda: symmetric_bipartition_representatives(1), "representatives need n >= 2, got 1"),
        (lambda: Partition.trivial(3).block_of(0), "index 0 out of range 1..3"),
        (lambda: is_finer(Partition.trivial(3), Partition.trivial(4)), "mode counts differ: 3 vs 4"),
    ],
    ids=["bipartitions", "representatives", "block_of", "is_finer"],
)
def test_out_of_range_input_is_refused(call, cause):
    with pytest.raises(PartitionError, match=re.escape(cause)):
        call()


def test_free_mask_trivial_and_singletons():
    assert not free_mask(Partition.trivial(5)).any()
    m = free_mask(Partition.singletons(3))
    assert np.array_equal(m, ~np.eye(3, dtype=bool))


def test_free_mask_bipartition():
    fm = free_mask(parse_partition("12|34", 4))
    want = np.zeros((4, 4), dtype=bool)
    for i in (0, 1):
        for j in (2, 3):
            want[i, j] = want[j, i] = True
    assert np.array_equal(fm, want)


def test_free_mask_grows_with_refinement():
    gen = np.random.default_rng(2)
    for _ in range(20):
        n = int(gen.integers(2, 7))
        parts = all_partitions(n)
        a = parts[int(gen.integers(len(parts)))]
        b = parts[int(gen.integers(len(parts)))]
        if is_finer(a, b):
            ma, mb = free_mask(a), free_mask(b)
            assert np.array_equal(mb & ma, mb)


def test_all_partitions_rejects_large_n():
    with pytest.raises(ValueError):
        all_partitions(13)
