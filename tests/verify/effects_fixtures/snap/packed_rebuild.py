"""REPRO017 fixtures in the packed-rebuild idiom: impure rebuilds.

A packed backend's from-scratch rebuild runs on the snapshot path
(``ortc_table`` and the self-check behind it). Salting the paint
order with ``random`` or logging paint progress with ``print`` makes
the snapshot non-reproducible — the packed-rebuild versions of the
classic REPRO017 impurities. The pure variant paints deterministically
from the entry stream alone.
"""

import random


def _paint_range(table, lo, hi, value):
    for slot in range(lo, hi):
        table[slot] = value
    print("painted", lo, hi)  # io, one hop below the root


def _shuffled_entries(entries):
    salted = list(entries)
    random.shuffle(salted)  # rng on the rebuild path
    return salted


def snapshot(entries):
    table = [None] * 16
    for lo, hi, value in _shuffled_entries(entries):
        _paint_range(table, lo, hi, value)
    return table


def ortc_table(trie):
    return _shuffled_entries(trie)


def snapshot_now(entries):
    # the pure rebuild: deterministic paint order from the sorted entry
    # stream, instance-local table, no io — a root, and clean
    table = [None] * 16
    for lo, hi, value in sorted(entries):
        for slot in range(lo, hi):
            table[slot] = value
    return table
