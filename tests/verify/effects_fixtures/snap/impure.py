"""REPRO017 fixtures: impurity reachable from the snapshot path."""

import random


def _log_line(msg):
    print(msg)  # io, two hops below the root


def _pick_order(entries):
    salt = random.random()
    return sorted(entries), salt


def snapshot(state):
    _log_line("snapshotting")
    return dict(state)


def ortc_table(trie):
    return _pick_order(trie)
