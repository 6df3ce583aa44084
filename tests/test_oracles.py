"""The test-only oracles, checked against closed forms and pinned sets."""

from __future__ import annotations

import hashlib

import oracles


def test_enumerator_yields_the_pinned_labelled_sets():
    # Counts and digest recorded from the enumerator that filtered every
    # edge mask in increasing order; the set may not move, only its order.
    counts = []
    digest = hashlib.sha256()
    for n in range(1, 8):
        graphs = sorted(oracles.connected_triangle_free_graphs(n))
        counts.append(len(graphs))
        for edges in graphs:
            digest.update(f"{n} {edges}\n".encode("ascii"))
    assert counts == [1, 1, 3, 19, 207, 3571, 93243]
    assert digest.hexdigest() == (
        "d445731da54cbad6529707701bab70be1d2a816a5d21d13c16a8a5d52fe2b53d"
    )


def test_automorphism_count_closed_forms():
    for n in range(2, 9):
        path = [(i, i + 1) for i in range(n - 1)]
        assert oracles.automorphism_count(n, path) == 2
    k33 = [(a, b) for a in range(3) for b in range(3, 6)]
    assert oracles.automorphism_count(6, k33) == 72  # 2 * 3! * 3!
    petersen = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )
    assert oracles.automorphism_count(10, petersen) == 120  # S5
