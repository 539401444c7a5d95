import random

from floerbar.matching import CoverMatching
from floerbar.oracles import max_bipartite_matching


def _assert_matching_on_live_edges(m, adj, stay):
    for u, v in enumerate(m.mate):
        if v != -1:
            assert stay[u] and v in adj[u] and m.back[v] == u, (u, v)
    for v, u in enumerate(m.back):
        if u != -1:
            assert m.mate[u] == v, (u, v)


def _check_covers(m, adj, stay, n2):
    got = m.covers()
    rows = [sorted(adj[u]) for u in range(len(adj)) if stay[u]]
    assert got == (-1 not in max_bipartite_matching(len(rows), n2, rows)), (adj, stay)
    _assert_matching_on_live_edges(m, adj, stay)
    if got:
        assert all(v != -1 for u, v in enumerate(m.mate) if stay[u])
    return got


def test_edit_sequences_match_hopcroft_karp():
    # edges enter and leave between cover tests, as in the shift sweep; a
    # fresh Hopcroft-Karp on the live edges of the vertices that must stay
    # decides each test
    rng = random.Random(83)
    seen = set()
    for trial in range(600):
        n1, n2 = rng.randint(0, 6), rng.randint(0, 6)
        # random stay sets, every vertex staying, or none
        kind, share = trial % 4, rng.random()
        stay = [kind == 1 or (kind == 0 and rng.random() < share) for _ in range(n1)]
        adj = [set() for _ in range(n1)]
        m = CoverMatching(adj, stay, n2)
        for _step in range(rng.randint(0, 40)):
            live = [(u, v) for u in range(n1) for v in adj[u]]
            op = rng.random()
            if op < 0.45 and n1 and n2:
                adj[rng.randrange(n1)].add(rng.randrange(n2))
            elif op < 0.75 and live:
                matched = [(u, v) for u, v in live if m.mate[u] == v]
                u, v = rng.choice(matched if matched and rng.random() < 0.6 else live)
                adj[u].discard(v)
                m.unmatch(u, v)
                seen.add(("dropped a matched edge", bool(matched)))
            else:
                seen.add(("covered", _check_covers(m, adj, stay, n2)))
        seen.update({("covered", _check_covers(m, adj, stay, n2)),
                     ("empty side", 0 in (n1, n2)), ("none stay", not any(stay))})
    assert all((key, value) in seen for key in
               ("covered", "empty side", "none stay", "dropped a matched edge")
               for value in (True, False))

