"""Naive greedy-run check shared by the ordering, acceptance and
instance tests.  It reads only ``g.n`` and ``g.edges`` and rescans every
live vertex at each step, so it shares no code with the peeling core in
``orientopt.ordering``."""


def ref_is_greedy_run(g, order):
    deg = [0] * g.n
    for a, b in g.edges:
        deg[a] += 1
        if b != a:
            deg[b] += 1
    alive = [True] * g.n
    for v in reversed(order):
        if deg[v] != min(deg[u] for u in range(g.n) if alive[u]):
            return False
        alive[v] = False
        for a, b in g.edges:
            if a != b and v in (a, b):
                u = b if a == v else a
                if alive[u]:
                    deg[u] -= 1
    return True
