"""Word-level Reidemeister-Schreier rewriting: the reference that the
tests hold ``congsub.rewriting.relation_rows`` against.

Every relator is rewritten from every state into a word over the
Schreier generators, the word is freely reduced, and only then are its
exponent sums taken.  The spanning tree comes from a breadth-first
search, not from the package's numbering walk, so this shares no code
with the package's rewriter.
"""
from collections import deque


def reference_tree_edges(columns):
    """The discovery edges (state, name) of a breadth-first search from
    state 0 that explores each state's columns in order."""
    seen, queue, tree = {0}, deque([0]), set()
    while queue:
        c = queue.popleft()
        for name, col in columns.items():
            if col[c] not in seen:
                seen.add(col[c])
                tree.add((c, name))
                queue.append(col[c])
    return tree


def free_reduce(word):
    """Free reduction of a word of nonzero signed letters (-a inverts a)."""
    out = []
    for a in word:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def rewrite_relators(columns, relators):
    """The Schreier generators, the edges off the breadth-first tree
    listed state-major in column order, and each relator read from every
    state, relator-major, as a freely reduced word of signed 1-based
    generator numbers.  A relator that does not close raises
    ``RuntimeError``."""
    names = list(columns)
    n = len(columns[names[0]])
    tree = reference_tree_edges(columns)
    edges = [(c, name) for c in range(n) for name in names if (c, name) not in tree]
    number = {edge: k for k, edge in enumerate(edges, 1)}
    inverse = {name: {d: c for c, d in enumerate(col)} for name, col in columns.items()}
    words = []
    for rel in relators:
        for c in range(n):
            cur, out = c, []
            for name, e in rel:
                if e == 1:
                    out.append(number.get((cur, name), 0))
                    cur = columns[name][cur]
                else:
                    cur = inverse[name][cur]
                    out.append(-number.get((cur, name), 0))
            if cur != c:
                raise RuntimeError("relator %r does not close at state %d" % (rel, c))
            words.append(free_reduce(k for k in out if k))
    return edges, words


def exponent_rows(words):
    """One {0-based generator: nonzero exponent sum} row per word, in
    order of first occurrence."""
    rows = []
    for word in words:
        sums = {}
        for k in word:
            sums[abs(k) - 1] = sums.get(abs(k) - 1, 0) + (1 if k > 0 else -1)
        rows.append({j: v for j, v in sums.items() if v})
    return rows


def reference_relation_rows(columns, relators):
    """The shape ``relation_rows`` returns: the nonzero exponent-sum rows
    of the rewritten relators, and the number of Schreier generators."""
    edges, words = rewrite_relators(columns, relators)
    return [row for row in exponent_rows(words) if row], len(edges)


def root_cycle_starts(columns, rel):
    """For each state c, the lowest state of its cycle under the shortest
    root v of the relator (rel = v^k for the least len(v) dividing
    len(rel)): c, v(c), v^2(c), ... until the walk is back at c.  The
    relator must close at every state."""
    length = len(rel)
    p = next(d for d in range(1, length + 1) if length % d == 0 and rel[:d] * (length // d) == rel)
    inverse = {name: {d: c for c, d in enumerate(col)} for name, col in columns.items()}

    def root(c):
        for name, e in rel[:p]:
            c = columns[name][c] if e == 1 else inverse[name][c]
        return c

    n = len(next(iter(columns.values())))
    start = [None] * n
    for c in range(n):
        d = c
        while start[d] is None:
            start[d] = c
            d = root(d)
    return start


def assert_read_once_per_root_cycle(columns, relators, rows, n_syms):
    """``rows, n_syms`` is what ``relation_rows(columns, relators)``
    returns: the reference's nonzero rows at the first state of each root
    cycle, relator-major, in the same key order, while the reference's row
    at every other state equals the row at the first state of its cycle.
    So every per-state reference row is accounted for."""
    edges, words = rewrite_relators(columns, relators)
    n = len(next(iter(columns.values())))
    every = exponent_rows(words)
    assert n_syms == len(edges)
    want = []
    for i, rel in enumerate(relators):
        by_state = every[i * n : (i + 1) * n]
        start = root_cycle_starts(columns, rel)
        for c in range(n):
            if start[c] == c:
                if by_state[c]:
                    want.append(by_state[c])
            else:
                assert by_state[c] == by_state[start[c]]
    assert [list(row.items()) for row in rows] == [list(row.items()) for row in want]
