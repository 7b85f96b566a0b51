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
