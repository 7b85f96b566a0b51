"""Coset-table helpers that only the tests use: tracing a PSL word through
a table, and reading back the text ``CosetTable.serialize`` writes."""
from congsub.cosets import CosetTable


def trace(t, coset, word):
    """The coset that the PSL word (over 'S', 'U' and 'u' = U^-1) carries
    coset to; ``CosetTable.column`` refuses any other letter."""
    cols = {x: t.column(x) for x in set(word)}
    for x in word:
        coset = cols[x][coset]
    return coset


def deserialize_table(text):
    """The table ``serialize`` wrote: a ``cosets N`` header, then one row
    ``i s(i) u(i)`` for each coset i in 0..N-1, each i exactly once, in
    any order.  Raises ``ValueError`` on any other text, and on columns
    that ``CosetTable`` refuses."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or len(lines[0]) != 2 or lines[0][0] != "cosets":
        raise ValueError("missing 'cosets N' header")
    n = int(lines[0][1])
    s = {}
    u = {}
    for ln in lines[1:]:
        if len(ln) != 3:
            raise ValueError("a row is 'coset S-image U-image', got %r" % " ".join(ln))
        i, si, ui = map(int, ln)
        if not 0 <= i < n or i in s:
            raise ValueError("row index %d is out of range or repeated" % i)
        s[i], u[i] = si, ui
    # nothing of size N is allocated before every row is there
    if len(s) < n:
        raise ValueError("no row for coset %d" % next(c for c in range(n) if c not in s))
    return CosetTable(tuple(s[c] for c in range(n)), tuple(u[c] for c in range(n)))
