"""Cartier-Foata combinatorics: words over the vertex alphabet commute
exactly when the letters are NOT adjacent in the graph.  Counts the trace
classes of a given content, which are the unsigned coefficients of
1/I_Gamma.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations


def _commute(g, a, b):
    return a != b and not g.has_edge(a, b)


def foata_normal_form(g, word):
    """Lexicographically least representative of the trace class: the
    Anisimov-Knuth normal form, not the Foata (step) normal form, despite
    the name.

    Repeatedly moves to the front the smallest letter that can be commuted
    there (i.e. commutes with everything before it in the remainder).
    """
    rest = list(word)
    for v in rest:
        if not 1 <= v <= g.n:
            raise ValueError(f"letter {v} out of range")
    out = []
    while rest:
        best = None
        best_pos = None
        for pos, a in enumerate(rest):
            if all(_commute(g, a, b) for b in rest[:pos]):
                if best is None or a < best:
                    best, best_pos = a, pos
        out.append(best)
        del rest[best_pos]
    return tuple(out)


def count_traces(g, content):
    """Number of distinct trace classes of words using letter i exactly
    content[i-1] times.

    Counts lexicographically-minimal normal forms directly: a word stays
    minimal after appending letter a iff no larger letter sits in a's
    commuting tail.  That per-letter flag is the whole DP state.
    """
    content = tuple(int(c) for c in content)
    if len(content) != g.n or any(c < 0 for c in content):
        raise ValueError("content must be n non-negative integers")
    n = g.n
    commute = [
        [False] * (n + 1)
        for _ in range(n + 1)
    ]
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            commute[a][b] = _commute(g, a, b)

    @lru_cache(maxsize=None)
    def count(rem, blocked):
        if not any(rem):
            return 1
        total = 0
        for x in range(1, n + 1):
            if rem[x - 1] == 0 or blocked & (1 << x):
                continue
            nrem = list(rem)
            nrem[x - 1] -= 1
            nblocked = 0
            for a in range(1, n + 1):
                if commute[a][x] and (blocked & (1 << a) or x > a):
                    nblocked |= 1 << a
            total += count(tuple(nrem), nblocked)
        return total

    result = count(content, 0)
    count.cache_clear()
    return result


def brute_force_count(g, content, limit=10):
    """Oracle: enumerate all multiset permutations and count distinct
    normal forms."""
    content = tuple(int(c) for c in content)
    if sum(content) > limit:
        raise ValueError(f"content size {sum(content)} exceeds limit {limit}")
    letters = []
    for v, c in enumerate(content, start=1):
        letters.extend([v] * c)
    classes = {foata_normal_form(g, w) for w in set(permutations(letters))}
    return len(classes)
