"""Exact lettericity search by backtracking.

The solver never enumerates decoders explicitly. It assigns target
vertices to word positions left to right and gives each a letter; the
decoder entry for an ordered letter pair is forced the first time a
position pair realizes it, and every later realization must agree, so
inconsistent prefixes die immediately. Letters are numbered by first
occurrence (a fresh letter is always the smallest unused one), which
quotients away alphabet relabelling from both decision and enumeration.

At each depth candidate vertices are tried in ascending label order and
letters in ascending order, so the first witness found -- and therefore
every reported result -- is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Decoder, Lettering
from .errors import CapabilityError
from .graphs import Graph

# Exhaustive search stays interactive up to this many vertices; full
# enumeration of witnesses is bounded tighter.
VERTEX_LIMIT = 12
ENUMERATION_VERTEX_LIMIT = 10


@dataclass(frozen=True)
class LetteringWitness:
    """A lettering plus the position -> vertex bijection exhibiting the
    target: vertex_of_position[p-1] is the vertex placed at position p."""

    lettering: Lettering
    vertex_of_position: tuple[int, ...]


@dataclass(frozen=True)
class EnumerationResult:
    witnesses: tuple[LetteringWitness, ...]
    truncated: bool


def _make_witness(order, letters, used, forced) -> LetteringWitness:
    pairs = frozenset(
        (a, b)
        for a in range(1, used + 1)
        for b in range(1, used + 1)
        if forced[a][b] == 1
    )
    lettering = Lettering(tuple(letters), Decoder(used, pairs))
    return LetteringWitness(lettering, tuple(order))


def _search(g: Graph, k: int, exact_alphabet: bool, visit) -> None:
    """Run the DFS; visit(order, letters, used, forced) is called at every
    full assignment and returns False to stop the search."""
    n = g.n
    adj = g.adjacency_masks()
    order = [0] * n
    letters = [0] * n
    group = [0] * (k + 2)  # letter -> bitmask of vertices carrying it
    # forced[a][b]: -1 unknown, 0 non-edge, 1 edge, for ordered pair (a, b)
    forced = [[-1] * (k + 2) for _ in range(k + 2)]

    def extend(depth: int, used: int, placed: int) -> bool:
        if depth == n:
            if exact_alphabet and used != k:
                return True
            return visit(order, letters, used, forced)
        if exact_alphabet and k - used > n - depth:
            return True  # not enough positions left to introduce every letter
        for v in range(1, n + 1):
            if placed >> v & 1:
                continue
            av = adj[v]
            # v's adjacency to each letter class must be all-or-nothing.
            pattern = []
            feasible = True
            for a in range(1, used + 1):
                gm = group[a]
                m = gm & av
                if m == 0:
                    pattern.append(0)
                elif m == gm:
                    pattern.append(1)
                else:
                    feasible = False
                    break
            if not feasible:
                continue
            vbit = 1 << v
            cmax = used + 1 if used < k else k
            for c in range(1, cmax + 1):
                changed = []
                conflict = False
                for a in range(1, used + 1):
                    fa = forced[a]
                    bit = pattern[a - 1]
                    st = fa[c]
                    if st < 0:
                        fa[c] = bit
                        changed.append(fa)
                    elif st != bit:
                        conflict = True
                        break
                if conflict:
                    for fa in changed:
                        fa[c] = -1
                    continue
                order[depth] = v
                letters[depth] = c
                group[c] |= vbit
                keep_going = extend(depth + 1, used + (c > used), placed | vbit)
                group[c] &= ~vbit
                for fa in changed:
                    fa[c] = -1
                if not keep_going:
                    return False
        return True

    extend(0, 0, 0)


def _check_size(n: int, limit: int) -> None:
    if n > limit:
        raise CapabilityError(f"exact search is bounded at {limit} vertices, got {n}")


def _check_graph(g: Graph, limit: int) -> None:
    if g.n < 1:
        raise ValueError("solver needs a graph with at least one vertex")
    _check_size(g.n, limit)


def is_k_letterable(g: Graph, k: int) -> LetteringWitness | None:
    """First witness exhibiting g as a letter graph over at most k letters,
    or None if there is none."""
    _check_graph(g, VERTEX_LIMIT)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return None  # a nonempty graph needs at least one letter
    found: list[LetteringWitness] = []

    def visit(order, letters, used, forced):
        found.append(_make_witness(order, letters, used, forced))
        return False

    _search(g, k, False, visit)
    return found[0] if found else None


def lettericity_exact(g: Graph) -> tuple[int, LetteringWitness]:
    """Minimum alphabet size for g, with a witness. Tries k = 1, 2, ...;
    always terminates because k = n works (one letter per vertex)."""
    _check_graph(g, VERTEX_LIMIT)
    for k in range(1, g.n + 1):
        witness = is_k_letterable(g, k)
        if witness is not None:
            return k, witness
    raise RuntimeError("unreachable: every graph on n vertices is n-letterable")


def enumerate_letterings(g: Graph, k: int, limit: int | None = None) -> EnumerationResult:
    """All witnesses for g over exactly k letters, deduplicated by word and
    sorted lexicographically by word.

    Words are in first-occurrence canonical form, so relabelled alphabets
    are not counted separately. With a limit, search stops once one more
    distinct word than the limit is seen, and truncated is set iff words
    beyond the returned ones exist.
    """
    _check_graph(g, ENUMERATION_VERTEX_LIMIT)
    if not 1 <= k <= g.n:
        raise ValueError(f"k must be in 1..{g.n}, got {k}")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    by_word: dict[tuple[int, ...], LetteringWitness] = {}
    truncated = False

    def visit(order, letters, used, forced):
        nonlocal truncated
        key = tuple(letters)
        if key in by_word:
            return True
        if limit is not None and len(by_word) == limit:
            truncated = True
            return False
        by_word[key] = _make_witness(order, letters, used, forced)
        return True

    _search(g, k, True, visit)
    witnesses = tuple(by_word[w] for w in sorted(by_word))
    return EnumerationResult(witnesses, truncated)
