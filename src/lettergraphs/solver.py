"""Exact lettericity search: a decision walk and an enumeration DFS.

The solver never enumerates decoders explicitly. It assigns target
vertices to word positions left to right and gives each a letter; the
decoder entry for an ordered letter pair is forced the first time a
position pair realizes it, and every later realization must agree, so
inconsistent prefixes die immediately. Letters are numbered by first
occurrence (a fresh letter is always the smallest unused one), which
quotients away alphabet relabelling from both decision and enumeration.
Candidate vertices are tried in ascending label order and letters in
ascending order, so every reported result is deterministic.

Both engines keep a prefix one way, as its letter classes and two bitmasks
per letter (the earlier letters it pairs with, and those of them that pair
as edges), and extend it by one rule, _placements, which makes each
placement as it yields it and undoes it on the next request.

The decision (is_k_letterable, and so lettericity_exact) asks whether a
prefix extends in Petkovsek's structural view of letter graphs: letter
classes that are cliques or independent sets, class pairs that are
complete, empty or ordered one way, and an acyclic precedence, kept
transitively closed and grown by one closure step (_face) per vertex that
gains arcs, which refuses a cycle. That class form (_Completion) exists
only inside a completion search, which decides exactly whether its prefix
extends to a lettering. One search on the empty prefix decides k. It
quotients one symmetry of every graph: a word read backwards under the
transposed decoder gives the same graph, and in class form this mirror
keeps the classes and flips every oriented pair, so until a pair is
oriented the search tries one orientation of the first pair that turns
mixed (branch). For a feasible k the first witness (the first lettering
in vertex-then-letter ascending order) is built by a forward-only walk
that extends the accepted prefix by its first placement whose search
passes; the search is exact, so no step is ever undone. The walk first
drops each placement that leaves some other unplaced vertex seeing the
grown class partly (_steps), since an unplaced vertex follows every member
of a class; such a prefix is never built or searched. A passing search
records the lettering it reached, and the placement that lettering
certifies (_certified) is taken without a search once every earlier one
has failed its own. At the root the mirror of the root search's completion
(the same classes, the precedence reversed) is a completion too, so the
walk carries whichever of the two puts the smaller vertex first: the
completion's smallest source, or its smallest sink. Later steps carry no
mirror, since a nonempty prefix must stay ahead of its unplaced vertices.

Enumeration (enumerate_letterings) is a backtracking DFS over the same
placements that runs no completion search, which there cost more than it
saved. In its place it skips automorphic siblings: a vertex is not tried
where an automorphism fixing the placed vertices maps a smaller unplaced
vertex onto it, since the smaller one's subtree already held the same
words and was searched first. The decision keeps out of this rule: the search
already rejects the dead choices, and computing orbits there made it slower.
Enumeration keeps out of the mirror cut: a reversed word is another witness.

The public entry points check the vertex bound; the private cores
_first_witness and _lettericity do not, so certification sweeps can run
past it.
"""

from __future__ import annotations

from .core import Decoder, Lettering
from .errors import CapabilityError
from .graphs import Graph, Record, _integer, extend_isomorphism

# Exhaustive search stays interactive up to this many vertices; full
# enumeration of witnesses is bounded tighter.
VERTEX_LIMIT = 12
ENUMERATION_VERTEX_LIMIT = 10


class LetteringWitness(Record):
    """A lettering plus the position -> vertex bijection exhibiting the
    target: vertex_of_position[p-1] is the vertex placed at position p."""

    __slots__ = _fields = ("lettering", "vertex_of_position")
    lettering: Lettering
    vertex_of_position: tuple[int, ...]


class EnumerationResult(Record):
    __slots__ = _fields = ("witnesses", "truncated")
    witnesses: tuple[LetteringWitness, ...]
    truncated: bool


def _witness(adj, order, letters, m: int, decoders: dict) -> LetteringWitness:
    """The witness placing vertex order[i] at position i+1 with letter
    letters[i], over letters 1..m. Its decoder is every letter pair the word
    realizes as an edge. Equal decoders are one object: decoders maps
    (m, pairs) to the Decoder already built, which is safe to share because
    a Decoder is frozen."""
    word = list(zip(order, letters))
    pairs = frozenset(
        (a, b) for j, (v, b) in enumerate(word) for u, a in word[:j] if adj[u] >> v & 1
    )
    decoder = decoders.get((m, pairs))
    if decoder is None:
        decoder = decoders[m, pairs] = Decoder(m, pairs)
    return LetteringWitness(Lettering(tuple(letters), decoder), tuple(order))


def _orbit_skips(adj, n: int, placed: int) -> int:
    """Mask of the unplaced vertices v that some automorphism fixing every
    placed vertex maps a smaller unplaced vertex to: every vertex of its
    orbit under that stabilizer except the smallest. 0 iff the stabilizer
    is trivial."""
    fixed = [v for v in range(1, n + 1) if placed >> v & 1]
    rest = sorted(
        (v for v in range(1, n + 1) if not placed >> v & 1),
        key=lambda v: (-adj[v].bit_count(), v),
    )
    skips = 0
    reps: list[int] = []
    for v in range(1, n + 1):
        if placed >> v & 1:
            continue
        for u in reps:
            # An automorphism fixing the placed vertices and sending u to
            # v gives both the same degree and the same placed neighbors.
            if adj[u] & placed != adj[v] & placed or adj[u].bit_count() != adj[v].bit_count():
                continue
            mapping = [0] * (n + 1)
            for p in fixed:
                mapping[p] = p
            mapping[u] = v
            # The test above vouches for the fixed points and u -> v.
            order = fixed + [u] + [w for w in rest if w != u]
            if extend_isomorphism(adj, adj, order, mapping, len(fixed) + 1, placed | 1 << v):
                skips |= 1 << v
                break
        else:
            reps.append(v)
    return skips


def _placements(adj, k: int, m: int, candidates: int, group, known, edge):
    """The consistent placements (v, c) after a prefix over letters 1..m: v
    ascending in the mask candidates, then c up to the next fresh letter.
    group[c] is class c's vertex mask; bit a of known[c] (edge[c]) says the
    prefix realizes letter pair (a, c), a first (as an edge). v sees each
    class all or nothing, those in the mask seen in full, and agrees with
    every pair (a, c) known. While a placement is yielded it is made: v is
    in group[c], known[c] holds letters 1..m and edge[c] seen (exactly, as
    known[c] held no letter past m and seen agrees with edge[c] on it). The
    next request undoes it, from the lists as the yield left them, so a
    caller that stops iterating keeps it."""
    earlier = (2 << m) - 2  # letters 1..m
    while candidates:
        v = (candidates & -candidates).bit_length() - 1
        candidates &= candidates - 1
        av = adj[v]
        seen = 0
        for a in range(1, m + 1):
            inside = av & group[a]
            if inside == group[a]:
                seen |= 1 << a
            elif inside:
                break
        else:
            for c in range(1, min(m + 1, k) + 1):
                kc, ec = known[c], edge[c]
                if not (ec ^ seen) & kc:  # else a pair (a, c) was realized the other way
                    group[c] |= 1 << v
                    known[c], edge[c] = earlier, seen
                    yield v, c
                    group[c] ^= 1 << v
                    known[c], edge[c] = kc, ec


# Orientations of a class pair (a, b) in _Completion.pair, 0 until it has one:
# x in a ~ y in b iff x comes first (_FIRST) or iff y comes first (_SECOND).
_FIRST, _SECOND = 1, 2


def _face(reach: list[int], x: int, pre: int, post: int) -> bool:
    """One closure step: the vertices in mask pre come before x, and x
    before those in mask post. reach[u] is the closed mask of vertices after
    u. Every new arc touches x, so one pass over post's set bits finds x's
    descendants and one over reach its ancestors. Returns False, with reach
    unchanged, iff the arcs would close a cycle."""
    xb = 1 << x
    desc = reach[x] | post  # everything after x once the arcs are in
    while post:
        desc |= reach[(post & -post).bit_length() - 1]
        post &= post - 1
    src, after = pre | xb, desc | xb
    if desc & src:
        return False
    for u, r in enumerate(reach):
        if r & src or pre >> u & 1:
            reach[u] = r | after  # u is in pre or already came before x or pre
    reach[x] = desc
    return True


class _Completion:
    """A prefix in class form for one completion search: m nonempty classes,
    rest the unplaced vertices (ascending), cls[c] the vertex mask of class
    c, pair[a * w + b] the orientation of class pair (a, b) or 0, and
    reach[u] the closed mask of vertices after u. A pair is oriented the
    moment it turns mixed, so an unoriented pair of nonempty classes is
    flat: all members of one see the other alike, all of it or none.
    completion is (cls, reach) of a lettering completable found, else None.

    It is built from a prefix kept as _placements keeps it, vertex order[i]
    at position i+1; the empty prefix gives the root. Its precedence is the
    prefix order, already closed: reach[order[i]] holds the later prefix and
    every unplaced vertex. Pair (c, b) is oriented iff the prefix realizes
    it both ways and differently: _SECOND if letter pair (b, c) is an edge,
    else _FIRST."""

    completion = None

    def __init__(self, adj, n: int, k: int, order, group, known, edge):
        w = k + 1
        self.adj, self.k, self.w, self.cls = adj, k, w, group[:]
        self.m = m = sum(1 for cm in group if cm)
        later = (2 << n) - 2 - sum(1 << v for v in order)  # the unplaced vertices
        self.rest = [u for u in range(1, n + 1) if later >> u & 1]
        self.reach = reach = [0] * (n + 1)
        for v in reversed(order):
            reach[v] = later
            later |= 1 << v
        self.pair = pair = [0] * w * w
        for c in range(1, m + 1):
            for b in range(1, m + 1):
                if known[c] >> b & known[b] >> c & (edge[c] >> b ^ edge[b] >> c) & 1:
                    pair[c * w + b] = _SECOND if edge[c] >> b & 1 else _FIRST

    def completable(self) -> bool:
        """Whether the prefix extends to a lettering over at most k letters:
        iff the vertices split into at most k classes, each a clique or an
        independent set, every class pair complete, empty or oriented
        (adjacency decided by which vertex comes first), with an acyclic
        precedence that puts the prefix first, in order. Unplaced vertices
        join a class or the next fresh one, a pair that turns mixed is tried
        in both orientations (in one while no pair is oriented: branch), and
        a vertex joining a class gains its arcs across oriented pairs in one
        _face step, so cycles prune at once. A prefix that leaves an unplaced
        vertex seeing a class partly is refused once that vertex is placed;
        the walk drops it earlier (_steps), so the search adds no check.

        It works on this state in place: a failing search leaves it as it
        was, and a passing one leaves the completion it reached in cls and
        reach and records it."""
        if not self.place(0, self.m, self.reach):
            return False
        self.completion = self.cls, self.reach
        return True

    def orient(self, c: int, b: int, state: int, reach: list[int]) -> bool:
        """Fix class pair (c, b) in the given state: one _face step for each
        vertex of the smaller class, against all of the other. Pair (b, c)
        holds the flipped state, which adds the same arcs from b's side, so
        stepping over the smaller class reaches the same closure (or the
        same refusal) in fewer steps."""
        adj, w, pair, cm, bm = self.adj, self.w, self.pair, self.cls[c], self.cls[b]
        pair[c * w + b], pair[b * w + c] = state, _FIRST + _SECOND - state
        if bm.bit_count() < cm.bit_count():
            cm, bm, state = bm, cm, _FIRST + _SECOND - state
        while cm:
            x = (cm & -cm).bit_length() - 1
            early = adj[x] & bm if state == _SECOND else bm & ~adj[x]  # before x
            if not _face(reach, x, early, bm ^ early):
                return False
            cm &= cm - 1
        return True

    def branch(self, i: int, m: int, mixed: list[tuple[int, int]], reach: list[int]) -> bool:
        """Both orientations of each class pair that just became mixed,
        except where reach holds no arc yet. A word read backwards under the
        transposed decoder gives the same graph; in class form this mirror
        keeps every class and flat pair, flips every oriented pair and
        reverses the precedence. A state without arcs is its own mirror, so
        the subtree under _SECOND for the first mixed pair mirrors the one
        under _FIRST and holds a completion iff that one does. Only a root
        search has such states, before its first orientation: a nonempty
        prefix precedes its unplaced vertices."""
        if not mixed:
            return self.place(i + 1, m, reach)
        c, b = mixed[0]
        for state in (_FIRST, _SECOND) if any(reach) else (_FIRST,):
            r = reach[:]
            if self.orient(c, b, state, r) and self.branch(i, m, mixed[1:], r):
                return True
        self.pair[c * self.w + b] = self.pair[b * self.w + c] = 0
        return False

    def place(self, i: int, m: int, reach: list[int]) -> bool:
        adj, w, cls, pair = self.adj, self.w, self.cls, self.pair
        if i == len(self.rest):
            self.reach = reach  # the completion's precedence, for completable
            return True  # every vertex has a class and no cycle was closed
        v = self.rest[i]
        av = adj[v]
        for c in range(1, min(m + 1, self.k) + 1):
            cm = cls[c]
            inside = av & cm
            if inside and inside != cm:
                continue  # a class is a clique or an independent set,
            ax = adj[(cm & -cm).bit_length() - 1] if cm else av  # a member's row
            if cm & (cm - 1) and bool(ax & cm) != bool(inside):
                continue  # and v must join it as one
            # pre and post: the vertices before and after v across oriented
            # pairs; mixed: the flat pairs v breaks.
            mixed, pre, post = [], 0, 0
            for b in range(1, m + 1):
                bm = cls[b]
                if b == c or not bm:
                    continue
                nbrs = av & bm
                state = pair[c * w + b]
                if state:
                    early = nbrs if state == _SECOND else bm ^ nbrs
                    pre, post = pre | early, post | bm ^ early
                elif (ax ^ av) & bm or (nbrs and nbrs != bm):
                    mixed.append((c, b))
            r = reach[:] if pre | post else reach  # only a step that writes copies
            if r is reach or _face(r, v, pre, post):
                cls[c] = cm | 1 << v
                if self.branch(i, max(m, c), mixed, r):
                    return True
                cls[c] = cm
        return False


def _search(g: Graph, k: int, limit: int | None) -> EnumerationResult:
    """enumerate_letterings without its checks: a backtracking DFS over
    every assignment with exactly k letters, keeping the first witness of
    each word and stopping once one more distinct word than limit is seen.

    It skips automorphic siblings: a candidate vertex v is not tried when an
    automorphism fixing every placed vertex maps a smaller unplaced vertex
    u to v. Such an automorphism keeps each letter class and both letter
    pair masks, so it maps the subtree under u onto the one under v with the
    same letters: every word below v was already seen below u, earlier in
    the DFS. The orbits are computed once per placed set, for this search
    only, and not at all below a placed set whose stabilizer is trivial."""
    n = g.n
    adj = g.adjacency_masks()
    vertices = (2 << n) - 2
    order, letters = [0] * n, [0] * n
    group, known, edge = [0] * (k + 1), [0] * (k + 1), [0] * (k + 1)
    skips_of: dict[int, int] = {}  # placed mask -> _orbit_skips
    by_word: dict[tuple[int, ...], LetteringWitness] = {}
    decoders: dict = {}

    def extend(depth: int, used: int, placed: int, symmetric: bool) -> bool:
        """False once the limit stops the search."""
        if depth == n:
            if used != k:
                return True
            key = tuple(letters)
            if key in by_word:
                return True
            if limit is not None and len(by_word) == limit:
                return False
            by_word[key] = _witness(adj, order, letters, used, decoders)
            return True
        if k - used > n - depth:
            return True  # not enough positions left to introduce every letter
        skip = placed
        if symmetric:
            skips = skips_of.get(placed)
            if skips is None:
                skips = skips_of[placed] = _orbit_skips(adj, n, placed)
            skip |= skips
            # A child's stabilizer is a subgroup of this one.
            symmetric = skips != 0
        for v, c in _placements(adj, k, used, vertices & ~skip, group, known, edge):
            order[depth] = v
            letters[depth] = c
            if not extend(depth + 1, used + (c > used), placed | 1 << v, symmetric):
                return False
        return True

    try:
        truncated = not extend(0, 0, 0, True)
    finally:
        del extend  # the closure refers to itself; free it on return
    return EnumerationResult(tuple(by_word[w] for w in sorted(by_word)), truncated)


def _check_size(n: int, limit: int) -> None:
    if n > limit:
        raise CapabilityError(f"exact search is bounded at {limit} vertices, got {n}")


def _check_graph(g: Graph, limit: int) -> None:
    if g.n < 1:
        raise ValueError("solver needs a graph with at least one vertex")
    _check_size(g.n, limit)


def _steps(adj, k: int, m: int, unplaced: int, group, known, edge):
    """The walk's forward check on _placements: those that leave no other
    unplaced vertex seeing the grown class group[c] partly, each made while
    it is yielded. On a prefix whose unplaced vertices see each class all or
    nothing (the empty one, and each _steps extends), such a vertex sees
    that class partly iff it tells v from a member x of the class as it was
    before v joined, and the other classes are unchanged."""
    for v, c in _placements(adj, k, m, unplaced, group, known, edge):
        cm = group[c] ^ 1 << v
        if not cm or not (adj[(cm & -cm).bit_length() - 1] ^ adj[v]) & (unplaced ^ 1 << v):
            yield v, c


def _certified(completion, unplaced: int, group, m: int) -> tuple[int, int] | None:
    """The placement (v, c) after a prefix (classes group, letters 1..m)
    that a completion (cls, reach) of it certifies, or None without one: v
    the smallest unplaced vertex no unplaced one precedes there, c the letter
    whose members share its class there, or m + 1 if none does."""
    if completion is None:
        return None
    cls, reach = completion
    later, rest = 0, unplaced
    while rest:
        later |= reach[(rest & -rest).bit_length() - 1]
        rest &= rest - 1
    first = unplaced & ~later
    v = (first & -first).bit_length() - 1
    cv = next(cm for cm in cls if cm >> v & 1)
    return v, next((a for a in range(1, m + 1) if group[a] & cv), m + 1)


def _first_witness(g: Graph, k: int) -> LetteringWitness | None:
    """is_k_letterable without the vertex bound, for 0 <= k <= g.n.

    The first witness is the first lettering in vertex-then-letter
    ascending order, the one a depth-first search over those choices
    reaches first. One completion search on the empty prefix decides k.
    For a feasible k the walk extends the accepted prefix by the first
    placement _steps makes whose class form passes a completion search, and
    breaks there, which keeps it; the search is exact, so that child extends
    and no earlier one did. The walk carries the last completion a search
    recorded: the placement it certifies is taken without a search once
    those before it have failed theirs. The root's completion is carried
    as is, or as its mirror (reach transposed) when its smallest sink is
    below its smallest source, so the first step is certified at the
    smaller of the two vertices and fewer candidates before it are
    searched. The transpose is built only when the sink wins."""
    n, adj = g.n, g.adjacency_masks()
    order, letters, m, unplaced = [], [], 0, (2 << n) - 2
    group, known, edge = [0] * (k + 1), [0] * (k + 1), [0] * (k + 1)
    root = _Completion(adj, n, k, order, group, known, edge)
    if not root.completable():
        return None  # one exact search at the root decides an infeasible k
    completion = root.completion
    if completion is not None:
        cls, reach = completion
        if reach.index(0, 1) < _certified(completion, unplaced, group, m)[0]:
            # Its mirror, the word read backwards under the transposed
            # decoder, keeps the classes and reverses the precedence, so it
            # certifies the smallest sink as the first vertex.
            mirror = [0] * (n + 1)
            for u in range(1, n + 1):
                r = reach[u]
                while r:
                    mirror[(r & -r).bit_length() - 1] |= 1 << u
                    r &= r - 1
            completion = cls, mirror
    while unplaced:
        sure = _certified(completion, unplaced, group, m)
        for v, c in _steps(adj, k, m, unplaced, group, known, edge):
            order.append(v)
            if (v, c) == sure:
                break  # it extends to the carried completion
            state = _Completion(adj, n, k, order, group, known, edge)
            if state.completable():
                completion = state.completion
                break
            order.pop()
        else:
            raise RuntimeError(
                f"internal error: the completion search passed a dead prefix at k={k}"
            )
        letters.append(c)
        m, unplaced = max(m, c), unplaced ^ 1 << v
    return _witness(adj, order, letters, m, {})


def _lettericity(g: Graph) -> tuple[int, LetteringWitness]:
    """lettericity_exact without the vertex bound."""
    for k in range(1, g.n + 1):
        witness = _first_witness(g, k)
        if witness is not None:
            return k, witness
    raise RuntimeError("unreachable: every graph on n vertices is n-letterable")


def is_k_letterable(g: Graph, k: int) -> LetteringWitness | None:
    """First witness exhibiting g as a letter graph over at most k letters,
    or None if there is none. First means first in vertex-then-letter
    ascending order: position by position, the smallest vertex and then
    the smallest letter (letters numbered by first occurrence) that still
    extend to a lettering."""
    _check_graph(g, VERTEX_LIMIT)
    k = _integer(k, "k")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    # No lettering uses more letters than positions. At k = 0 the root
    # test says no, since a nonempty graph needs a letter.
    return _first_witness(g, min(k, g.n))


def lettericity_exact(g: Graph) -> tuple[int, LetteringWitness]:
    """Minimum alphabet size for g, with a witness. Tries k = 1, 2, ...;
    always terminates because k = n works (one letter per vertex)."""
    _check_graph(g, VERTEX_LIMIT)
    return _lettericity(g)


def enumerate_letterings(g: Graph, k: int, limit: int | None = None) -> EnumerationResult:
    """All witnesses for g over exactly k letters, deduplicated by word and
    sorted lexicographically by word.

    Words are in first-occurrence canonical form, so relabelled alphabets
    are not counted separately. With a limit, search stops once one more
    distinct word than the limit is seen, and truncated is set iff words
    beyond the returned ones exist.
    """
    _check_graph(g, ENUMERATION_VERTEX_LIMIT)
    k = _integer(k, "k")
    if not 1 <= k <= g.n:
        raise ValueError(f"k must be in 1..{g.n}, got {k}")
    if limit is not None:
        limit = _integer(limit, "limit")
        if limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
    return _search(g, k, limit)
