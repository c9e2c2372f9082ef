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

The decision (is_k_letterable, and so lettericity_exact) works in
Petkovsek's structural view of letter graphs: letter classes that are
cliques or independent sets, class pairs that are complete, empty or
ordered one way, and an acyclic precedence. The precedence is kept
transitively closed, one mask of later vertices per vertex, and grows by
one closure step (_face) per vertex that gains arcs, which refuses a cycle.
A _Completion state holds a placed prefix in that form: placed extends it
by one vertex, and completable runs the completion search, which decides
exactly whether the prefix extends to a lettering. One search on the empty
prefix decides k. That search quotients one symmetry of every graph: a
word read backwards under the transposed decoder gives the same graph,
and in class form this mirror keeps the classes and flips every oriented
pair, so until a pair is oriented the search tries only one orientation of
the first pair that turns mixed (branch). Orienting a pair steps over its
smaller class. For a feasible k the first witness (the first lettering in
vertex-then-letter ascending order) is built by a forward-only walk: from
the accepted prefix's state it moves to the first child state whose
search passes. The search is exact, so no step is ever undone. Before
placing a step (v, c) the walk checks it forward on the parent state
(steps): an unplaced vertex follows every member of a class, so one
letter pair fixes its edges to all of them, and a step that leaves some
other unplaced vertex seeing the grown class partly is dead. The parent
has no such class, so only the class v joins can fail, and it fails iff v
and a member of that class differ on some other unplaced vertex. Only the
steps it keeps are placed and searched; the search itself would refuse a
dropped one too, but only after placing it. A passing search records the
lettering it reached, and the walk carries it: the child it certifies (its
smallest unplaced vertex that no unplaced vertex precedes, under that
vertex's class) is taken without a search once every earlier child has
failed its own.

Enumeration (enumerate_letterings) is a backtracking DFS over the same
choices that runs no completion search, which there cost more than it saved.
It keeps the letter pairs the prefix realizes as two bitmasks per letter,
the earlier letters it pairs with and those of them that pair as edges. In
place of that search it skips automorphic siblings: a vertex is not tried
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
            order = fixed + [u] + [w for w in rest if w != u]
            if extend_isomorphism(adj, adj, order, mapping):
                skips |= 1 << v
                break
        else:
            reps.append(v)
    return skips


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
    """A placed prefix in class form: vertex order[i] at position i+1 with
    letter letters[i], m the largest letter, rest the unplaced vertices
    (ascending), cls[c] the vertex mask of class c, pair[a * w + b] the
    orientation of class pair (a, b) or 0, and reach[u] the closed mask of
    vertices after u, grown by _face steps. A pair is oriented the moment it
    turns mixed, so an unoriented pair of nonempty classes is flat: all
    members of one see the other alike, all of it or none. A built state is
    never changed: placed returns a new one and the search works on copies.
    It forms no cycle. completion is (cls, reach) of a lettering that extends
    the prefix, once a completion search on it (or the walk) has recorded
    one, else None."""

    completion = None

    def __init__(self, adj, n: int, k: int):
        self.adj, self.n, self.k, self.w = adj, n, k, k + 1
        self.order, self.letters, self.m = [], [], 0
        self.rest = list(range(1, n + 1))
        self.cls = [0] * (k + 1)
        self.pair = [0] * (k + 1) ** 2
        self.reach = [0] * (n + 1)

    def _derived(self, order, letters, m: int, rest, cls, pair, reach) -> _Completion:
        """A state of the same graph and k holding the given lists, built
        without the constructor, whose empty lists would be thrown away.
        The attributes are set in the constructor's order, so the instance
        keeps the class's shared attribute layout, which a copy.copy
        instance loses (its attributes are then looked up more slowly)."""
        new = _Completion.__new__(_Completion)
        new.adj, new.n, new.k, new.w = self.adj, self.n, self.k, self.w
        new.order, new.letters, new.m = order, letters, m
        new.rest, new.cls, new.pair, new.reach = rest, cls, pair, reach
        return new

    def steps(self):
        """The next placements (v, c) that the forward check keeps, v
        ascending, then c up to the next fresh letter: those that leave no
        other unplaced vertex seeing the grown class cls[c] | 1 << v partly.

        Decided on this state, for a state where every unplaced vertex sees
        each class all or nothing (the root, and each state reached through
        steps): such a vertex sees class c iff it is adjacent to one member
        x, and it sees the grown class partly iff x and v differ on it. The
        other classes are unchanged, so the child keeps that property
        exactly for these steps."""
        adj, cls, rest = self.adj, self.cls, self.rest
        unplaced = sum(1 << u for u in rest)
        fresh = min(self.m + 1, self.k)
        for v in rest:
            av, others = adj[v], unplaced ^ 1 << v
            for c in range(1, fresh + 1):
                cm = cls[c]
                if not cm or not (adj[(cm & -cm).bit_length() - 1] ^ av) & others:
                    yield v, c

    def placed(self, v: int, c: int) -> _Completion | None:
        """A copy with v placed next under letter c, or None if that breaks
        a class or a class pair. v follows every placed vertex, so an oriented
        pair, or a flat one that v sees unlike a member of its class does,
        fits only one orientation: _SECOND if v is adjacent to the other
        class, else _FIRST. The checks see placed vertices only, so they just
        read reach."""
        adj, w = self.adj, self.w
        av, cm = adj[v], self.cls[c]
        if any(av & bm not in (0, bm) for bm in self.cls):
            return None  # v sees each class all or nothing,
        ax = adj[(cm & -cm).bit_length() - 1] if cm else av  # a member's row
        if cm & (cm - 1) and bool(ax & cm) != bool(av & cm):
            return None  # and joins its own as a clique or independent set
        cls, pair, reach = self.cls[:], self.pair[:], self.reach[:]
        rest = [u for u in self.rest if u != v]
        new = self._derived(self.order + [v], self.letters + [c], max(self.m, c), rest, cls, pair, reach)
        cls[c] = cm | 1 << v
        for b in range(1, self.m + 1):
            if b == c:
                continue
            bm, state = cls[b], pair[c * w + b]
            fit = _SECOND if av & bm else _FIRST
            if state != fit and (state or (ax ^ av) & bm) and not new.orient(c, b, fit, reach):
                return None
        reach[v] = sum(1 << u for u in rest)  # v precedes every unplaced vertex
        return new

    def completable(self) -> bool:
        """Whether the prefix extends to a lettering over at most k letters:
        iff the vertices split into at most k classes, each a clique or an
        independent set, every class pair complete, empty or oriented
        (adjacency decided by which vertex comes first), with an acyclic
        precedence that puts the prefix first, in order. Unplaced vertices
        join a class or the next fresh one, a pair that turns mixed is tried
        in both orientations (in one while no pair is oriented: branch), and
        a vertex joining a class gains its arcs across oriented pairs in one
        _face step, so cycles prune at once.

        An unplaced vertex that sees a class partly follows every member,
        so it can neither join that class nor orient the pair against it:
        the search refuses such a prefix once it places that vertex. The
        walk refuses it before placing it (steps), so the search runs no
        check of its own for it. On success it records the completion the
        search reached: every vertex's class mask and the closed reach."""
        search = self._derived(self.order, self.letters, self.m, self.rest, self.cls[:], self.pair[:], self.reach)
        if not search.place(0, self.m, self.reach):
            return False
        self.completion = search.cls, search.reach
        return True

    def certified(self) -> tuple[int, int] | None:
        """The placement (v, c) that the recorded completion certifies, or
        None without one. v is the smallest unplaced vertex that no unplaced
        vertex precedes there, so some linear extension of its precedence
        places v next; c is the letter whose placed members lie in v's class
        there, or the fresh letter m + 1 if that class has none yet."""
        if self.completion is None:
            return None
        cls, reach = self.completion
        later = 0
        for u in self.rest:
            later |= reach[u]
        v = next(u for u in self.rest if not later >> u & 1)
        cv = next(cm for cm in cls if cm >> v & 1)
        return v, next((a for a in range(1, self.m + 1) if self.cls[a] & cv), self.m + 1)

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
        search has such states, before its first orientation: a walk state's
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
    order = [0] * n
    letters = [0] * n
    group = [0] * (k + 1)  # letter -> bitmask of vertices carrying it
    # Bit a of known[c]: the prefix realizes the letter pair (a, c), with a
    # at the earlier position; bit a of edge[c]: it realizes it as an edge.
    known = [0] * (k + 1)
    edge = [0] * (k + 1)
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
        earlier = (2 << used) - 2  # letters 1..used
        for v in range(1, n + 1):
            if skip >> v & 1:
                continue
            av = adj[v]
            # seen: the letter classes v sees in full; it must see each
            # class all or nothing.
            seen = 0
            for a in range(1, used + 1):
                inside = av & group[a]
                if inside == group[a]:
                    seen |= 1 << a
                elif inside:
                    break
            else:
                vbit = 1 << v
                for c in range(1, min(used + 1, k) + 1):
                    if (edge[c] ^ seen) & known[c]:
                        continue  # a pair (a, c) realized the other way before
                    # Exact, not a merge: known[c] only holds letters up to
                    # used, and those bits of seen were just checked to agree.
                    saved = known[c], edge[c]
                    known[c], edge[c] = earlier, seen
                    order[depth] = v
                    letters[depth] = c
                    group[c] |= vbit
                    keep_going = extend(depth + 1, used + (c > used), placed | vbit, symmetric)
                    group[c] &= ~vbit
                    known[c], edge[c] = saved
                    if not keep_going:
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


def _first_witness(g: Graph, k: int) -> LetteringWitness | None:
    """is_k_letterable without the vertex bound, for 0 <= k <= g.n.

    The first witness is the first lettering in vertex-then-letter
    ascending order, the one a depth-first search over those choices
    reaches first. One completion search on the empty prefix decides k.
    For a feasible k the walk keeps the accepted prefix's state and moves
    to its first child whose completion search passes, never back: the
    search is exact, so that child extends and no earlier one did.

    Each step is decided on the parent state first: steps keeps only the
    placements (v, c) that leave no other unplaced vertex seeing class c
    partly, a dead step the search would refuse only after placing it, so
    a step it drops is never placed or searched.

    The walk carries the last completion a search recorded. The child it
    certifies is accepted without a search, once the children before it in
    vertex-then-letter order have failed theirs; a child that passes carries
    its own completion from then on. A state without one tests every child."""
    adj = g.adjacency_masks()
    state = _Completion(adj, g.n, k)
    if not state.completable():
        return None  # one exact search at the root decides an infeasible k
    for _ in range(g.n):
        sure = state.certified()
        for step in state.steps():
            child = state.placed(*step)
            if child is None:
                continue
            if step == sure:
                child.completion = state.completion  # it extends to that lettering
                break
            if child.completable():
                break
        else:
            raise RuntimeError(
                f"internal error: the completion search passed a dead prefix at k={k}"
            )
        state = child
    return _witness(adj, state.order, state.letters, state.m, {})


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
