"""Words, decoders, and the decoding map from words to graphs.

A word is a tuple of positive integer letters. A decoder over alphabet
{1..k} is a set of ordered letter pairs. Decoding a word w of length n
produces a graph on positions 1..n: positions i < j are adjacent exactly
when (w_i, w_j) is in the decoder. Pair order matters and always reads
(letter of the earlier position, letter of the later position).

decode hands the graph its edges as two endpoint lists already sorted by
(tail, head). It links each position to the previous position of its
letter in one pass, then walks those links back from the end of the word,
so its work follows the word length, the decoder size and the edge
count.

Words and decoders are immutable, and so is the graph a lettering decodes
to: decode computes it on a lettering's first call and returns that same
graph afterwards, so a certificate, a verification and a caller's own
decode of one lettering share one decoding. A word given as a tuple of
ints and a decoder given as a frozenset of int pairs are kept as given,
so building a lettering copies neither.
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from itertools import chain, count, islice, repeat
from operator import itemgetter

from .errors import CapabilityError, InvalidLetteringError, ParseError
from .graphs import ISOMORPHISM_VERTEX_LIMIT, Graph, Record, _integer, are_isomorphic

Word = tuple[int, ...]


def _letter(value) -> int:
    return _integer(value, "letter", InvalidLetteringError, digits=True)


def _pair(pair) -> tuple[int, int]:
    # A string or bytes unpacks into digit strings or ints, which letters
    # would take, and a set or a mapping into its members in an order that
    # is not the pair's; none of them names a pair.
    try:
        if isinstance(pair, (str, bytes, bytearray, Set, Mapping)):
            raise TypeError
        a, b = pair
    except (TypeError, ValueError):
        raise InvalidLetteringError(f"decoder pair {pair!r} is not a pair of letters") from None
    return _letter(a), _letter(b)


class Decoder(Record):
    """Ordered letter pairs over {1..alphabet_size}."""

    __slots__ = _fields = ("alphabet_size", "pairs")
    alphabet_size: int
    pairs: frozenset[tuple[int, int]]

    def __init__(self, alphabet_size: int, pairs: frozenset[tuple[int, int]] = frozenset()):
        k = _integer(alphabet_size, "alphabet size", InvalidLetteringError)
        if k < 0:
            raise InvalidLetteringError(f"alphabet size must be >= 0, got {k}")
        # A frozenset of (int, int) tuples is kept as given; anything else is
        # normalized into one, and a letter int() would truncate raises. The
        # checks run in C, over the pairs and over one flat list of their
        # letters.
        letters = None
        if type(pairs) is frozenset and {*map(type, pairs)} <= {tuple} and {*map(len, pairs)} <= {2}:
            letters = [*chain.from_iterable(pairs)]
        if letters is None or not {*map(type, letters)} <= {int}:
            pairs = frozenset(map(_pair, pairs))
            letters = [*chain.from_iterable(pairs)]
        if letters and (min(letters) < 1 or max(letters) > k):
            for a, b in pairs:
                if not (1 <= a <= k and 1 <= b <= k):
                    raise InvalidLetteringError(
                        f"decoder pair ({a},{b}) outside alphabet 1..{k}"
                    )
        Record.__init__(self, k, pairs)


class Lettering(Record):
    """A word together with a decoder whose alphabet covers it.

    Equal, hashed, printed, copied and pickled by its word and decoder
    alone. decode keeps the lettering's graph in the _graph slot after the
    first call; that graph is not a field.
    """

    __slots__ = ("word", "decoder", "_graph")
    _fields = ("word", "decoder")
    word: Word
    decoder: Decoder

    def __init__(self, word: Word, decoder: Decoder):
        w = word
        # A tuple of ints is kept as given; anything else is normalized, and
        # a letter int() would truncate raises.
        if type(w) is not tuple or not {*map(type, w)} <= {int}:
            # From a list, not a generator: tuple() resizes a tuple built
            # from a generator, so it never reuses a freed tuple of its
            # length but joins that length's free list when freed, which
            # then fills up.
            w = tuple([_letter(a) for a in w])
        k = decoder.alphabet_size
        if w and (min(w) < 1 or max(w) > k):
            for i, a in enumerate(w, start=1):
                if a < 1:
                    raise InvalidLetteringError(f"letter at position {i} must be >= 1, got {a}")
                if a > k:
                    raise InvalidLetteringError(
                        f"letter {a} at position {i} exceeds decoder alphabet 1..{k}"
                    )
        Record.__init__(self, w, decoder)
        object.__setattr__(self, "_graph", None)  # the decoded graph, set by decode on first use

    @property
    def alphabet_size(self) -> int:
        """Distinct letters actually used; decoder letters absent from the
        word do not count toward the lettering's reported size."""
        return len(set(self.word))


def decode(lettering: Lettering) -> Graph:
    """Letter graph of the word: edge {i, j} for i < j iff (w_i, w_j) in D.

    The edges are handed to the graph as two flat endpoint lists sorted by
    (tail, head), the order the writers print; the graph builds its edge
    set from them only if asked. _sorted_ends finds them through links
    between the positions of each letter, in O(n + |D| + edges) work,
    never growing with the alphabet size.

    The graph is computed once per lettering and kept on it: later calls
    return the same Graph object, which is safe because lettering and
    graph are both immutable.
    """
    g = lettering._graph
    if g is not None:
        return g
    w = lettering.word
    g = Graph._from_endpoints(len(w), *_sorted_ends(w, lettering.decoder.pairs))
    object.__setattr__(lettering, "_graph", g)
    return g


def _sorted_ends(w: Word, pairs) -> tuple[list[int], list[int]]:
    """decode's endpoint lists, sorted by (tail, head).

    One pass over the word links each position i to prev[i], the previous
    position of its letter (0 at the letter's first position), and finds
    each letter's last position. Each decoder pair (a, b) gives letter a
    the last position of b (0 if b does not occur): an int when a leads one
    pair, else a list in descending order. A reverse pass over the
    positions i = n..1 walks down prev from each of these positions for
    the letter at i while the position lies past i, and a list stops at
    its first entry that does not, so every successor visited yields an
    edge; the heads of a tail whose letter leads several pairs are sorted.
    The heads of each tail come out in descending order, so reversing the
    two lists leaves the edges sorted by (tail, head).
    """
    n = len(w)
    # One int per position, read by both passes, so prev and the endpoint
    # lists share these objects instead of each making its own. count makes
    # smaller ints than range does: 28 bytes each against 32 (tracemalloc),
    # and path 1000000 --verify read 172.5 MB max RSS with range's.
    positions = [*islice(count(1), n)]
    prev = [0] * (n + 1)
    last: dict[int, int] = {}
    for i, a in zip(positions, w):
        prev[i] = last.get(a, 0)
        last[a] = i
    # Read before last is freed, so that it and succ are never held
    # together.
    ends = [last.get(b, 0) for _, b in pairs]
    del last
    # An int, not a one-entry list, for a letter that leads one pair: a
    # list for every letter decoded a 16k path in 8.7 ms against 4.5 ms,
    # peaking at 1.46 MB against 1.13 MB.
    succ: dict[int, int | list[int]] = dict(zip(map(itemgetter(0), pairs), ends))
    if len(succ) < len(ends):  # some letter leads several pairs
        succ = {}
        for (a, _), j in zip(pairs, ends):
            s = succ.get(a)
            if s is None:
                succ[a] = j
            elif type(s) is int:
                succ[a] = [s, j]
            else:
                s.append(j)
        for s in succ.values():
            if type(s) is list:
                s.sort(reverse=True)
    del ends
    tails: list[int] = []
    heads: list[int] = []
    for i, s in zip(reversed(positions), map(succ.get, reversed(w), repeat(0))):
        if type(s) is int:
            while s > i:
                tails.append(i)
                heads.append(s)
                s = prev[s]
            continue
        start = len(heads)
        for j in s:
            if j <= i:
                break
            while j > i:
                tails.append(i)
                heads.append(j)
                j = prev[j]
        if len(heads) - start > 1:
            heads[start:] = sorted(heads[start:], reverse=True)
    tails.reverse()
    heads.reverse()
    return tails, heads


def subword(word: Word, positions) -> Word:
    """Letters at the given positions (1-based), kept in position order."""
    w = tuple(word)
    ps = sorted(_integer(p, "position") for p in positions)
    for i in range(1, len(ps)):
        if ps[i] == ps[i - 1]:
            raise ValueError(f"duplicate position {ps[i]}")
    for p in ps:
        if not 1 <= p <= len(w):
            raise ValueError(f"position {p} outside 1..{len(w)}")
    return tuple(w[p - 1] for p in ps)


def letter_occurrences(lettering: Lettering, a: int) -> frozenset[int]:
    """Positions of letter a in the word (possibly empty)."""
    a = _letter(a)
    if not 1 <= a <= lettering.decoder.alphabet_size:
        raise InvalidLetteringError(
            f"letter {a} outside alphabet 1..{lettering.decoder.alphabet_size}"
        )
    return frozenset(i for i, b in enumerate(lettering.word, start=1) if b == a)


def complement_decoder(decoder: Decoder) -> Decoder:
    """All ordered pairs over the same alphabet that are not in the decoder."""
    k = decoder.alphabet_size
    pairs = frozenset(
        (a, b)
        for a in range(1, k + 1)
        for b in range(1, k + 1)
        if (a, b) not in decoder.pairs
    )
    return Decoder(k, pairs)


def verify_lettering(lettering: Lettering, target: Graph, mapping=None) -> bool:
    """Check that the lettering exhibits the target graph.

    With a mapping (sequence: position p -> vertex mapping[p-1]) the decoded
    graph must equal the target exactly under it. Without one, the decoded
    graph must be isomorphic to the target. Beyond the small-graph
    isomorphism bound the target must have maximum degree 2 (a path, cycle,
    perfect matching or any disjoint union of paths and cycles), and the
    test compares the component lengths of the two graphs, which decides
    isomorphism there. Each graph computes them once and keeps them, and
    path_graph and matching_graph record theirs when they build the graph,
    so verifying a lettering from path_lettering against path_graph(n)
    walks neither graph again.
    """
    n = len(lettering.word)
    if n != target.n:
        raise ValueError(f"word length {n} != vertex count {target.n}")
    decoded = decode(lettering)
    if mapping is not None:
        m = mapping  # a tuple of ints is kept as given, as in Lettering
        if type(m) is not tuple or not {*map(type, m)} <= {int}:
            m = tuple([_integer(v, "vertex", digits=True) for v in m])
        if sorted(m) != list(range(1, n + 1)):
            raise ValueError("mapping must be a bijection onto vertices 1..n")
        # Read the endpoint pairs, not decoded.edges: the lettering keeps its
        # graph, which would then keep that edge set too.
        relabelled = frozenset(
            (min(m[u - 1], m[v - 1]), max(m[u - 1], m[v - 1]))
            for u, v in decoded._pairs()
        )
        return relabelled == target.edges
    if n <= ISOMORPHISM_VERTEX_LIMIT:
        return are_isomorphic(decoded, target)
    shape = target._shape()
    if shape is None:
        raise CapabilityError(
            f"verification without a mapping is bounded at "
            f"{ISOMORPHISM_VERTEX_LIMIT} vertices unless the target has "
            f"maximum degree 2"
        )
    return decoded._shape() == shape


# --- text format -----------------------------------------------------------
#
# Three lines:   k 3
#                w 2,1,3,2,1,3,2
#                D 2:1,3:2
#
# Empty word / decoder lines are written bare ("w", "D"). On input the word
# and decoder payloads go through parse_word and parse_decoder_pairs, so a
# word list may end with a comma and the compact digit form (e.g. 2132132)
# is read only when k <= 9.


def format_lettering(lettering: Lettering) -> str:
    word = lettering.word
    # Joined from slices of 4096 letters, so only one slice's letters are
    # held as separate strings at a time.
    w = ",".join([",".join(map(str, word[i : i + 4096])) for i in range(0, len(word), 4096)])
    d = ",".join(f"{a}:{b}" for a, b in sorted(lettering.decoder.pairs))
    return "\n".join(
        [
            f"k {lettering.decoder.alphabet_size}",
            f"w {w}" if w else "w",
            f"D {d}" if d else "D",
        ]
    )


def _line_payload(lines: list[str], line_no: int, tag: str) -> str:
    if line_no > len(lines):
        raise ParseError(f"missing '{tag}' line", line=line_no)
    ln = lines[line_no - 1]
    if ln.strip() == tag:
        return ""
    if not ln.startswith(tag + " "):
        raise ParseError(f"expected '{tag} ...'", line=line_no)
    return ln[len(tag) + 1 :].strip()


def parse_lettering(text: str) -> Lettering:
    """Inverse of format_lettering (round-trips exactly)."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if len(lines) > 3:
        raise ParseError("unexpected extra line", line=4)
    kp = _line_payload(lines, 1, "k")
    try:
        k = int(kp)
    except ValueError:
        raise ParseError(f"alphabet size must be an integer, got {kp!r}", line=1) from None
    word = parse_word(_line_payload(lines, 2, "w"), compact=k <= 9, line=2)
    pairs = parse_decoder_pairs(_line_payload(lines, 3, "D"), line=3)
    return Lettering(word, Decoder(k, pairs))


def parse_word(text: str, *, compact: bool = True, line: int | None = None) -> Word:
    """Word from text: comma-separated letters (a trailing comma is allowed),
    or, with compact set, a string of digits 1..9 read one letter each. A
    lone multi-digit token such as 12 reads as compact digits when compact
    is set and as one letter otherwise; a trailing comma (12,) forces the
    one-letter reading. Errors carry the given line number."""
    s = text.strip()
    if not s:
        return ()
    if "," in s:
        parts = s.split(",")
        if parts[-1] == "":
            parts.pop()
    elif compact and s.isdigit() and len(s) >= 2:
        if "0" in s:
            raise ParseError("compact digit words use letters 1..9, got 0", line=line)
        parts = list(s)
    else:
        parts = [s]
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ParseError(f"malformed word {text!r}", line=line) from None


def parse_decoder_pairs(text: str, *, line: int | None = None) -> frozenset[tuple[int, int]]:
    """Decoder pairs from text of the form 'a:b,c:d' (empty allowed).
    Errors carry the given line number."""
    s = text.strip()
    if not s:
        return frozenset()
    pairs = set()
    for item in s.split(","):
        a, sep, b = item.partition(":")
        if not sep:
            raise ParseError(f"decoder pair {item!r} must look like a:b", line=line)
        try:
            pairs.add((int(a), int(b)))
        except ValueError:
            raise ParseError(f"malformed decoder pair {item!r}", line=line) from None
    return frozenset(pairs)
