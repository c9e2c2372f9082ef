"""Enumeration audits of structural facts about letter graphs.

Three executable checks back the path lower bound at desk scale:

* betweenness: in any decoded graph, a vertex adjacent to exactly one of
  two same-letter positions must sit strictly between them in the word;
* in every lettering of a perfect matching, no letter occurs three times;
* with the minimum alphabet (k = r for rK_2), each letter's two positions
  always form one matched edge, which forces (a, a) into the decoder.

The word census is an independent brute force (it never calls the solver):
it counts words admitting a matching lettering under both alphabet
conventions, fixed {1..r} and first-occurrence canonical.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

from .core import Lettering, decode
from .errors import CapabilityError
from .graphs import Record, _integer, matching_graph
from .solver import enumerate_letterings

# Census and audit enumerate everything; kept small by contract.
AUDIT_MAX_PAIRS = 3


def _check_pairs(r: int, subject: str) -> int:
    """r as an int, after the checks shared by the audits on rK_2; subject
    starts the bound's message."""
    r = _integer(r, "r")
    if r < 1:  # a domain error (exit 1), checked before the bound (exit 2)
        raise ValueError(f"a matching needs at least one pair, got r={r}")
    if r > AUDIT_MAX_PAIRS:
        raise CapabilityError(
            f"{subject} enumeration-bounded at r <= {AUDIT_MAX_PAIRS}, got {r}"
        )
    return r


def check_betweenness(lettering: Lettering) -> list[tuple[int, int, int]]:
    """Violations (i, j, k): positions i < k share a letter, j is adjacent
    to exactly one of them, yet j does not lie strictly between them.
    Always empty; decoded graphs cannot distinguish twin positions from
    outside the gap.

    On neighbor masks, the j of a pair (i, k) are the set bits of
    adj[i] ^ adj[k] outside positions i..k, listed by letter, then by
    position pair, then by j."""
    adj = decode(lettering).adjacency_masks()
    by_letter: dict[int, list[int]] = {}
    for i, a in enumerate(lettering.word, start=1):
        by_letter.setdefault(a, []).append(i)
    out = []
    for a in sorted(by_letter):
        ps = by_letter[a]
        for x, i in enumerate(ps):
            for k in ps[x + 1:]:
                outside = (adj[i] ^ adj[k]) & ~((2 << k) - (1 << i))
                while outside:
                    out.append((i, (outside & -outside).bit_length() - 1, k))
                    outside &= outside - 1
    return out


class MatchingAuditReport(Record):
    """Summary over all letterings of rK_2 with alphabet exactly k."""

    __slots__ = _fields = (
        "r", "k", "witness_count", "max_letter_occurrences", "edge_paired_fraction"
    )
    r: int
    k: int
    witness_count: int
    max_letter_occurrences: int
    edge_paired_fraction: float

    def ok(self) -> bool:
        if self.max_letter_occurrences > 2:
            return False
        return self.k != self.r or self.edge_paired_fraction == 1.0


def audit_matching_letterings(r: int, k: int) -> MatchingAuditReport:
    """Enumerate every lettering of rK_2 with alphabet exactly k and
    summarize letter multiplicities and edge pairing."""
    r, k = _check_pairs(r, "matching audits are"), _integer(k, "k")
    if k < r:
        raise ValueError(f"an r-edge matching needs at least r letters, got k={k}")
    if k > 2 * r:
        raise ValueError(f"k cannot exceed the vertex count {2 * r}, got {k}")
    return _audit_matching_letterings(r, k)


def _audit_matching_letterings(r: int, k: int) -> MatchingAuditReport:
    """audit_matching_letterings without the AUDIT_MAX_PAIRS bound, for
    r <= k <= 2r; the enumeration's own vertex bound still holds."""
    result = enumerate_letterings(matching_graph(r), k)
    max_occ = 0
    paired = 0
    for witness in result.witnesses:
        word = witness.lettering.word
        counts = Counter(word)
        max_occ = max(max_occ, max(counts.values()))
        # A letter's two positions are adjacent iff (a, a) is decoded.
        pairs = witness.lettering.decoder.pairs
        if all(c == 2 and (a, a) in pairs for a, c in counts.items()):
            paired += 1
    count = len(result.witnesses)
    fraction = paired / count if count else 1.0
    return MatchingAuditReport(r, k, count, max_occ, fraction)


class WordCensus(Record):
    """Words of length 2r admitting a lettering of rK_2, counted under both
    alphabet conventions."""

    __slots__ = _fields = ("r", "fixed_alphabet_count", "canonical_count")
    r: int
    fixed_alphabet_count: int  # words over the fixed alphabet {1..r}
    canonical_count: int  # first-occurrence canonical words only


def _perfect_matchings(vertices: tuple[int, ...]):
    if not vertices:
        yield ()
        return
    a, rest = vertices[0], vertices[1:]
    for i, b in enumerate(rest):
        for sub in _perfect_matchings(rest[:i] + rest[i + 1 :]):
            yield ((a, b),) + sub


def _admits_matching(word: tuple[int, ...], matchings) -> bool:
    # Dumb on purpose: try every perfect matching of the positions as the
    # would-be edge set and look for a consistent decoder.
    n = len(word)
    for m in matchings:
        edges = set(m)
        table: dict[tuple[int, int], bool] = {}
        ok = True
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                bit = (i, j) in edges
                key = (word[i - 1], word[j - 1])
                prev = table.get(key)
                if prev is None:
                    table[key] = bit
                elif prev != bit:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def _is_canonical(word: tuple[int, ...]) -> bool:
    seen = 0
    for a in word:
        if a == seen + 1:
            seen += 1
        elif a > seen:
            return False
    return True


def matching_word_census(r: int) -> WordCensus:
    """Brute-force count of words of length 2r over {1..r} that decode to a
    perfect matching for some decoder. Independent of the solver."""
    r = _check_pairs(r, "word census is")
    matchings = list(_perfect_matchings(tuple(range(1, 2 * r + 1))))
    fixed = 0
    canonical = 0
    for word in product(range(1, r + 1), repeat=2 * r):
        if _admits_matching(word, matchings):
            fixed += 1
            if _is_canonical(word):
                canonical += 1
    return WordCensus(r, fixed, canonical)


def count_matching_words(r: int) -> int:
    """Number of words over the fixed alphabet {1..r} admitting a lettering
    of rK_2; equals (2r)!/2^r (choose which positions pair up)."""
    return matching_word_census(r).fixed_alphabet_count
