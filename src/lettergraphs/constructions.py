"""Closed-form letterings for paths and perfect matchings.

Paths admit letterings with floor((n+4)/3) letters and no fewer; the word
built here realizes that alphabet size for every n >= 3 and is re-decoded
and path-checked before being returned, so a successful call is its own
certificate. The decoded graph stays on the returned lettering together
with its shape (one path on n vertices), so a later decode or
verify_lettering of it neither decodes the word nor walks the graph again.

The builders make their words and decoders from range, already in the
normalized form Decoder and Lettering would check their input into (int
letters in 1..k, a frozenset of (int, int) pairs), so they build both
through Record._of and skip those checks; they are the only callers of
Record._of. The tests rebuild their letterings through the checked
constructors and compare.
"""

from __future__ import annotations

from itertools import chain

from .core import Decoder, Lettering, decode
from .graphs import _integer, _path_shape


def path_lettericity(n: int) -> int:
    """Minimum alphabet size for P_n, n >= 3: floor((n+4)/3)."""
    n = _integer(n, "n")
    if n < 3:
        raise ValueError(
            f"closed form covers n >= 3, got {n}; P_1 and P_2 both have "
            f"single-letter letterings"
        )
    return (n + 4) // 3


def path_lettering(n: int) -> Lettering:
    """Optimal lettering of P_n for n >= 3.

    Base word on 3r+1 positions, r = ceil((n-1)/3), over letters 1..r+1:

        2 1 | 3 2 1 | 4 3 2 | ... | (r+1) r (r-1) | (r+1) r

    with decoder {(j+1, j) : 1 <= j <= r}. For n = 3r the first occurrence
    of letter 1 is dropped; for n = 3r-1 the last occurrence of letter r+1
    is dropped as well.

    The certificate decodes the word once and checks that the graph's shape
    is one path on n vertices. It keeps that shape on the decoded graph and
    no vertex order.
    """
    n = _integer(n, "n")
    if n < 3:
        raise ValueError(
            f"path letterings are constructed for n >= 3, got {n}; P_1 and "
            f"P_2 are single-letter: words (1) and (1,1)"
        )
    r = (n + 1) // 3
    # letters[j] is j: every occurrence of a letter and its decoder pairs
    # share one int object.
    letters = list(range(r + 2))
    # head leaves out the first occurrence of 1 for n = 3r, tail the last
    # occurrence of r+1 for n = 3r-1; between them, the blocks
    # (j+1, j, j-1) for j = 2..r.
    head = (2, 1) if n > 3 * r else (2,)
    tail = (letters[r],) if n == 3 * r - 1 else (letters[r + 1], letters[r])
    blocks = chain.from_iterable(zip(letters[3:], letters[2 : r + 1], letters[1:r]))
    decoder = Decoder._of(r + 1, frozenset(zip(letters[2:], letters[1:])))
    lettering = Lettering._of(tuple(chain(head, blocks, tail)), decoder)
    g = decode(lettering)
    if g.n != n or g._shape() != _path_shape(n):
        raise RuntimeError(f"internal error: constructed word for n={n} is not a path")
    return lettering


def matching_base_lettering(r: int) -> Lettering:
    """Lettering of rK_2 on r+1 letters: word 21 32 43 ... (r+1)r with
    decoder {(j+1, j)}; block j decodes to the edge {2j-1, 2j}."""
    r = _integer(r, "r")
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    letters = list(range(r + 2))
    pairs = list(zip(letters[2:], letters[1:]))  # block j is the pair (j+1, j)
    return Lettering._of(tuple(chain.from_iterable(pairs)), Decoder._of(r + 1, frozenset(pairs)))


def matching_canonical_lettering(r: int) -> Lettering:
    """Optimal lettering of rK_2 on r letters: word 1 1 2 2 ... r r with
    decoder {(a, a)}; each letter's two positions form one edge."""
    r = _integer(r, "r")
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    letters = list(range(1, r + 1))
    pairs = list(zip(letters, letters))  # letter a's block is the pair (a, a)
    return Lettering._of(tuple(chain.from_iterable(pairs)), Decoder._of(r, frozenset(pairs)))
