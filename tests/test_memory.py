"""Memory follows the size of the input and the output, never a number read
from the input such as the alphabet size. Peaks are measured with
tracemalloc, so the tests do not depend on machine speed."""

import tracemalloc

from lettergraphs import Decoder, Lettering, decode, path_lettering


def peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decode_memory_ignores_alphabet_size():
    lt = Lettering((1, 2), Decoder(10**6, frozenset({(1, 2)})))
    assert peak_bytes(decode, lt) < 100_000


def test_path_lettering_memory_grows_linearly():
    small = peak_bytes(path_lettering, 8000)
    large = peak_bytes(path_lettering, 16000)
    # Doubling n doubles a linear peak and quadruples a quadratic one.
    assert large < 2.5 * small
