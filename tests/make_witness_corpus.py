"""Write witness_corpus.txt: lettericity_exact's answer on fixed graphs.

    PYTHONPATH=src python3 tests/make_witness_corpus.py

The graphs are 1,200 seeded random ones, 40(n - 2) + 10 of them for each
n = 2..9 with edge probability cycling through 0.2..0.8, then P_1..P_9 and
1K_2..4K_2. Each line holds a graph and the k, word, decoder and position
-> vertex map that lettericity_exact returns for it:

    G(7,0.5)#3 n=7 edges=1-2,2-5 k=3 word=1,2,1 decoder=1:2,2:1 map=3,1,2

test_solver rebuilds every line and names the first graph whose answer
differs from the file. Regenerate the file only for a change that is meant
to move a witness, and say which witnesses moved and why.
"""

from __future__ import annotations

import random
from pathlib import Path

from lettergraphs import Graph, lettericity_exact, matching_graph, path_graph

CORPUS = Path(__file__).with_name("witness_corpus.txt")
SEED = 32
DENSITIES = (0.2, 0.35, 0.5, 0.65, 0.8)


def corpus_graphs() -> list[tuple[str, Graph]]:
    rng = random.Random(SEED)
    graphs = []
    for n in range(2, 10):
        for i in range(40 * (n - 2) + 10):
            p = DENSITIES[i % len(DENSITIES)]
            edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
            graphs.append((f"G({n},{p})#{i}", Graph(n, edges)))
    graphs += [(f"P_{n}", path_graph(n)) for n in range(1, 10)]
    graphs += [(f"{r}K_2", matching_graph(r)) for r in range(1, 5)]
    return graphs


def _join(items) -> str:
    return ",".join(map(str, items))


def corpus_line(name: str, g: Graph) -> str:
    k, w = lettericity_exact(g)
    return " ".join((
        name,
        f"n={g.n}",
        "edges=" + _join(f"{u}-{v}" for u, v in sorted(g.edges)),
        f"k={k}",
        "word=" + _join(w.lettering.word),
        "decoder=" + _join(f"{a}:{b}" for a, b in sorted(w.lettering.decoder.pairs)),
        "map=" + _join(w.vertex_of_position),
    ))


def main() -> int:
    CORPUS.write_text("".join(corpus_line(name, g) + "\n" for name, g in corpus_graphs()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
