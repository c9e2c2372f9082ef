"""Command-line interface.

Subcommands: decode a word, emit a path lettering, solve for lettericity,
audit matching letterings, and count matching words. Exit codes: 0 on
success, 1 for domain or input errors, 2 when a request exceeds a
desk-scale bound.
"""

from __future__ import annotations

import argparse
import sys

from .audits import audit_matching_letterings, matching_word_census
from .constructions import path_lettering
from .core import Decoder, Lettering, decode, format_lettering, parse_decoder_pairs, parse_word
from .errors import CapabilityError
from .graphs import Graph, matching_graph, parse_edge_list, path_graph, serialize_edge_list, to_dot
from .solver import VERTEX_LIMIT, _check_size, lettericity_exact

# Largest `path N` served: the largest size measured, where `path 1000000
# --verify` peaks at 150-161 MB max RSS, the same code reading differently
# from different copies of the tree, and near 121 MB under tracemalloc
# (137-142 MB RSS with glibc's mmap threshold fixed at 128 kB; decode's
# letter tables are lists, and the path certificate is one walk). Memory
# grows linearly in N, so a larger request is refused before any word is
# built.
PATH_VERTEX_LIMIT = 1_000_000


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; 2 is reserved for
    # capability bounds here, so route usage problems through exit 1.
    def error(self, message):
        raise _UsageError(message)


def _cmd_decode(args) -> int:
    word = parse_word(args.word)
    pairs = parse_decoder_pairs(args.decoder)
    # An inferred alphabet holds at least letter 1 for a nonempty word, so a
    # letter below 1 is reported against the word, not the alphabet.
    k = args.k if args.k is not None else (max(max(word), 1) if word else 0)
    lettering = Lettering(word, Decoder(k, pairs))
    g = decode(lettering)
    print(serialize_edge_list(g) if args.format == "edges" else to_dot(g))
    return 0


def _cmd_path(args) -> int:
    if args.n > PATH_VERTEX_LIMIT:
        raise CapabilityError(
            f"path letterings are bounded at {PATH_VERTEX_LIMIT} vertices, got {args.n}"
        )
    # path_lettering re-decodes its word and checks that it is one path on n
    # vertices before returning, so a returned lettering is already
    # certified to decode to P_n.
    lettering = path_lettering(args.n)
    print(format_lettering(lettering))
    if args.verify:
        print(f"VERIFIED P_{args.n}")
    return 0


def _load_target(args) -> Graph:
    sources = [s for s in (args.graph, args.path, args.matching) if s is not None]
    if len(sources) != 1:
        raise _UsageError("give exactly one of: a graph file, --path N, --matching R")
    # Check the bound before building a target whose size is read from argv.
    if args.path is not None:
        _check_size(args.path, VERTEX_LIMIT)
        return path_graph(args.path)
    if args.matching is not None:
        _check_size(2 * args.matching, VERTEX_LIMIT)
        return matching_graph(args.matching)
    with open(args.graph, encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def _cmd_lettericity(args) -> int:
    g = _load_target(args)
    k, witness = lettericity_exact(g)
    print(f"lettericity {k}")
    print(format_lettering(witness.lettering))
    print("map " + ",".join(str(v) for v in witness.vertex_of_position))
    return 0


def _cmd_audit(args) -> int:
    report = audit_matching_letterings(args.r, args.k)
    if args.kv:
        print(f"r {report.r}")
        print(f"k {report.k}")
        print(f"witnesses {report.witness_count}")
        print(f"max-letter-occurrences {report.max_letter_occurrences}")
        print(f"edge-paired-fraction {report.edge_paired_fraction}")
    else:
        print(
            f"max-letter-occurrences {report.max_letter_occurrences}; "
            f"edge-paired-fraction {report.edge_paired_fraction}"
        )
    return 0 if report.ok() else 1


def _cmd_count(args) -> int:
    census = matching_word_census(args.r)
    if args.census:
        print(f"r {census.r}")
        print(f"fixed-alphabet-words {census.fixed_alphabet_count}")
        print(f"canonical-words {census.canonical_count}")
    else:
        print(census.fixed_alphabet_count)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lettergraphs", description="letter-graph toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decode", help="decode a word and decoder into a graph")
    p.add_argument("--word", required=True, help="letters, e.g. 2,1,3,2 or 2132")
    p.add_argument("--decoder", required=True, help="ordered pairs, e.g. 2:1,3:2 (may be empty)")
    p.add_argument("--k", type=int, default=None,
                   help="alphabet size (default: largest letter in the word)")
    p.add_argument("--format", choices=("edges", "dot"), default="edges")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("path", help="emit the optimal lettering of P_n")
    p.add_argument("n", type=int)
    p.add_argument("--verify", action="store_true",
                   help="report that the word was re-decoded and confirmed to be P_n")
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("lettericity", help="exact minimum alphabet size of a small graph")
    p.add_argument("graph", nargs="?", default=None, help="edge-list file ('n m' header)")
    p.add_argument("--path", type=int, default=None, metavar="N", help="use P_N as the target")
    p.add_argument("--matching", type=int, default=None, metavar="R", help="use RK_2 as the target")
    p.set_defaults(func=_cmd_lettericity)

    p = sub.add_parser("audit", help="audit every lettering of rK_2 with alphabet k")
    p.add_argument("r", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--kv", action="store_true", help="machine-readable key-value output")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("count", help="count words of length 2r admitting a lettering of rK_2")
    p.add_argument("r", type=int)
    p.add_argument("--census", action="store_true",
                   help="report both alphabet conventions as key-value lines")
    p.set_defaults(func=_cmd_count)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
