"""Command-line surface.

Subcommands: ``kernel`` (pairwise values), ``gram`` (lower-triangular
matrix), ``esa-dump`` (suffix-array inspection), ``predict`` (score trees
against a model file), ``gen`` (random tree corpora), ``bench-kernel`` and
``bench-predict`` (JSON scaling reports).  Trees travel in the bracket
grammar, one per line; kernel values print with 17 significant digits.
Exit status 0 on success, 2 on bad input or flags (reported on stderr),
1 when the reader of stdout closes it early.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import bench_kernel, bench_predict
from .kernel import KernelParams, gram_matrix, subpath_kernel, subpath_kernel_oracle
from .predict import build_master_index, load_model, predict
from .trees import LabelTable, TreeParseError, _utf8_error_line, parse_corpus, random_tree, serialize_tree
from .esa import select_builder


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _read_corpus(path: str, table: LabelTable):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_corpus(fh, table)
    except UnicodeDecodeError:
        raise ValueError(f"{path} line {_utf8_error_line(path)}: not valid UTF-8") from None


def _int_at_least(lo: int):
    """argparse type for an int >= lo, so that a bad value names its flag."""
    def parse(text: str) -> int:
        if int(text) < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {text}")
        return int(text)
    parse.__name__ = "int"  # argparse reports a non-number as "invalid int value"
    return parse


def _add_lambda(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="per-edge decay weight in (0, 1]")


def cmd_kernel(args) -> int:
    table = LabelTable()
    a = _read_corpus(args.file_a, table)
    b = _read_corpus(args.file_b, table)
    if len(a) != len(b):
        raise ValueError(f"tree counts differ: {len(a)} in {args.file_a}, {len(b)} in {args.file_b}")
    params = KernelParams(lam=args.lam)
    for t1, t2 in zip(a, b):
        if args.oracle:
            value = subpath_kernel_oracle(t1, t2, params.lam)
        else:
            value = subpath_kernel(t1, t2, params)
        print(_fmt(value))
    return 0


def cmd_gram(args) -> int:
    table = LabelTable()
    trees = _read_corpus(args.file, table)
    if not trees:
        raise ValueError("empty corpus")
    gram = gram_matrix(trees, KernelParams(lam=args.lam),
                       normalize=args.normalize, jobs=args.jobs)
    for i in range(len(trees)):
        print("\t".join(_fmt(gram[i][j]) for j in range(i + 1)))
    return 0


def cmd_esa_dump(args) -> int:
    table = LabelTable()
    trees = _read_corpus(args.file, table)
    build = select_builder(args.builder)
    blocks = []
    for tree in trees:
        arr = build(tree)
        names = [table.name(lab) for lab in tree.labels.tolist()]
        parent = tree.parent.tolist()
        lines = []
        for i, (v, h) in enumerate(zip(arr.sa.tolist(), arr.lcp.tolist())):
            labels = []
            u = v
            while u != -1:
                labels.append(names[u])
                u = parent[u]
            lines.append(f"{i}\t{v}\t{h}\t{'/'.join(labels)}")
        blocks.append("\n".join(lines))
    if blocks:
        print("\n\n".join(blocks))
    return 0


def cmd_predict(args) -> int:
    table = LabelTable()
    sv = load_model(args.model, table)
    trees = _read_corpus(args.file, table)
    idx = build_master_index(sv)
    for t in trees:
        print(_fmt(predict(idx, t)))
    return 0


def cmd_gen(args) -> int:
    for i in range(args.count):
        t = random_tree(args.n, args.sigma, args.seed + i)
        print(serialize_tree(t))
    return 0


def cmd_bench_kernel(args) -> int:
    sizes = [1 << k for k in range(args.min_pow, args.max_pow + 1)]
    report = bench_kernel(sizes, seed=args.seed, reps=args.reps)
    print(report.to_json())
    return 0


def cmd_bench_predict(args) -> int:
    m_values = list(range(args.m_min, args.m_max + 1, args.m_step))
    input_sizes = [1 << k for k in range(args.n_min_pow, args.n_max_pow + 1)]
    report = bench_predict(m_values, input_sizes, seed=args.seed, reps=args.reps)
    print(report.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="subpath-kernel",
                                 description="Subpath tree kernel toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="kernel values for zipped tree pairs")
    _add_lambda(p)
    p.add_argument("--oracle", action="store_true",
                   help="use the direct-enumeration evaluator")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("gram", help="lower-triangular kernel matrix")
    _add_lambda(p)
    p.add_argument("--normalize", action="store_true",
                   help="cosine-normalize entries")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("file")
    p.set_defaults(fn=cmd_gram)

    p = sub.add_parser("esa-dump", help="rank, node, lcp and suffix per line")
    p.add_argument("--builder", choices=("linear", "reference"), default="linear",
                   help="suffix-array construction to use")
    p.add_argument("file")
    p.set_defaults(fn=cmd_esa_dump)

    p = sub.add_parser("predict", help="score trees against a model file")
    p.add_argument("--model", required=True)
    p.add_argument("file")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("gen", help="emit random trees")
    p.add_argument("--n", type=_int_at_least(1), required=True, help="nodes per tree")
    p.add_argument("--sigma", type=_int_at_least(1), required=True, help="alphabet size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_int_at_least(0), default=1)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("bench-kernel", help="builder scaling report (JSON)")
    p.add_argument("--min-pow", type=_int_at_least(0), default=12)
    p.add_argument("--max-pow", type=_int_at_least(0), default=17)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--reps", type=int, default=5)
    p.set_defaults(fn=cmd_bench_kernel)

    p = sub.add_parser("bench-predict", help="prediction scaling report (JSON)")
    p.add_argument("--m-min", type=int, default=100)
    p.add_argument("--m-max", type=int, default=1000)
    p.add_argument("--m-step", type=_int_at_least(1), default=100)
    p.add_argument("--n-min-pow", type=_int_at_least(0), default=10)
    p.add_argument("--n-max-pow", type=_int_at_least(0), default=14)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--reps", type=int, default=5)
    p.set_defaults(fn=cmd_bench_predict)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so that the flush
        # at interpreter exit stays quiet (see the Python docs on SIGPIPE).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (TreeParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
