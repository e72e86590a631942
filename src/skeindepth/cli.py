"""Command-line front end: polynomials, bounds, depth, tables, DOT trees.

One verb per artifact:

* ``poly <file>`` — polynomial of each diagram in the file
* ``bounds <file> [--genus N] [--braids <file>]`` — bound report rows
* ``td <file> [--max-depth K] [--budget N]`` — depth per diagram
* ``braid-bound <braidfile>`` — word statistics and formula bounds
* ``tabulate <dataset.tsv> [--out <file>]`` — the full table
* ``tree <file> --depth K --dot <out>`` — witness tree as a DOT digraph

Exit codes: 0 success, 1 input error, 2 budget/timeout exhaustion with
interval output.  A result cache (``--cache PATH``, overridden by the
SKEIN_CACHE environment variable) persists polynomial values and depth
intervals keyed by canonical code, as append-only tab-separated lines
that start with a format marker; corrupt lines and lines of the older
unversioned format are skipped with a warning on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from . import braid
from .bounds import aggregate_bounds
from .braid import BraidWord, braid_stats, mixed_braid_upper, parse_braid, positive_braid_td
from .diagram import OrientedDiagram, parse_pd, pd_text
from .poly import homfly, render_poly
from .solver import (
    DEFAULT_BUDGET,
    ResultCache,
    SkeinBranch,
    SkeinLeaf,
    SkeinTree,
    SolveContext,
    compute_td,
    depth_at_most,
    extract_tree,
)


# -- result cache --------------------------------------------------------------


def _open_cache(args, ctx: SolveContext) -> ResultCache | None:
    path = os.environ.get("SKEIN_CACHE") or getattr(args, "cache", None)
    if not path:
        return None
    cache = ResultCache(path)
    cache.load_into(ctx)
    return cache


# -- input files ---------------------------------------------------------------


def _data_lines(path: str) -> list[tuple[int, str]]:
    with open(path, encoding="utf-8") as fh:
        return [
            (i, line.strip())
            for i, line in enumerate(fh, 1)
            if line.strip() and not line.lstrip().startswith("#")
        ]


@dataclass
class DatasetRow:
    name: str
    pd: OrientedDiagram
    genus: int | None
    braid_words: list[BraidWord] | None
    expected: tuple[int, int] | None  # closed interval; exact = (v, v)


def _parse_expected(cell: str) -> tuple[int, int] | None:
    if not cell:
        return None
    if cell.startswith("["):
        body = cell.strip("[]")
        lo_s, hi_s = body.split(",")
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(cell)
    if lo > hi:
        raise ValueError(f"empty expected interval {cell!r}")
    return (lo, hi)


def parse_dataset_row(line: str) -> DatasetRow:
    cells = line.split("\t")
    cells += [""] * (5 - len(cells))
    name, pd_cell, genus_cell, braid_cell, expected_cell = (c.strip() for c in cells[:5])
    if not name:
        raise ValueError("row without a name")
    words = None
    if braid_cell:
        words = [parse_braid(w) for w in braid_cell.split(";") if w.strip()]
    if pd_cell:
        d = parse_pd(pd_cell)
    elif words:
        # pd omitted: take the closure of the first braid word
        d = braid.braid_closure(words[0])
    else:
        raise ValueError(f"row {name!r} has neither a PD code nor a braid word")
    genus = int(genus_cell) if genus_cell else None
    return DatasetRow(name, d, genus, words, _parse_expected(expected_cell))


def load_dataset(path: str) -> list[DatasetRow]:
    rows = []
    seen = set()
    for lineno, line in _data_lines(path):
        try:
            row = parse_dataset_row(line)
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from None
        if row.name in seen:
            raise ValueError(f"{path}:{lineno}: duplicate row name {row.name!r}")
        seen.add(row.name)
        rows.append(row)
    return rows


# -- DOT export ----------------------------------------------------------------


def export_dot(tree: SkeinTree) -> str:
    """Deterministic DOT digraph of a witness tree.

    Nodes carry the PD text; the switch child comes first so it lands on
    the left.  Edge labels: "±" toward the switched child, "0" toward
    the smoothing; leaves show their unlink component count.
    """
    lines = ["digraph skein {", '  node [shape=box fontname="monospace"];']
    counter = 0

    def visit(t: SkeinTree) -> int:
        nonlocal counter
        my = counter
        counter += 1
        if isinstance(t, SkeinLeaf):
            lines.append(f'  n{my} [label="{pd_text(t.diagram)}\\nunlink({t.components})"];')
            return my
        lines.append(f'  n{my} [label="{pd_text(t.diagram)}"];')
        a = visit(t.switched)
        lines.append(f'  n{my} -> n{a} [label="±"];')
        b = visit(t.smoothed)
        lines.append(f'  n{my} -> n{b} [label="0"];')
        return my

    visit(tree)
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- subcommands ---------------------------------------------------------------


def _cmd_poly(args) -> int:
    ctx = SolveContext()
    cache = _open_cache(args, ctx)
    for _, line in _data_lines(args.file):
        d = parse_pd(line)
        print(render_poly(homfly(d, ctx.homfly_cache)))
    if cache:
        cache.save_from(ctx)
    return 0


def _cmd_bounds(args) -> int:
    ctx = SolveContext()
    cache = _open_cache(args, ctx)
    words = None
    if args.braids:
        words = [parse_braid(line) for _, line in _data_lines(args.braids)]
    for idx, (_, line) in enumerate(_data_lines(args.file), 1):
        d = parse_pd(line)
        rep = aggregate_bounds(d, genus=args.genus, braid_words=words, cache=ctx.homfly_cache)
        print(rep.render_row(f"row{idx}"))
    if cache:
        cache.save_from(ctx)
    return 0


def _cmd_td(args) -> int:
    ctx = SolveContext()
    cache = _open_cache(args, ctx)
    exhausted = False
    for _, line in _data_lines(args.file):
        d = parse_pd(line)
        res = compute_td(
            d,
            budget=args.budget,
            max_depth=args.max_depth,
            timeout_secs=args.timeout_secs,
            ctx=ctx,
        )
        exhausted = exhausted or res.budget_exhausted
        print(f"{res.link_lower}\t{res.diagram_upper}\t{res.render()}")
    if cache:
        cache.save_from(ctx)
    return 2 if exhausted else 0


def _cmd_braid_bound(args) -> int:
    uppers = []
    for _, line in _data_lines(args.file):
        w = parse_braid(line)
        length, pos, neg, strands, used = braid_stats(w)
        exact = "-"
        if used and (pos == 0 or neg == 0):
            exact = str(positive_braid_td(w))
        upper = mixed_braid_upper([w]) if used else "-"
        if used:
            uppers.append(int(upper))
        print(f"{length}\t{pos}\t{neg}\t{strands}\t{str(used).lower()}\t{exact}\t{upper}")
    if uppers:
        print(f"min-upper\t{min(uppers)}")
    return 0


def _cmd_tabulate(args) -> int:
    ctx = SolveContext()
    cache = _open_cache(args, ctx)
    rows = load_dataset(args.dataset)
    out_lines = ["name\tlower\tupper\ttd"]
    exhausted = False
    for row in rows:
        try:
            res = compute_td(
                row.pd,
                genus=row.genus,
                braid_words=row.braid_words,
                budget=args.budget,
                timeout_secs=args.timeout_secs,
                ctx=ctx,
            )
        except ValueError as e:
            out_lines.append(f"{row.name}\t-\t-\terror: {e}")
            continue
        exhausted = exhausted or res.budget_exhausted
        out_lines.append(f"{row.name}\t{res.link_lower}\t{res.diagram_upper}\t{res.render()}")
        if row.expected is not None:
            lo, hi = row.expected
            if res.is_exact and not lo <= res.value <= hi:
                print(f"warning: {row.name}: got {res.render()}, expected {lo}..{hi}", file=sys.stderr)
            elif hi < res.link_lower or lo > res.diagram_upper:
                print(
                    f"warning: {row.name}: expected {lo}..{hi} outside "
                    f"[{res.link_lower}, {res.diagram_upper}]",
                    file=sys.stderr,
                )
    text = "\n".join(out_lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if cache:
        cache.save_from(ctx)
    return 2 if exhausted else 0


def _cmd_tree(args) -> int:
    ctx = SolveContext()
    cache = _open_cache(args, ctx)
    lines = _data_lines(args.file)
    if not lines:
        raise ValueError(f"{args.file}: no diagram found")
    d = parse_pd(lines[0][1])
    verdict = depth_at_most(d, args.depth, budget=args.budget, ctx=ctx)
    if cache:
        cache.save_from(ctx)
    if verdict is None:
        print(f"budget exhausted before settling depth {args.depth}", file=sys.stderr)
        return 2
    if verdict is False:
        print(f"no resolution tree of depth {args.depth} exists for this diagram", file=sys.stderr)
        return 1
    tree = extract_tree(d, args.depth, budget=args.budget, ctx=ctx)
    with open(args.dot, "w", encoding="utf-8") as fh:
        fh.write(export_dot(tree))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="skeindepth",
        description="Skein-tree depth of oriented links: polynomials, bounds, search.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_cache(sp):
        sp.add_argument("--cache", help="result cache file (SKEIN_CACHE overrides)")

    sp = sub.add_parser("poly", help="polynomial of each diagram in FILE")
    sp.add_argument("file")
    add_cache(sp)
    sp.set_defaults(fn=_cmd_poly)

    sp = sub.add_parser("bounds", help="depth bound report for each diagram in FILE")
    sp.add_argument("file")
    sp.add_argument("--genus", type=int, default=None, help="known genus of the link")
    sp.add_argument("--braids", help="file of braid words presenting the same link")
    add_cache(sp)
    sp.set_defaults(fn=_cmd_bounds)

    sp = sub.add_parser("td", help="resolution depth of each diagram in FILE")
    sp.add_argument("file")
    sp.add_argument("--max-depth", type=int, default=None)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--timeout-secs", type=float, default=None)
    add_cache(sp)
    sp.set_defaults(fn=_cmd_td)

    sp = sub.add_parser("braid-bound", help="formula bounds for each braid word in FILE")
    sp.add_argument("file")
    sp.set_defaults(fn=_cmd_braid_bound)

    sp = sub.add_parser("tabulate", help="lower/upper/td table for a dataset")
    sp.add_argument("dataset")
    sp.add_argument("--out", help="write the table here instead of stdout")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--timeout-secs", type=float, default=None)
    add_cache(sp)
    sp.set_defaults(fn=_cmd_tabulate)

    sp = sub.add_parser("tree", help="DOT witness tree for the first diagram in FILE")
    sp.add_argument("file")
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("--dot", required=True, help="output DOT path")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    add_cache(sp)
    sp.set_defaults(fn=_cmd_tree)
    return p


# search limits, by argument name; none of them may be negative
_LIMITS = ("budget", "timeout_secs", "max_depth", "depth")


def _check_limits(args) -> None:
    for name in _LIMITS:
        value = getattr(args, name, None)
        if value is not None and not value >= 0:  # NaN fails too
            raise ValueError(f"--{name.replace('_', '-')} must be at least 0, got {value}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_limits(args)
        return args.fn(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
