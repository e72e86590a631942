"""Command-line front end: polynomials, bounds, depth, tables, DOT trees.

One verb per artifact:

* ``poly <file> [--cache PATH]`` — polynomial of each diagram in the file
* ``bounds <file> [--genus N] [--braids <file>] [--cache PATH]`` — bound
  report rows; a diagram that simplifies to an unlink gets the row
  ``0 0 unlink=0(lower),unlink=0(upper)``, and a one-signed word whose
  polynomial is not the diagram's is an input error
* ``td <file> [--max-depth K] [--budget N] [--timeout-secs S]
  [--cache PATH]`` — depth per diagram
* ``braid-bound <braidfile>`` — word statistics and formula bounds
* ``tabulate <dataset.tsv> [--out <file>] [--budget N] [--timeout-secs S]
  [--cache PATH]`` — the full table
* ``tree <file> --depth K --dot <out> [--budget N] [--cache PATH]`` —
  witness tree as a DOT digraph

Exit codes: 0 success, 1 input or usage error, 2 budget/timeout
exhaustion with interval output.  A result cache (``--cache PATH``,
overridden by the SKEIN_CACHE environment variable) persists polynomial
values and depth intervals keyed by canonical code, as append-only
tab-separated lines that start with a format marker; corrupt lines and
lines of the older unversioned format are skipped with a warning on
stderr.  :func:`main` loads it into the context every verb solves in and
saves it after the verb returns; only the verbs that take ``--cache``
use it.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

from . import braid
from .bounds import BoundsReport, aggregate_bounds
from .braid import BraidWord, mixed_braid_upper, parse_braid, positive_braid_td
from .diagram import OrientedDiagram, parse_pd, pd_text, simplify
from .poly import homfly, render_poly
from .solver import (
    DEFAULT_BUDGET,
    NoWitness,
    ResultCache,
    SkeinLeaf,
    SkeinTree,
    SolveContext,
    check_braid_words,
    compute_td,
    extract_tree,
)
from .tree import BraidBranch, BraidLeaf

T = TypeVar("T")


# -- input files ---------------------------------------------------------------


def _parsed(path: str, parse: Callable[[str], T]) -> Iterator[T]:
    """parse of each data line of path, that is each line that is not
    blank or a "#" comment, one at a time, so the lines before a bad one
    are used first; the ValueError of a bad line names the file and the
    line."""
    with open(path, encoding="utf-8") as fh:
        lines = list(enumerate(fh, 1))
    for lineno, line in lines:
        line = line.strip()
        if line and not line.startswith("#"):
            try:
                item = parse(line)
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
            yield item


@dataclass
class DatasetRow:
    name: str
    pd: OrientedDiagram
    genus: int | None
    braid_words: list[BraidWord] | None
    expected: tuple[int, int] | None  # closed interval; exact = (v, v)


def _parse_expected(cell: str) -> tuple[int, int] | None:
    """An expected cell: empty, a depth n, or an interval [lo,hi] of depths."""
    if not cell:
        return None
    ends = cell[1:-1].split(",") if cell.startswith("[") and cell.endswith("]") else [cell, cell]
    try:
        lo, hi = map(int, ends)
    except ValueError:
        raise ValueError(f"bad expected depth {cell!r} (expected n or [lo,hi])") from None
    if lo < 0:
        raise ValueError(f"negative expected depth {cell!r}")
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
    try:
        genus = int(genus_cell) if genus_cell else None
    except ValueError:
        raise ValueError(f"bad genus {genus_cell!r}") from None
    return DatasetRow(name, d, genus, words, _parse_expected(expected_cell))


def load_dataset(path: str) -> list[DatasetRow]:
    seen = set()

    def new_row(line: str) -> DatasetRow:
        row = parse_dataset_row(line)
        if row.name in seen:
            raise ValueError(f"duplicate row name {row.name!r}")
        seen.add(row.name)
        return row

    return list(_parsed(path, new_row))


# -- DOT export ----------------------------------------------------------------


def export_dot(tree: SkeinTree) -> str:
    """Deterministic DOT digraph of a witness tree.

    Nodes carry the PD text, or a braid-word node its word, ``p=N: ...``,
    with the resolved letter in brackets; the switch child comes first
    so it lands on the left.  Edge labels: "±" toward the switched
    child, "0" toward the smoothing; leaves show their unlink component
    count.  Each distinct subtree object is one node, emitted once, so a
    subtree shared by several branches has an edge from each of them.
    """
    lines = ["digraph skein {", '  node [shape=box fontname="monospace"];']
    ids: dict[int, int] = {}

    def visit(t: SkeinTree) -> int:
        my = ids.get(id(t))
        if my is not None:
            return my
        my = ids[id(t)] = len(ids)
        text = _word_label(t) if isinstance(t, (BraidBranch, BraidLeaf)) else pd_text(t.diagram)
        if isinstance(t, SkeinLeaf):
            lines.append(f'  n{my} [label="{text}\\nunlink({t.components})"];')
            return my
        lines.append(f'  n{my} [label="{text}"];')
        a = visit(t.switched)
        lines.append(f'  n{my} -> n{a} [label="±"];')
        b = visit(t.smoothed)
        lines.append(f'  n{my} -> n{b} [label="0"];')
        return my

    visit(tree)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _word_label(t) -> str:
    """``p=N: letters`` of a braid-word node, a branch's resolved letter
    in brackets."""
    letters = [str(g) for g in t.word]
    if isinstance(t, BraidBranch):
        letters[t.crossing] = f"[{letters[t.crossing]}]"
    return f"p={t.strands}: " + " ".join(letters)


# -- subcommands ---------------------------------------------------------------


def _cmd_poly(args, ctx: SolveContext) -> int:
    for d in _parsed(args.file, parse_pd):
        print(render_poly(homfly(d, ctx.homfly_cache)))
    return 0


def _cmd_bounds(args, ctx: SolveContext) -> int:
    words = None
    if args.braids:
        words = list(_parsed(args.braids, parse_braid))
    for idx, d in enumerate(_parsed(args.file, parse_pd), 1):
        if simplify(d).is_crossingless():
            # every tree of an unlink diagram has depth 0, as td answers
            rep = BoundsReport(0, 0, (("unlink", 0, "lower"), ("unlink", 0, "upper")))
        else:
            rep = aggregate_bounds(d, genus=args.genus, braid_words=words, cache=ctx.homfly_cache)
            if words:
                check_braid_words(d, words, ctx)
        print(rep.render_row(f"row{idx}"))
    return 0


def _cmd_td(args, ctx: SolveContext) -> int:
    exhausted = False
    for d in _parsed(args.file, parse_pd):
        res = compute_td(
            d,
            budget=args.budget,
            max_depth=args.max_depth,
            timeout_secs=args.timeout_secs,
            ctx=ctx,
        )
        exhausted = exhausted or res.budget_exhausted
        print(f"{res.link_lower}\t{res.diagram_upper}\t{res.render()}")
    return 2 if exhausted else 0


def _cmd_braid_bound(args, ctx: SolveContext) -> int:
    uppers = []
    for w in _parsed(args.file, parse_braid):
        used = w.all_indices_used()
        exact = positive_braid_td(w) if used and not (w.positives and w.negatives) else "-"
        upper = mixed_braid_upper([w]) if used else "-"
        if used:
            uppers.append(upper)
        print(
            f"{w.length}\t{w.positives}\t{w.negatives}\t{w.strands}\t"
            f"{str(used).lower()}\t{exact}\t{upper}"
        )
    if uppers:
        print(f"min-upper\t{min(uppers)}")
    return 0


def _cmd_tabulate(args, ctx: SolveContext) -> int:
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
            if hi < res.link_lower or lo > res.diagram_upper:
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
    return 2 if exhausted else 0


def _cmd_tree(args, ctx: SolveContext) -> int:
    d = next(_parsed(args.file, parse_pd), None)
    if d is None:
        raise ValueError(f"{args.file}: no diagram found")
    try:
        tree = extract_tree(d, args.depth, budget=args.budget, ctx=ctx)
    except NoWitness as e:
        # a True that rested on a cached interval is settled by the
        # search for its witness
        if e.answer is None:
            print(f"budget exhausted before settling depth {args.depth}", file=sys.stderr)
            return 2
        print(f"no resolution tree of depth {args.depth} exists for this diagram", file=sys.stderr)
        return 1
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
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 after printing a usage error, which is exit 1
        # here; --help exits 0
        return 1 if e.code else 0
    try:
        _check_limits(args)
        ctx = SolveContext()
        path = (os.environ.get("SKEIN_CACHE") or args.cache) if "cache" in args else None
        cache = ResultCache(path) if path else None
        if cache:
            cache.load_into(ctx)
        try:
            return args.fn(args, ctx)
        finally:
            # the context holds only finished work, even when the verb raised
            if cache:
                cache.save_from(ctx)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
