"""Command-line surface: verbs, exit codes, cache file, DOT export."""

import importlib.resources
import re

import pytest

from skeindepth import (
    SolveContext,
    braid_closure,
    canonical_code,
    compute_td,
    extract_tree,
    homfly,
    parse_braid,
    parse_pd,
    pd_text,
    simplify,
    verify_tree,
)
from skeindepth.cli import (
    ResultCache,
    export_dot,
    load_dataset,
    main,
    parse_dataset_row,
)
from skeindepth.poly import render_poly

from conftest import DEPTH2_WORD, FIXTURE_PDS, INNER_BOUND_WORDS, INTERVAL_WORD, inner_records

TREFOIL = FIXTURE_PDS["trefoil"][0]


def bundled_dataset() -> str:
    return str(importlib.resources.files("skeindepth").joinpath("datasets/bundled.tsv"))


# -- dataset ingestion -----------------------------------------------------------


def test_parse_dataset_row_full():
    row = parse_dataset_row("K3a1\t" + TREFOIL + "\t1\tp=2: 1 1 1\t2")
    assert row.name == "K3a1" and row.genus == 1
    assert row.expected == (2, 2)
    assert [w.letters for w in row.braid_words] == [(1, 1, 1)]


def test_parse_dataset_row_blank_pd_uses_braid():
    row = parse_dataset_row("tref\t\t\tp=2: 1 1 1\t")
    want = braid_closure(parse_braid("p=2: 1 1 1"))
    assert canonical_code(row.pd) == canonical_code(want)
    assert row.genus is None and row.expected is None


def test_parse_dataset_row_interval_expected():
    row = parse_dataset_row("x\tO\t\t\t[1,3]")
    assert row.expected == (1, 3)


@pytest.mark.parametrize(
    "bad",
    [
        "\tO\t\t\t",  # no name
        "x\t\t\t\t",  # neither pd nor braid
        "x\tO\t\t\t[3,1]",  # empty interval
        "x\tnot-a-pd\t\t\t",
        "x\tO\t\t\t[3",  # unclosed interval
        "x\tO\t\t\t[3,4,5]",  # three ends
        "x\tO\t\t\t-1",  # a depth is at least 0
        "x\tO\t\t\t[-2,1]",
    ],
)
def test_parse_dataset_row_rejects(bad):
    expected = bad.split("\t")[4]  # a bad expected cell is named in the message
    with pytest.raises(ValueError, match=re.escape(repr(expected)) if expected else None):
        parse_dataset_row(bad)


@pytest.mark.parametrize("genus", ["x", "1.5"])
def test_parse_dataset_row_names_a_bad_genus(genus):
    with pytest.raises(ValueError, match=re.escape(f"bad genus {genus!r}")):
        parse_dataset_row(f"x\tO\t{genus}\t\t")


def test_load_dataset_rejects_duplicates(tmp_path):
    p = tmp_path / "d.tsv"
    p.write_text("a\tO\t\t\t\na\tO;O\t\t\t\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_dataset(str(p))


def test_bundled_dataset_loads():
    rows = load_dataset(bundled_dataset())
    assert [r.name for r in rows][:5] == ["unknot", "unlink2", "unlink3", "unlink4", "L2a1"]
    assert all(r.expected is not None for r in rows)


# -- verbs and exit codes ----------------------------------------------------------


def test_poly_verb(tmp_path, capsys):
    f = tmp_path / "in.pd"
    f.write_text(TREFOIL + "\n")
    assert main(["poly", str(f)]) == 0
    assert capsys.readouterr().out.strip() == "-1*a^4 + 2*a^2 + 1*a^2*z^2"


def test_poly_verb_input_error(tmp_path, capsys):
    f = tmp_path / "in.pd"
    f.write_text("X[1,2,3]\n")
    assert main(["poly", str(f)]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["poly", str(tmp_path / "missing.pd")]) == 1
    capsys.readouterr()
    # the error names the file and the line; the lines before it are
    # answered first
    f.write_text(TREFOIL + "\n# a comment\n\nX[1,2,3\n")
    assert main(["poly", str(f)]) == 1
    out, err = capsys.readouterr()
    assert out == "-1*a^4 + 2*a^2 + 1*a^2*z^2\n"
    assert err == f"error: {f}:4: malformed PD item: 'X[1,2,3'\n"


def test_bounds_verb(tmp_path, capsys):
    f = tmp_path / "in.pd"
    f.write_text(TREFOIL + "\n")
    assert main(["bounds", str(f), "--genus", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("row1\t2\t2\t")
    assert "genus-components=2(lower)" in out


def test_bounds_verb_gives_an_unlink_diagram_a_row_of_its_own(tmp_path, capsys):
    """A diagram that simplifies to an unlink gets the row 0 0, named for
    why, as td answers 0 for it, and the rows after it are printed."""
    f = tmp_path / "in.pd"
    f.write_text(f"{TREFOIL}\nX[1,1,2,2]\n{FIXTURE_PDS['fig8'][0]}\n")
    assert main(["bounds", str(f)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split("\t")[:3] for row in rows] == [["row1", "2", "2"], ["row2", "0", "0"], ["row3", "2", "3"]]
    assert rows[1] == "row2\t0\t0\tunlink=0(lower),unlink=0(upper)"
    assert main(["td", str(f)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "0\t0\t0"


def test_contradictory_claims_are_input_errors(tmp_path, capsys):
    f = tmp_path / "in.pd"
    f.write_text(TREFOIL + "\n")
    assert main(["bounds", str(f), "--genus", "5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: contradictory bounds: genus-components lower bound 10")
    b = tmp_path / "words.txt"
    b.write_text("p=3: 1 2\n")
    assert main(["bounds", str(f), "--braids", str(b)]) == 1
    assert capsys.readouterr().err.startswith("error: contradictory bounds: homfly z-degree")
    data = tmp_path / "d.tsv"
    data.write_text(f"tref\t{TREFOIL}\t5\t\t\nwords\t{TREFOIL}\t\tp=3: 1 2\t\ngood\t{TREFOIL}\t1\t\t2\n")
    assert main(["tabulate", str(data)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("tref\t-\t-\terror: contradictory bounds: genus-components")
    assert lines[2].startswith("words\t-\t-\terror: contradictory bounds: homfly z-degree")
    assert lines[3] == "good\t2\t2\t2"


@pytest.mark.parametrize(
    "argv",
    [["td"], ["td", "{f}", "--budget", "x"], ["frobnicate"], [], ["td", "{f}", "--depth", "2"]],
)
def test_usage_errors_exit_1(tmp_path, capsys, argv):
    """argparse's own usage errors exit 1, as every input error does, with
    its usage text on stderr; 2 is kept for an interval left open."""
    f = tmp_path / "in.pd"
    f.write_text(TREFOIL + "\n")
    assert main([a.format(f=f) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: skeindepth")


def test_help_exits_0(capsys):
    for argv in (["--help"], ["td", "--help"]):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: skeindepth")


def test_td_rejects_a_non_planar_code(tmp_path, capsys):
    f = tmp_path / "in.pd"
    f.write_text("X[1,2,1,2]\n")
    assert main(["td", str(f)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {f}:1: not planar")


def test_td_verb_and_budget_exit(tmp_path, capsys):
    f = tmp_path / "in.pd"
    f.write_text(TREFOIL + "\n")
    assert main(["td", str(f)]) == 0
    assert capsys.readouterr().out == "2\t2\t2\n"
    # its HOMFLY-PT expansion has height 9, so depth 6 is searched for
    g = tmp_path / "gap.pd"
    g.write_text(pd_text(braid_closure(parse_braid(INTERVAL_WORD))) + "\n")
    assert main(["td", str(g), "--budget", "2"]) == 2
    out = capsys.readouterr().out
    # interval printed despite exhaustion; the expansion's tree sets hi
    assert out == "6\t9\t[6, 9]\n"


@pytest.mark.parametrize(
    "verb, flag, value",
    [
        ("td", "--max-depth", "-3"),
        ("td", "--budget", "-1"),
        ("td", "--timeout-secs", "-0.5"),
        ("td", "--timeout-secs", "nan"),
        ("tabulate", "--budget", "-1"),
        ("tabulate", "--timeout-secs", "-2"),
        ("tree", "--depth", "-1"),
        ("tree", "--budget", "-5"),
    ],
)
def test_negative_limits_are_input_errors(tmp_path, capsys, verb, flag, value):
    # on the closure of p=3: 1 1 2 2 2 -1 2 1, --max-depth -3 once
    # printed [4, 7] and exited 0
    f = tmp_path / "in.pd"
    f.write_text(pd_text(braid_closure(parse_braid("p=3: 1 1 2 2 2 -1 2 1"))) + "\n")
    dot = tmp_path / "t.dot"
    argv = {
        "td": ["td", str(f)],
        "tabulate": ["tabulate", bundled_dataset()],
        "tree": ["tree", str(f), "--depth", "2", "--dot", str(dot)],
    }[verb]
    assert main(argv + [flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not dot.exists()
    assert captured.err.startswith(f"error: {flag} must be at least 0")


def test_braid_bound_verb(tmp_path, capsys):
    f = tmp_path / "w.braid"
    f.write_text("p=2: 1 1 1\np=4: -1 2 -1 -3 -2 -2 -1 -3 -2 -2 -3\n")
    assert main(["braid-bound", str(f)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "3\t3\t0\t2\ttrue\t2\t2"
    assert lines[1] == "11\t1\t10\t4\ttrue\t-\t9"
    assert lines[2] == "min-upper\t2"
    # a bad word is an input error that names the file and the line, here
    # and in bounds --braids
    f.write_text("p=2: 1 1 1\np=2: 1 x\n")
    pd = tmp_path / "in.pd"
    pd.write_text(TREFOIL + "\n")
    for argv in (["braid-bound", str(f)], ["bounds", str(pd), "--braids", str(f)]):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {f}:2: bad braid letter 'x' in 'p=2: 1 x'\n", argv


def test_tree_on_a_file_without_a_diagram_exits_1(tmp_path, capsys):
    f = tmp_path / "comments.pd"
    f.write_text("# only\n\n# comments\n")
    dot = tmp_path / "t.dot"
    assert main(["tree", str(f), "--depth", "1", "--dot", str(dot)]) == 1
    assert capsys.readouterr().err == f"error: {f}: no diagram found\n"
    assert not dot.exists()


def test_tree_verb_writes_dot(tmp_path):
    f = tmp_path / "in.pd"
    f.write_text(TREFOIL + "\n")
    dot = tmp_path / "t.dot"
    assert main(["tree", str(f), "--depth", "2", "--dot", str(dot)]) == 0
    text = dot.read_text()
    assert text.startswith("digraph skein {")
    assert text.count("unlink(") == 3  # depth-2 tree has three leaves
    assert main(["tree", str(f), "--depth", "1", "--dot", str(dot)]) == 1


def test_tabulate_bundled(tmp_path, capsys):
    assert main(["tabulate", bundled_dataset()]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "name\tlower\tupper\ttd"
    table = {l.split("\t")[0]: l.split("\t")[3] for l in lines[1:]}
    assert table["unknot"] == "0"
    assert table["L2a1"] == "1"
    assert table["K3a1"] == "2"
    assert table["K4a1"] == "2"
    assert table["L4a1{1}"] == "3"
    assert table["K5a2"] == "4"
    assert table["L5a1"] == "3"
    assert table["L6a4"] == "4"
    assert table["K7a7"] == "6"
    # closed by the skein-reachability lower bound, not by z-degree
    assert table["L4a1{0}"] == "2"
    assert table["K5a1"] == "3"


def test_tabulate_byte_identical_and_empty(tmp_path, capsys):
    out1 = tmp_path / "a.tsv"
    out2 = tmp_path / "b.tsv"
    assert main(["tabulate", bundled_dataset(), "--out", str(out1)]) == 0
    assert main(["tabulate", bundled_dataset(), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    empty = tmp_path / "empty.tsv"
    empty.write_text("# nothing here\n")
    assert main(["tabulate", str(empty)]) == 0
    assert capsys.readouterr().out == "name\tlower\tupper\ttd\n"


def test_tabulate_warm_cache_is_byte_identical(tmp_path, monkeypatch, capsys):
    """Cold, warm from the cache the cold run wrote, and warm again: the
    same stdout and stderr, byte for byte."""
    monkeypatch.delenv("SKEIN_CACHE", raising=False)
    cache = tmp_path / "cache.tsv"
    runs = []
    for _ in range(3):
        assert main(["tabulate", bundled_dataset(), "--cache", str(cache)]) == 0
        runs.append(capsys.readouterr())
        assert cache.read_text()
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_tabulate_inline_row_errors(tmp_path, capsys):
    data = tmp_path / "d.tsv"
    # second row is trivially an unlink: genus bound aggregation is fine,
    # but give it a bad genus cell type instead -> row error, no abort
    data.write_text("good\t" + TREFOIL + "\t\t\t2\nbad\tO\t\t\t1\n")
    assert main(["tabulate", str(data)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("good\t2\t2\t2")
    # unlink with expected 1: row computes fine (td 0) but warns on stderr
    assert lines[2].startswith("bad\t0\t0\t0")


def test_tabulate_expected_mismatch_warns(tmp_path, capsys):
    data = tmp_path / "d.tsv"
    data.write_text("tref\t" + TREFOIL + "\t\t\t5\n")
    assert main(["tabulate", str(data)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: tref: expected 5..5 outside [2, 2]\n"
    # an expected depth outside an interval left open
    data.write_text(f"gap\t\t\t{INTERVAL_WORD}\t3\n")
    assert main(["tabulate", str(data)]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[1] == "gap\t6\t7\t[6, 7]"
    assert err == "warning: gap: expected 3..3 outside [6, 7]\n"


# -- cache ------------------------------------------------------------------------


def test_cache_round_trip_zero_recompute(tmp_path):
    cache_path = str(tmp_path / "cache.tsv")
    rows = load_dataset(bundled_dataset())

    ctx1 = SolveContext()
    rc1 = ResultCache(cache_path)
    rc1.load_into(ctx1)
    first = [
        compute_td(r.pd, genus=r.genus, braid_words=r.braid_words, ctx=ctx1)
        for r in rows
    ]
    assert ctx1.homfly_cache.computed > 0
    rc1.save_from(ctx1)

    ctx2 = SolveContext()
    rc2 = ResultCache(cache_path)
    rc2.load_into(ctx2)
    second = [
        compute_td(r.pd, genus=r.genus, braid_words=r.braid_words, ctx=ctx2)
        for r in rows
    ]
    assert ctx2.homfly_cache.computed == 0  # everything replayed from cache
    for a, b in zip(first, second):
        assert (a.link_lower, a.diagram_upper) == (b.link_lower, b.diagram_upper)


def test_cache_skips_corrupt_lines(tmp_path, capsys):
    cache_path = tmp_path / "cache.tsv"
    cache_path.write_text(
        "only-two-fields\t1\n"
        "code\tnot a polynomial\t1,2\n"
        "v2\t1,3,2,4,1;4,2,3,1,1|L0\t-1*a^3*z^-1 + 1*a^1*z^-1 + 1*a^1*z^1\t1,1\n"
    )
    ctx = SolveContext()
    rc = ResultCache(str(cache_path))
    rc.load_into(ctx)
    err = capsys.readouterr().err
    assert err.count("warning: skipping corrupt cache line") == 2
    assert len(ctx.homfly_cache.table) == 1
    assert list(ctx.memo.values()) == [(1, 1, None)]


def test_cache_skips_blank_lines_without_a_warning(tmp_path, capsys):
    tref = canonical_code(parse_pd(TREFOIL))
    hopf = "1,3,2,4,1;4,2,3,1,1|L0"
    cache_path = tmp_path / "cache.tsv"
    cache_path.write_text(f"v2\t{tref}\t-\t2,2\n\n\nv2\t{hopf}\t-\t1,1\n")
    ctx = SolveContext()
    ResultCache(str(cache_path)).load_into(ctx)
    assert capsys.readouterr().err == ""
    assert ctx.memo == {tref: (2, 2, None), hopf: (1, 1, None)}


def test_cache_names_a_bad_interval_and_marker(tmp_path, capsys):
    code = canonical_code(parse_pd(TREFOIL))
    cache_path = tmp_path / "cache.tsv"
    cache_path.write_text(f"v2\t{code}\t-\t2,3,4\nv2\t{code}\t-\tx,2\nv3\t{code}\t-\t2,2\n")
    ctx = SolveContext()
    ResultCache(str(cache_path)).load_into(ctx)
    assert capsys.readouterr().err == (
        "warning: skipping corrupt cache line 1: bad interval '2,3,4'\n"
        "warning: skipping corrupt cache line 2: bad interval 'x,2'\n"
        "warning: skipping corrupt cache line 3: unknown format marker 'v3'\n"
    )
    assert ctx.memo == {}


def test_skipped_cache_lines_contribute_nothing(tmp_path, monkeypatch, capsys):
    # a valid polynomial on a line with an empty interval, a byte that is
    # not UTF-8, and an interval that is empty once floored at 1: each
    # line is skipped whole, and the command goes on
    monkeypatch.delenv("SKEIN_CACHE", raising=False)
    code = canonical_code(parse_pd(TREFOIL))
    cache_path = tmp_path / "cache.tsv"
    cache_path.write_bytes(
        f"v2\t{code}\t1\t5,2\n".encode() + b"v2\t\xff\t-\t1,2\n" + f"v2\t{code}\t-\t0,0\n".encode()
    )
    f = tmp_path / "tref.pd"
    f.write_text(TREFOIL + "\n")
    assert main(["td", str(f), "--cache", str(cache_path)]) == 0
    out, err = capsys.readouterr()
    assert out == "2\t2\t2\n"
    assert "warning: skipping corrupt cache line 1: empty interval" in err
    assert "warning: skipping corrupt cache line 2: 'utf-8' codec" in err
    assert "warning: skipping corrupt cache line 3: empty interval" in err
    # the run saved the trefoil's own value, not the skipped one
    ctx = SolveContext()
    ResultCache(str(cache_path)).load_into(ctx)
    assert ctx.homfly_cache.table[code][0] == homfly(parse_pd(TREFOIL))


@pytest.mark.parametrize("word", INNER_BOUND_WORDS)
def test_td_cache_corrects_an_inner_interval_the_solve_contradicts(tmp_path, monkeypatch, capsys, word):
    # a loaded [1, 1] for a node below the root whose polynomial bound is
    # at least 2 once made every run print the empty interval 3 2 [3, 2];
    # the solve proves the node's bound, prints what a cold run prints,
    # and appends the corrected line, which the second run reads
    monkeypatch.delenv("SKEIN_CACHE", raising=False)
    d = braid_closure(parse_braid(word))
    f = tmp_path / "link.pd"
    f.write_text(pd_text(simplify(d)) + "\n")
    for n, (code, value, bound) in enumerate(inner_records(d)):
        cache_path = tmp_path / f"cache{n}.tsv"
        cache_path.write_text(f"v2\t{code}\t{render_poly(value)}\t1,1\n")
        for _ in range(2):
            assert main(["td", str(f), "--cache", str(cache_path)]) == 0
            assert capsys.readouterr().out == "3\t3\t3\n"
        lines = cache_path.read_text().splitlines()
        assert len(lines) > 1
        ctx = SolveContext()
        ResultCache(str(cache_path)).load_into(ctx)
        lo, hi, _ = ctx.memo[code]
        assert bound <= lo <= hi


def test_cache_skips_a_polynomial_with_a_repeated_factor(tmp_path, monkeypatch, capsys):
    # a cached trefoil value whose first term repeats its a^ factor was
    # once read as 1*a^2 + 1*a^2*z^2, which made td and bounds report
    # contradictory bounds; it is skipped, and the true value recomputed
    monkeypatch.delenv("SKEIN_CACHE", raising=False)
    f = tmp_path / "tref.pd"
    f.write_text(TREFOIL + "\n")
    cache_path = tmp_path / "cache.tsv"
    assert main(["poly", str(f), "--cache", str(cache_path)]) == 0
    true_value = "-1*a^4 + 2*a^2 + 1*a^2*z^2"
    assert capsys.readouterr().out == true_value + "\n"
    text = cache_path.read_text()
    assert text.count(true_value) == 1
    cache_path.write_text(text.replace(true_value, "-1*a^4*a^2 + 2*a^2 + 1*a^2*z^2"))
    warning = "warning: skipping corrupt cache line 2: repeated a^ factor"
    for verb, want in (("poly", true_value + "\n"), ("td", "2\t2\t2\n"), ("bounds", "row1\t2\t2\t")):
        assert main([verb, str(f), "--cache", str(cache_path)]) == 0, verb
        out, err = capsys.readouterr()
        assert out.startswith(want), (verb, out)
        assert warning in err, (verb, err)


def test_cache_saved_when_the_verb_fails(tmp_path, monkeypatch, capsys):
    # the lines solved before a bad one are saved as a run on them alone
    # would save them
    monkeypatch.delenv("SKEIN_CACHE", raising=False)
    f = tmp_path / "in.pd"
    f.write_text(TREFOIL + "\nnot-a-pd\n")
    cache_path = tmp_path / "cache.tsv"
    assert main(["td", str(f), "--cache", str(cache_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "2\t2\t2\n"
    assert err == f"error: {f}:2: malformed PD item: 'not-a-pd'\n"
    g = tmp_path / "tref.pd"
    g.write_text(TREFOIL + "\n")
    alone = tmp_path / "alone.tsv"
    assert main(["td", str(g), "--cache", str(alone)]) == 0
    assert cache_path.read_bytes() == alone.read_bytes() != b""


def test_cache_skips_unversioned_lines(tmp_path, capsys):
    # lines of the format before the version marker hold codes of the
    # older canonical form: never loaded, one warning for all of them
    cache_path = tmp_path / "cache.tsv"
    cache_path.write_text(
        "1,3,2,4,1;4,2,3,1,1|L0\t-1*a^3*z^-1 + 1*a^1*z^-1 + 1*a^1*z^1\t1,1\n"
        "|L2\t-1*a^1*z^-1 + 1*a^-1*z^-1\t-\n"
    )
    ctx = SolveContext()
    rc = ResultCache(str(cache_path))
    rc.load_into(ctx)
    err = capsys.readouterr().err
    assert err.count("warning:") == 1
    assert "2 cache line(s)" in err and "unversioned" in err
    assert not ctx.homfly_cache.table and not ctx.memo and not rc.loaded
    # the solve recomputes and appends versioned lines after the old ones
    f = tmp_path / "in.pd"
    f.write_text(TREFOIL + "\n")
    assert main(["td", str(f), "--cache", str(cache_path)]) == 0
    assert capsys.readouterr().out == "2\t2\t2\n"
    lines = cache_path.read_text().splitlines()
    assert all(line.startswith("v2\t") for line in lines[2:]) and len(lines) > 2


def test_cache_env_var_overrides(tmp_path, monkeypatch, capsys):
    env_cache = tmp_path / "env-cache.tsv"
    monkeypatch.setenv("SKEIN_CACHE", str(env_cache))
    f = tmp_path / "in.pd"
    f.write_text(TREFOIL + "\n")
    assert main(["poly", str(f)]) == 0
    capsys.readouterr()
    assert env_cache.exists() and env_cache.read_text().strip()


def test_cache_appends_only_new_entries(tmp_path):
    cache_path = str(tmp_path / "cache.tsv")
    ctx = SolveContext()
    rc = ResultCache(cache_path)
    rc.load_into(ctx)
    compute_td(parse_pd(TREFOIL), ctx=ctx)
    rc.save_from(ctx)
    n1 = len(open(cache_path).readlines())

    ctx2 = SolveContext()
    rc2 = ResultCache(cache_path)
    rc2.load_into(ctx2)
    compute_td(parse_pd(TREFOIL), ctx=ctx2)
    rc2.save_from(ctx2)
    n2 = len(open(cache_path).readlines())
    assert n1 == n2  # nothing new to append


def test_td_warm_cache_extends_a_cached_family(tmp_path, capsys):
    # T(2,6) reaches T(2,5)'s cached interval, which carries no witness
    cache_path = str(tmp_path / "cache.tsv")
    for word, want in (("p=2: 1 1 1 1 1", "4\t4\t4\n"), ("p=2: 1 1 1 1 1 1", "5\t5\t5\n")):
        f = tmp_path / "in.pd"
        f.write_text(pd_text(braid_closure(parse_braid(word))) + "\n")
        assert main(["td", str(f), "--cache", cache_path]) == 0
        assert capsys.readouterr().out == want


def test_tree_warm_cache_writes_the_cold_tree(tmp_path, capsys):
    # td caches the trefoil's interval, which carries no witness; tree
    # must still find one, the same one a run without the cache finds
    f = tmp_path / "tref.pd"
    f.write_text(TREFOIL + "\n")
    cache_path = str(tmp_path / "cache.tsv")
    assert main(["td", str(f), "--cache", cache_path]) == 0
    warm, cold = tmp_path / "warm.dot", tmp_path / "cold.dot"
    assert main(["tree", str(f), "--depth", "2", "--dot", str(warm), "--cache", cache_path]) == 0
    assert main(["tree", str(f), "--depth", "2", "--dot", str(cold)]) == 0
    assert capsys.readouterr().err == ""
    assert warm.read_text() == cold.read_text()
    assert warm.read_text().count("unlink(") == 3


def test_tree_warm_cache_budget_exhaustion_exits_2(tmp_path, monkeypatch, capsys):
    # the cached interval settles depth 2, but its witness must be searched
    # for again, and one node of budget is too little: exit 2, as cold,
    # where the HOMFLY-PT expansion's tree has height 6
    monkeypatch.delenv("SKEIN_CACHE", raising=False)
    f = tmp_path / "depth2.pd"
    f.write_text(pd_text(braid_closure(parse_braid(DEPTH2_WORD))) + "\n")
    cache_path = str(tmp_path / "cache.tsv")
    assert main(["td", str(f), "--cache", cache_path]) == 0
    capsys.readouterr()
    dot = str(tmp_path / "t.dot")
    for cache in ([], ["--cache", cache_path]):
        argv = ["tree", str(f), "--depth", "2", "--dot", dot, "--budget", "1"] + cache
        assert main(argv) == 2
        assert capsys.readouterr().err == "budget exhausted before settling depth 2\n"


# a cache line claiming depth 1 for the trefoil, whose polynomial lower
# bound is 2
TREFOIL_DEPTH_1_LINE = (
    "v2\t1,4,2,5,1;3,6,4,1,1;5,2,6,3,1|L0\t-1*a^4 + 2*a^2 + 1*a^2*z^2\t1,1\n"
)


def test_a_cached_upper_end_below_the_lower_end_is_dropped(tmp_path, capsys):
    """compute_td replaces a root record whose upper end is below the
    sound lower end by what the solve proves: the interval is not empty,
    the witness replays, and the save appends the corrected line, which
    carries the lower end; td and tabulate print the cold answer."""
    cache_path = tmp_path / "cache.tsv"
    cache_path.write_text(TREFOIL_DEPTH_1_LINE)
    ctx = SolveContext()
    rc = ResultCache(str(cache_path))
    rc.load_into(ctx)
    res = compute_td(parse_pd(TREFOIL), ctx=ctx)
    assert res.link_lower <= res.diagram_upper
    assert (res.link_lower, res.diagram_upper) == (2, 2)
    assert verify_tree(res.witness) == 2
    rc.save_from(ctx)
    lines = cache_path.read_text().splitlines(keepends=True)
    assert lines[0] == TREFOIL_DEPTH_1_LINE
    assert TREFOIL_DEPTH_1_LINE.replace("\t1,1\n", "\t2,2\n") in lines[1:]

    f = tmp_path / "tref.pd"
    f.write_text(TREFOIL + "\n")
    cache_path.write_text(TREFOIL_DEPTH_1_LINE)
    assert main(["td", str(f), "--cache", str(cache_path)]) == 0
    assert capsys.readouterr().out == "2\t2\t2\n"
    cache_path.write_text(TREFOIL_DEPTH_1_LINE)
    assert main(["tabulate", bundled_dataset(), "--cache", str(cache_path)]) == 0
    assert "K3a1\t2\t2\t2\n" in capsys.readouterr().out


def test_tree_warm_cache_refuted_depth_exits_1(tmp_path, capsys):
    """A cached record claims depth 1 for the trefoil; the search for its
    witness refutes depth 1, which is no budget exhaustion: exit 1."""
    f = tmp_path / "tref.pd"
    f.write_text(TREFOIL + "\n")
    cache_path = tmp_path / "cache.tsv"
    cache_path.write_text(TREFOIL_DEPTH_1_LINE)
    dot = tmp_path / "o.dot"
    assert main(["tree", str(f), "--depth", "1", "--dot", str(dot), "--cache", str(cache_path)]) == 1
    assert capsys.readouterr().err == "no resolution tree of depth 1 exists for this diagram\n"
    assert not dot.exists()


def _trefoil_lines(cache_path):
    code = TREFOIL_DEPTH_1_LINE.split("\t")[1]
    return [line for line in cache_path.read_text().splitlines(keepends=True) if line.split("\t")[1] == code]


def test_tree_writes_back_the_refutation_of_a_cached_depth(tmp_path, monkeypatch, capsys):
    """The search that refutes a cached depth 1 for the trefoil runs in
    extract_tree's fresh context; its records are merged into the saved
    one, so the file gains the corrected line once and depth 2 holds."""
    monkeypatch.delenv("SKEIN_CACHE", raising=False)
    f = tmp_path / "tref.pd"
    f.write_text(TREFOIL + "\n")
    cache_path = tmp_path / "cache.tsv"
    cache_path.write_text(TREFOIL_DEPTH_1_LINE)
    dot = tmp_path / "o.dot"
    argv = ["tree", str(f), "--dot", str(dot), "--cache", str(cache_path), "--depth"]
    for _ in range(2):
        assert main(argv + ["1"]) == 1
        assert _trefoil_lines(cache_path) == [
            TREFOIL_DEPTH_1_LINE,
            TREFOIL_DEPTH_1_LINE.replace("\t1,1\n", "\t2,2\n"),
        ]
    assert main(argv + ["2"]) == 0
    assert capsys.readouterr().err.count("no resolution tree of depth 1") == 2


def test_a_proof_never_stores_an_empty_interval(tmp_path, monkeypatch, capsys):
    """A cached lower end of 3 for the trefoil meets the expansion's tree
    of height 2: the record becomes what the solve proved rather than
    the empty [3, 2], so the next load warns of nothing, every run prints
    the cold answer, and the corrected line is appended once."""
    monkeypatch.delenv("SKEIN_CACHE", raising=False)
    line = TREFOIL_DEPTH_1_LINE.replace("\t1,1\n", "\t3,-\n")
    cache_path = tmp_path / "cache.tsv"
    cache_path.write_text(line)
    ctx = SolveContext()
    ResultCache(str(cache_path)).load_into(ctx)
    assert compute_td(parse_pd(TREFOIL), ctx=ctx).render() == "2"
    assert all(lo <= hi for lo, hi, _ in ctx.memo.values())

    f = tmp_path / "tref.pd"
    f.write_text(TREFOIL + "\n")
    assert main(["td", str(f)]) == 0
    cold = capsys.readouterr()
    for _ in range(3):
        assert main(["td", str(f), "--cache", str(cache_path)]) == 0
        assert capsys.readouterr() == cold
    assert cold.err == ""
    assert _trefoil_lines(cache_path) == [line, line.replace("\t3,-\n", "\t2,2\n")]


def test_a_cold_solve_caches_the_lower_end(tmp_path, monkeypatch, capsys):
    """The root's record holds the bound report's lower end, so a cold
    td --cache on the trefoil writes the interval 2,2, as it prints; a
    cold tabulate writes no record with lo < 1 or lo > hi."""
    monkeypatch.delenv("SKEIN_CACHE", raising=False)
    f = tmp_path / "tref.pd"
    f.write_text(TREFOIL + "\n")
    cache_path = tmp_path / "cache.tsv"
    assert main(["td", str(f), "--cache", str(cache_path)]) == 0
    assert capsys.readouterr().out == "2\t2\t2\n"
    assert _trefoil_lines(cache_path) == [TREFOIL_DEPTH_1_LINE.replace("\t1,1\n", "\t2,2\n")]

    cache_path.unlink()
    assert main(["tabulate", bundled_dataset(), "--cache", str(cache_path)]) == 0
    intervals = [line.rstrip("\n").split("\t")[3] for line in cache_path.read_text().splitlines()]
    ends = [tuple(int(e) for e in i.split(",")) for i in intervals if i != "-" and not i.endswith(",-")]
    assert ends and all(1 <= lo <= hi for lo, hi in ends)
    assert any(lo > 1 for lo, _ in ends)


# -- DOT export ---------------------------------------------------------------------


def test_export_dot_trefoil_shape():
    tree = extract_tree(parse_pd(TREFOIL), 2, ctx=SolveContext())
    dot = export_dot(tree)
    assert dot == export_dot(tree)  # deterministic
    assert dot.count("[label=\"±\"]") == 2
    assert dot.count("[label=\"0\"]") == 2
    assert dot.count("unlink(") == 3
    assert dot.count("n0 ->") == 2
    # switch child is emitted before the smooth child of the same parent
    lines = dot.splitlines()
    pm = next(i for i, l in enumerate(lines) if "±" in l and "n0 ->" in l)
    zero = next(i for i, l in enumerate(lines) if '"0"' in l and "n0 ->" in l)
    assert pm < zero


def test_export_dot_single_leaf():
    from skeindepth import SkeinLeaf

    dot = export_dot(SkeinLeaf(parse_pd("O"), 1))
    assert dot.count("label=") == 1  # exactly one node, zero edges
    assert "->" not in dot
    assert "unlink(1)" in dot


def test_export_dot_emits_each_shared_subtree_once():
    from skeindepth import SkeinBranch

    tree = compute_td(braid_closure(parse_braid("p=2: 1 1 1 1 1 1 1")), ctx=SolveContext()).witness
    distinct: dict[int, object] = {}
    visits = 0
    todo = [tree]
    while todo:
        t = todo.pop()
        visits += 1
        if id(t) not in distinct:
            distinct[id(t)] = t
            if isinstance(t, SkeinBranch):
                todo += [t.switched, t.smoothed]
    assert visits > len(distinct)  # the witness shares subtrees
    lines = export_dot(tree).splitlines()
    nodes = [l for l in lines if re.match(r"  n\d+ \[label=", l)]
    edges = [l for l in lines if "->" in l]
    branches = sum(isinstance(t, SkeinBranch) for t in distinct.values())
    assert len(nodes) == len(distinct)
    assert len(edges) == 2 * branches
    assert len(set(edges)) == len(edges)
