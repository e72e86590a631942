"""Command-line surface: verbs, exit codes, cache file, DOT export."""

import importlib.resources

import pytest

from skeindepth import (
    SolveContext,
    braid_closure,
    canonical_code,
    compute_td,
    extract_tree,
    parse_braid,
    parse_pd,
    pd_text,
)
from skeindepth.cli import (
    ResultCache,
    export_dot,
    load_dataset,
    main,
    parse_dataset_row,
)

from conftest import FIXTURE_PDS

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
    ],
)
def test_parse_dataset_row_rejects(bad):
    with pytest.raises(ValueError):
        parse_dataset_row(bad)


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


def test_bounds_verb(tmp_path, capsys):
    f = tmp_path / "in.pd"
    f.write_text(TREFOIL + "\n")
    assert main(["bounds", str(f), "--genus", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("row1\t2\t2\t")
    assert "genus-components=2(lower)" in out


def test_td_verb_and_budget_exit(tmp_path, capsys):
    f = tmp_path / "in.pd"
    f.write_text(TREFOIL + "\n")
    assert main(["td", str(f)]) == 0
    assert capsys.readouterr().out == "2\t2\t2\n"
    g = tmp_path / "k5.pd"
    g.write_text(FIXTURE_PDS["K5a1"][0] + "\n")
    assert main(["td", str(g), "--budget", "2"]) == 2
    out = capsys.readouterr().out
    assert out == "3\t4\t[3, 4]\n"  # interval printed despite exhaustion


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
    # the closure of p=3: 1 1 2 2 2 -1 2 1 is [4, 5]; --max-depth -3 once
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
    assert "warning: tref" in captured.err


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
    assert list(ctx.memo.values()) == [(1, 1)]


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
