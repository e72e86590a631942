"""Acceptance suite: one test per acceptance criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.  Criteria 6 and 7 need externally supplied diagrams (not
bundled; see the environment variables below) and are skipped, not
passed, without them.

* SKEIN_K11N42_PD — PD text (or path to a file whose first line is PD
  text) for a diagram of the knot K11n42.
* SKEIN_9N4_PD — same, for a 9-crossing diagram of 9n4.
"""

import os
import time

import pytest

from skeindepth import (
    SolveContext,
    braid_closure,
    compute_td,
    depth_at_most,
    extract_tree,
    homfly,
    homfly_lower_bound,
    mirror,
    mixed_braid_upper,
    parse_braid,
    parse_pd,
    render_poly,
    simplify,
    smooth,
    switch,
    tree_depth,
    unlink_value,
    verify_tree,
)
from skeindepth.poly import DELTA, HomflyCache, ONE, monomial

from conftest import CROSSED, FIXTURE_PDS, brute_min_height

A = monomial(1, 1, 0)
Ainv = monomial(1, -1, 0)
Z = monomial(1, 0, 1)


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}: criterion {num} — {desc}{tail}")
    assert ok, f"criterion {num}: {desc}{tail}"


def _external_pd(env_var: str):
    value = os.environ.get(env_var)
    if not value:
        return None
    if os.path.exists(value):
        with open(value, encoding="utf-8") as fh:
            value = next(
                line.strip() for line in fh if line.strip() and not line.startswith("#")
            )
    return parse_pd(value)


def test_criterion_1_homfly_oracle():
    """Right-trefoil polynomial equals the two-step hand derivation."""
    t0 = time.perf_counter()
    hopf_hand = A * Z + A * A * DELTA  # a^-1 P(hopf) - a P(unlink2) = z P(unknot)
    tref_hand = A * A + A * Z * hopf_hand  # a^-1 P(tref) - a P(unknot) = z P(hopf)
    got = homfly(parse_pd(FIXTURE_PDS["trefoil"][0]))
    elapsed = time.perf_counter() - t0
    ok = (
        got == tref_hand
        and render_poly(got) == "-1*a^4 + 2*a^2 + 1*a^2*z^2"
        and elapsed < 1.0
    )
    _report(1, "trefoil HOMFLY equals hand derivation", ok, f"{elapsed:.3f}s")


def test_criterion_2_unlink_normalization():
    """P(unlink_r) = ((a^-1 - a)/z)^(r-1), r = 1..4, forced by the relation."""
    t0 = time.perf_counter()
    ok = True
    for r in range(1, 5):
        d = parse_pd(";".join(["O"] * r))
        ok = ok and homfly(d) == DELTA ** (r - 1) == unlink_value(r)
    # the forcing computation: both kink resolutions of an unknot are
    # unknots, so a^-1*1 - a*1 = z * P(unlink2) pins P(unlink2) = delta
    kink = parse_pd("X[2,2,1,1]")
    ok = ok and homfly(kink) == ONE
    ok = ok and homfly(smooth(kink, 0)) == DELTA
    ok = ok and Ainv * ONE - A * ONE == Z * DELTA
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(2, "unlink values ((a^-1 - a)/z)^(r-1), r=1..4", ok, f"{elapsed:.3f}s")


def test_criterion_3_table_regression():
    """Exact depth for the seven bundled table rows.

    For L4a1{0} and K5a1 the polynomial z-degree and the genus bound
    stop one below the published value; the skein-reachability bound
    supplies the matching lower end, and witness trees the upper end.
    """
    expected = {
        "L2a1": ("X[1,3,2,4];X[4,2,3,1]", 0, 1),
        "K3a1": (FIXTURE_PDS["trefoil"][0], 1, 2),
        "K4a1": (FIXTURE_PDS["fig8"][0], 1, 2),
        "L4a1{0}": (FIXTURE_PDS["L4a1{0}"][0], 0, 2),
        "K5a1": (FIXTURE_PDS["K5a1"][0], 1, 3),
        "L4a1{1}": (FIXTURE_PDS["L4a1{1}"][0], 1, 3),
        "K5a2": (FIXTURE_PDS["K5a2"][0], 2, 4),
    }
    t0 = time.perf_counter()
    ctx = SolveContext()
    bad = []
    for name, (pd, genus, want) in expected.items():
        res = compute_td(parse_pd(pd), genus=genus, ctx=ctx)
        if not (res.is_exact and res.value == want):
            bad.append(f"{name}: got {res.render()}, want {want}")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 300
    _report(3, "table rows exact", ok, "; ".join(bad) or f"{elapsed:.1f}s")


def test_criterion_4_torus_family():
    """sigma_1^n closures, n=2..7: Exact(n-1) by search and by formula."""
    t0 = time.perf_counter()
    ctx = SolveContext()
    ok = True
    detail = []
    for n in range(2, 8):
        w = parse_braid("p=2: " + " ".join(["1"] * n))
        res = compute_td(braid_closure(w), braid_words=[w], ctx=ctx)
        if not (res.is_exact and res.value == n - 1):
            # tightened-budget escape hatch: interval must contain n-1
            # and the formula path must still pin the value
            contains = res.link_lower <= n - 1 <= res.diagram_upper
            formula_ok = (
                res.bounds is not None
                and ("one-signed braid", n - 1, "upper") in res.bounds.contributions
            )
            if not (contains and formula_ok):
                ok = False
                detail.append(f"n={n}: {res.render()}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600
    _report(4, "torus family Exact(n-1), n=2..7", ok, "; ".join(detail) or f"{elapsed:.1f}s")


def test_criterion_5_mixed_braid_value():
    """The 4-strand 11-letter word bounds its closure's depth by exactly 9."""
    word = parse_braid("p=4: -1 2 -1 -3 -2 -2 -1 -3 -2 -2 -3")
    got = mixed_braid_upper([word])
    # time the bare call, best of three, after the warmup above
    elapsed = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        mixed_braid_upper([word])
        elapsed = min(elapsed, time.perf_counter() - t0)
    ok = got == 9 and elapsed < 0.001
    _report(5, "mixed braid upper bound = 9", ok, f"{elapsed*1e6:.0f}us")


def test_criterion_6_external_lower_bound():
    """Polynomial lower bound = 6 on a supplied 11-crossing diagram."""
    d = _external_pd("SKEIN_K11N42_PD")
    if d is None:
        print("SKIP: criterion 6 — set SKEIN_K11N42_PD to run")
        pytest.skip("no external K11n42 diagram supplied")
    got = homfly_lower_bound(d)
    _report(6, "external diagram z-degree lower bound", got == 6, f"got {got}")


def test_criterion_7_external_depth_witness():
    """depth_at_most(d, 5) with a verified witness on a supplied diagram."""
    d = _external_pd("SKEIN_9N4_PD")
    if d is None:
        print("SKIP: criterion 7 — set SKEIN_9N4_PD to run")
        pytest.skip("no external 9n4 diagram supplied")
    t0 = time.perf_counter()
    ctx = SolveContext()
    verdict = depth_at_most(d, 5, budget=50_000_000, ctx=ctx)
    ok = verdict is True
    if ok:
        tree = extract_tree(d, 5, ctx=ctx)
        ok = verify_tree(tree) <= 5
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1800
    _report(7, "depth-5 witness for external diagram", ok, f"{elapsed:.0f}s")


def test_criterion_8_property_suites():
    """(a) skein identity; (b) randomized move invariance; (c) mirror rule;
    (d) structural invariants; (e) brute-force oracle; (f) witness replay."""
    import random

    t0 = time.perf_counter()
    cache = HomflyCache()
    failures = []

    # (a) the defining relation at every crossing of every fixture
    for name in CROSSED:
        d = parse_pd(FIXTURE_PDS[name][0])
        for i in range(d.crossing_count):
            sw, sm = switch(d, i), smooth(d, i)
            if d.crossings[i][4] > 0:
                plus, minus = homfly(d, cache), homfly(sw, cache)
            else:
                plus, minus = homfly(sw, cache), homfly(d, cache)
            if Ainv * plus - A * minus != Z * homfly(sm, cache):
                failures.append(f"a:{name}@{i}")

    # (b) 100 randomized crossing-increasing walks keep the polynomial
    from skeindepth import insert_kink, poke_moves, triangle_moves

    rng = random.Random(8)
    for trial in range(100):
        d = parse_pd(FIXTURE_PDS[rng.choice(["hopf+", "trefoil", "fig8"])][0])
        base = homfly(d, cache)
        for _ in range(rng.randint(1, 4)):
            opts = []
            if d.crossing_count + 1 <= 8:
                arcs = sorted({x for cr in d.crossings for x in cr[:4]})
                opts.append(lambda d=d: insert_kink(d, rng.choice(arcs), rng.randrange(4)))
            if d.crossing_count + 2 <= 8:
                pokes = list(poke_moves(d))
                if pokes:
                    opts.append(lambda p=pokes: rng.choice(p))
            slides = list(triangle_moves(d))
            if slides:
                opts.append(lambda s=slides: rng.choice(s))
            if not opts:
                break
            d = rng.choice(opts)()
            if homfly(d, cache) != base:
                failures.append(f"b:trial{trial}")
                break

    # (c) mirror rule on every fixture
    for name, (text, _) in FIXTURE_PDS.items():
        d = parse_pd(text)
        if homfly(mirror(d), cache) != homfly(d, cache).mirror():
            failures.append(f"c:{name}")

    # (d) switch/smooth bookkeeping, exhaustively
    from skeindepth import component_count, component_cycles, writhe

    for name in CROSSED:
        d = parse_pd(FIXTURE_PDS[name][0])
        cycles = component_cycles(d)
        for i in range(d.crossing_count):
            sw, sm = switch(d, i), smooth(d, i)
            if not (
                sw.crossing_count == d.crossing_count
                and switch(sw, i) == d
                and writhe(sw) == writhe(d) - 2 * d.crossings[i][4]
                and sm.crossing_count == d.crossing_count - 1
                and abs(component_count(sm) - component_count(d)) == 1
            ):
                failures.append(f"d:{name}@{i}")

    # (e) diagram_upper equals brute-force enumeration, <= 4 crossings
    ctx = SolveContext(cache=cache)
    for name, (text, _) in FIXTURE_PDS.items():
        d = parse_pd(text)
        if d.crossing_count > 4:
            continue
        s = simplify(d)
        cap = max(s.crossing_count - 1, 0)
        if compute_td(d, ctx=ctx).diagram_upper != brute_min_height(d, cap):
            failures.append(f"e:{name}")

    # (f) every Exact result's witness replays at exactly that depth
    for name, (text, _) in FIXTURE_PDS.items():
        res = compute_td(parse_pd(text), ctx=ctx)
        if res.is_exact and res.witness is not None:
            if verify_tree(res.witness) != res.value or tree_depth(res.witness) != res.value:
                failures.append(f"f:{name}")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 600
    _report(8, "property suites a–f", ok, "; ".join(failures) or f"{elapsed:.1f}s")
