"""Tests of the benchmark's own generator, checker and tracer.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import dataclasses
import os

import check
import pytest
import run
import skeindepth as sd
import speed
import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_generator_repeats_for_a_seed():
    assert workloads.random_mixed_words(7, 25) == workloads.random_mixed_words(7, 25)
    assert workloads.random_mixed_words(7, 25) != workloads.random_mixed_words(8, 25)
    for p in range(3):
        assert workloads.random_draw(5, p) == workloads.random_draw(5, p)
    draw = workloads.random_draw(5, 0)
    assert draw != workloads.random_draw(6, 0)
    # passes come in pairs, an order and its reverse
    assert workloads.random_draw(5, 1) == draw[::-1]
    assert workloads.random_draw(5, 2) not in (draw, draw[::-1])
    assert sorted(link.words for link in draw) == sorted((w,) for w in workloads.pool())
    half = [draw[i].words for i in workloads.cold_half(draw)]
    other = workloads.random_draw(6, 0)
    assert sorted(half) == sorted(other[i].words for i in workloads.cold_half(other))
    assert len(half) == len(draw) // 2 and len(set(half)) == len(half)


def test_generated_words_are_mixed_and_use_every_generator():
    for strands, letters in workloads.random_mixed_words(3, 200):
        assert strands in (3, 4) and 7 <= len(letters) <= 10
        assert {abs(g) for g in letters} == set(range(1, strands))
        assert min(letters) < 0 < max(letters)


def test_expected_values_come_from_the_table_and_formulas():
    table = {link.name: link for link in workloads.links_for("known-table", 0, 0, ROOT)}
    assert table["K5a1"].expected == (3, 3) and table["K5a1"].formula_upper is None
    assert table["K4a1"].expected == (2, 2) and table["K4a1"].formula_upper == 4
    assert table["T(2,13) closure"].expected == (12, 12)
    assert table["T(3,5) closure"].expected == (8, 8)
    assert table["T(4,3) closure"].expected == (6, 6)
    assert workloads.formula((3, (1, -2, 1, -2, 1))) == (5, False)


@pytest.fixture
def trefoil():
    w = sd.parse_braid("p=2: 1 1 1")
    d = sd.braid_closure(w)
    link = workloads.Link("3_1", None, None, ((2, (1, 1, 1)),), (2, 2), 2)
    return link, d, sd.compute_td(d, braid_words=[w], ctx=sd.SolveContext())


def test_checker_accepts_a_correct_answer(trefoil):
    link, d, res = trefoil
    assert check.check(link, d, res, sd) == []
    assert check.witness_nodes(res.witness, sd) == 5


def test_checker_rejects_swapped_children(trefoil):
    link, d, res = trefoil
    tree = res.witness
    swapped = dataclasses.replace(tree, switched=tree.smoothed, smoothed=tree.switched)
    bad = check.check(link, d, dataclasses.replace(res, witness=swapped), sd)
    assert any("replay failed" in b for b in bad)


def test_checker_rejects_a_wrong_expected_value(trefoil):
    link, d, res = trefoil
    assert check.check(dataclasses.replace(link, expected=(3, 3)), d, res, sd)
    assert check.check(dataclasses.replace(link, formula_upper=1), d, res, sd)


def test_latency_percentile_is_harrell_davis():
    squares = [float(i * i) for i in range(31)]
    # reference from the regularized incomplete beta function
    assert run.hd_quantile(squares, 0.9) == pytest.approx(753.5137540863628, rel=1e-6)
    assert run.hd_quantile([float(i) for i in range(31)], 0.5) == pytest.approx(15.0)
    assert run.hd_quantile([7.0] * 40, 0.9) == pytest.approx(7.0)
    # a failure ranked last never reads faster than a success in its place
    times = [float(i) for i in range(120)]
    failed = times[:-1] + [run.FAIL_RANK_MS]
    assert run.hd_quantile(failed, 0.9) >= run.hd_quantile(times, 0.9)


def _patched_names():
    return {
        (mod, attr): getattr(getattr(sd, mod), attr)
        for mod, attr, _ in tracer.SETUP_PATCHES + tracer.PATCHES + [("moves", "triangle_moves", None)]
    }


def test_tracer_restores_every_patched_name():
    before = _patched_names()
    t = tracer.Tracer()
    with t:
        t.install(sd, tracer.SETUP_PATCHES)
        t.install(sd)
        during = _patched_names()
        assert all(during[k] is not before[k] for k in before)
    assert _patched_names() == before
    assert all(_patched_names()[k] is before[k] for k in before)


def test_tracer_counts_on_the_right_handed_trefoil():
    # compute_td on the closure of s1^3, with its word, in a fresh context.
    #
    # compute_td: simplify 1, canonical_code 1, then the recognizer (1)
    #   with the polynomial homfly (1).  That homfly expands three skein
    #   nodes -- the trefoil, its switch, the Hopf smoothing -- so 6
    #   switch/smooth calls and 7 keyed diagrams (one of them a cache hit).
    # aggregate_bounds (1): simplify 1, homfly 1 (hit, one code).
    # The bounds meet at 2, so one probe, depth_at_most(2) (1), which says True:
    #   root: simplify 1, code 1, homfly 1 (code 1) for the z-degree;
    #   crossing 0: switch+smooth 2, simplify 2; the switch is an unknot leaf
    #   (simplify 1, code 1); the smoothing is the Hopf link (simplify 1,
    #   code 1, recognizer 1 with homfly 1, homfly 1 for the z-degree);
    #   its crossing: switch+smooth 2, simplify 2, two leaves (simplify 2,
    #   code 2); recording both branches reads 2 + 2 codes.
    # Rebuilding the 5-node witness: simplify 5, code 5.
    t = tracer.Tracer()
    w = sd.parse_braid("p=2: 1 1 1")
    d = sd.braid_closure(w)
    with t:
        t.install(sd)
        res = t.call("solver.compute_td", sd.compute_td, d, braid_words=[w], ctx=sd.SolveContext())
    assert res.render() == "2"
    calls = {name: s["calls"] for name, s in t.summary().items()}
    assert calls == {
        "solver.compute_td": 1,
        "moves.simplify": 1 + 1 + 9 + 5,
        "diagram.canonical_code": 1 + 7 + 1 + 12 + 5,
        "poly.homfly": 1 + 1 + 3,
        "moves.resolve": 6 + 2 + 2,
        "moves.recognize_unlink": 2,
        "bounds.aggregate_bounds": 1,
        "solver.depth_at_most": 1,
    }
    assert t.probe_results == [True]
    assert t.bfs_runs == 0
    summary = t.summary()
    assert all(s["self_s"] >= 0 for s in summary.values())


def test_self_time_excludes_children():
    t = tracer.Tracer()
    t.call("outer", lambda: t.call("inner", sum, range(100000)))
    s = t.summary()
    outer = t.spans[0][3] - t.spans[0][2]
    inner = t.spans[1][3] - t.spans[1][2]
    assert s["outer"]["self_s"] == pytest.approx(outer - inner)
    assert t.spans[1][1] == 0


def test_tracer_counts_recognizer_calls_that_reach_the_bfs():
    d = sd.braid_closure(sd.parse_braid("p=2: 1 1 1"))
    t = tracer.Tracer()
    with t:
        t.install(sd)
        # claiming the unknot's polynomial sends the call past that check into the BFS
        first = sd.solver.recognize_unlink(d, homfly_value=sd.unlink_value(1), node_limit=1)
        second = sd.solver.recognize_unlink(d, node_limit=1)
    assert (first.kind, second.kind) == ("unknown", "not_unlink")
    assert t.bfs_runs == 1
    assert t.summary()["moves.recognize_unlink"]["calls"] == 2


def test_speed_meter_keeps_its_duty_and_scales_to_the_reference():
    meter = speed.SpeedMeter()
    meter.after(0.0)
    assert meter.marks == []
    meter.after(0.2)
    assert meter.seconds == pytest.approx(sum(dt for _, dt in meter.marks))
    assert meter.seconds >= speed.DUTY * 0.2
    # it stops at the first call that reaches the duty
    assert meter.seconds - meter.marks[-1][1] < speed.DUTY * 0.2
    calls = max(len(meter.marks), speed.MIN_CALLS)
    assert meter.factor() == pytest.approx(speed.REF_S * calls / meter.seconds)
    assert len(meter.marks) == calls


def test_speed_meter_scales_a_solve_by_the_calls_nearest_to_it():
    meter = speed.SpeedMeter()
    # 40 calls a second apart: 1 ms each for the first 20, then 2 ms
    meter.marks = [(float(t), 0.001 if t < 20 else 0.002) for t in range(40)]
    meter.seconds = sum(dt for _, dt in meter.marks)
    assert meter.local_factor(5.0) == pytest.approx(speed.REF_S / 0.001)
    assert meter.local_factor(33.2) == pytest.approx(speed.REF_S / 0.002)
    # the 16 nearest to 19.6 are 12..27: 8 of each
    assert meter.local_factor(19.6) == pytest.approx(speed.REF_S / 0.0015)
    assert meter.factor() == pytest.approx(speed.REF_S / 0.0015)
