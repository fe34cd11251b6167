"""Command-line driver: config parsing, determinism, exit codes, and the
falsification controls."""
import argparse
import ast
import dataclasses
import itertools
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from sphereglue import cli, integration, kernel
from sphereglue.algebra import Multivector, row_norms
from sphereglue.cli import (
    _BLOCK,
    _first_accepted,
    _pullback_samples,
    _random_maps,
    _stencil_samples,
    build_config,
    cross_glue_target,
    main,
    parse_config_file,
)
from sphereglue.fields import dirac_from_stencil, dirac_left_fd, g_translate, moebius_pullback
from sphereglue.kernel import kernel_CM
from sphereglue.manifold import ManifoldPoint, plane_sphere, two_spheres
from sphereglue.moebius import (
    VahlenError,
    VahlenMap,
    cayley,
    compose,
    covariance_residual,
    neck_inversion,
    translation_map,
    weight_J,
)


def run(tmp_path, *argv):
    out = tmp_path / "report.txt"
    status = main([*argv, "--out", str(out)])
    return status, out.read_text()


def _pool_maps(pool):
    """The maps of a _random_maps pool, one VahlenMap each, in pool order."""
    maps = {i: VahlenMap(c, psi.kernel_exponent) for idx, psi in pool.values() for i, c in zip(idx, psi.coeffs)}
    return [maps[i] for i in sorted(maps)]


def _as_pool(maps):
    """A list of maps as a _random_maps pool: per (ambient_dim,
    kernel_exponent) in order of first appearance, the indices of its maps
    and their stack."""
    groups = {}
    for i, psi in enumerate(maps):
        groups.setdefault((psi.ambient_dim, psi.kernel_exponent), []).append(i)
    return {(k, m): (np.array(idx), VahlenMap([maps[i].coeffs for i in idx], m)) for (k, m), idx in groups.items()}


def test_config_parsing(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# comment\nkind=two_spheres\nn=2\nr=2.5\nseed=7\n")
    values = parse_config_file(str(cfg_file))
    assert values["r"] == "2.5"

    ns = argparse.Namespace(config=str(cfg_file), seed=None, order=None, out=None)
    cfg = build_config(ns)
    assert cfg.r == 2.5 and cfg.seed == 7


def test_config_line_names_every_field_but_out_in_order():
    """The config line lists the RunConfig fields, out excepted, in field
    order, with floats in %g form."""
    cfg = cli.RunConfig(kind="plane_sphere", r=1.05, scale2=0.7, out="report.txt", break_normal=1)
    line = cli.config_line(cfg)
    keys = [item.partition("=")[0] for item in line.split()[1:]]
    assert keys == [f.name for f in dataclasses.fields(cli.RunConfig) if f.name != "out"]
    assert line == (
        "config kind=plane_sphere n=2 r=1.05 scale1=1 scale2=0.7 seed=0 order=256 "
        "break_weight=0 break_normal=1 corrupt_vahlen=0"
    )


def test_config_file_sets_every_field_with_its_type(tmp_path):
    """Every RunConfig field is a config key, read with the field's type."""
    cfg_file = tmp_path / "run.cfg"
    out = tmp_path / "report.txt"
    cfg_file.write_text(
        f"kind=plane_sphere\nn=3\nr=2.5\nscale1=1.5\nscale2=0.7\nseed=7\norder=64\nout={out}\n"
        "break_weight=1\nbreak_normal=1\ncorrupt_vahlen=1\n"
    )
    ns = argparse.Namespace(config=str(cfg_file), seed=None, order=None, out=None)
    got = dataclasses.astuple(build_config(ns))
    want = ("plane_sphere", 3, 2.5, 1.5, 0.7, 7, 64, str(out), 1, 1, 1)
    assert got == want and [type(v) for v in got] == [type(v) for v in want]


@pytest.mark.parametrize("line", ["bogus=1", "tol_overlap-consistency=1e-8"])
def test_config_rejects_bad_key(tmp_path, line):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(line + "\n")
    ns = argparse.Namespace(config=str(cfg_file), seed=None, order=None, out=None)
    with pytest.raises(ValueError):
        build_config(ns)


@pytest.mark.parametrize("command", ["verify-cauchy", "hardy"])
def test_order_is_bounded_at_2048(capsys, command):
    """Order 2048 builds a config; 4096 is rejected before any suite runs."""
    ns = argparse.Namespace(config=None, seed=None, order=2048, out=None, command=command)
    assert build_config(ns).order == 2048
    assert main([command, "--order", "4096"]) == 2
    assert capsys.readouterr().err == "config error: order must be within [4, 2048]\n"


@pytest.mark.parametrize("order", [63, 66])
def test_hardy_order_flag_off_a_multiple_of_4_is_a_config_error(capsys, order):
    """--order 63 or 66 leaves hardy's half rule on every other node an odd
    count: exit 2 with one stderr line naming order."""
    assert main(["hardy", "--order", str(order)]) == 2
    assert capsys.readouterr().err == f"config error: order must be a multiple of 4 for hardy, got {order}\n"


def test_verify_algebra_passes(tmp_path):
    status, text = run(tmp_path, "verify-algebra", "--seed", "0")
    assert status == 0
    assert "result=pass" in text
    assert text.count("verdict=pass") == 5


def test_verify_algebra_passes_at_every_seed(tmp_path):
    """verify-algebra passes at seeds 0-39 for n = 2 and 3. Before the
    finite-difference Dirac operator took its Richardson step,
    pullback-monogenicity-fd failed at n = 2 for seeds 4, 12, 18, 20, 27, 35."""
    failed = []
    for n in (2, 3):
        cfg = tmp_path / f"n{n}.cfg"
        cfg.write_text(f"n={n}\n")
        for seed in range(40):
            status, _ = run(tmp_path, "verify-algebra", "--config", str(cfg), "--seed", str(seed))
            if status != 0:
                failed.append((n, seed))
    assert failed == []


@pytest.mark.parametrize("n", [2, 3])
def test_pullback_fd_check_fails_with_a_wrong_weight_exponent(n):
    """Control for the seed sweep: verify-algebra's finite-difference check,
    run on pullbacks whose weight exponent is one too large, exceeds its 1e-5
    bound at every seed, while the right exponent stays within it at the
    same points."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        worst = {"right": 0.0, "wrong": 0.0}
        for _, right, f, x, values in _pullback_samples(rng, _random_maps(rng, n, 10))[1]:
            wrong = dataclasses.replace(right, kernel_exponent=right.kernel_exponent + 1)
            right_resid = dirac_from_stencil(values, 1e-4)
            wrong_resid = dirac_left_fd(moebius_pullback(wrong, f), x, 1e-4)
            for name, resid in (("right", right_resid), ("wrong", wrong_resid)):
                worst[name] = max(worst[name], float(row_norms(resid).max()))
        assert worst["right"] <= 1e-5 < worst["wrong"], (seed, worst)


def test_verify_kernel_passes(tmp_path):
    status, text = run(tmp_path, "verify-kernel", "--seed", "0")
    assert status == 0
    assert "overlap-consistency" in text


def test_verify_kernel_thin_neck(tmp_path):
    cfg = tmp_path / "thin.cfg"
    cfg.write_text("r=1.2\n")
    status, text = run(tmp_path, "verify-kernel", "--config", str(cfg), "--seed", "0")
    assert status == 0


@pytest.mark.parametrize("kind", ["two_spheres", "plane_sphere"])
def test_verify_kernel_passes_at_every_seed(tmp_path, kind):
    """verify-kernel passes at seeds 0-39 for n = 2 and 3 on both kinds: no
    draw of its neck pairs moves overlap-consistency past its bound."""
    failed = []
    for n in (2, 3):
        cfg = tmp_path / f"{kind}-n{n}.cfg"
        cfg.write_text(f"kind={kind}\nn={n}\n")
        for seed in range(40):
            status, _ = run(tmp_path, "verify-kernel", "--config", str(cfg), "--seed", str(seed))
            if status != 0:
                failed.append((n, seed))
    assert failed == []


MATRIX_RADII = [1.0001, 1.01, 1.05, 2.0, 10.0, 1e6]
MATRIX_SCALES = [(1.0, 1.0), (1.5, 0.7)]
# scale2 in {1e-3, 1e3} is left out: verify-kernel fails overlap-consistency
# or case-coherence-seam-jump there (ROADMAP item 3)


def _matrix_rows():
    """command x n x kind x r x scales; rows at the default scales keep the
    short id command-n-kind-r, the others end in -scaled."""
    commands = [
        ("verify-kernel", 2), ("verify-kernel", 3), ("verify-cauchy", 2), ("verify-cauchy", 3), ("hardy", 2)
    ]
    for (command, n), kind, r, scales in itertools.product(
        commands, ["two_spheres", "plane_sphere"], MATRIX_RADII, MATRIX_SCALES
    ):
        suffix = "" if scales == (1.0, 1.0) else "-scaled"
        yield pytest.param(command, n, kind, r, scales, id=f"{command}-{n}-{kind}-{r}{suffix}")


@pytest.mark.parametrize("command, n, kind, r, scales", _matrix_rows())
def test_extreme_gluing_radius_passes(tmp_path, command, n, kind, r, scales):
    """Every accepted configuration of the matrix passes its suite: both
    kinds, n = 2 and 3 (hardy runs at n = 2 only), chart scales (1, 1) and
    (1.5, 0.7), and gluing radii from a nearly closed neck (1.0001) to 1e6."""
    cfg = tmp_path / "matrix.cfg"
    cfg.write_text(f"kind={kind}\nn={n}\nr={r}\nscale1={scales[0]}\nscale2={scales[1]}\n")
    order = [] if command == "verify-kernel" else ["--order", "64"]
    status, text = run(tmp_path, command, "--config", str(cfg), *order)
    assert status == 0, text


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["two_spheres", "plane_sphere"])
def test_gluing_radius_bound(tmp_path, capsys, kind, n):
    """r = 1e50, the largest accepted gluing radius, passes verify-kernel and
    verify-cauchy (and hardy at n = 2) without a warning on stderr; just above
    it, every suite exits 2 with one config-error line naming r. Before the
    bound, r = 1e200 exited 1 after overflow warnings."""
    cfg = tmp_path / "r.cfg"
    commands = ["verify-kernel", "verify-cauchy"] + (["hardy"] if n == 2 else [])
    for r in (1e50, 1.0000001e50):
        cfg.write_text(f"kind={kind}\nn={n}\nr={r!r}\n")
        for command in commands:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                status = main([command, "--config", str(cfg), "--order", "64", "--out", str(tmp_path / "out.txt")])
            err = capsys.readouterr().err
            if r == 1e50:
                assert status == 0 and err == "", (command, err)
            else:
                assert status == 2 and err == "config error: r must be at most 1e50\n", (command, err)


def test_verify_cauchy_passes(tmp_path):
    status, text = run(tmp_path, "verify-cauchy", "--seed", "0", "--order", "64")
    assert status == 0
    assert "csv cross-glue-convergence" in text


def test_hardy_passes(tmp_path):
    status, text = run(tmp_path, "hardy", "--seed", "0", "--order", "128")
    assert status == 0
    assert "monogenic-trace-defect" in text


@pytest.mark.parametrize("kind", ["two_spheres", "plane_sphere"])
def test_hardy_passes_at_its_default_order(tmp_path, capsys, kind):
    """hardy without --order runs at order 256 and passes on both kinds,
    with nothing on stderr."""
    cfg = tmp_path / "kind.cfg"
    cfg.write_text(f"kind={kind}\n")
    status, text = run(tmp_path, "hardy", "--config", str(cfg))
    assert status == 0 and f"kind={kind} " in text and " order=256" in text and "result=pass" in text
    assert capsys.readouterr().err == ""


def _benchmark_properties() -> dict:
    """PROPERTIES of perfbench/workloads.py, read from its source."""
    source = (pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "PROPERTIES":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/workloads.py has no PROPERTIES table")


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_suite_properties_match_the_benchmark_table(command):
    """Each suite reports, in order, the properties that the benchmark's
    verdict table names for it; the benchmark counts a renamed or reordered
    property as an unexpected outcome."""
    table = _benchmark_properties()
    text, status = cli.run_suite(command, cli.RunConfig())
    names = [line.split()[0].removeprefix("property=") for line in text.splitlines() if line.startswith("property=")]
    assert list(table) == list(cli.COMMANDS)
    assert status == 0 and tuple(names) == table[command]


def test_determinism(tmp_path):
    _, t1 = run(tmp_path, "verify-cauchy", "--seed", "3", "--order", "32")
    _, t2 = run(tmp_path, "verify-cauchy", "--seed", "3", "--order", "32")
    assert t1 == t2


@pytest.mark.parametrize("command", ["verify-algebra", "verify-kernel", "verify-cauchy", "hardy"])
def test_report_repeats_in_one_process(tmp_path, command):
    """No state kept between runs changes a report."""
    _, t1 = run(tmp_path, command, "--seed", "5", "--order", "32")
    _, t2 = run(tmp_path, command, "--seed", "5", "--order", "32")
    assert t1 == t2


def _judge_on_first_column(rows):
    """Accepts rows whose first entry exceeds -0.5; rows with first entry
    above 0.8 and second below -0.6 raise."""
    return rows[..., 0] > -0.5, (rows[..., 0] > 0.8) & (rows[..., 1] < -0.6)


def _recording_first_accepted(monkeypatch):
    """Patch cli._first_accepted to record, per call, the candidate rows it
    drew (maps, blocks x C, w), its judge and the rows it kept (None if it
    raised)."""
    calls, first_accepted = [], cli._first_accepted

    def recording(draw, judge):
        blocks, kept = [], None
        try:
            kept = first_accepted(lambda: blocks.append(draw()) or blocks[-1], judge)
        finally:
            calls.append((np.concatenate(blocks, axis=1), judge, kept and kept[0]))
        return kept

    monkeypatch.setattr(cli, "_first_accepted", recording)
    return calls


def _neck_candidates(seed, n, r):
    """verify-kernel's neck draw replayed from the seed: blocks of 250
    candidate rows (x, y), radii then directions per block, until 200 of them
    lie 0.05 apart. Returns those rows (1, blocks x 250, 2n), the judge of
    that spacing and the generator after the last block."""
    rng, margin, blocks = np.random.default_rng(seed), min(0.02, (r - 1.0 / r) / 4.0), []

    def judge(pairs):
        apart = row_norms(pairs[..., :n] - pairs[..., n:]) >= 0.05
        return apart, np.zeros_like(apart)

    while sum(judge(block)[0].sum() for block in blocks) < 200:
        rho = rng.uniform(1.0 / r + margin, r - margin, (250, 2, 1))
        v = rng.normal(size=(250, 2, n))
        blocks.append((rho * (v / row_norms(v)[..., None])).reshape(250, 2 * n))
    return np.concatenate(blocks)[None], judge, rng


def _recording_random_maps(corrupt_at=None):
    """A cli.patched row that makes cli._random_maps record each pool it
    returns, as a list of maps, and that list of pools. corrupt_at moves the
    pool's first map to that position: the map that the corrupt_vahlen row,
    patched beneath this one, corrupted."""
    pools = []

    def record(random_maps):
        def recording(*args):
            maps = _pool_maps(random_maps(*args))
            if corrupt_at is not None:
                maps.insert(corrupt_at, maps.pop(0))
            pools.append(maps)
            return _as_pool(maps)

        return recording

    return (cli, "_random_maps", record), pools


def _assert_first_accepted(rows, judge, count, kept, block):
    """kept holds, per map, exactly the first `count` rows of `rows` in draw
    order that judge accepts, and blocks were drawn only while a map was short."""
    accepted, raising, *_ = judge(rows)
    assert not raising.any() and kept.shape == (len(rows), count, rows.shape[-1])
    for i in range(len(rows)):
        assert np.array_equal(kept[i], rows[i][accepted[i]][:count])
    assert (accepted[:, : rows.shape[1] - block].sum(1) < count).any() or rows.shape[1] == block


@pytest.mark.parametrize("seed", range(8))
def test_first_accepted_keeps_each_maps_first_accepted_rows(seed):
    """Over six maps drawing blocks of four rows, each map keeps its first
    five accepted rows in draw order, another block comes only while a map is
    short, and a raising row among the judged rows raises VahlenError."""
    rng, blocks = np.random.default_rng(seed), []
    draw = lambda: blocks.append(rng.uniform(-1.0, 1.0, (6, 4, 2))) or blocks[-1]
    try:
        (kept,) = _first_accepted(draw, _judge_on_first_column)
    except VahlenError:
        assert _judge_on_first_column(blocks[-1])[1].any()
        return
    _assert_first_accepted(np.concatenate(blocks, axis=1), _judge_on_first_column, 5, kept, 4)


@pytest.mark.parametrize("seed", range(8))
def test_first_accepted_picks_payloads_at_the_kept_rows(seed):
    """The judge's payloads, one per row with trailing axes of their own,
    come back picked at the same (map, row) indices as the kept rows, across
    every block drawn."""
    rng, blocks = np.random.default_rng(seed), []
    draw = lambda: blocks.append(rng.uniform(-1.0, 1.0, (6, 4, 2))) or blocks[-1]

    def judge(rows):
        accepted = rows[..., 0] > -0.5
        return accepted, np.zeros_like(accepted), rows.sum(-1), np.stack((rows, -rows), axis=-2)

    kept, sums, pairs = _first_accepted(draw, judge)
    rows = np.concatenate(blocks, axis=1)
    assert sums.shape == (6, 5) and pairs.shape == (6, 5, 2, 2)
    for i in range(6):
        picked = (rows[i, :, 0] > -0.5).nonzero()[0][:5]
        assert np.array_equal(kept[i], rows[i, picked])
        assert np.array_equal(sums[i], rows[i, picked].sum(-1))
        assert np.array_equal(pairs[i], np.stack((rows[i, picked], -rows[i, picked]), axis=-2))


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("n", [2, 3])
def test_random_maps_match_per_map_construction(n, corrupt):
    """At seeds 0-9, the stacked pool equals bit for bit the pool built map
    by map from translation_map, neck_inversion, cayley and two compose calls
    per composition, with the corrupted map first under corrupt, and it
    leaves the generator in the same state."""
    for seed in range(10):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        with cli.patched([(*cli.CONTROLS["corrupt_vahlen"], 1)] if corrupt else []):
            pool = cli._random_maps(rng, n, 40)
        kinds, offsets = ref_rng.integers(0, 4, 40), ref_rng.uniform(-2.0, 2.0, (40, 2, n))
        ref = []
        for kind, (t, s) in zip(kinds, offsets):
            if kind == 0:
                ref.append(translation_map(t, n, n))
            elif kind == 1:
                ref.append(neck_inversion(n))
            elif kind == 2:
                ref.append(cayley(n))
            else:
                ref.append(compose(translation_map(s, n, n), compose(neck_inversion(n), translation_map(t, n, n))))
        if corrupt:
            coeffs = ref[0].coeffs.copy()
            coeffs[0, 0, 0b11] += 0.25
            ref[0] = dataclasses.replace(ref[0], coeffs=coeffs)
        got = _pool_maps(pool)
        assert list(pool) == list(_as_pool(ref)) and len(got) == 40, seed
        for psi, want in zip(got, ref):
            assert psi.kernel_exponent == want.kernel_exponent and psi.coeffs.tobytes() == want.coeffs.tobytes(), seed
        assert rng.uniform() == ref_rng.uniform(), seed


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", range(8))
def test_pool_draws_match_map_by_map(monkeypatch, n, seed):
    """In verify-algebra's covariance and pullback draws and verify-kernel's
    neck pairs, every map keeps exactly its first five (neck: 200) rows in
    draw order that its judge accepts, and no judged row raises; the neck's
    candidate rows are replayed from the seed. The covariance pool's pairs
    equal those each map's own judge keeps from its own candidate rows, map
    by map."""
    calls = _recording_first_accepted(monkeypatch)
    row, pools = _recording_random_maps()
    with cli.patched([row]):
        _, status = cli.run_suite("verify-algebra", cli.RunConfig(n=n, seed=seed))
    assert status == 0 and len(calls) >= 3
    for (rows, _, kept), (members, _) in zip(calls, _as_pool(pools[0]).values()):
        for i, own, pairs in zip(members, rows, kept):
            accepted, raising, _ = cli._admissible_pairs(pools[0][i], n)(own)
            assert not raising.any() and np.array_equal(pairs, own[accepted][:5]), i
    for rows, judge, kept in calls:
        _assert_first_accepted(rows, judge, 5, kept, _BLOCK)
    necks, neck_pairs = [], cli._neck_pairs
    monkeypatch.setattr(cli, "_neck_pairs", lambda *a: necks.append(neck_pairs(*a)) or necks[-1])
    _, status = cli.run_suite("verify-kernel", cli.RunConfig(n=n, seed=seed))
    rows, judge, _ = _neck_candidates(seed, n, 2.0)
    assert status == 0 and len(necks) == 1 and necks[0].shape == (200, 2 * n)
    _assert_first_accepted(rows, judge, 200, necks[0][None], 250)


def test_short_maps_draw_another_block(monkeypatch):
    """With a covariance judge that rejects about four rows in five, maps
    short of five pairs draw further blocks, and the suite still passes on
    rows the strict judge accepts."""
    calls = _recording_first_accepted(monkeypatch)
    admissible = cli._admissible_pairs

    def strict(psi, n):
        judge = admissible(psi, n)

        def strict_judge(rows):
            accepted, raising, images = judge(rows)
            return accepted & (rows[..., 0] > 1.2), raising, images

        return strict_judge

    monkeypatch.setattr(cli, "_admissible_pairs", strict)
    _, status = cli.run_suite("verify-algebra", cli.RunConfig(n=2, seed=0))
    covariance = [call for call in calls if call[0].shape[-1] == 4]
    assert status == 0 and covariance
    for rows, judge, kept in covariance:
        assert rows.shape[1] > _BLOCK and (kept[..., 0] > 1.2).all()
        _assert_first_accepted(rows, judge, 5, kept, _BLOCK)


def _raises_alone(psi, n, rows):
    """Whether the covariance suite raises VahlenError on psi alone, given its
    candidate rows: a raising row among them, or a raise in evaluating its
    first five admissible pairs with the images the judge computed."""
    accepted, raising, images = cli._admissible_pairs(psi, n)(rows)
    if raising.any():
        return True
    pairs, images = rows[accepted][:5], images[accepted][:5]
    x, y = pairs[:, :n], pairs[:, n:]
    try:
        covariance_residual(psi, x, y, images[:, 0], images[:, 1])
    except VahlenError:
        return True
    return False


@pytest.mark.parametrize("n", [2, 3])
def test_pool_raises_exactly_when_map_by_map_does(n):
    """Over corrupt_vahlen pools at seeds 0-23, with the corrupted map first,
    in the middle or last, kernel-covariance fails with an infinite residual;
    and, of the maps whose stacks were drawn, the suite run on each map alone
    on its own candidate rows raises for the corrupted map and no other."""
    for seed, corrupt_at in itertools.product(range(24), (0, 17, 39)):
        row, pools = _recording_random_maps(corrupt_at)
        with pytest.MonkeyPatch.context() as mp, cli.patched([(*cli.CONTROLS["corrupt_vahlen"], 1), row]):
            calls = _recording_first_accepted(mp)
            text, status = cli.run_suite("verify-algebra", cli.RunConfig(n=n, seed=seed))
        assert status == 1 and "property=kernel-covariance residual=inf" in text, (seed, corrupt_at)
        maps, raising = pools[0], []
        for (rows, *_), (members, _) in zip(calls, _as_pool(pools[0]).values()):
            raising += [i for i, own in zip(members, rows) if _raises_alone(maps[i], n, own)]
        assert raising == [corrupt_at], (seed, corrupt_at)


def test_pool_judges_each_covariance_suite_in_few_calls(monkeypatch):
    """Over seeds 0-9 at n = 2 and 3, verify-algebra judges its covariance
    pairs in one call per (k, exponent) stack of maps, on a block of
    candidate pairs per map, and the stacked verdicts and images are each
    map's own."""
    judged, admissible = [], cli._admissible_pairs

    def recording(psi, n):
        judge = admissible(psi, n)
        return lambda rows: judged.append((psi, rows)) or judge(rows)

    monkeypatch.setattr(cli, "_admissible_pairs", recording)
    row, pools = _recording_random_maps()
    for n, seed in itertools.product((2, 3), range(10)):
        judged.clear()
        with cli.patched([row]):
            _, status = cli.run_suite("verify-algebra", cli.RunConfig(n=n, seed=seed))
        assert status == 0 and len(judged) == len(_as_pool(pools[-1])), (n, seed)
        for stack, rows in judged:
            assert rows.shape == (len(stack.coeffs), _BLOCK, 2 * n)
            accepted, raising, images = admissible(stack, n)(rows)
            for i, coeffs in enumerate(stack.coeffs[:, 0]):
                one = admissible(VahlenMap(coeffs, stack.kernel_exponent), n)(rows[i])
                assert np.array_equal(one[0], accepted[i]) and np.array_equal(one[1], raising[i])
                assert np.array_equal(one[2], images[i], equal_nan=True)


@pytest.mark.parametrize("n", [2, 3])
def test_pullback_stack_matches_each_map(n):
    """The residuals differenced from the stacked judge's pullback values
    equal each map's own dirac_left_fd of its pullback bit for bit, at the
    suite's poles and points, and the stacked stencil judge gives each map's
    own verdicts on those points."""
    rng = np.random.default_rng(3)
    pool = _random_maps(rng, n, 10)
    maps = [dataclasses.replace(psi, kernel_exponent=psi.ambient_dim) for psi in _pool_maps(pool)]
    seen = []
    poles, samples = _pullback_samples(rng, pool)
    for members, stack, f, points, values in samples:
        resid = dirac_from_stencil(values, 1e-4)
        for i, res, x in zip(members, resid, points):
            k = maps[i].ambient_dim
            g = g_translate(poles[i, :k], n=k, dim_alg=k)
            assert np.array_equal(res, dirac_left_fd(moebius_pullback(maps[i], g), x, 1e-4))
            assert _stencil_samples(maps[i], g, 1e-4)(x)[0].all()
            seen.append(i)
    assert sorted(seen) == list(range(10)) and len({psi.ambient_dim for psi in maps}) == 2


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["two_spheres", "plane_sphere"])
@pytest.mark.parametrize("r", [1.05, 2.0, 10.0])
def test_cross_glue_target_takes_the_cross_glue_case(kind, n, r):
    m = two_spheres(n, r) if kind == "two_spheres" else plane_sphere(n, r)
    node = ManifoldPoint(1, np.pad([3.0], (0, n - 1)))
    y = ManifoldPoint(2, cross_glue_target(n, r))
    assert kernel_CM(m, node, y).case_tag == "cross-glue"


def test_negative_control_weight(tmp_path):
    cfg = tmp_path / "bw.cfg"
    cfg.write_text("break_weight=1\n")
    status, text = run(tmp_path, "verify-cauchy", "--config", str(cfg), "--order", "32")
    assert status != 0
    assert "verdict=fail" in text


@pytest.mark.parametrize("order", [64, 256])
def test_break_weight_fails_hardy_on_two_spheres(order):
    """On hardy's off-centre ellipse the Cayley weight's magnitude varies
    along the contour, so a wrong weight exponent moves the trace out of H+:
    monogenic-trace-defect reads 9.2e-2 at both orders. On plane_sphere the
    control is equivalent for hardy: chart 1 is the plane, where W is 1 and
    a same-chart computation reads no weight, so the report is the plain one."""
    for kind in ("two_spheres", "plane_sphere"):
        plain = cli.RunConfig(kind=kind, order=order)
        text, status = cli.run_suite("hardy", plain)
        broken, broken_status = cli.run_suite("hardy", dataclasses.replace(plain, break_weight=1))
        assert status == 0, kind
        if kind == "two_spheres":
            defect = next(line for line in broken.splitlines() if "property=monogenic-trace-defect" in line)
            assert broken_status == 1 and "verdict=fail" in defect and "result=fail" in broken
        else:
            assert broken_status == 0 and broken.splitlines()[2:] == text.splitlines()[2:]


@pytest.mark.parametrize("order, scale1", [(64, 0.05), (64, 0.01), (64, 1e-3), (256, 0.05), (256, 0.01)])
def test_hardy_passes_at_small_chart_1_scales(order, scale1):
    """The trace grows as scale1^(-1/2), and hardy's residuals are absolute.
    On the off-centre ellipse the defect is 2.9e-6 of max|g| at order 64, so
    hardy passes: the defect reads 2.0e-5, 4.5e-5 and 1.4e-4 for
    scale1 = 0.05, 0.01 and 1e-3, where the centred circle with the
    FFT-regularised rule read 1.1e-3, 2.5e-3 and 8.0e-3, and exact-partition
    1.4e-14 at 1e-3."""
    text, status = cli.run_suite("hardy", cli.RunConfig(kind="two_spheres", order=order, scale1=scale1))
    assert status == 0, text


@pytest.mark.parametrize("scales", MATRIX_SCALES, ids=["default", "scaled"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["two_spheres", "plane_sphere"])
def test_negative_control_normal(tmp_path, kind, n, scales):
    """A flipped normal fails verify-cauchy on every kind, n and scale."""
    cfg = tmp_path / "bn.cfg"
    cfg.write_text(f"break_normal=1\nkind={kind}\nn={n}\nr=2\nscale1={scales[0]}\nscale2={scales[1]}\n")
    status, text = run(tmp_path, "verify-cauchy", "--config", str(cfg), "--order", "64")
    assert status != 0


def test_negative_control_corrupt_vahlen(tmp_path):
    cfg = tmp_path / "cv.cfg"
    cfg.write_text("corrupt_vahlen=1\n")
    status, text = run(tmp_path, "verify-algebra", "--config", str(cfg))
    assert status != 0
    assert "kernel-covariance" in text


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", range(24))
def test_corrupt_vahlen_fails_at_every_seed(tmp_path, n, seed):
    """The corrupted map is invalid whatever kind the first random map is;
    a scalar added to `a` left translations and the neck inversion valid."""
    cfg = tmp_path / "cv.cfg"
    cfg.write_text(f"corrupt_vahlen=1\nn={n}\n")
    status, text = run(tmp_path, "verify-algebra", "--config", str(cfg), "--seed", str(seed))
    assert status == 1 and "result=fail" in text
    assert "property=kernel-covariance" in text and "verdict=fail" in text


# Per CONTROLS row, the runs (suite, kind, n) it must fail; each passes
# without the control
CONTROL_TARGETS = {
    "break_weight": [("verify-cauchy", "two_spheres", n) for n in (2, 3)]
    + [("verify-kernel", "plane_sphere", n) for n in (2, 3)],
    "break_normal": [("verify-cauchy", kind, n) for kind in ("two_spheres", "plane_sphere") for n in (2, 3)],
    "corrupt_vahlen": [("verify-algebra", "two_spheres", n) for n in (2, 3)],
}


@pytest.mark.parametrize("key", sorted(CONTROL_TARGETS))
def test_each_control_row_fails_the_suites_it_targets(key):
    """Every CONTROLS row has targets, and run_suite, switched on by the
    config key alone, fails each target that passes without it."""
    assert sorted(CONTROL_TARGETS) == sorted(cli.CONTROLS)
    for suite, kind, n in CONTROL_TARGETS[key]:
        plain = cli.RunConfig(kind=kind, n=n)
        assert cli.run_suite(suite, plain)[1] == 0, (suite, kind, n)
        text, status = cli.run_suite(suite, dataclasses.replace(plain, **{key: 1}))
        assert status == 1 and "result=fail" in text, (suite, kind, n)


def _control_bindings():
    return [getattr(owner, attr) for owner, attr, _ in cli.CONTROLS.values()]


def test_controls_are_restored_after_a_run_that_returns_or_raises(monkeypatch):
    """Every binding a control patches is its original object again after a
    run under all the controls, and after one whose suite raises while they
    are patched in."""
    originals = _control_bindings()
    every = {key: 1 for key in cli.CONTROLS}
    _, status = cli.run_suite("verify-cauchy", cli.RunConfig(order=32, **every))
    assert status == 1 and all(now is was for now, was in zip(_control_bindings(), originals))

    seen = []

    def raising(rep, cfg):
        seen.extend(now is not was for now, was in zip(_control_bindings(), originals))
        raise RuntimeError("suite raised")

    monkeypatch.setitem(cli.COMMANDS, "verify-kernel", raising)
    with pytest.raises(RuntimeError, match="suite raised"):
        cli.run_suite("verify-kernel", cli.RunConfig(**every))
    assert seen == [True] * len(cli.CONTROLS)
    assert all(now is was for now, was in zip(_control_bindings(), originals))


def test_plain_runs_after_control_runs_match_their_goldens():
    """A control run leaves nothing behind in the process: the plain runs
    that follow reproduce their golden reports."""
    golden = pathlib.Path(__file__).parent / "golden"
    cli.run_suite("verify-cauchy", cli.RunConfig(order=32, break_weight=1, break_normal=1))
    assert cli.run_suite("verify-cauchy", cli.RunConfig(order=32))[0] == (golden / "cauchy-two_spheres.txt").read_text()
    cli.run_suite("verify-algebra", cli.RunConfig(corrupt_vahlen=1, break_weight=1))
    assert cli.run_suite("verify-algebra", cli.RunConfig())[0] == (golden / "algebra-n2.txt").read_text()


BAD_CONFIGS = [
    ("verify-algebra", "n=5\n", "n"),
    ("verify-kernel", "kind=torus\n", "kind"),
    ("verify-cauchy", "order=0\n", "order"),
    ("hardy", "order=0\n", "order"),
    ("hardy", "order=1\n", "order"),
    ("verify-cauchy", "order=3\n", "order"),
    ("verify-kernel", "scale1=0\n", "scale1"),
    ("verify-cauchy", "scale1=0\n", "scale1"),
    ("hardy", "scale1=0\n", "scale1"),
    ("verify-cauchy", "kind=plane_sphere\nscale2=-1\n", "scale2"),
    ("verify-kernel", "r=nan\n", "r"),
    ("verify-kernel", "r=inf\n", "r"),
    ("verify-cauchy", "r=inf\n", "r"),
    ("hardy", "r=inf\n", "r"),
    ("verify-algebra", "r=inf\n", "r"),
    ("verify-kernel", "scale1=inf\n", "scale1"),
    ("verify-cauchy", "scale1=inf\n", "scale1"),
    ("hardy", "scale2=inf\n", "scale2"),
    ("verify-algebra", "seed=-1\n", "seed"),
    ("verify-cauchy", "seed=-1\n", "seed"),
    ("verify-cauchy", "break_weight=-2\n", "break_weight"),
    ("verify-cauchy", "break_normal=2\n", "break_normal"),
    ("hardy", "break_normal=-1\n", "break_normal"),
    ("verify-algebra", "corrupt_vahlen=-1\n", "corrupt_vahlen"),
    ("verify-algebra", "corrupt_vahlen=2\n", "corrupt_vahlen"),
    ("hardy", "n=3\n", "n"),
    ("hardy", "order=63\n", "order"),
    ("hardy", "order=66\n", "order"),
    ("hardy", "order=6\n", "order"),
    ("verify-algebra", "n=2.0\n", "n"),
    ("verify-kernel", "r=abc\n", "r"),
    ("verify-cauchy", "order=\n", "order"),
    ("verify-kernel", "scale1=9.9e-13\n", "scale1"),
    ("hardy", "scale1=1e-300\n", "scale1"),
    ("verify-cauchy", "scale1=1.01e12\n", "scale1"),
    ("verify-algebra", "scale1=1e308\n", "scale1"),
    ("verify-cauchy", "kind=plane_sphere\nscale2=9.9e-13\n", "scale2"),
    ("verify-kernel", "scale2=1e-300\n", "scale2"),
    ("hardy", "scale2=1.01e12\n", "scale2"),
    ("verify-kernel", "kind=plane_sphere\nscale2=1e308\n", "scale2"),
    ("verify-cauchy", "order=2049\n", "order"),
    ("hardy", "order=2050\n", "order"),
    ("verify-cauchy", "break_weight=2\n", "break_weight"),
    ("verify-algebra", "scale1=1e-7\nscale2=1e7\n", "scale1/scale2"),
    ("verify-kernel", "scale1=1e-7\nscale2=1e7\n", "scale1/scale2"),
    ("verify-cauchy", "scale1=1e-12\nscale2=20\n", "scale1/scale2"),
    ("hardy", "n=2\nscale1=1e-3\nscale2=1.01e10\n", "scale1/scale2"),
    ("hardy", "scale1=1e-7\nscale2=1e7\n", "scale1/scale2"),
    *((command, "r=1e200\n", "r") for command in ("verify-algebra", "verify-kernel", "verify-cauchy", "hardy")),
]


# ids are command-key, or command-line where that pair is already taken
BAD_CONFIG_IDS = []
for _c, _t, _k in BAD_CONFIGS:
    BAD_CONFIG_IDS.append(f"{_c}-{_k}" if f"{_c}-{_k}" not in BAD_CONFIG_IDS else f"{_c}-{_t.strip()}")


@pytest.mark.parametrize("command, text, key", BAD_CONFIGS, ids=BAD_CONFIG_IDS)
def test_bad_config_exit_code(tmp_path, capsys, command, text, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    status = main([command, "--config", str(cfg)])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.split()[2] == key, err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["verify-algebra", "verify-kernel", "verify-cauchy", "hardy"])
def test_negative_seed_flag_is_a_config_error(capsys, command):
    """--seed -1 overrides a valid config and is rejected like seed=-1."""
    assert main([command, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "config error: seed must be >= 0\n"


def test_parser_is_reused_across_runs(tmp_path, capsys):
    """The argument parser is built once per process: a parse error after a
    successful run exits 2 with the message of a freshly built parser, and
    two runs in one process give identical reports."""
    cli._parser.cache_clear()
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["verify-kernel", "--seed", "x"])
        errors.append((exc.value.code, capsys.readouterr().err))
        run(tmp_path, "verify-kernel", "--seed", "2")
    assert errors[0] == errors[1] and errors[0][0] == 2
    assert "argument --seed: invalid int value: 'x'" in errors[0][1]
    _, first = run(tmp_path, "verify-algebra", "--seed", "2")
    _, second = run(tmp_path, "verify-algebra", "--seed", "2")
    assert first == second and cli._parser() is cli._parser()


def test_unwritable_out_is_a_config_error(tmp_path, capsys):
    """A report path in a missing directory exits 2 with one config-error
    line instead of a traceback."""
    out = tmp_path / "missing" / "report.txt"
    assert main(["verify-kernel", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err


def test_unwritable_out_exits_before_the_suite_runs(tmp_path, capsys, monkeypatch):
    """The report path is checked before any work: a path in a missing
    directory, or a directory itself, exits 2 with one config-error line and
    the suite is never called."""

    def suite(rep, cfg):
        raise AssertionError("the suite ran before the --out check")

    monkeypatch.setitem(cli.COMMANDS, "verify-kernel", suite)
    for out in (tmp_path / "missing" / "report.txt", tmp_path):
        assert main(["verify-kernel", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err


def test_verify_cauchy_scaled_chart1(tmp_path):
    cfg = tmp_path / "scaled.cfg"
    cfg.write_text("scale1=1.5\n")
    status, text = run(tmp_path, "verify-cauchy", "--config", str(cfg), "--order", "64")
    assert status == 0, text


def test_exception_in_a_suite_is_one_line_naming_suite_and_config(tmp_path, capsys, monkeypatch):
    """An exception that escapes a suite exits 1 with one stderr line that
    names the suite, the config line and the exception; no report is written."""
    singular = lambda m, x, y: weight_J(neck_inversion(3), np.zeros(3))
    monkeypatch.setattr(cli, "overlap_consistency_residual", singular)
    out = tmp_path / "report.txt"
    status = main(["verify-kernel", "--seed", "4", "--out", str(out)])
    err = capsys.readouterr().err
    assert status == 1 and not out.exists()
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("verify-kernel error: config kind=two_spheres n=2 r=2 scale1=1 scale2=1 seed=4 ")
    raised = "SingularPointError: cx+d vanishes: conformal weight singular at [0.0, 0.0, 0.0]"
    assert err.rstrip().endswith(": " + raised)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("r", [1.0001, 1.05, 2.0, 10.0, 1e6])
def test_neck_pairs_match_one_pair_loop(n, r):
    """verify-kernel's 200 neck pairs, at seeds 0-7, equal bit for bit the
    pairs of a loop that walks the candidate pairs replayed from the seed one
    at a time and keeps those 0.05 apart, the draw leaves the generator where
    the replay does, and both points of each lie inside the neck
    1/r < |x| < r."""
    for seed in range(8):
        rng = np.random.default_rng(seed)
        pairs = cli._neck_pairs(rng, n, r)
        rows, _, replayed = _neck_candidates(seed, n, r)
        kept = [row for row in rows[0] if np.linalg.norm(row[:n] - row[n:]) >= 0.05]
        assert pairs.shape == (200, 2 * n) and np.array_equal(pairs, kept[:200]), seed
        assert rng.uniform() == replayed.uniform(), seed
        radii = row_norms(np.concatenate((pairs[:, :n], pairs[:, n:])))
        assert ((1.0 / r < radii) & (radii < r)).all(), seed


@pytest.mark.parametrize("order", [4, 16, 64, 256])
@pytest.mark.parametrize("kind", ["two_spheres", "plane_sphere"])
def test_hardy_residuals_match_row_loops(monkeypatch, kind, order):
    """hardy's three residuals, reduced over the coefficient arrays of
    its one Plemelj call (the N rule and the half rule), equal those of
    loops over the Multivector rows bit for bit."""
    results, residuals = [], []
    project, add = cli.plemelj_projections, cli.Report.add
    monkeypatch.setattr(cli, "plemelj_projections", lambda *a, **kw: results.append(project(*a, **kw)) or results[-1])
    monkeypatch.setattr(cli.Report, "add", lambda self, name, res, thr: residuals.append(res) or add(self, name, res, thr))
    cli.run_suite("hardy", cli.RunConfig(kind=kind, order=order))
    (full,) = results
    defect = max(v.norm() for v in full.g_minus)
    part = max((full.g_plus[i] + full.g_minus[i] - full.g[i]).norm() for i in range(order))
    half_defect = max(Multivector(3, row).norm() for row in full.half[1])
    ratio = defect / max(half_defect, 1e-30)
    assert residuals == [defect, part, 0.0 if ratio <= 0.5 or defect <= 1e-12 else ratio]


def test_hardy_evaluates_each_node_once(monkeypatch):
    """One hardy run takes its node geometry, its kernel pairs and its data
    once: the half-order rule reads the even nodes of the same evaluation."""
    calls = {"node_geometry": 0, "_kernel_pairs": 0, "data": 0}

    def counted(name, fn):
        return lambda *a, **kw: calls.__setitem__(name, calls[name] + 1) or fn(*a, **kw)

    monkeypatch.setattr(integration, "node_geometry", counted("node_geometry", integration.node_geometry))
    pairs = counted("_kernel_pairs", kernel._kernel_pairs)
    monkeypatch.setattr(kernel, "_kernel_pairs", pairs)
    monkeypatch.setattr(integration, "_kernel_pairs", pairs)
    project = cli.plemelj_projections
    monkeypatch.setattr(cli, "plemelj_projections", lambda m, s, g, **kw: project(m, s, counted("data", g), **kw))
    _, status = cli.run_suite("hardy", cli.RunConfig(order=64))
    assert status == 0 and calls == {"node_geometry": 1, "_kernel_pairs": 1, "data": 1}


_SRC = str(pathlib.Path(cli.__file__).resolve().parents[1])


def _python(*args):
    """Run a fresh interpreter that imports this sphereglue; a run past 60 s
    fails the test."""
    path = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=60, env=env)


@pytest.mark.parametrize(
    "command, text",
    [
        ("hardy", "scale2=1e200\n"),
        ("verify-kernel", "scale2=1e200\n"),
        ("verify-cauchy", "kind=plane_sphere\nscale2=1e-14\n"),
    ],
    ids=["hardy", "verify-kernel", "verify-cauchy-plane"],
)
def test_extreme_chart_scale_terminates(tmp_path, command, text):
    """Chart scales whose Vahlen maps cannot be built are config errors: a
    fresh interpreter exits 2 with one stderr line naming the key. Before the
    bound, scale2 = 1e200 exited 1 after a VahlenError, and scale2 = 1e308
    after several lines of overflow warnings."""
    cfg = tmp_path / "scale.cfg"
    cfg.write_text(text)
    done = _python("-m", "sphereglue.cli", command, "--config", str(cfg))
    assert done.returncode == 2, done.stderr
    assert done.stderr == "config error: scale2 must be within [1e-12, 1e12]\n", done.stderr


def test_hardy_and_verify_cauchy_do_not_load_numpy_random(tmp_path):
    """Neither suite draws random numbers, so neither imports numpy.random."""
    out = str(tmp_path / "report.txt")
    code = (
        "import sys\n"
        "from sphereglue import cli\n"
        "for command in ('hardy', 'verify-cauchy'):\n"
        f"    assert cli.main([command, '--order', '16', '--out', {out!r}]) in (0, 1)\n"
        "print('numpy.random' in sys.modules)\n"
    )
    done = _python("-c", code)
    assert done.returncode == 0 and done.stdout == "False\n", done.stderr
