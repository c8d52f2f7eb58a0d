import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lipvar.cli import main

CFG = {
    "domain": {
        "phi_breakpoints": [],
        "support_radius": 0.0,
        "box_halfwidth": 5.0,
        "box_height": 5.0,
        "grid_spacing": 0.1,
        "pole": [0.0, 1.0],
        "wos_seed": 7,
    },
    "epsilon": 0.05,
    "u_arc": [-1.0, 1.0],
    "segments": [[0.2, 0.4]],
    "balls": [{"center": [0.0, 0.0], "radius": 0.5},
              {"center": [0.5, 0.0], "radius": 0.4}],
    "z1": [0.0, 2.0],
    "wos_samples": 1500,
}


@pytest.fixture()
def cfg_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(CFG))
    return str(p)


def test_solve_then_cache_hit(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["--config", cfg_path, "--out", out, "solve"]) == 0
    first = capsys.readouterr().out
    assert "solved" in first
    assert main(["--config", cfg_path, "--out", out, "solve"]) == 0
    assert "cache hit" in capsys.readouterr().out
    cache = next((tmp_path / "out" / "cache").iterdir())
    assert (cache / "hm_weights.csv").exists()


def test_solve_no_cache_recomputes(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    main(["--config", cfg_path, "--out", out, "solve"])
    capsys.readouterr()
    assert main(["--config", cfg_path, "--out", out, "--no-cache", "solve"]) == 0
    assert "solved" in capsys.readouterr().out


def test_solve_cache_is_keyed_by_u_arc(tmp_path, capsys):
    # a cache keyed by the domain alone served the first arc's u to the second
    out = str(tmp_path / "out")
    for arc in ([-1.0, 1.0], [0.0, 2.0]):
        assert main(["--config", _write_cfg(tmp_path, u_arc=arc), "--out", out, "solve"]) == 0
        assert "solved" in capsys.readouterr().out
    caches = list((tmp_path / "out" / "cache").iterdir())
    assert len(caches) == 2
    assert len({(c / "u_boundary_band.csv").read_text() for c in caches}) == 2


def test_malformed_json_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"domain": [,]}')
    assert main(["--config", str(p), "--out", str(tmp_path), "solve"]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_missing_config_key_exits_2(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"domain": {"box_halfwidth": 5.0}}))
    assert main(["--config", str(p), "--out", str(tmp_path), "solve"]) == 2


def test_unknown_suite_exits_2(cfg_path, tmp_path):
    with pytest.raises(SystemExit) as e:
        main(["--config", cfg_path, "--out", str(tmp_path), "verify", "bogus"])
    assert e.value.code == 2


def test_verify_field_passes_and_is_deterministic(cfg_path, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["--config", cfg_path, "--out", out1, "verify", "field"]) == 0
    assert main(["--config", cfg_path, "--out", out2, "verify", "field"]) == 0
    r1 = Path(out1, "verify_field.json").read_bytes()
    r2 = Path(out2, "verify_field.json").read_bytes()
    assert r1 == r2
    # the WoS record reports the walks force-projected at the step cap
    wos = next(c for c in json.loads(r1)["checks"] if c["name"] == "wos_oracle")
    assert wos["capped_walks"] == 0


def test_verify_all_passes_on_sawtooth(tmp_path):
    cfg = dict(CFG, wos_samples=1200)
    cfg["domain"] = dict(CFG["domain"],
                         phi_breakpoints=[[-1.0, 0.0], [-0.5, 0.5],
                                          [0.0, 0.0], [0.5, 0.5], [1.0, 0.0]],
                         support_radius=1.0)
    p = tmp_path / "saw.json"
    p.write_text(json.dumps(cfg))
    assert main(["--config", str(p), "--out", str(tmp_path / "o"),
                 "verify", "all"]) == 0
    rep = json.loads(Path(tmp_path / "o", "verify_all.json").read_text())
    margin = {c["name"]: c["margin"] for c in rep["checks"]}["integrand_nonnegative"]
    assert math.copysign(1, margin) == 1


def test_verify_omega_large_epsilon_fails(tmp_path):
    # coupling beyond the rough-boundary positivity threshold must trip
    # the omega suite
    big = dict(CFG, epsilon=0.45, u_arc=[-0.3, 0.3])
    big["domain"] = dict(CFG["domain"],
                         phi_breakpoints=[[-1.0, 0.0], [-0.5, 0.5],
                                          [0.0, 0.0], [0.5, 0.5], [1.0, 0.0]],
                         support_radius=1.0)
    p = tmp_path / "big.json"
    p.write_text(json.dumps(big))
    code = main(["--config", str(p), "--out", str(tmp_path / "o"), "verify", "omega"])
    assert code == 1
    rep = json.loads(Path(tmp_path / "o", "verify_omega.json").read_text())
    by_name = {c["name"]: c for c in rep["checks"]}
    assert not by_name["positivity"]["passed"]


# the sawtooth with teeth 1.0 high, slope 2: at h = 0.1 a column step of two
# grid rows, where kernel band level n is not G^n and no power of G exists
STEEP_DOMAIN = dict(CFG["domain"], support_radius=1.0,
                    phi_breakpoints=[[-1.0, 0.0], [-0.5, 1.0], [0.0, 0.0],
                                     [0.5, 1.0], [1.0, 0.0]])


def test_verify_kernels_reports_the_steep_family_gap(tmp_path):
    p = _write_cfg(tmp_path, domain=STEEP_DOMAIN)
    assert main(["--config", p, "--out", str(tmp_path / "o"), "verify", "kernels"]) == 1
    rep = json.loads(Path(tmp_path / "o", "verify_kernels.json").read_text())
    gap = {c["name"]: c for c in rep["checks"]}["family_gap"]
    assert not gap["passed"] and gap["margin"] > 1e-2


def test_verify_omega_on_a_steep_graph_fails_with_the_column_step(tmp_path):
    p = _write_cfg(tmp_path, domain=STEEP_DOMAIN)
    assert main(["--config", p, "--out", str(tmp_path / "o"), "verify", "omega"]) == 1
    records = json.loads(Path(tmp_path / "o", "verify_omega.json").read_text())["checks"]
    assert records
    for c in records:
        assert not c["passed"] and "column step of 2 grid rows" in c["error"]


@pytest.mark.parametrize("command", ["probe", "sweep-epsilon"])
def test_steep_graph_exits_2_where_powers_are_needed(tmp_path, capsys, command):
    p = _write_cfg(tmp_path, domain=STEEP_DOMAIN)
    assert main(["--config", p, "--out", str(tmp_path / "o"), command]) == 2
    assert "column step of 2 grid rows" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_probe_writes_reports(cfg_path, tmp_path, capsys):
    out = tmp_path / "p"
    assert main(["--config", cfg_path, "--out", str(out), "probe"]) == 0
    assert (out / "probe_0.json").exists() and (out / "probe_1.json").exists()
    assert (out / "probe_0_V.csv").exists()
    rep = json.loads((out / "probe_0.json").read_text())
    assert rep["chain_ok"] and rep["ratio"] > 0


def test_probe_sweeps_once_for_all_balls(cfg_path, tmp_path, monkeypatch):
    from lipvar import variation_measure

    calls = []
    sweep = variation_measure.adjoint_sweep

    def counted(*args, **kwargs):
        calls.append(args)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(variation_measure, "adjoint_sweep", counted)
    assert len(CFG["balls"]) == 2
    assert main(["--config", cfg_path, "--out", str(tmp_path / "p"), "probe"]) == 0
    assert len(calls) == 1


def test_report_collates(cfg_path, tmp_path):
    out = str(tmp_path / "r")
    main(["--config", cfg_path, "--out", out, "verify", "field"])
    assert main(["--out", out, "report"]) == 0
    merged = json.loads(Path(out, "report.json").read_text())
    assert "verify_field" in merged
    assert Path(out, "checks.csv").exists()


def test_sweep_epsilon_reports_scaling(cfg_path, tmp_path, capsys):
    out = tmp_path / "s"
    assert main(["--config", cfg_path, "--out", str(out), "sweep-epsilon"]) == 0
    rep = json.loads((out / "epsilon_sweep.json").read_text())
    assert set(rep["gap_by_eps"]) == {"0.02", "0.04", "0.08"}
    assert 0.5 < rep["gap_loglog_slope"] < 2.5
    assert rep["positive_epsilon_threshold"] > 0
    assert "0.05" in rep["measure_reports"]


def test_report_again_collates_the_same_reports(cfg_path, tmp_path):
    # a second report nested the first report.json under "report"
    out = str(tmp_path / "r")
    main(["--config", cfg_path, "--out", out, "verify", "field"])
    assert main(["--out", out, "report"]) == 0
    first = Path(out, "report.json").read_text()
    assert main(["--out", out, "report"]) == 0
    assert Path(out, "report.json").read_text() == first


def test_report_empty_dir_exits_2(tmp_path):
    assert main(["--out", str(tmp_path / "empty"), "report"]) == 2


def test_epsilon_out_of_range_exits_2(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(dict(CFG, epsilon=0.9)))
    assert main(["--config", str(p), "--out", str(tmp_path), "solve"]) == 2


def test_unknown_config_key_exits_2(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(dict(CFG, tolerances={"omega": 1e-3})))
    assert main(["--config", str(p), "--out", str(tmp_path), "solve"]) == 2
    assert "tolerances" in capsys.readouterr().err


def test_unknown_domain_key_exits_2(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(dict(CFG, domain=dict(CFG["domain"], grid_step=0.1))))
    assert main(["--config", str(p), "--out", str(tmp_path), "solve"]) == 2
    assert "grid_step" in capsys.readouterr().err


def _write_cfg(tmp_path, **changes):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(dict(CFG, **changes)))
    return str(p)


@pytest.mark.parametrize("segments", [[[0.4, 0.2]], [0.2, 0.4], [["a", 0.4]]])
def test_bad_segment_exits_2(tmp_path, segments):
    p = _write_cfg(tmp_path, segments=segments)
    assert main(["--config", p, "--out", str(tmp_path / "o"), "verify", "field"]) == 2
    assert not (tmp_path / "o").exists()


def test_second_segment_exits_2(tmp_path, capsys):
    p = _write_cfg(tmp_path, segments=[[0.2, 0.4], [0.4, 0.8]])
    assert main(["--config", p, "--out", str(tmp_path / "o"), "verify", "field"]) == 2
    assert "segments" in capsys.readouterr().err


def test_segment_above_one_exits_2(tmp_path, capsys):
    p = _write_cfg(tmp_path, segments=[[0.6, 1.2]])
    assert main(["--config", p, "--out", str(tmp_path / "o"), "verify", "omega"]) == 2
    assert "above 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [["verify", "variation"], ["probe"]])
def test_empty_balls_exits_2(tmp_path, capsys, command):
    p = _write_cfg(tmp_path, balls=[])
    assert main(["--config", p, "--out", str(tmp_path / "o"), *command]) == 2
    assert "balls" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("ball", [
    {"radius": 0.5},                          # a KeyError traceback, exit 1
    {"center": [0.0, 0.0]},
    {"center": [0.0, 0.0], "radius": "big"},  # a ValueError, exit 1
    {"center": [0.0], "radius": 0.5},         # broadcast to the origin, exit 0
    {"center": [0.0, "x"], "radius": 0.5},
    {"center": [0.0, 0.0], "radius": -0.5},
    {"center": [0.0, 0.0], "radius": 0.5, "weight": 2.0},
    [0.0, 0.0, 0.5],
])
def test_bad_ball_exits_2(tmp_path, capsys, ball):
    p = _write_cfg(tmp_path, balls=[CFG["balls"][0], ball])
    argv = ["--config", p, "--out", str(tmp_path / "o"), "--grid-h", "0.1", "probe"]
    assert main(argv) == 2
    assert "balls[1]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [
    ("u_arc", [1.0, -1.0]),          # u = 0: verify field passed
    ("z1", "ab"),                    # verify variation ended in a TypeError
    ("wos_samples", 0),              # verify field failed with margin inf
    ("y_sequence", [2.0]),           # three margins of inf
    ("u_arc", [6.0, 7.0]),           # off the mesh: u = 0, verify field passed
    ("epsilon", "abc"),              # a ValueError
    ("epsilon", None),               # a TypeError
    ("epsilon", "0.05"),             # accepted as a number
    ("z1", [0.0, 6.5]),              # above the grid: u read off its top rows
    ("z1", [5.5, 2.0]),              # beside the grid
])
def test_bad_run_value_exits_2(tmp_path, capsys, key, value):
    p = _write_cfg(tmp_path, **{key: value})
    assert main(["--config", p, "--out", str(tmp_path / "o"), "verify", "all"]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_probe_on_a_grid_too_coarse_for_the_sweep_exits_2(cfg_path, tmp_path, capsys):
    # at h = 0.25 no height of nu_limit's default y-sequence (0.4, 0.2, ...)
    # clears the 2h floor; the sweep took min() of no heights, exit 1
    argv = ["--config", cfg_path, "--out", str(tmp_path / "o"), "--grid-h", "0.25", "probe"]
    assert main(argv) == 2
    assert "2h floor" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("h", ["nan", "inf", "-0.1", "0", "1e-300"])
def test_bad_grid_h_exits_2(cfg_path, tmp_path, capsys, h):
    # nan was blamed on u_arc, 1e-300 ended in a ValueError
    argv = ["--config", cfg_path, "--out", str(tmp_path / "o"), f"--grid-h={h}", "probe"]
    assert main(argv) == 2
    assert "grid_spacing" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("wos_seed", "x"),               # each of these ended in a ValueError
    ("box_height", "abc"),
    ("pole", [0.0]),
    ("band_height", -1.0),           # verify field passed, verify variation crashed
    ("phi_breakpoints", [[0.0]]),    # a ValueError
    ("wos_seed", -3),                # numpy's ValueError
    ("wos_seed", 2.5),               # truncated to 2
    ("wos_seed", True),              # accepted as 1
    ("far_field", "halfplane"),      # a closure that no longer exists
])
def test_bad_domain_value_exits_2(tmp_path, capsys, key, value):
    p = _write_cfg(tmp_path, domain=dict(CFG["domain"], **{key: value}))
    assert main(["--config", p, "--out", str(tmp_path / "o"), "verify", "field"]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("domain", [5, [], "x"], ids=["number", "list", "string"])
def test_domain_not_an_object_exits_2(tmp_path, capsys, domain):
    # 5 ended in a TypeError, [] in an AttributeError, "x" read as a key
    p = _write_cfg(tmp_path, domain=domain)
    assert main(["--config", p, "--out", str(tmp_path / "o"), "verify", "field"]) == 2
    assert "domain must be an object" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_negative_seed_flag_exits_2(cfg_path, tmp_path, capsys):
    # ended in numpy's ValueError, exit 1
    argv = ["--config", cfg_path, "--out", str(tmp_path / "o"), "--seed", "-1", "verify", "field"]
    assert main(argv) == 2
    assert "wos_seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", ['{"checks": [', '[1, 2]', '"text"', '{"checks": [1]}',
                                  b'\xff{}'])
def test_report_on_bad_json_exits_2(tmp_path, capsys, text):
    # malformed JSON ended in a JSONDecodeError, a list in an AttributeError
    out = tmp_path / "r"
    out.mkdir()
    (out / "verify_field.json").write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["--out", str(out), "report"]) == 2
    assert "verify_field.json" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("text", ['{"hash": ', '["hash"]'])
def test_solve_on_corrupt_manifest_exits_2(cfg_path, tmp_path, capsys, text):
    out = tmp_path / "out"
    assert main(["--config", cfg_path, "--out", str(out), "solve"]) == 0
    manifest = next((out / "cache").iterdir()) / "manifest.json"
    manifest.write_text(text)
    capsys.readouterr()
    assert main(["--config", cfg_path, "--out", str(out), "solve"]) == 2
    assert str(manifest) in capsys.readouterr().err


def test_failed_construction_is_a_failed_record(cfg_path, tmp_path, monkeypatch):
    from lipvar import checks
    from lipvar.errors import ConvergenceError

    def fail(*args, **kwargs):
        raise ConvergenceError("phi limit not settled")

    monkeypatch.setattr(checks, "phi_ratios", fail)
    out = tmp_path / "o"
    assert main(["--config", cfg_path, "--out", str(out), "verify", "omega"]) == 1
    rep = json.loads((out / "verify_omega.json").read_text())
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["phi_property"] == {
        "name": "phi_property", "bound": "ratio stable within factor 2 under halving",
        "margin": float("inf"), "passed": False, "error": "phi limit not settled"}
    assert all(c["passed"] for c in rep["checks"] if c["name"] != "phi_property")


def test_verify_all_gives_one_record_per_check(cfg_path, tmp_path):
    import numpy as np

    from lipvar import checks
    from lipvar.cli import RunConfig, _build

    out = tmp_path / "o"
    assert main(["--config", cfg_path, "--out", str(out), "verify", "all"]) == 0
    records = json.loads((out / "verify_all.json").read_text())["checks"]
    cfg = RunConfig.load(cfg_path)
    domain, u = _build(cfg)
    rng = np.random.default_rng(0)
    declared = [name for suite in checks.SUITES.values()
                for name, _, _ in suite(cfg, domain, u, rng)]
    names = [c["name"] for c in records]
    assert len(set(names)) == len(names)
    # the one check that does not apply: the flat config's weak-convergence
    # slope is not finite
    assert names == [n for n in declared if n != "weak_convergence_slope"]
    assert all({"name", "bound", "margin", "passed"} <= set(c) for c in records)


def test_cli_import_loads_no_optimizer():
    # scipy.optimize costs about 12 MB and 0.14 s of every process's start
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, lipvar.cli; assert 'scipy.optimize' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
