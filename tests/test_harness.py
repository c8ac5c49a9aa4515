import csv
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ringmod import RadialStretch, RotationTwist, bounds, discrete, geometry, harness
from ringmod.cli import main


def strip_times(payload):
    if isinstance(payload, dict):
        return {k: strip_times(v) for k, v in payload.items() if k != "wall_time"}
    if isinstance(payload, list):
        return [strip_times(v) for v in payload]
    return payload


def test_scenario_registry_complete():
    # one scenario per named suite; every check carries a provenance tag
    assert {"a2", "lambda2", "measure-selftest", "twist-certification",
            "solver-annulus", "solver-image-invariance"} <= set(harness.SCENARIOS)
    rep = harness.run_scenario("a2")
    assert rep.passed
    assert all(c.provenance in ("literature", "trivial", "derived") for c in rep.checks)


def test_chain_matrices_are_the_draws_of_one_at_a_time(monkeypatch):
    # the dilatation-chains scenario draws its matrices in batches; they are
    # the first 1000 single draws with |det| >= 1e-3, in order
    seen = []
    real = harness.matrix_dilatations
    monkeypatch.setattr(harness, "matrix_dilatations", lambda A: seen.append(A) or real(A))
    assert harness.run_scenario("dilatation-chains").passed
    assert len(seen) >= 3
    for n, As in zip((2, 3, 4), seen):
        rng = np.random.default_rng(2000 + n)
        ref = []
        for _ in range(1000):
            A = rng.standard_normal((n, n))
            while abs(np.linalg.det(A)) < 1e-3:
                A = rng.standard_normal((n, n))
            ref.append(A)
        np.testing.assert_array_equal(As, ref)


def test_unknown_scenario():
    with pytest.raises(KeyError):
        harness.run_scenario("nope")


def test_scenario_errors_become_failures(monkeypatch):
    def boom(cfg):
        raise RuntimeError("exploded")
    monkeypatch.setitem(
        harness.SCENARIOS, "boom",
        harness.Scenario(id="boom", tags=("fast",), description="", runner=boom))
    rep = harness.run_scenario("boom")
    assert not rep.passed
    assert "exploded" in str(rep.checks[0].actual)


def test_report_determinism():
    r1 = harness.run_scenario("measure-selftest")
    r2 = harness.run_scenario("measure-selftest")
    j1 = json.dumps(strip_times(r1.to_json()), sort_keys=True)
    j2 = json.dumps(strip_times(r2.to_json()), sort_keys=True)
    assert j1 == j2


def test_config_validation():
    with pytest.raises(ValueError):
        harness.HarnessConfig(tol_scale=0.5)
    with pytest.raises(ValueError):
        harness.HarnessConfig(jobs=0)
    # a float would reach the process pool and a bool the config JSON
    for bad in (2.0, 1.5, True):
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            harness.HarnessConfig(jobs=bad)
    assert harness.HarnessConfig(jobs=np.int64(2)).digest() == harness.HarnessConfig(jobs=2).digest()
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            harness.HarnessConfig(tol_scale=bad)
    c = harness.HarnessConfig(tol_scale=2.0)
    assert len(c.digest()) == 16


def test_run_all_filter():
    agg = harness.run_all(tag="special")
    ids = [s["scenario"] for s in agg["scenarios"]]
    assert ids == sorted(ids)
    assert set(ids) == {"a2", "lambda2", "special-constants"}
    assert agg["passed"]


def test_emit_csv(tmp_path):
    path = tmp_path / "out.csv"
    harness.emit_csv(str(path), ["a", "b"], [[1, 2.5], [3, 4.5]])
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "a,b"
    assert len(lines) == 3
    # empty sweep: header only
    harness.emit_csv(str(path), ["x", "y"], [])
    assert path.read_text() == "x,y\n"


def test_emit_csv_quotes_fields_with_commas(tmp_path):
    path = tmp_path / "out.csv"
    harness.emit_csv(str(path), ["name", "expected", "actual"],
                     [["plain", 1.5, 2], ["bracket", "[0.5, 1.0]", 0.75]])
    assert path.read_text() == 'name,expected,actual\nplain,1.5,2\nbracket,"[0.5, 1.0]",0.75\n'
    with open(path, newline="") as fh:
        assert [len(row) for row in csv.reader(fh)] == [3, 3, 3]


def test_cli_verify_csv_rows_match_header(tmp_path, capsys, monkeypatch):
    def bracketed(cfg):
        return [harness._in_bracket("in-bracket", 0.75, 0.5, 1.0, 1e-9, "trivial", cfg)]
    monkeypatch.setitem(
        harness.SCENARIOS, "zz-bracket",
        harness.Scenario(id="zz-bracket", tags=("brackettag",), description="", runner=bracketed))
    cpath = tmp_path / "report.csv"
    assert main(["--csv", str(cpath), "verify", "--filter", "brackettag"]) == 0
    with open(cpath, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2
    assert all(len(row) == len(rows[0]) == 7 for row in rows)
    assert rows[1][2] == "[0.5, 1.0]"
    capsys.readouterr()


def test_emit_svg(tmp_path):
    path = tmp_path / "plot.svg"
    harness.emit_svg(str(path), [0, 1, 2], [0.0, 1.0, 0.5], "t", "g", "demo")
    text = path.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text
    harness.emit_svg(str(path), [], [], "t", "g")
    assert "polyline" not in path.read_text()


def test_sweeps():
    cols, rows = harness.sweep("teichmuller-gap")
    assert cols == ["t", "gap"]
    assert len(rows) == 200
    # decreasing toward the tail, capped by the boundary value
    assert rows[0][1] > rows[-1][1]
    assert rows[0][1] <= math.pi + 1e-9
    cols, rows = harness.sweep("continuity2")
    assert cols == ["d", "bound"]
    with pytest.raises(KeyError):
        harness.sweep("unknown")


def test_cli_special_a2(capsys):
    assert main(["special", "a2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(math.pi, abs=1e-6)
    assert out["attained_at_boundary"] is True


def test_cli_special_constants_and_psi2(capsys):
    assert main(["special", "constants", "--n", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lambda_upper"] == pytest.approx(12.676131, abs=1e-5)
    assert main(["special", "psi2", "--t", "1.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(math.exp(math.pi), rel=1e-9)


def test_cli_modulus_with_density(tmp_path, capsys):
    dens = tmp_path / "rho.csv"
    code = main(["modulus", "--shape", "annulus:n=2,r0=1,r1=2.718281828459045",
                 "--grid", "16x64", "--emit-density", str(dens)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["m_gamma"] == pytest.approx(2 * math.pi, rel=0.02)
    # the potential of an aligned annulus is constant on the shells, where CG starts
    assert out["iterations"] == 1 and out["cg_iterations"] <= 2
    lines = dens.read_text().strip().split("\n")
    assert lines[0] == "x1_tail,x2_tail,x1_head,x2_head,rho,length"
    # every data cell must be a plain parseable float
    first = [float(v) for v in lines[1].split(",")]
    assert len(first) == 6 and first[-1] > 0
    # one row per edge of the same grid, with rho = |dphi| / length of its potential
    g = discrete.build_grid(geometry.parse_shape("annulus:n=2,r0=1,r1=2.718281828459045"), 16, 64)
    phi = discrete.modulus_connect(g).potential
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    length = np.linalg.norm(g.nodes[g.edges[:, 1]] - g.nodes[g.edges[:, 0]], axis=1)
    np.testing.assert_array_equal(table[:, -1], length)
    np.testing.assert_array_equal(table[:, -2],
                                  np.abs(phi[g.edges[:, 1]] - phi[g.edges[:, 0]]) / length)


def test_cli_modulus_image(capsys):
    code = main(["modulus", "--shape", "semiring:n=2,r=1,R=2.718281828459045",
                 "--map", "radial:a=0.8", "--grid", "16x33"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mo"] == pytest.approx(0.8, rel=0.03)


def test_cli_dilatation(capsys):
    code = main(["dilatation", "--map", "twist", "--x", "0.5,0.2", "--x0", "0,0"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["angular"] == pytest.approx(1.0, abs=1e-8)
    assert out["jac_det"] == pytest.approx(1.0, abs=1e-12)
    assert out["matrix"]["inner"] == pytest.approx((1 + math.sqrt(2)) ** 2, abs=1e-9)


def test_cli_bounds_separation_and_domfac(capsys):
    assert main(["bounds", "separation", "--mo", "10", "--n", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["left"] == pytest.approx(0.129651, abs=1e-5)
    assert main(["bounds", "domfac", "--gamma", "1", "--M", str(math.pi),
                 "--r0", "1", "--n", "2", "--m", "10"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["left"] == pytest.approx(out["right"], rel=1e-8)
    assert out["details"]["divergence"] == "divergent"


def test_cli_bounds_with_underflowing_or_overflowing_constants(capsys):
    # r0^n underflows or 2 n M overflows: finite values and exit 0
    for argv in (["domfac", "--m", "10", "--r0", "1e-300"],
                 ["domfac", "--m", "10", "--n", "4", "--r0", "1e-100"],
                 ["domfac", "--m", "10", "--M", "1e308", "--n", "4"],
                 ["continuity", "--dist", "0.5", "--d", "1e-301", "--r0", "1e-300"],
                 ["continuity", "--dist", "0.5", "--M", "1e308", "--n", "3"]):
        assert main(["bounds", *argv]) == 0
        out = json.loads(capsys.readouterr().out)
        assert math.isfinite(out["left"]) and math.isfinite(out["details"]["sigma"])
        if argv[0] == "domfac":
            assert out["left"] == pytest.approx(out["right"], rel=1e-8)


def test_cli_bounds_not_checked(capsys):
    for argv in (["modintbound", "--shape", "semiring:n=2,r=1,R=2.718281828459045"],
                 ["domfac"], ["continuity", "--dist", "0.5"], ["separation"]):
        assert main(["bounds"] + argv) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "not-checked"


def test_cli_bounds_modintbound_reports_capped(capsys):
    assert main(["bounds", "modintbound", "--map", "radial:a=0.8",
                 "--shape", "semiring:n=2,r=1,R=2.718281828459045"]) == 0
    text = capsys.readouterr().out
    assert '"capped": false' in text
    assert json.loads(text)["details"]["capped"] is False


def test_cli_bounds_print_the_library_reports(capsys):
    # the CLI builds no report of its own: it prints what bounds returns, and
    # --dist only adds the boundary estimate to the separation report
    sep = bounds.separation_bound(10.0, 2)
    sep.details["boundary_estimate"] = bounds.boundary_estimate(10.0, 0.5, 2)
    reports = [
        (["modintbound", "--map", "radial:a=0.8", "--shape", "semiring:n=2,r0=1,r1=2.5"],
         bounds.modintbound(RadialStretch(a=0.8), np.zeros(2), 1.0, 2.5)),
        (["modintbound", "--map", "twist", "--shape", "annulus:n=2,r0=1,r1=2.5"],
         bounds.modintbound(RotationTwist(), np.zeros(2), 1.0, 2.5, full_sphere=True)),
        (["separation", "--mo", "10", "--n", "2"], bounds.separation_bound(10.0, 2)),
        (["separation", "--mo", "10", "--dist", "0.5"], sep),
        (["infinity", "--map", "radial:a=0.8", "--r0", "1", "--radii", "148,22026"],
         bounds.infinity_check(RadialStretch(a=0.8), 1.0, [148.0, 22026.0], np.zeros(2))),
    ]
    for argv, rep in reports:
        assert main(["bounds", *argv]) == 0
        expected = json.dumps(rep.to_json(), sort_keys=True, indent=2) + "\n"
        assert capsys.readouterr().out == expected


def test_cli_bounds_refuse_flags_they_do_not_read(tmp_path, capsys):
    # each bounds subcommand has its own parser: a flag another one reads is
    # refused with exit code 2 instead of being ignored
    for argv in (["separation", "--mo", "10", "--map", "twist", "--shape", "annulus:n=3,r0=1,r1=2"],
                 ["infinity", "--map", "radial:a=0.8", "--shape", "semiring:n=3,r0=2,r1=5",
                  "--radii", "148,22026"],
                 ["domfac", "--m", "10", "--dist", "0.5"],
                 ["continuity", "--dist", "0.5", "--mo", "3"],
                 ["holder", "--shape", "semiring:n=2,r=0.01,R=1", "--gamma", "2"],
                 ["eq1est", "--shape", "semiring:n=2,r=1,R=2", "--radii", "148"],
                 ["modintbound", "--shape", "semiring:n=2,r=1,R=2", "--with-image"]):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", *argv])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    # and so is a config key only another subcommand reads
    cfg = tmp_path / "gamma.cfg"
    cfg.write_text("gamma = 2.0\n")
    assert main(["--config", str(cfg), "bounds", "separation", "--mo", "10"]) == 2
    assert "unknown config key 'gamma'" in capsys.readouterr().err


def test_cli_exits_quietly_on_a_closed_stdout(tmp_path):
    # the reader is gone before the command writes: no traceback and no
    # "error: [Errno 32] Broken pipe" on stderr, and the command's own exit
    # code and --json file
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(harness.__file__)))
    out = tmp_path / "sep.json"
    proc = subprocess.Popen([sys.executable, "-m", "ringmod.cli", "--json", str(out),
                             "bounds", "separation", "--mo", "10"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""
    assert json.loads(out.read_text()) == bounds.separation_bound(10.0, 2).to_json()


def test_cli_bounds_holder_needs_a_half_semiring(capsys):
    assert main(["bounds", "holder", "--shape", "annulus:n=2,r0=0.5,r1=1"]) == 2
    assert "semiring" in capsys.readouterr().err


def test_cli_bounds_modintbound_needs_a_shell(capsys):
    # an Apollonian shape is no shell about its pole; its x0, r0 and r1 would
    # give the shell bound log(r1/r0) of a different set
    assert main(["bounds", "modintbound",
                 "--shape", "apollonian:n=2,r0=0.1,r1=1,xi=1,0"]) == 2
    err = capsys.readouterr().err
    assert "annulus" in err and "semiring" in err


def test_cli_bounds_continuity_needs_dist(capsys):
    assert main(["bounds", "continuity", "--n", "2"]) == 2
    assert "--dist" in capsys.readouterr().err


def test_cli_unsupported_grid_exits_2(capsys):
    # a dimension without grids, a 3D Apollonian shape and a 3D image grid
    for argv, word in ((["modulus", "--shape", "semiring:n=4,r0=1,r1=2", "--grid", "8x8"], "n in"),
                       (["modulus", "--shape", "apollonian:n=3,r0=0.1,r1=1", "--grid", "8x8"],
                        "three-dimensional"),
                       (["bounds", "eq1est", "--shape", "semiring:n=3,r0=1,r1=2", "--with-image"],
                        "image grids")):
        assert main(argv) == 2
        assert word in capsys.readouterr().err


def test_cli_bounds_eq1est(capsys):
    code = main(["bounds", "eq1est", "--map", "radial:a=0.8",
                 "--shape", "semiring:n=2,r=1,R=2.718281828459045"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["left"] == pytest.approx(0.8, abs=1e-3)
    assert out["right"] == pytest.approx(0.8, abs=1e-3)
    assert out["verdict"] == "inconclusive"   # no image modulus supplied


def test_cli_sweep_csv_svg(tmp_path, capsys):
    csv = tmp_path / "gap.csv"
    svg = tmp_path / "gap.svg"
    assert main(["--csv", str(csv), "sweep", "teichmuller-gap", "--svg", str(svg)]) == 0
    capsys.readouterr()
    assert csv.read_text().split("\n")[0] == "t,gap"
    assert "<svg" in svg.read_text()


def test_cli_verify_filter_and_outputs(tmp_path, capsys):
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "report.csv"
    code = main(["--json", str(jpath), "--csv", str(cpath),
                 "verify", "--filter", "special"])
    assert code == 0
    payload = json.loads(jpath.read_text())
    assert payload["passed"] is True
    assert [s["scenario"] for s in payload["scenarios"]] == ["a2", "lambda2", "special-constants"]
    header = cpath.read_text().split("\n")[0]
    assert header == "scenario,check,expected,actual,tolerance,provenance,verdict"
    capsys.readouterr()


def test_cli_verify_determinism(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["--json", str(p1), "verify", "--filter", "special"]) == 0
    assert main(["--json", str(p2), "verify", "--filter", "special"]) == 0
    capsys.readouterr()
    a = strip_times(json.loads(p1.read_text()))
    b = strip_times(json.loads(p2.read_text()))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_cli_config_file_and_env(tmp_path, capsys):
    cfg = tmp_path / "ringmod.cfg"
    cfg.write_text("# comment\ntol-scale = 1.0\n")
    assert main(["--config", str(cfg), "special", "a2"]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense-key = 1\n")
    assert main(["--config", str(bad), "special", "a2"]) == 2
    assert "nonsense_key" in capsys.readouterr().err
    # values take the type of their flag
    jobs = tmp_path / "jobs.cfg"
    jobs.write_text("jobs = 2\n")
    assert main(["--config", str(jobs), "verify", "--filter", "special"]) == 0
    capsys.readouterr()
    # subcommand flags are read from the file, and the command line wins
    domfac = ["bounds", "domfac", "--m", "10"]
    gamma = tmp_path / "gamma.cfg"
    gamma.write_text("gamma = 2.0\n")
    runs = []
    for argv in (["--config", str(gamma)] + domfac, domfac + ["--gamma", "2.0"],
                 ["--config", str(gamma)] + domfac + ["--gamma", "1.0"],
                 domfac + ["--gamma", "1.0"]):
        assert main(argv) == 0
        runs.append(json.loads(capsys.readouterr().out))
    assert runs[0] == runs[1] and runs[2] == runs[3]
    assert runs[0] != runs[2]
    switch = tmp_path / "switch.cfg"
    switch.write_text("with-image = maybe\n")
    assert main(["--config", str(switch), "bounds", "eq1est"]) == 2
    assert "with_image" in capsys.readouterr().err


def test_cli_verify_failure_exit_code(capsys, monkeypatch):
    def failing(cfg):
        return [harness.CheckResult("always-fails", 0.0, 1.0, 1e-9, "trivial", False)]
    monkeypatch.setitem(
        harness.SCENARIOS, "zz-fail",
        harness.Scenario(id="zz-fail", tags=("failtag",), description="", runner=failing))
    assert main(["verify", "--filter", "failtag"]) == 1
    capsys.readouterr()


def test_unknown_verify_tag_is_refused(capsys):
    with pytest.raises(KeyError, match="nosuchtag"):
        harness.run_all(tag="nosuchtag")
    assert main(["verify", "--filter", "nosuchtag"]) == 2
    assert "solver" in capsys.readouterr().err


def test_cli_prints_key_error_without_quotes(capsys):
    # str() of a KeyError quotes its message; the CLI prints the message itself
    assert main(["verify", "--filter", "nosuchtag"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown tag 'nosuchtag'; known: [")
    assert not err.startswith("error: \"")


def test_run_all_parallel_jobs():
    cfg = harness.HarnessConfig(jobs=2)
    agg = harness.run_all(tag="special", config=cfg)
    assert agg["passed"]
    assert [s["scenario"] for s in agg["scenarios"]] == ["a2", "lambda2", "special-constants"]


def test_run_all_pool_is_capped_at_the_scenario_count(monkeypatch):
    # a stand-in pool that records its size and runs serially: a real pool
    # may fork all its workers at the first submit
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    agg = harness.run_all(tag="special", config=harness.HarnessConfig(jobs=100000))
    assert sizes == [3]
    assert agg["passed"]
    assert [s["scenario"] for s in agg["scenarios"]] == ["a2", "lambda2", "special-constants"]


def test_cli_bounds_eq1est_with_image(capsys):
    code = main(["bounds", "eq1est", "--map", "radial:a=0.8",
                 "--shape", "semiring:n=2,r=1,R=2.718281828459045",
                 "--with-image", "--image-grid", "16x33"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "holds"
    assert out["details"]["ratio"] == pytest.approx(0.8, rel=0.03)


def test_cli_error_exit_codes(capsys):
    assert main(["modulus", "--shape", "blob:n=2", "--grid", "16x16"]) == 2
    capsys.readouterr()
    # a key the shape kind does not take: a semiring's centre is x0, not c
    assert main(["modulus", "--shape", "semiring:n=2,r0=1,r1=2,c=5,0", "--grid", "8x16"]) == 2
    capsys.readouterr()
    assert main(["--tol-scale", "0.5", "special", "a2"]) == 2
    capsys.readouterr()
    for bad in ("nan", "inf"):
        assert main(["--tol-scale", bad, "verify", "--filter", "special"]) == 2
        capsys.readouterr()
    # NaN bound inputs exit 2 instead of printing NaN JSON
    for argv in (["domfac", "--m", "10", "--M", "nan"], ["domfac", "--m", "nan"],
                 ["continuity", "--gamma", "nan", "--dist", "0.5"], ["separation", "--mo", "nan"]):
        assert main(["bounds", *argv]) == 2
        assert "must be finite" in capsys.readouterr().err
    # non-finite map parameters, and a determinant that overflows, are refused
    # when the map is built, before numpy warns about them
    for spec, message in (("linear:nan,0,0,1", "matrix must be finite"),
                          ("radial:a=inf", "exponent a must be positive and finite"),
                          ("linear:1e200,0,0,1e200", "has a non-finite determinant")):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["dilatation", "--map", spec, "--x", "0.5,0.2", "--x0", "0,0"]) == 2
        assert message in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2
