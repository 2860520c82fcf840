import argparse
import json

import pytest

from norming_lab import PointSet, SpaceDescriptor, chebyshev, norming_constant
from norming_lab.cli import build_parser, main


@pytest.fixture
def space_file(tmp_path):
    p = tmp_path / "space.json"
    p.write_text(json.dumps({"kind": "polynomial", "vars": 1, "degree": 2}))
    return str(p)


@pytest.fixture
def points_csv(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("# nodes\n-1\n0\n1\n")
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_norming_subcommand(capsys, space_file, points_csv):
    code, out = run(capsys, ["norming", "--space", space_file,
                             "--points", points_csv, "--grid", "0.001"])
    assert code == 0
    report = json.loads(out)
    assert report["version"]
    assert report["config"]["grid_spacing"] == 0.001
    assert report["result"]["value"] == pytest.approx(1.25, abs=1e-5)


def test_not_norming_exit_code(capsys, space_file, tmp_path):
    p = tmp_path / "two.csv"
    p.write_text("-1\n1\n")
    code, out = run(capsys, ["norming", "--space", space_file,
                             "--points", str(p), "--grid", "0.01"])
    assert code == 2
    assert json.loads(out)["result"]["norming"] is False


def test_points_from_json(capsys, space_file, tmp_path):
    p = tmp_path / "pts.json"
    p.write_text(json.dumps({"points": [[-1.0], [0.0], [1.0]]}))
    code, out = run(capsys, ["lebesgue", "--space", space_file,
                             "--points", str(p), "--grid", "0.001"])
    assert code == 0
    assert json.loads(out)["result"]["lebesgue_constant"] == pytest.approx(1.25, abs=1e-5)


def test_span_subcommand(capsys, points_csv):
    code, out = run(capsys, ["span", "--points", points_csv, "--degree", "2"])
    assert code == 0
    assert json.loads(out)["result"]["span"] == pytest.approx(1.0)


def test_bound_subcommand(capsys):
    code, out = run(capsys, ["bound", "--name", "remez", "--d", "3", "--mu", "1.0"])
    assert code == 0
    assert json.loads(out)["result"]["value"] == pytest.approx(99.0)


def test_fekete_subcommand(capsys, tmp_path):
    sp = tmp_path / "s.json"
    sp.write_text(json.dumps({"kind": "polynomial", "vars": 1, "degree": 1}))
    pts = tmp_path / "p.csv"
    pts.write_text("-1\n0\n1\n")
    code, out = run(capsys, ["fekete", "--space", str(sp), "--points", str(pts)])
    assert code == 0
    res = json.loads(out)["result"]
    assert res["indices"] == [0, 2]
    assert res["abs_det"] == pytest.approx(2.0)


def test_audit_subcommand(capsys, space_file, points_csv):
    code, out = run(capsys, ["audit", "--space", space_file, "--points",
                             points_csv, "--bounds", "cor22", "--budget", "20001"])
    assert code == 0
    assert json.loads(out)["result"]["violations"] == 1


def test_lipschitz_subcommand(capsys, tmp_path):
    sp = tmp_path / "s.json"
    sp.write_text(json.dumps({"kind": "polynomial", "vars": 1, "degree": 1}))
    z1 = tmp_path / "z1.csv"
    z1.write_text("-1\n1\n")
    z2 = tmp_path / "z2.csv"
    z2.write_text("-0.9\n0.9\n")
    code, out = run(capsys, ["lipschitz", "--space", str(sp), "--z1", str(z1),
                             "--z2", str(z2), "--budget", "20001"])
    assert code == 0
    res = json.loads(out)["result"]
    assert res["satisfied"] is True
    assert res["lhs"] == pytest.approx(0.1, abs=1e-9)


def test_lipschitz_reads_the_files_box(capsys, tmp_path):
    sp = tmp_path / "s.json"
    sp.write_text(json.dumps({"kind": "polynomial", "vars": 1, "degree": 1}))
    paths = []
    for name, pts, box in [("a", [[0.0], [0.1]], [[0.0], [0.1]]),
                           ("b", [[0.0], [0.05]], [[0.0], [0.1]]),
                           ("c", [[0.0], [0.05]], [[0.0], [0.2]])]:
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"points": pts, "box": box}))
    code, out = run(capsys, ["lipschitz", "--space", str(sp), "--z1", str(paths[0]),
                             "--z2", str(paths[1])])
    res = json.loads(out)["result"]
    assert code == 0 and res["status"] == "satisfied" and res["markov"] == 20.0
    assert main(["lipschitz", "--space", str(sp), "--z1", str(paths[0]),
                 "--z2", str(paths[2])]) == 1
    assert "one domain" in capsys.readouterr().err


# Sets on boxes with a flat axis, and the sets of their live variables on
# the live axes: (space, points file, live space, live points file). V on the
# box is V', so each report is that of the live set, and each exited 2
# (rank-deficient) or 1 (the sampled Markov estimate of the whole span).
FLAT_SETS = {
    "P1-line": ({"kind": "polynomial", "vars": 2, "degree": 1},
                {"points": [[0, 0.5], [1, 0.5]], "box": [[0, 0.5], [1, 0.5]]},
                {"kind": "polynomial", "vars": 1, "degree": 1},
                {"points": [[0], [1]], "box": [[0], [1]]}),
    "P1-point": ({"kind": "polynomial", "vars": 1, "degree": 1},
                 {"points": [[0.2]], "box": [[0.2], [0.2]]}, None, None),
    "T1-line": ({"kind": "trigonometric", "vars": 2, "degree": 1},
                {"points": [[-0.9, 0.5], [-0.2, 0.5], [0.4, 0.5], [0.8, 0.5]],
                 "box": [[-1, 0.5], [1, 0.5]]},
                {"kind": "trigonometric", "vars": 1, "degree": 1},
                {"points": [[-0.9], [-0.2], [0.4], [0.8]]}),
    "fewnomial-line": ({"kind": "fewnomial", "exponents": [[0.0, 0.0], [0.5, 1.0], [0.5, -0.5]]},
                       {"points": [[0.3, 0.7], [0.9, 0.7], [1.8, 0.7]],
                        "box": [[0.3, 0.7], [1.8, 0.7]]},
                       {"kind": "fewnomial", "exponents": [[0.0], [0.5]]},
                       {"points": [[0.3], [0.9], [1.8]], "box": [[0.3], [1.8]]}),
}


def _norming_file(capsys, tmp_path, name, space, points):
    sp, pts = tmp_path / f"{name}-space.json", tmp_path / f"{name}-points.json"
    sp.write_text(json.dumps(space))
    pts.write_text(json.dumps(points))
    return run(capsys, ["norming", "--space", str(sp), "--points", str(pts)])


@pytest.mark.parametrize("name", sorted(FLAT_SETS))
def test_sets_on_flat_boxes_are_measured_in_their_live_variables(capsys, tmp_path, name):
    space, points, live_space, live_points = FLAT_SETS[name]
    code, out = _norming_file(capsys, tmp_path, name, space, points)
    res = json.loads(out)["result"]
    assert code == 0 and res["norming"] is True and res["certified"] == (name != "fewnomial-line")
    if live_space is None:  # a point: V' holds the constants
        assert (res["value"], res["lower"], res["upper"], res["grid_spacing"]) == (1, 1, 1, 0)
        assert res["witness_coefficients"] == [1.0, 0.0] and res["witness_point"] == [0.2]
        return
    code, out = _norming_file(capsys, tmp_path, name + "-live", live_space, live_points)
    ref = json.loads(out)["result"]
    assert code == 0
    for key in ("value", "lower", "upper", "grid_spacing", "certified", "method"):
        assert res[key] == ref[key]
    assert res["witness_point"][1:] == points["points"][0][1:]  # the flat coordinate
    assert res["witness_point"][0] == pytest.approx(ref["witness_point"][0], abs=1e-15)
    assert {"P1-line": 1.0, "T1-line": 1.7574634308064023}.get(name, res["value"]) == res["value"]


@pytest.fixture
def fewnomial_files(tmp_path):
    """span{1, x^0.5, x^1.5} and the points 0.3, 0.9, 1.7 with the box [0.2, 2]."""
    sp = tmp_path / "few.json"
    sp.write_text(json.dumps({"kind": "fewnomial", "exponents": [[0.0], [0.5], [1.5]]}))
    pts = tmp_path / "few-pts.json"
    pts.write_text(json.dumps({"points": [[0.3], [0.9], [1.7]], "box": [[0.2], [2.0]]}))
    return str(sp), str(pts)


def test_fewnomial_points_file_carries_its_box(capsys, fewnomial_files):
    space_path, points_path = fewnomial_files
    code, out = run(capsys, ["norming", "--space", space_path, "--points", points_path,
                             "--budget", "20001"])
    assert code == 0
    result = json.loads(out)["result"]
    rep = norming_constant(SpaceDescriptor.fewnomial_span([[0.0], [0.5], [1.5]]),
                           PointSet([[0.3], [0.9], [1.7]], box=([0.2], [2.0])),
                           budget=20001)
    assert (result["lower"], result["upper"]) == (rep.lower, rep.upper)
    code, out = run(capsys, ["audit", "--space", space_path, "--points", points_path,
                             "--bounds", "cramer", "--budget", "20001"])
    assert code == 0
    assert json.loads(out)["result"]["exact"] == rep.value
    # the Lipschitz audit refuses the span's Markov constant, not certified
    assert main(["lipschitz", "--space", space_path, "--z1", points_path,
                 "--z2", points_path]) == 1
    assert "not certified" in capsys.readouterr().err


@pytest.mark.parametrize("box", [[0.2, 2.0], [[0.2], [2.0], [3.0]], [[0.2, 0.3], [2.0, 2.1]],
                                 [[2.0], [0.2]], [[0.2], ["x"]], [[0.2], [None]],
                                 [[0.2], [float("inf")]], {"lo": 0.2}, "box", [[0.2], [2.0, 3.0]]])
def test_malformed_box_is_an_error(capsys, fewnomial_files, box):
    space_path, points_path = fewnomial_files
    with open(points_path, "w") as fh:
        json.dump({"points": [[0.3], [0.9], [1.7]], "box": box}, fh)
    assert main(["norming", "--space", space_path, "--points", points_path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {points_path}: box must be [lo, hi]")


@pytest.mark.parametrize("space", [[1], "polynomial", {"kind": "fewnomial", "exponents": 5},
                                   {"kind": "polynomial", "vars": 1, "degree": 2, "modulus": 5},
                                   {"kind": "polynomial", "vars": 1, "degree": 2, "modulus": [1]},
                                   {"kind": "polynomial", "vars": [1], "degree": 2},
                                   {"kind": "polynomial", "vars": 1, "degree": 2,
                                    "modulus": "power:x"},
                                   {"kind": "polynomial", "vars": 1, "degree": 2,
                                    "modulus": "bogus"},
                                   {"kind": "spline", "vars": 1, "degree": 2},
                                   {"kind": "fewnomial", "exponents": [["a"]]}])
def test_malformed_space_is_an_error(capsys, points_csv, tmp_path, space):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space))
    assert main(["norming", "--space", str(path), "--points", points_csv]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: ")


@pytest.mark.parametrize("name, text", [
    ("pts.json", '"points"'), ("pts.json", "[[0.0], [1.0]]"),
    ("pts.json", '{"points": [["a"]]}'), ("pts.json", '{"points": [[0.0], [1.0, 2.0]]}'),
    ("pts.json", '{"points": [null]}'), ("pts.json", '{"points": {"x": 1}}'),
    ("pts.csv", "-1\n0,1\n1\n"), ("pts.csv", "-1\nnan\n1\n"), ("pts.csv", "0\n0\n1\n"),
    ("pts.json", '{"points": [[0.0], [0.5]], "box": [[0.0], [0.4]]}')])
def test_malformed_points_file_is_an_error(capsys, space_file, tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert main(["norming", "--space", space_file, "--points", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: ")


def test_estimate_c_subcommand(capsys):
    code, out = run(capsys, ["estimate-c", "--trials", "5", "--seed", "1"])
    assert code == 0
    assert json.loads(out)["result"]["value"] >= 0.0


def test_tn_requires_c(capsys):
    code = main(["tn", "--m", "2", "--max-re-rate", "1.0",
                 "--len-i", "1.0", "--meas-z", "0.5"])
    assert code == 1


def test_missing_file_is_error(capsys, points_csv):
    code = main(["norming", "--space", "/nonexistent.json", "--points", points_csv])
    assert code == 1


def test_out_flag_writes_file(capsys, space_file, points_csv, tmp_path):
    dest = tmp_path / "report.json"
    code, out = run(capsys, ["norming", "--space", space_file, "--points",
                             points_csv, "--grid", "0.01", "--out", str(dest)])
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["result"]["norming"] is True


def test_missing_required_flag_is_usage_error(capsys, space_file):
    assert main(["norming", "--space", space_file]) == 1
    assert "--points" in capsys.readouterr().err


def test_undeclared_flag_is_usage_error(capsys, space_file, points_csv):
    # --rank-tol is read only by norming; audit runs at the default threshold
    code = main(["audit", "--space", space_file, "--points", points_csv,
                 "--bounds", "cor22", "--rank-tol", "1e-6"])
    assert code == 1
    assert "--rank-tol" in capsys.readouterr().err


def test_flag_prefix_is_not_abbreviation(capsys, points_csv):
    # "--c" is a flag of tn and fewnomial only, not short for --cover-cap
    assert main(["span", "--points", points_csv, "--degree", "2", "--c", "3"]) == 1


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip()


def test_parser_is_built_once(capsys, space_file, points_csv, tmp_path, monkeypatch):
    parsers, real = [], argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    two = tmp_path / "two.csv"
    two.write_text("-1\n1\n")
    norming = ["norming", "--space", space_file, "--grid", "0.01", "--points"]
    # a usage error leaves the shared parser fit for the calls that follow
    assert main(norming[:-1]) == 1
    assert main(norming + [points_csv]) == 0
    assert main(norming + [str(two)]) == 2
    assert main(norming + [points_csv, "--bogus"]) == 1
    assert len(parsers) == 4
    assert all(p is parsers[0] for p in parsers)


# Every option string of each subcommand: its own arguments, then the shared
# settings it reads, then --out.
OPTIONS = {
    "norming": "--space --points --grid --budget --rank-tol --out",
    "lebesgue": "--space --points --grid --budget --out",
    "audit": "--space --points --bounds --mu --lam --delta --grid --budget --text --out",
    "lipschitz": ("--space --z1 --z2 --experiment --magnitudes --trials"
                  " --grid --budget --seed --out"),
    "span": "--points --degree --cover-cap --heuristic-cover --out",
    "tn": "--m --max-re-rate --len-i --meas-z --c --out",
    "fewnomial": ("--form --exponents --a --b --a-scalar --b-scalar --meas-z --span"
                  " --c --out"),
    "estimate-c": "--trials --m-max --rate-box --seed --out",
    "fekete": "--space --points --mode --out",
    "bound": "--name --d --n --x --mu --lam --omega --delta --cc --exponents --out",
}


def _subparsers():
    ap = build_parser()
    return next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_every_subcommand_is_listed():
    assert set(_subparsers()) == set(OPTIONS)


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_subcommand_declares_only_the_options_it_reads(command):
    p = _subparsers()[command]
    declared = {s for a in p._actions for s in a.option_strings}
    assert declared == set(OPTIONS[command].split()) | {"-h", "--help"}


EXPS = ["--exponents", "1,0;0,3.5"]
BOX = ["--a", "1,1", "--b", "2,2"]
DISCRETE = ["--form", "discrete", "--exponents", "0;3;7"]


# Each bound name and each fewnomial form checks the flags it reads: a missing
# one, or a discrete exponent that is not one integer, is a usage error (exit 1)
# named on one "error:" line, not a traceback
MISSING = [
    (["bound", "--name", "remez", "--d", "3"], "--mu"),
    (["bound", "--name", "bg"], "--lam"),
    (["bound", "--name", "bg-envelope"], "--lam"),
    (["bound", "--name", "analytic", "--cc", "2"], "--lam"),
    (["bound", "--name", "analytic", "--lam", "0.5"], "--cc"),
    (["bound", "--name", "rd-span"], "--omega"),
    (["bound", "--name", "nested"], "--delta"),
    (["bound", "--name", "curve"], "--exponents"),
    (["fewnomial", *EXPS, "--meas-z", "0.5", "--c", "1"], "--a"),
    (["fewnomial", *EXPS, "--a", "1,1", "--meas-z", "0.5", "--c", "1"], "--b"),
    (["fewnomial", "--form", "rectangle", *EXPS, "--meas-z", "0.5", "--c", "1"], "--a"),
    (["fewnomial", *EXPS, *BOX, "--c", "1"], "--meas-z"),
    (["fewnomial", "--form", "rectangle", *EXPS, *BOX, "--c", "1"], "--meas-z"),
    (["fewnomial", *DISCRETE, "--span", "0.5", "--c", "1"], "--a-scalar"),
    (["fewnomial", *DISCRETE, "--a-scalar", "0.5", "--span", "0.5", "--c", "1"], "--b-scalar"),
    (["fewnomial", *DISCRETE, "--a-scalar", "0.5", "--b-scalar", "2", "--c", "1"], "--span"),
]


DISCRETE_FLAGS = ["--a-scalar", "0.5", "--b-scalar", "2", "--span", "0.5", "--c", "1"]
BAD_EXPONENTS = [  # each ran as the exponents 0, 3, 7
    (["fewnomial", "--form", "discrete", "--exponents", "0;3.5;7", *DISCRETE_FLAGS],
     "needs one integer per --exponents group"),
    (["fewnomial", "--form", "discrete", "--exponents", "0,1;3,2;7,5", *DISCRETE_FLAGS],
     "needs one integer per --exponents group"),
]


def _missing_id(argv, flag):
    form = argv[argv.index("--form") + 1] if "--form" in argv else "theorem"
    return f"{argv[2] if argv[0] == 'bound' else form}-without-{flag[2:]}"


@pytest.mark.parametrize(
    "argv, message", [(argv, f"needs {flag}") for argv, flag in MISSING] + BAD_EXPONENTS,
    ids=[_missing_id(*case) for case in MISSING] + ["discrete-fractional-exponent",
                                                    "discrete-two-coordinate-exponent"])
def test_a_missing_flag_of_a_bound_or_form_is_a_usage_error(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1
    assert err[0].startswith("error: ") and err[0].endswith(message)


@pytest.mark.parametrize("argv, value", [
    (["tn", "--m", "2", "--max-re-rate", "1", "--len-i", "2", "--meas-z", "0.5", "--c", "1"],
     118.2248975828904),  # e^2 * (2 / 0.5)^2
    (["fewnomial", *EXPS, *BOX, "--meas-z", "0.5", "--c", "1"],
     181.01933598375615),  # 2^3.5 * (2 * K_2 = 4 * 1 / 0.5)
    (["fewnomial", "--form", "rectangle", *EXPS, *BOX, "--meas-z", "0.5", "--c", "1"],
     86.97128555086718),  # 2^3.5 * 2 * (2 ln 2)^2 / 0.5
    (["fewnomial", *DISCRETE, "--a-scalar", "0.5", "--b-scalar", "2", "--span", "0.5",
      "--c", "1"], 503791.49952229194),  # 4^7 * (2 ln 4 / 0.5)^2
    (["bound", "--name", "chebyshev", "--d", "3", "--x", "2"], 26.0),  # T_3(2)
    (["bound", "--name", "e", "--x", "2"], 2.0 + 3.0**0.5),
], ids=["tn", "theorem", "rectangle", "discrete", "chebyshev", "e"])
def test_closed_form_subcommands_report_their_values(capsys, argv, value):
    code, out = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["result"]["value"] == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("name, flag, value", [("remez", "--mu", "1.0"), ("bg", "--lam", "0.5"),
                                              ("nested", "--delta", "0.5")])
def test_audit_refuses_a_bound_without_its_parameter(capsys, space_file, points_csv, name,
                                                     flag, value):
    argv = ["audit", "--space", space_file, "--points", points_csv, "--bounds", name,
            "--budget", "2001"]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: the {name} bound needs ")
    assert err[0].endswith(flag[2:])
    code, out = run(capsys, argv + [flag, value])
    assert code == 0 and json.loads(out)["result"]["findings"][0]["name"] == name


@pytest.mark.parametrize("space, points, d", [
    ({"kind": "polynomial", "vars": 1, "degree": 5}, "-1\n-0.6\n-0.2\n0.2\n0.6\n1\n", 5),
    # on y = 0.5, 2-D P3 is V' = 1-D P3: the bound reads V''s n = 1 and d = 3
    ({"kind": "polynomial", "vars": 2, "degree": 3},
     {"points": [[x, 0.5] for x in (-1.0, -0.3, 0.4, 1.0)], "box": [[-1, 0.5], [1, 0.5]]}, 3),
], ids=["P5", "P3-line"])
def test_audit_nested_reads_half_the_degree_of_v_prime(capsys, tmp_path, space, points, d):
    sp = tmp_path / "s.json"
    sp.write_text(json.dumps(space))
    pts = tmp_path / ("p.csv" if isinstance(points, str) else "p.json")
    pts.write_text(points if isinstance(points, str) else json.dumps(points))
    code, out = run(capsys, ["audit", "--space", str(sp), "--points", str(pts),
                             "--bounds", "nested", "--delta", "0.5", "--budget", "2001"])
    assert code == 0
    bound = json.loads(out)["result"]["findings"][0]["bound"]
    assert bound["inputs"] == {"d": d // 2, "delta": 0.5}
    assert bound["value"] == pytest.approx(chebyshev(2 * (d // 2), 3.0), rel=1e-15)


def test_lipschitz_experiment_runs_through_main(capsys, tmp_path):
    sp = tmp_path / "s.json"
    sp.write_text(json.dumps({"kind": "polynomial", "vars": 1, "degree": 1}))
    z = tmp_path / "z.csv"
    z.write_text("-1\n1\n")
    argv = ["lipschitz", "--space", str(sp), "--z1", str(z), "--experiment",
            "--magnitudes", "0.05,0.2", "--trials", "3", "--seed", "4", "--budget", "2001"]
    code, out = run(capsys, argv)
    assert code == 0
    rows = json.loads(out)["result"]["experiment"]
    assert [(r["magnitude"], r["trials"]) for r in rows] == [(0.05, 3), (0.2, 3)]
    assert all(r["within_markov"] and r["non_norming"] == 0 for r in rows)
    assert run(capsys, argv) == (code, out)  # seeded


def test_not_norming_error_exits_2(capsys, space_file, tmp_path):
    # P2 on {-1, 0, 1e-11}: the rank test fails, so the set has no Lebesgue constant
    pts = tmp_path / "near.csv"
    pts.write_text("-1\n0\n1e-11\n")
    assert main(["lebesgue", "--space", space_file, "--points", str(pts)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("not norming: ")


CONFIG_KEYS = {"grid_spacing", "rank_threshold", "lp_budget", "cover_cap", "c", "seed", "out",
               "as_json", "heuristic_cover"}
BOUND_KEYS = {"name", "value", "inputs", "applicable", "reason"}
REPORT_KEYS = {
    "norming": {"norming", "value", "reciprocal", "lower", "upper", "grid_spacing",
                "witness_coefficients", "witness_point", "method", "certified"},
    "bound": BOUND_KEYS,
    "audit": {"exact", "findings", "violations"},
    "lipschitz": {"d_h", "d_omega_h", "inv_n1", "inv_n2", "lhs", "rhs", "satisfied", "status",
                  "markov", "markov_certified"},
    "span": {"breakpoints", "cover_counts", "span", "argmax_eps", "attained", "degree", "dim",
             "certified"},
    "estimate-c": {"value", "trials", "m_max", "rate_box", "seed", "argmax_trial"},
}


def test_every_report_writes_exactly_its_schema_keys(capsys, space_file, points_csv, tmp_path):
    # a report is its dataclass fields: a new field reaches the schema only here
    z2 = tmp_path / "z2.csv"
    z2.write_text("-0.9\n0\n1\n")
    argv = {
        "norming": ["norming", "--space", space_file, "--points", points_csv, "--budget", "2001"],
        "bound": ["bound", "--name", "remez", "--d", "3", "--mu", "1.0"],
        "audit": ["audit", "--space", space_file, "--points", points_csv, "--bounds", "cor22",
                  "--budget", "2001"],
        "lipschitz": ["lipschitz", "--space", space_file, "--z1", points_csv, "--z2", str(z2),
                      "--budget", "2001"],
        "span": ["span", "--points", points_csv, "--degree", "2"],
        "estimate-c": ["estimate-c", "--trials", "3"],
    }
    for name, args in argv.items():
        code, out = run(capsys, args)
        report = json.loads(out)
        assert code == 0 and set(report) == {"version", "config", "result"}
        assert set(report["config"]) == CONFIG_KEYS
        assert set(report["result"]) == REPORT_KEYS[name], name
    finding = json.loads(run(capsys, argv["audit"])[1])["result"]["findings"][0]
    assert set(finding) == {"name", "bound", "exact", "ratio", "violation", "repro"}
    assert set(finding["bound"]) == BOUND_KEYS
    code, out = run(capsys, ["lipschitz", "--space", space_file, "--z1", points_csv,
                             "--experiment", "--trials", "2", "--budget", "2001"])
    assert code == 0
    (row,) = json.loads(out)["result"]["experiment"]
    assert set(row) == {"magnitude", "trials", "skipped", "max_ratio", "within_markov",
                        "non_norming"}


@pytest.mark.parametrize("case, message", [
    ("budget-0", "config value lp_budget must be positive"),
    ("grid-0", "config value grid_spacing must be positive"),
    ("space-json", "malformed JSON"), ("points-json", "malformed JSON"),
    ("space-key", "missing key 'degree'"), ("csv-field", ":2: non-numeric field"),
    ("lipschitz-z2", "--z2 is required"), ("bound-name", "unknown bound 'bogus'")])
def test_bad_input_exits_1_with_one_error_line(capsys, space_file, points_csv, tmp_path,
                                               case, message):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": ')
    no_degree = tmp_path / "no-degree.json"
    no_degree.write_text('{"kind": "polynomial", "vars": 1}')
    word = tmp_path / "word.csv"
    word.write_text("-1\nzero\n1\n")
    norming = ["norming", "--space", space_file, "--points", points_csv]
    argv = {
        "budget-0": norming + ["--budget", "0"],
        "grid-0": norming + ["--grid", "0"],
        "space-json": ["norming", "--space", str(bad), "--points", points_csv],
        "points-json": ["norming", "--space", space_file, "--points", str(bad)],
        "space-key": ["norming", "--space", str(no_degree), "--points", points_csv],
        "csv-field": ["norming", "--space", space_file, "--points", str(word)],
        "lipschitz-z2": ["lipschitz", "--space", space_file, "--z1", points_csv],
        "bound-name": ["bound", "--name", "bogus"],
    }[case]
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1
    assert err[0].startswith("error: ") and message in err[0]
