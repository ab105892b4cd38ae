import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hermvar
from hermvar.cli import main
from hermvar.field import make_field
from hermvar.hermitian import classify_section, contains, section_count, standard_form
from hermvar.projgeom import enumerate_points, membership, random_subspace


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def strip_timestamp(text):
    doc = json.loads(text)
    doc.pop("timestamp", None)
    return doc


def test_count_match(capsys):
    code, out = run_cli(capsys, "count", "--q", "2", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["formula"] == doc["enumerated"] == 165


def test_count_with_rank(capsys):
    code, out = run_cli(capsys, "count", "--q", "2", "--n", "2", "--rank", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["formula"] == 13  # point-vertex cone over the conic-like base


def test_count_not_prime_power(capsys):
    code, out = run_cli(capsys, "count", "--q", "6", "--n", "4")
    assert code == 2
    assert json.loads(out)["error"] == "NotPrimePower"


def test_count_over_budget_skips_enum(capsys):
    code, out = run_cli(capsys, "count", "--q", "2", "--n", "4", "--budget", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["enumerated"] is None and doc["formula"] == 165


def test_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus", "--q", "2", "--n", "4"])
    assert exc.value.code == 2


def test_unknown_mode_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--q", "2", "--n", "4", "--mode", "bogus"])
    assert exc.value.code == 2


def test_verify_sequences(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "sequences", "--q", "2", "--n", "12")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert all(a["passed"] for a in doc["assertions"])
    # q=2 section/quadric gap is informational only and must not gate exit
    assert any("section_quadric_gap" in i["name"] for i in doc["informational"])


def test_verify_sections(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "sections", "--q", "2", "--n", "4")
    assert code == 0
    # the same assertions from a scalar count: the variety points of P^4
    # that lie in each of the suite's 100 subspaces (seed 0)
    ctx = make_field(2)
    f = standard_form(4, ctx)
    zeros = [P for P in enumerate_points(4, ctx) if contains(f, P)]
    rng = np.random.default_rng(0)
    failures, types_seen = [], set()
    for _ in range(100):
        sub = random_subspace(4, 2, ctx, rng)
        st = classify_section(f, sub)
        types_seen.add((st.v, st.s))
        want = section_count(st, 2)
        got = sum(membership(P, sub, ctx) for P in zeros)
        if got != want:
            failures.append({"subspace": [list(r) for r in sub.basis], "want": want, "got": got})
    assertions = [
        {
            "name": "section_formula_equals_enumeration[100 subspaces]",
            "passed": not failures,
            "detail": failures[:3],
        },
        {
            "name": "only_three_section_shapes",
            "passed": types_seen <= {(-1, 2), (0, 1), (1, 0)},
            "detail": [list(t) for t in sorted(types_seen)],
        },
    ]
    assert json.loads(out)["assertions"] == assertions


def test_verify_incidence(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "incidence", "--q", "2", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    byname = {a["name"]: a for a in doc["assertions"]}
    assert byname["tangent_count_value"]["detail"]["got"] == 13


def test_verify_incidence_emits_stages(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "incidence", "--q", "2", "--n", "4")
    assert code == 0
    stages = json.loads(out)["timestamp"]["stages"]  # volatile, as in search
    assert stages["hyperplanes"] == 341 and stages["points"] == 165
    assert {"mask_s", "incidence_s", "tangency_s", "count_s"} <= set(stages)


def test_verify_without_stages_emits_none(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "sequences", "--q", "2", "--n", "6")
    assert code == 0
    assert "stages" not in json.loads(out)["timestamp"]


@pytest.mark.parametrize(
    "argv,error",
    [
        (("verify", "--suite", "sections", "--n", "0"), "OutOfRange"),
        (("verify", "--suite", "sections", "--n", "-1"), "OutOfRange"),
        (("verify", "--suite", "extremal", "--n", "-2"), "OutOfRange"),
        (("verify", "--suite", "affine", "--n", "0"), "PreconditionViolated"),
        (("search", "--mode", "random", "--trials", "-1", "--n", "4"), "OutOfRange"),
    ],
)
def test_usage_errors_exit_2_with_error_json(capsys, argv, error):
    # each used to escape as a traceback (exit 1, empty stdout), or, for
    # the negative trial count, to pass with "trials": -1
    code, out = run_cli(capsys, *argv, "--q", "2")
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == error and doc["command"] == argv[0]


def test_verify_incidence_refuses_small_n(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "incidence", "--q", "2", "--n", "1")
    assert code == 2
    assert json.loads(out)["error"] == "OutOfRange"


def test_verify_extremal_pass_and_fail(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "extremal", "--q", "2", "--n", "5")
    assert code == 0
    doc = json.loads(out)
    byname = {a["name"]: a for a in doc["assertions"]}
    assert byname["extremal_count_equals_formula"]["detail"]["built"] == 453
    # the even q=2 case has no qualifying configuration: honest failure, exit 1
    code, out = run_cli(capsys, "verify", "--suite", "extremal", "--q", "2", "--n", "4")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False


def test_verify_affine(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "affine", "--q", "3", "--n", "4")
    assert code == 0


@pytest.mark.parametrize("q,n", [(2, 4), (3, 2)])
def test_verify_affine_outside_its_range_exits_2(capsys, q, n):
    # d = 3 > q at q = 2, and n < 3: a named usage error, not a traceback
    code, out = run_cli(capsys, "verify", "--suite", "affine", "--q", str(q), "--n", str(n))
    assert code == 2
    assert json.loads(out)["error"] == "PreconditionViolated"


def test_search_random_deterministic(tmp_path, capsys):
    args = [
        "search", "--q", "2", "--n", "4", "--mode", "random",
        "--trials", "20", "--seed", "5",
    ]
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert strip_timestamp(out1) == strip_timestamp(out2)
    # byte-identical modulo the timestamp field
    d1, d2 = json.loads(out1), json.loads(out2)
    stages = d1["timestamp"]["stages"]  # volatile: stage times and work counts
    assert set(stages) == {
        "screen_s", "walk_s", "eval_s", "prefixes", "points", "trials_batched", "chunks",
    }
    assert stages["prefixes"] == 85  # |P^3| at q = 2, the prefixes of U_4
    assert stages["points"] == 165  # |U_4| at q = 2
    assert stages["trials_batched"] == d1["report"]["retained"] == 20
    assert stages["chunks"] >= 1
    d1.pop("timestamp"), d2.pop("timestamp")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_search_triples_emits_stages(capsys, monkeypatch):
    # the triple search's stage times and work counts go under the volatile
    # timestamp block, and the report is serialized without them
    from hermvar import cli
    from hermvar.search import SearchReport

    rep = SearchReport(
        n=4, q=2, seed=0, total_triples=1, global_max=5, max_formula_value=117,
        reaches_formula_max=False, histogram={5: 1}, argmax_total=1,
        argmax_arrangements=[], argmax_structure={}, samples_verified=0,
        method_mix={}, wall_time_s=1.0, stages={"catalog_s": 0.12345, "pencils": 5797},
    )
    monkeypatch.setattr(cli, "exhaustive_triples", lambda n, q, budget, seed: rep)
    code, out = run_cli(capsys, "search", "--q", "2", "--n", "4", "--mode", "triples")
    assert code == 0
    doc = json.loads(out)
    assert doc["timestamp"]["stages"] == {"catalog_s": 0.123, "pencils": 5797}
    assert doc["report"] == rep.to_json_dict()
    assert "stages" not in doc["report"]


def test_search_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _ = run_cli(
        capsys,
        "search", "--q", "2", "--n", "4", "--mode", "random",
        "--trials", "5", "--seed", "1", "--output", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["report"]["kind"] == "random_cubics"


def test_search_histogram_csv(tmp_path, capsys):
    # the histogram goes to stdout, one "value,count" row per histogram
    # value, and --output writes the same bytes to the file
    out_path = tmp_path / "hist.csv"
    argv = (
        "search", "--q", "2", "--n", "4", "--mode", "random",
        "--trials", "5", "--seed", "1", "--format", "csv",
    )
    code, out = run_cli(capsys, *argv, "--output", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == out.encode()
    hist = json.loads(run_cli(capsys, *argv[:-2])[1])["report"]["histogram"]
    assert out == "value,count\n" + "".join(f"{v},{c}\n" for v, c in hist)
    assert run_cli(capsys, *argv)[1] == out


def test_verify_csv_format(capsys):
    code, out = run_cli(
        capsys, "verify", "--suite", "sequences", "--q", "3", "--n", "6",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "name,passed,detail"


@pytest.mark.parametrize(
    "argv,header",
    [
        (("count", "--q", "2", "--n", "3"), "quantity,value"),
        (
            ("verify", "--suite", "sequences", "--q", "3", "--n", "6"),
            "name,passed,detail",
        ),
        (
            ("search", "--q", "2", "--n", "4", "--mode", "random", "--trials", "5"),
            "value,count",
        ),
    ],
)
def test_csv_rows_end_in_newline(tmp_path, capsys, argv, header):
    # every command's CSV rows end in \n, never \r\n, and --output writes
    # the bytes that go to stdout
    out_path = tmp_path / "out.csv"
    code, out = run_cli(capsys, *argv, "--format", "csv", "--output", str(out_path))
    assert code == 0
    assert "\r" not in out
    assert out.startswith(header + "\n") and out.endswith("\n")
    assert out_path.read_bytes() == out.encode()


def test_env_budget_override(capsys, monkeypatch):
    monkeypatch.setenv("HERMVAR_BUDGET", "10")
    code, out = run_cli(capsys, "count", "--q", "2", "--n", "4")
    assert code == 0
    assert json.loads(out)["enumerated"] is None


def test_module_entrypoint_subprocess(tmp_path):
    # Run from a directory outside the checkout, with the directory that
    # holds the imported package first on the child's path, so the test
    # works from a plain checkout as well as from an installed package.
    package_root = str(Path(hermvar.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        package_root + os.pathsep + inherited if inherited else package_root
    )
    proc = subprocess.run(
        [sys.executable, "-m", "hermvar", "count", "--q", "2", "--n", "3"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["formula"] == 45
