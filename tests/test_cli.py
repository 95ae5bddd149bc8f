import io
import json

import pytest

from ghzpolytope.cli import (
    EXIT_INVALID_INPUT,
    EXIT_OK,
    EXIT_UNSUPPORTED_SIZE,
    SEED_ENV_VAR,
    main,
)


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run(argv)
    assert code == EXIT_OK
    return json.loads(text)


def test_classify_genuine():
    payload = run_json(["classify", "--n", "3", "--p", "0.6,0,0,0,0,0,0,0.4"])
    r = payload["result"]
    assert r["region"] == "genuine"
    assert not r["biseparable"]
    assert r["gm_concurrence"] == pytest.approx(0.2)
    assert payload["config"]["subcommand"] == "classify"
    assert "eps_class" in payload["config"]


def test_classify_fully_biseparable():
    payload = run_json(["classify", "--n", "2", "--p", "0.25,0.25,0.25,0.25"])
    assert payload["result"]["region"] == "fully_biseparable"


def test_classify_from_file(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("0.5\n0.5\n0\n0\n")
    payload = run_json(["classify", "--n", "2", "--p", str(path)])
    assert payload["result"]["biseparable"] is True


def test_mermin_command():
    payload = run_json(["mermin", "--n", "3", "--p", "1,0,0,0,0,0,0,0"])
    r = payload["result"]
    assert r["expectation"] == pytest.approx(4.0)
    assert r["bound"] == pytest.approx(2.0)
    assert r["threshold"] == pytest.approx(0.5)
    assert r["violates"] is True


def test_extremes_counts_and_limit():
    payload = run_json(["extremes", "--n", "3", "--family", "bisep"])
    assert payload["count"] == 28
    assert len(payload["vertices"]) == 28
    limited = run_json(["extremes", "--n", "3", "--family", "fbi", "--limit", "3"])
    assert limited["count"] == 20
    assert len(limited["vertices"]) == 3


def test_facets_counts_and_limit():
    payload = run_json(["facets", "--n", "2", "--family", "fbi"])
    assert payload["count"] == 8
    assert len(payload["facets"]) == 8
    assert all(len(f["coeffs"]) == 4 for f in payload["facets"])
    limited = run_json(["facets", "--n", "3", "--family", "bisep", "--limit", "5"])
    assert len(limited["facets"]) == 5


def test_ball_command():
    payload = run_json(["ball", "--n", "2", "--family", "ghz"])
    assert payload["radius"] == pytest.approx((1 / 12) ** 0.5)
    assert payload["center"] == [0.25] * 4


def test_volume_exact():
    payload = run_json(["volume", "--n", "3", "--family", "genuine"])
    r = payload["result"]
    assert r["exact"] == 0.0625
    assert r["mc_estimate"] is None
    assert "rvr" in r and "vol_hs" in r


def test_volume_mc_deterministic():
    argv = ["volume", "--n", "2", "--family", "fbi", "--mc", "--samples", "50000", "--seed", "7"]
    _, first = run(argv)
    _, second = run(argv)
    assert first == second
    r = json.loads(first)["result"]
    assert abs(r["mc_estimate"] - 0.5) < 4 * r["mc_stderr"]
    assert r["seed"] == 7


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "99")
    payload = run_json(["volume", "--n", "2", "--family", "genuine", "--mc", "--samples", "50000"])
    assert payload["result"]["seed"] == 99
    assert payload["config"]["seed"] == 99


def test_certify_pair():
    payload = run_json(["certify", "--n", "3", "--pair", "000,011"])
    r = payload["result"]
    assert r["kind"] == "midpoint"
    assert r["bipartition"] == "1|23"


def test_certify_sigma():
    payload = run_json(
        ["certify", "--n", "3", "--sigma", "000,001,011,101", "--bipartition", "1"]
    )
    r = payload["result"]
    assert r["kind"] == "cube-vertex"
    assert len(r["components"]) == 2


def test_report_csv_shape():
    code, text = run(["report", "--n-min", "2", "--n-max", "4"])
    assert code == EXIT_OK
    lines = text.strip().splitlines()
    assert lines[0].startswith("# config: ")
    header = lines[1].split(",")
    assert header[:2] == ["n", "d"]
    assert len(lines) == 2 + 3  # config, header, one row per n
    row2 = dict(zip(header, lines[2].split(",")))
    assert row2["n"] == "2"
    assert float(row2["rel_genuine"]) == 0.5
    assert row2["fbi_vertices"] == "6"


def test_report_json_and_determinism():
    argv = ["report", "--n-min", "2", "--n-max", "3", "--mc", "--seed", "5", "--format", "json"]
    _, first = run(argv)
    _, second = run(argv)
    assert first == second
    payload = json.loads(first)
    assert payload["config"]["mc"] is True
    assert "mc_genuine" in payload["columns"]
    assert len(payload["rows"]) == 2


def test_report_deterministic_across_threads():
    base = ["report", "--n-min", "2", "--n-max", "3", "--mc", "--seed", "5"]
    _, one = run(base + ["--threads", "1"])
    _, four = run(base + ["--threads", "4"])
    # identical data rows; only the echoed config records the thread count
    assert one.splitlines()[1:] == four.splitlines()[1:]


def test_exit_code_invalid_input():
    code, _ = run(["classify", "--n", "2", "--p", "0.5,0.5,0.5"])
    assert code == EXIT_INVALID_INPUT
    code, _ = run(["classify", "--n", "2", "--p", "a,b,c,d"])
    assert code == EXIT_INVALID_INPUT
    code, _ = run(["classify", "--n", "2", "--p", "/nonexistent/file.txt"])
    assert code == EXIT_INVALID_INPUT
    code, _ = run(["certify", "--n", "3", "--sigma", "000,001,011,101"])
    assert code == EXIT_INVALID_INPUT


def test_exit_code_unsupported_size():
    code, _ = run(["extremes", "--n", "17", "--family", "bisep"])
    assert code == EXIT_UNSUPPORTED_SIZE
    code, _ = run(["classify", "--n", "99", "--p", "1"])
    assert code == EXIT_UNSUPPORTED_SIZE
    code, _ = run(["volume", "--n", "7", "--family", "genuine", "--mc"])
    assert code == EXIT_UNSUPPORTED_SIZE
    code, _ = run(["report", "--n-max", "21"])
    assert code == EXIT_UNSUPPORTED_SIZE


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--n", "2", "--p", "nan,0.5,0.25,0.25"],
        ["mermin", "--n", "2", "--p", "0.5,0.5,nan,0"],
        ["certify", "--n", "3", "--sigma", "000,001,010,011", "--bipartition", "1,x"],
        ["extremes", "--n", "3", "--family", "fbi", "--limit", "-1"],
        ["facets", "--n", "3", "--family", "bisep", "--limit", "-2"],
    ],
)
def test_invalid_input_is_one_error_line(argv, capsys):
    code, text = run(argv)
    assert code == EXIT_INVALID_INPUT
    assert text == ""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_report_at_its_cap():
    code, text = run(["report", "--n-min", "14", "--n-max", "14"])
    assert code == EXIT_OK
    header, row = text.splitlines()[1:]
    row14 = dict(zip(header.split(","), row.split(",")))
    assert int(row14["fbi_vertices"]) == 2**13 + 2 ** (2**13)


@pytest.mark.parametrize("n_max", ["15", "16", "21"])
def test_report_past_its_cap_is_one_error_line(n_max, capsys):
    # F_15 has a 4933-digit vertex count; the cap is checked before any row
    code, text = run(["report", "--n-min", "2", "--n-max", n_max])
    assert code == EXIT_UNSUPPORTED_SIZE
    assert text == ""
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: report is capped at n = 14"]


def test_bad_seed_env_is_one_error_line(monkeypatch, capsys):
    monkeypatch.setenv(SEED_ENV_VAR, "seven")
    code, _ = run(["volume", "--n", "2", "--family", "genuine", "--mc", "--samples", "50000"])
    assert code == EXIT_INVALID_INPUT
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and SEED_ENV_VAR in lines[0]
    # commands that take no seed, or an explicit one, do not read the variable
    assert run(["classify", "--n", "2", "--p", "0.25,0.25,0.25,0.25"])[0] == EXIT_OK
    argv = ["volume", "--n", "2", "--family", "genuine", "--mc", "--samples", "50000", "--seed", "3"]
    assert run(argv)[0] == EXIT_OK
