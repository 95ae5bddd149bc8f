import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from collections.abc import Iterator
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghzpolytope import cli, polytopes, volume
from ghzpolytope.classify import EPS_BOUNDARY, EPS_CLASS
from ghzpolytope.cli import (
    EXIT_INTERRUPTED,
    EXIT_INVALID_INPUT,
    EXIT_OK,
    EXIT_UNSUPPORTED_SIZE,
    SEED_ENV_VAR,
    main,
)
from ghzpolytope.indices import MC_MAX_QUBITS


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


def test_bisep_facets_print_no_negative_zero():
    code, text = run(["facets", "--family", "bisep", "--n", "2"])
    assert code == EXIT_OK
    rows = json.loads(text)["facets"]
    assert [r["coeffs"] for r in rows[:4]] == [[-1.0 if j == i else 0.0 for j in range(4)]
                                              for i in range(4)]
    assert "-0.0" not in text


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
        ["certify", "--n", "3", "--sigma", "000,001,011,101,000", "--bipartition", "1"],
        ["extremes", "--n", "3", "--family", "fbi", "--limit", "-1"],
        ["facets", "--n", "3", "--family", "bisep", "--limit", "-2"],
        # rejected without --mc too, not echoed in the output's config
        ["report", "--threads", "0"],
        ["report", "--seed", "-1"],
        ["volume", "--n", "3", "--family", "fbi", "--threads", "0"],
        ["volume", "--n", "3", "--family", "fbi", "--samples", "-5"],
        ["volume", "--n", "3", "--family", "fbi", "--exact"],
        ["report", "--n-max", "3", "--samples", "5"],
        # argparse usage errors: no usage text, no SystemExit
        ["frobnicate"],
        [],
        ["facets", "--family", "xyz", "--n", "3"],
        ["classify", "--n", "x", "--p", "1"],
        ["facets", "--family", "fbi"],
        ["ball", "--family", "ghz", "--n", "3", "--limit", "2"],
    ],
)
def test_invalid_input_is_one_error_line(argv, capsys):
    code, text = run(argv)
    assert code == EXIT_INVALID_INPUT
    assert text == ""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["facets", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ghzpolytope facets")


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


@pytest.mark.parametrize(
    "argv",
    [
        # F_15's vertex count has 4933 digits, past Python's int -> str limit
        ["extremes", "--family", "fbi", "--n", "15", "--limit", "1"],
        ["extremes", "--family", "fbi", "--n", "16", "--limit", "1"],
        # without --limit, past the list caps: 2^32, 2^31 and 256 vertices
        ["extremes", "--family", "fbi", "--n", "6"],
        ["extremes", "--family", "bisep", "--n", "16"],
        ["extremes", "--family", "bisep", "--n", "9"],
        ["extremes", "--family", "ghz", "--n", "9"],
    ],
)
def test_extremes_past_a_cap_is_one_error_line(argv, capsys):
    code, text = run(argv)
    assert code == EXIT_UNSUPPORTED_SIZE
    assert text == ""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    if "--limit" not in argv:
        assert "--limit" in lines[0]


@pytest.mark.parametrize("n", ["15", "16"])
def test_extremes_fbi_past_the_digit_cap_does_not_ask_for_limit(n, capsys):
    # --limit would not help: the vertex count alone cannot be printed
    code, text = run(["extremes", "--family", "fbi", "--n", n])
    assert (code, text) == (EXIT_UNSUPPORTED_SIZE, "")
    assert capsys.readouterr().err.splitlines() == [
        "error: the F_n vertex count has over 4300 digits past n = 14"]


@pytest.mark.parametrize(
    "argv",
    [
        # without --limit, past the list caps: 512, 1024 and 2^17 facet rows
        ["facets", "--family", "ghz", "--n", "9"],
        ["facets", "--family", "bisep", "--n", "9"],
        ["facets", "--family", "fbi", "--n", "9"],
        ["facets", "--family", "bisep", "--n", "16"],
        ["facets", "--family", "fbi", "--n", "16"],
    ],
)
def test_facets_past_a_cap_is_one_error_line(argv, capsys):
    code, text = run(argv)
    assert code == EXIT_UNSUPPORTED_SIZE
    assert text == ""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "--limit" in lines[0]


@pytest.mark.parametrize("family", ["ghz", "bisep", "fbi"])
def test_facets_stream_past_the_cap_with_a_limit(family):
    payload = run_json(["facets", "--family", family, "--n", "16", "--limit", "1"])
    assert payload["count"] == {"ghz": 2**16, "bisep": 2**17, "fbi": 2**31}[family]
    (row,) = payload["facets"]
    assert len(row["coeffs"]) == 2**16


@pytest.mark.parametrize("n, limit", [(9, 1), (16, 2)])
def test_extremes_ghz_streams_past_the_list_cap(n, limit):
    payload = run_json(["extremes", "--family", "ghz", "--n", str(n), "--limit", str(limit)])
    assert payload["count"] == 2**n
    expected = np.eye(limit, 2**n).tolist()
    assert payload["vertices"] == expected


def run_alone(argv, seed):
    """Exit code, stdout and stderr of ``argv`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    env[SEED_ENV_VAR] = seed
    proc = subprocess.run(
        [sys.executable, "-m", "ghzpolytope", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_calls_in_one_process_match_calls_alone(monkeypatch, capsys):
    # one parser serves every main() call in a process; no call may see another's
    sequence = [
        (["facets", "--family", "bisep", "--n", "3", "--limit", "3"], "0"),
        (["facets", "--family", "bisep", "--n", "3"], "0"),
        (["classify", "--n", "x", "--p", "1"], "0"),
        (["classify", "--n", "2", "--p", "0.4,0.3,0.2,0.1"], "0"),
        (["volume", "--n", "2", "--family", "fbi", "--mc", "--samples", "20000"], "5"),
        (["volume", "--n", "2", "--family", "fbi", "--mc", "--samples", "20000"], "6"),
    ]
    outputs = []
    for argv, seed in sequence:
        monkeypatch.setenv(SEED_ENV_VAR, seed)
        try:
            code, text = run(argv)
        except SystemExit as exc:
            code, text = exc.code, ""
        outputs.append((code, text, capsys.readouterr().err))
    assert [code for code, _, _ in outputs] == [EXIT_OK, EXIT_OK, 2, EXIT_OK, EXIT_OK, EXIT_OK]
    assert len(json.loads(outputs[0][1])["facets"]) == 3
    assert len(json.loads(outputs[1][1])["facets"]) == 16
    assert outputs[4][1] != outputs[5][1]
    for (argv, seed), got in zip(sequence, outputs):
        assert got == run_alone(argv, seed), argv


def test_extremes_fbi_count_at_its_cap():
    payload = run_json(["extremes", "--family", "fbi", "--n", "14", "--limit", "1"])
    assert payload["count"] == 2**13 + 2 ** (2**13)
    assert len(payload["vertices"]) == 1


json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**4000), max_value=10**4000),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, float("nan"), float("inf"), -float("inf")]),
    st.text(),
)
json_trees = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.lists(st.one_of(st.integers(), st.floats())),
        st.lists(st.one_of(st.integers(), st.floats(), st.booleans(), st.none())),
        st.lists(st.floats(allow_nan=False, allow_infinity=False)).map(tuple),
        st.dictionaries(st.text(), children),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(json_trees)
def test_json_text_is_json_dumps(tree):
    assert cli._json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)


JSON_SUBCOMMANDS = {
    "classify": ["classify", "--n", "3", "--p", "0.6,0,0,0,0,0,0,0.4"],
    "mermin": ["mermin", "--n", "3", "--p", "1,0,0,0,0,0,0,0"],
    "extremes": ["extremes", "--n", "3", "--family", "fbi"],
    "extremes-limit": ["extremes", "--n", "4", "--family", "bisep", "--limit", "7"],
    "facets": ["facets", "--n", "4", "--family", "fbi"],
    "facets-limit": ["facets", "--n", "3", "--family", "ghz", "--limit", "0"],
    "ball": ["ball", "--n", "3", "--family", "bisep"],
    "volume": ["volume", "--n", "3", "--family", "mermin"],
    "volume-mc": ["volume", "--n", "3", "--family", "genuine", "--mc", "--samples", "20000", "--seed", "4"],
    "certify-pair": ["certify", "--n", "3", "--pair", "000,011"],
    "certify-sigma": ["certify", "--n", "3", "--sigma", "000,001,011,101", "--bipartition", "1"],
    "report-json": ["report", "--n-min", "2", "--n-max", "4", "--mc", "--samples", "20000",
                    "--seed", "3", "--format", "json"],
}


@pytest.mark.parametrize("argv", JSON_SUBCOMMANDS.values(), ids=JSON_SUBCOMMANDS.keys())
def test_json_output_is_json_dump_of_its_payload(argv, monkeypatch):
    payloads = []
    emit = cli._emit_json

    def recording_emit(payload, out):
        # a listing is a one-pass iterator of blocks: keep them, emit a copy
        listings = {key: list(value) for key, value in payload.items()
                    if isinstance(value, Iterator)}
        payloads.append(payload | {key: listing_rows(blocks) for key, blocks in listings.items()})
        emit(payload | {key: iter(blocks) for key, blocks in listings.items()}, out)

    monkeypatch.setattr(cli, "_emit_json", recording_emit)
    code, text = run(argv)
    assert code == EXIT_OK and len(payloads) == 1
    assert text == json.dumps(payloads[0], indent=2, sort_keys=True) + "\n"


def listing_rows(blocks):
    """A listing's rows as plain lists and dicts."""
    rows = []
    for block in blocks:
        if isinstance(block, polytopes.FacetBlock):
            rows += [{"coeffs": coeffs.tolist(), "label": label, "offset": offset}
                     for coeffs, label, offset in zip(block.coeffs, block.labels, block.offsets.tolist())]
        else:
            rows += block.tolist()
    return rows


def test_report_csv_carries_the_json_rows():
    argv = ["report", "--n-min", "2", "--n-max", "4", "--mc", "--samples", "20000", "--seed", "3"]
    _, csv_text = run(argv)
    payload = run_json(argv + ["--format", "json"])
    config = dict(payload["config"], format="csv")
    expected = ["# config: " + json.dumps(config, sort_keys=True), ",".join(payload["columns"])]
    for row in payload["rows"]:
        cells = (row.get(col, "") for col in payload["columns"])
        expected.append(",".join(format(c, ".17g") if isinstance(c, float) else str(c) for c in cells))
    assert csv_text == "\n".join(expected) + "\n"


@pytest.mark.parametrize(
    "argv, seed_env",
    [
        (["volume", "--n", "3", "--family", "fbi", "--mc", "--seed", "-1"], None),
        (["report", "--n-min", "2", "--n-max", "3", "--mc"], "-3"),
        (["volume", "--n", "3", "--family", "fbi", "--mc", "--threads", "0"], None),
        (["report", "--n-min", "2", "--n-max", "3", "--mc", "--threads", "-2"], None),
    ],
    ids=["volume-seed", "report-seed-env", "volume-threads", "report-threads"],
)
def test_bad_mc_seed_or_threads_is_one_error_line(argv, seed_env, monkeypatch, capsys):
    if seed_env is not None:
        monkeypatch.setenv(SEED_ENV_VAR, seed_env)
    code, text = run(argv)
    assert code == EXIT_INVALID_INPUT
    assert text == ""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["volume", "--n", "3", "--family", "fbi", "--mc", "--samples", str(2**32 + 1)],
        ["volume", "--n", "3", "--family", "fbi", "--samples", str(10**18)],
        ["report", "--n-min", "2", "--n-max", "3", "--mc", "--threads", "257"],
        ["volume", "--n", "3", "--family", "fbi", "--threads", str(10**6)],
    ],
    ids=["volume-samples", "volume-samples-no-mc", "report-threads", "volume-threads-no-mc"],
)
def test_mc_input_past_a_cap_is_one_error_line_before_any_work(argv, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("made a stream or a thread past a cap")

    monkeypatch.setattr(np.random, "SeedSequence", fail)
    monkeypatch.setattr(volume, "ThreadPoolExecutor", fail)
    code, text = run(argv)
    assert code == EXIT_UNSUPPORTED_SIZE
    assert text == ""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "exceeds the cap" in lines[0]


def test_ctrl_c_exits_130_with_one_error_line(monkeypatch, capsys):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(volume, "mc_relative_volume", interrupted)
    code, text = run(["volume", "--n", "3", "--family", "fbi", "--mc", "--samples", "20000"])
    assert (code, text) == (EXIT_INTERRUPTED, "")
    assert capsys.readouterr().err.splitlines() == ["error: interrupted"]


@pytest.mark.parametrize("n_min, n_max", [("1", "3"), ("0", "2"), ("4", "3")])
def test_report_n_range_is_one_error_line(n_min, n_max, capsys):
    code, text = run(["report", "--n-min", n_min, "--n-max", n_max])
    assert code == EXIT_INVALID_INPUT
    assert text == ""
    assert capsys.readouterr().err.splitlines() == ["error: need 2 <= n-min <= n-max"]


def report_rows(text, fmt):
    """The rows of a ``report`` output as column -> cell dicts."""
    if fmt == "json":
        return json.loads(text)["rows"]
    header, *rows = text.splitlines()[1:]
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("extra", [[], ["--samples", "20000", "--threads", "2"]])
def test_report_mc_equals_per_family_estimates(fmt, extra):
    # each row's estimates are those of separate seeded estimates, one per n
    # and family; the row past the Monte-Carlo cap has none
    code, text = run(["report", "--n-min", "2", "--n-max", "7", "--mc", "--seed", "8",
                      "--format", fmt] + extra)
    assert code == EXIT_OK
    rows = report_rows(text, fmt)
    assert [int(row["n"]) for row in rows] == [2, 3, 4, 5, 6, 7]
    samples = 20_000 if extra else volume.MC_MIN_SAMPLES
    for row in rows:
        n = int(row["n"])
        for family in volume.MC_FAMILIES:
            if n > MC_MAX_QUBITS:
                assert row.get(f"mc_{family}", "") == ""
                continue
            rep = volume.mc_relative_volume(family, n, samples, seed=8)
            assert float(row[f"mc_{family}"]) == rep.mc_estimate, (n, family)
            assert float(row[f"mc_{family}_stderr"]) == rep.mc_stderr, (n, family)
            assert int(row[f"mc_{family}_samples"]) == samples


def test_report_mc_draws_each_chunk_once(monkeypatch):
    # one stream per chunk for the whole report: every n and every family
    # count the same draw of each chunk
    drawn = []
    philox = np.random.Philox

    def counting_philox(seed):
        drawn.append(seed)
        return philox(seed)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    code, text = run(["report", "--n-min", "2", "--n-max", "6", "--mc"])
    assert code == EXIT_OK
    assert len(drawn) == 1
    # without --samples every estimate takes 10000 samples
    cells = report_rows(text, "csv")
    assert [row["n"] for row in cells] == ["2", "3", "4", "5", "6"]
    assert {row[f"mc_{fam}_samples"] for row in cells for fam in volume.MC_FAMILIES} == {"10000"}
    drawn.clear()
    code, _ = run(["report", "--n-min", "3", "--n-max", "8", "--mc", "--samples", "140000",
                   "--threads", "2"])
    assert code == EXIT_OK
    assert sorted(seed.spawn_key for seed in drawn) == [(0,), (1,), (2,)]


# ------------------------------------------------- listings against an oracle


def oracle_facets(family, n, limit):
    """(label, offset, coeffs) rows of a facet listing, from sums of np.eye rows."""
    d = 2**n
    bits = [format(k, f"0{n}b") for k in range(d)]

    def e(i):
        return np.eye(1, d, i)[0]

    if family == "ghz":
        rows = ((f"p_{bits[i]}>=0", 0.0, e(i)) for i in range(d))
    elif family == "bisep":
        rows = itertools.chain(
            ((f"p_{bits[i]}<=1/2", -0.5, 0.0 - e(i)) for i in range(d)),  # +0.0 off i
            ((f"p_{bits[i]}>=0", 0.0, e(i)) for i in range(d)),
        )
    else:
        rows = (
            (f"p_{bits[i]}+p_{bits[d - 1 - i]}>=p_{bits[j]}-p_{bits[d - 1 - j]}", 0.0,
             e(i) + e(d - 1 - i) - e(j) + e(d - 1 - j))
            for i in range(d // 2) for j in range(d)
        )
    return [{"coeffs": c.tolist(), "label": label, "offset": offset}
            for label, offset, c in itertools.islice(rows, limit)]


def oracle_vertices(family, n, limit):
    """Vertex rows of a listing: unit rows, edge midpoints and cube vertices by index."""
    d = 2**n

    def point(indices, value):
        p = [0.0] * d
        for i in indices:
            p[i] = value
        return p

    if family == "ghz":
        rows = (point([i], 1.0) for i in range(d))
    elif family == "bisep":
        rows = (point(pair, 0.5) for pair in itertools.combinations(range(d), 2))
    else:
        cube = (
            point([d - 1 - i if s >> i & 1 else i for i in range(d // 2)], 2 / d)
            for s in range(2 ** (d // 2))
        )
        rows = itertools.chain((point([i, d - 1 - i], 0.5) for i in range(d // 2)), cube)
    return list(itertools.islice(rows, limit))


LISTING_COUNT = {
    ("facets", "ghz"): lambda d: d,
    ("facets", "bisep"): lambda d: 2 * d,
    ("facets", "fbi"): lambda d: d * d // 2,
    ("extremes", "ghz"): lambda d: d,
    ("extremes", "bisep"): lambda d: d * (d - 1) // 2,
    ("extremes", "fbi"): lambda d: d // 2 + 2 ** (d // 2),
}
LIST_CAP = {("extremes", "fbi"): 5}  # without --limit; 8 for the others

LISTING_CASES = [
    (sub, family, n, limit)
    for sub, family in LISTING_COUNT
    for n in range(1, 7)
    for limit in (None, 0, 1, 3, "past")
    if not (limit == "past" and n > LIST_CAP.get((sub, family), 8))  # F_6: 2^32 vertices
] + [
    (sub, family, n, limit)
    for sub, family in LISTING_COUNT
    for n in (7, 8)
    for limit in (1, 3, 2**n // 2 + 3)  # fbi vertices: past the d/2 midpoints
] + [
    (sub, family, 16, 3)  # 2 rows of 2^16 floats to a block: crosses a block
    for sub, family in LISTING_COUNT
    if (sub, family) != ("extremes", "fbi")  # F_16's count is past the digit limit
]


@pytest.mark.parametrize("sub, family, n, limit", LISTING_CASES)
def test_listing_is_json_dump_of_the_oracle(sub, family, n, limit):
    count = LISTING_COUNT[sub, family](2**n)
    if limit == "past":
        limit = count + 5
    argv = [sub, "--family", family, "--n", str(n)]
    if limit is not None:
        argv += ["--limit", str(limit)]
    code, text = run(argv)
    if limit is None and n > LIST_CAP.get((sub, family), 8):
        assert (code, text) == (EXIT_UNSUPPORTED_SIZE, "")
        return
    assert code == EXIT_OK
    config = {"subcommand": sub, "eps_class": EPS_CLASS, "eps_boundary": EPS_BOUNDARY,
              "n": n, "family": family, "limit": limit}
    rows = (oracle_facets if sub == "facets" else oracle_vertices)(family, n, limit)
    key = "facets" if sub == "facets" else "vertices"
    payload = {"config": config, "family": family, "n": n, "count": count, key: rows}
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    same = text == expected  # not in the assert: pytest would diff megabytes of text
    assert same, next(
        f"line {k}: {got!r} != {want!r}"
        for k, (got, want) in enumerate(itertools.zip_longest(text.split("\n"), expected.split("\n")))
        if got != want
    )


listing_numbers = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16,
                     1e-05, 1.5, float("inf"), -float("inf"), float("nan")]),
)


@st.composite
def split_matrices(draw):
    """A float64 matrix of 1-5 rows and 1-70 columns, and its rows cut into blocks."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 70))
    values = draw(st.lists(listing_numbers, min_size=rows * cols, max_size=rows * cols))
    matrix = np.array(values, dtype=np.float64).reshape(rows, cols)
    cuts = draw(st.lists(st.integers(0, rows), max_size=3).map(sorted))
    return matrix, cuts


@st.composite
def sparse_matrices(draw):
    """A float64 matrix of 1-5 rows and 1-70 columns that is +0.0 but for a few
    entries (-0.0 among them), often in the first or last column, so that
    rows are all +0.0 or hold runs of +0.0 up to the full width; and its
    rows cut into blocks."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 70))
    matrix = np.zeros((rows, cols))
    column = st.one_of(st.sampled_from([0, cols - 1]), st.integers(0, cols - 1))
    for _ in range(draw(st.integers(0, 2 * rows))):
        matrix[draw(st.integers(0, rows - 1)), draw(column)] = draw(listing_numbers)
    cuts = draw(st.lists(st.integers(0, rows), max_size=3).map(sorted))
    return matrix, cuts


@settings(max_examples=200, deadline=None)
@given(st.one_of(split_matrices(), sparse_matrices()))
@example((np.zeros((3, 70)), [1]))
@example((np.array([[-0.0] + [0.0] * 68 + [-0.0], [0.5] + [0.0] * 69, [0.0] * 69 + [-2.0]]), []))
@example((np.array([[0.0], [-0.0], [1.0], [0.0]]), [2]))
def test_listing_rows_are_json_text_of_tolist(split):
    matrix, cuts = split
    for row in matrix:
        assert "".join(cli._vertex_rows(row[None], "\n")) == ",\n" + json.dumps(row.tolist(), indent=2)
    assert "".join(cli._vertex_rows(matrix, "\n")) == "".join(
        ",\n" + json.dumps(row.tolist(), indent=2) for row in matrix)

    def emitted(payload):
        buf = io.StringIO()
        cli._emit_json(payload, buf)
        return buf.getvalue()

    vertices = iter(np.split(matrix, cuts))
    assert emitted({"v": vertices, "n": 3}) == json.dumps(
        {"v": matrix.tolist(), "n": 3}, indent=2, sort_keys=True) + "\n"
    labels = [f"row {r}" for r in range(len(matrix))]
    offsets = matrix[:, 0].copy()

    def facet_blocks():
        for part in np.split(np.arange(len(matrix)), cuts):
            yield polytopes.FacetBlock([labels[r] for r in part], offsets[part], matrix[part])

    facets = facet_blocks()
    oracle = [{"coeffs": row.tolist(), "label": label, "offset": offset}
              for row, label, offset in zip(matrix, labels, offsets.tolist())]
    assert emitted({"f": facets, "g": [0.5, None]}) == json.dumps(
        {"f": oracle, "g": [0.5, None]}, indent=2, sort_keys=True) + "\n"
    empty = iter(())
    assert emitted({"a": 1, "v": empty}) == json.dumps(
        {"a": 1, "v": []}, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["facets", "--family", "ghz", "--n", "16", "--limit", "2"],
        ["facets", "--family", "bisep", "--n", "16", "--limit", "2"],
        ["facets", "--family", "fbi", "--n", "16", "--limit", "2"],
        ["extremes", "--family", "ghz", "--n", "16", "--limit", "2"],
        ["extremes", "--family", "bisep", "--n", "16", "--limit", "2"],
    ],
)
def test_listing_at_n16_streams_in_bounded_memory(argv):
    # two rows of 2^16 floats print about 1.7 MB; a block of d rows would be 32 GB
    tracemalloc.start()
    try:
        code, text = run(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK and len(json.loads(text)["facets" if argv[0] == "facets" else "vertices"]) == 2
    assert peak < 16 * 2**20


class CountingSink:
    """A text sink that keeps only how many writes and characters it was given;
    ``fail_at`` makes that write raise BrokenPipeError, as a closed pipe does."""

    def __init__(self, fail_at=None):
        self.writes = self.chars = 0
        self.fail_at = fail_at

    def write(self, text):
        self.writes += 1
        if self.writes == self.fail_at:
            raise BrokenPipeError(32, "Broken pipe")
        self.chars += len(text)


def test_listing_is_written_a_block_at_a_time():
    # 13.9 MiB of rows; held whole, as one string, they would peak past it
    sink = CountingSink()
    tracemalloc.start()
    try:
        code = main(["facets", "--family", "fbi", "--n", "7"], out=sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK and sink.writes > 1
    assert peak < sink.chars / 2


def test_full_listing_at_n8_streams_in_bounded_memory():
    # 108 MiB of facets; a block's text and pieces are freed before the next is built
    sink = CountingSink()
    tracemalloc.start()
    try:
        code = main(["facets", "--family", "fbi", "--n", "8"], out=sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK and sink.chars > 100 * 2**20
    assert peak < 16 * 2**20


def test_reader_closing_mid_listing_is_one_error_line(capsys):
    sink = CountingSink(fail_at=2)
    code = main(["facets", "--family", "fbi", "--n", "7"], out=sink)
    assert code == EXIT_INVALID_INPUT and sink.writes == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: [Errno 32] Broken pipe"]


# ------------------------------------------------------------- argv fuzz

fuzz_numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "1.7976931348623157e+308", "-0.0", "0.125",
                     "abc", "", " ", "0x1", "1/8"]),
)
fuzz_bits = st.one_of(st.text("01", min_size=1, max_size=6), st.sampled_from(["", "012", "ab"]))
# a quick Monte-Carlo run, too few samples, or past the cap; any thread count,
# since one chunk of 10000 samples runs on the calling thread
fuzz_samples = st.one_of(st.just(10_000), st.integers(1, 9_999),
                         st.integers(volume.MC_MAX_SAMPLES + 1, 10**18))
fuzz_threads = st.integers(0, 10**6)


@st.composite
def fuzz_argv(draw):
    """One argv of any subcommand, kept cheap: full listings only at n <= 6,
    Monte Carlo on 10000 samples. Small n and well-formed values are drawn
    often enough that every subcommand also runs."""
    sub = draw(st.sampled_from(["classify", "mermin", "extremes", "facets", "ball", "volume",
                                "certify", "report", "bogus"]))
    n = draw(st.one_of(st.integers(1, 4), st.integers(-1, 40)))
    argv = [sub] + (["--n", str(n)] if sub != "report" else [])
    if sub in ("classify", "mermin"):
        size = 2**n if 1 <= n <= 4 and draw(st.booleans()) else draw(st.integers(1, 20))
        p = [repr(1 / size)] * size
        for k in draw(st.lists(st.integers(0, size - 1), max_size=2)):
            p[k] = draw(fuzz_numbers)
        argv += ["--p", ",".join(p)]
    elif sub in ("extremes", "facets", "ball"):
        argv += ["--family", draw(st.sampled_from(["ghz", "bisep", "fbi", "xyz"]))]
        if sub != "ball" and (n > 6 or draw(st.booleans())):
            argv += ["--limit", str(draw(st.integers(-2, 50 if n <= 10 else 2)))]
    elif sub == "volume":
        argv += ["--family", draw(st.sampled_from(sorted(volume.ALL_FAMILIES) + ["xyz"]))]
        if draw(st.booleans()):
            argv += ["--mc", "--samples", str(draw(fuzz_samples)),
                     "--seed", str(draw(st.integers(-1, 9))), "--threads", str(draw(fuzz_threads))]
    elif sub == "certify":
        bits = st.text("01", min_size=max(n, 1), max_size=max(n, 1))
        garbled = st.lists(st.one_of(bits, fuzz_bits), min_size=1, max_size=8)
        if draw(st.booleans()):
            pair = st.lists(bits, min_size=2, max_size=2, unique=True)
            argv += ["--pair", ",".join(draw(st.one_of(pair, garbled)))]
        else:
            argv += ["--sigma", ",".join(draw(garbled)),
                     "--bipartition", draw(st.sampled_from(["1", "1,2", "2", "0", "x", "1,x"]))]
    elif sub == "report":
        argv += ["--n-min", str(draw(st.integers(-1, 8))), "--n-max", str(n),
                 "--format", draw(st.sampled_from(["csv", "json"]))]
        if draw(st.booleans()):
            argv += ["--mc", "--samples", str(draw(fuzz_samples)),
                     "--threads", str(draw(fuzz_threads))]
    return argv


@settings(max_examples=300, deadline=None)
@given(fuzz_argv())
@example(["classify", "--n", "1", "--p", "1.7976931348623157e+308,1.7976931348623157e+308"])
def test_any_argv_exits_0_2_or_3_with_one_error_line(argv):
    # no argv starts a thread pool, and one past a Monte-Carlo cap makes no stream
    values = dict(zip(argv, argv[1:]))
    over_cap = (int(values.get("--samples", 0)) > volume.MC_MAX_SAMPLES
                or int(values.get("--threads", 1)) > volume.MC_MAX_THREADS)
    err = io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stderr(err))
        stack.enter_context(mock.patch.object(volume, "ThreadPoolExecutor",
                                              side_effect=AssertionError("a thread pool")))
        if over_cap:
            stack.enter_context(mock.patch.object(np.random, "SeedSequence",
                                                  side_effect=AssertionError("a stream")))
        code, text = run(argv)
    assert not (over_cap and code == EXIT_OK), argv
    lines = err.getvalue().splitlines()
    assert code in (EXIT_OK, EXIT_INVALID_INPUT, EXIT_UNSUPPORTED_SIZE), (argv, lines)
    if code == EXIT_OK:
        assert lines == [] and text.endswith("\n"), argv
    else:
        assert text == "" and len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
