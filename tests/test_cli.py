import argparse
import json
import math
import re
import shlex
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qdeco.cli import SWEEP_CAP, _parse_sweep, build_parser, main
from qdeco.errors import CapacityError, ValidationError
from qdeco.ghz import GHZ_CAP
from qdeco.isingsep import weighted_gate_threshold

RING6_SCAN_ROWS = 31  # 2^(6-1) - 1 bipartitions


def run_csv(tmp_path, argv, name="out.csv"):
    path = tmp_path / name
    code = main(argv + ["--out", str(path)])
    text = path.read_text() if path.exists() else ""
    meta = [l for l in text.splitlines() if l.startswith("#")]
    data = [l for l in text.splitlines() if l and not l.startswith("#")]
    return code, meta, data


def run_json(tmp_path, argv, name="out.json"):
    path = tmp_path / name
    code = main(argv + ["--out", str(path)])
    payload = json.loads(path.read_text()) if path.exists() else None
    return code, payload


def readme_commands():
    """The argv of every `qdeco` line in README's sh blocks."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = "".join(re.findall(r"```sh\n(.*?)```", readme, flags=re.S)).splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("qdeco ")]


def test_readme_has_an_example_of_every_subcommand():
    assert {argv[0] for argv in readme_commands()} == set(FUZZED)


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_example_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def summary_value(meta, key):
    for line in meta:
        if line.startswith(f"# {key} = "):
            return line.split(" = ", 1)[1]
    raise KeyError(key)


@pytest.fixture(scope="module")
def schema():
    ref = resources.files("qdeco").joinpath("schemas/report.schema.json")
    return json.loads(ref.read_text())


# --- Output formats ---------------------------------------------------------------


def test_scan_csv_shape(tmp_path):
    code, meta, data = run_csv(tmp_path, ["scan", "--graph", "ring:6"])
    assert code == 0
    assert data[0] == "partition_mask,size_A,p_crit"
    assert len(data) == 1 + RING6_SCAN_ROWS
    assert meta[0].startswith("# qdeco ")
    config = json.loads(meta[1].removeprefix("# config "))
    assert config["subcommand"] == "scan"
    masks = [int(line.split(",")[0]) for line in data[1:]]
    assert masks == sorted(masks) and all(m % 2 == 0 for m in masks)


def test_scan_json_matches_schema(tmp_path, schema):
    code, payload = run_json(tmp_path, ["scan", "--graph", "ring:6"])
    assert code == 0
    jsonschema.validate(payload, schema)
    assert len(payload["results"]["rows"]) == RING6_SCAN_ROWS
    summary = payload["results"]["summary"]
    assert summary["first_ppt_p"] >= summary["last_ppt_p"]
    assert "necessary" in summary["verdict"]


def test_default_format_follows_extension(tmp_path, capsys):
    _, payload = run_json(tmp_path, ["scan", "--graph", "line:2"])
    assert payload["config"]["subcommand"] == "scan"
    code, meta, data = run_csv(tmp_path, ["scan", "--graph", "line:2"], name="x.txt")
    assert code == 0 and data[0].startswith("partition_mask")
    assert main(["scan", "--graph", "line:2"]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("# qdeco ")


def test_format_flag_overrides_extension(tmp_path):
    path = tmp_path / "scan.csv"
    assert main(["scan", "--graph", "line:2", "--format", "json", "--out", str(path)]) == 0
    payload = json.loads(path.read_text())
    assert payload["results"]["rows"][0]["partition_mask"] == 2


# --- Subcommand behaviour ------------------------------------------------------------


def test_scan_bell_pair_value(tmp_path):
    code, payload = run_json(tmp_path, ["scan", "--graph", "line:2"])
    assert code == 0
    row = payload["results"]["rows"][0]
    assert float(row["p_crit"]) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-8)


def test_scan_jobs_deterministic(tmp_path):
    _, one = run_json(tmp_path, ["scan", "--graph", "ring:5", "--jobs", "1"], "a.json")
    _, two = run_json(tmp_path, ["scan", "--graph", "ring:5", "--jobs", "2"], "b.json")
    assert one["results"] == two["results"]


def test_lower_ring_summary(tmp_path):
    code, meta, data = run_csv(tmp_path, ["lower", "--graph", "ring:6"])
    assert code == 0
    assert data[0] == "u,v,phi,p_threshold"
    assert len(data) == 1 + 6
    assert float(summary_value(meta, "p_global")) == pytest.approx(0.7167, abs=1e-3)
    assert float(summary_value(meta, "kt_global")) == pytest.approx(0.3331, abs=1e-3)
    assert float(summary_value(meta, "p_spanning")) == pytest.approx(0.7167, abs=1e-3)


def test_lower_dephasing_is_graph_free(tmp_path):
    _, meta, _ = run_csv(tmp_path, ["lower", "--graph", "star:5", "--channel", "dephasing"])
    assert float(summary_value(meta, "p_global")) == pytest.approx(
        math.sqrt(2.0) - 1.0, abs=1e-8
    )


def test_upper_eb_depolarizing_both_routes(tmp_path):
    code, payload = run_json(tmp_path, ["upper", "--method", "eb"])
    assert code == 0
    row = payload["results"]["rows"][0]
    assert row["axis"] == "p"
    assert row["threshold"] == pytest.approx(1.0 / 3.0, abs=1e-9)
    code, payload = run_json(
        tmp_path, ["upper", "--method", "eb", "--via", "jamiolkowski"], "j.json"
    )
    assert code == 0
    assert payload["results"]["rows"][0]["threshold"] == pytest.approx(
        1.0 / 3.0, abs=1e-6
    )


def test_upper_eb_decay_never_breaks(tmp_path):
    code, payload = run_json(
        tmp_path,
        ["upper", "--method", "eb", "--channel", '{"kind": "decay", "kappa": 1.0}'],
    )
    assert code == 0
    assert payload["results"]["rows"][0]["threshold"] is None
    assert any("never becomes entanglement breaking" in w for w in payload["warnings"])


def test_upper_eb_decay_never_breaks_on_the_dual_state_route(tmp_path):
    code, meta, data = run_csv(
        tmp_path, ["upper", "--method", "eb", "--channel", "decay", "--via", "jamiolkowski"]
    )
    assert code == 0
    assert data == ["axis,threshold", "t,"]
    assert any("never becomes entanglement breaking" in line for line in meta)


@pytest.mark.parametrize("via", ["analytic", "jamiolkowski"])
def test_upper_eb_rejects_a_negative_decay_rate(via, capsys):
    channel = '{"kind": "decay", "kappa": -1}'
    assert main(["upper", "--method", "eb", "--channel", channel, "--via", via]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "kappa" in err and "time" not in err


def test_upper_ising_ring(tmp_path):
    code, payload = run_json(tmp_path, ["upper", "--method", "ising", "--graph", "ring:4"])
    assert code == 0
    summary = payload["results"]["summary"]
    p_z = (math.sqrt(2.0) - 1.0) ** 2
    assert summary["p_z_threshold"] == pytest.approx(p_z, abs=1e-8)
    assert summary["native_p"] == pytest.approx(p_z / (2.0 - p_z), abs=1e-8)
    assert summary["applicable"] is True
    assert all(row["phi"] == pytest.approx(math.pi) for row in payload["results"]["rows"])


def test_upper_ising_bitflip_inapplicable(tmp_path):
    code, payload = run_json(
        tmp_path, ["upper", "--method", "ising", "--graph", "ring:4", "--channel", "bitflip"]
    )
    assert code == 0
    assert payload["results"]["summary"]["native_p"] is None
    assert any("inapplicable" in w for w in payload["warnings"])


def test_scan_summary_first_and_last_ppt_are_their_splits_rows(tmp_path):
    code, payload = run_json(tmp_path, ["scan", "--graph", "ring:5"])
    assert code == 0
    summary = payload["results"]["summary"]
    p_crit = {row["partition_mask"]: row["p_crit"] for row in payload["results"]["rows"]}
    assert summary["first_ppt_p"] >= summary["last_ppt_p"]
    for which in ("first_ppt", "last_ppt"):
        assert f"{summary[which + '_p']:.12g}" == p_crit[summary[which + "_mask"]]


def test_upper_ising_needs_graph():
    assert main(["upper", "--method", "ising"]) == 2


def test_weighted_graph_report(tmp_path):
    spec = json.dumps(
        {"n": 3, "edges": [[0, 1, math.pi], [1, 2, 1.5]]}
    )
    code, payload = run_json(tmp_path, ["upper", "--method", "ising", "--graph", spec])
    assert code == 0
    rows = payload["results"]["rows"]
    assert [row["u"] for row in rows] == [0, 1]
    assert rows[1]["phi"] == pytest.approx(1.5)
    assert payload["results"]["summary"]["critical_edge"] == "(0, 1)"


def test_weighted_phase_sweep(tmp_path):
    code, meta, data = run_csv(
        tmp_path, ["weighted", "--sweep-phi", "1.0:3.0:0.5", "--deg", "2"]
    )
    assert code == 0
    assert data[0] == "phi,degree,p_crit"
    values = [float(line.split(",")[2]) for line in data[1:]]
    assert len(values) == 5
    assert all(b < a for a, b in zip(values, values[1:]))  # stronger gate, lower p_z
    # The swept phases bisect in lockstep; each row is the one-gate solve.
    code, payload = run_json(tmp_path, ["weighted", "--sweep-phi", "1.0:3.0:0.5", "--deg", "2"])
    rows = payload["results"]["rows"]
    assert [row["p_crit"] for row in rows] == [
        weighted_gate_threshold(row["phi"], 2, 2) for row in rows
    ]


def test_weighted_sweep_with_a_bad_phase_names_the_first(capsys):
    # 3.0, 3.1, 3.2, 3.3: the message names 3.2, the first past pi.
    first_bad = next(phi for phi in _parse_sweep("3:3.3:0.1") if phi > math.pi)
    with pytest.raises(ValidationError) as exc:
        weighted_gate_threshold(first_bad, 1, 1)
    assert main(["weighted", "--sweep-phi", "3:3.3:0.1"]) == 2
    assert capsys.readouterr().err == f"error: {exc.value}\n"


def test_encode_table(tmp_path):
    code, meta, data = run_csv(tmp_path, ["encode", "--kt", "0.01", "--levels", "3"])
    assert code == 0
    assert data[0] == "j,q_j,kt_eff_exact,kt_eff_approx,physical_qubits"
    assert len(data) == 1 + 4
    approx_j1 = float(data[2].split(",")[3])
    assert approx_j1 == pytest.approx(7.5e-4, rel=1e-3)
    assert float(summary_value(meta, "breakeven_kt")) == pytest.approx(
        0.1921669, abs=1e-5
    )
    assert float(summary_value(meta, "block_bound_j0")) == pytest.approx(1057.02, abs=0.1)


def test_encode_lifetime_targets(tmp_path):
    code, payload = run_json(
        tmp_path, ["encode", "--kt", "0.01", "--levels", "2", "--target-m", "1057"]
    )
    assert code == 0
    summary = payload["results"]["summary"]
    assert summary["lifetime_j1_at_M"] == pytest.approx(0.0382, abs=1e-3)
    assert summary["lifetime_j2_at_M"] == pytest.approx(0.0778, abs=1e-3)


def test_ghz_lifetime_table(tmp_path):
    code, meta, data = run_csv(tmp_path, ["ghz", "--n", "6"])
    assert code == 0
    assert data[0] == "k,p_crit,kt_crit"
    ps = [float(line.split(",")[1]) for line in data[1:]]
    assert len(ps) == 3
    assert ps[0] > ps[1] > ps[2]  # one-vs-rest splits are the most fragile


def test_ghz_single_split(tmp_path):
    code, payload = run_json(tmp_path, ["ghz", "--n", "2", "--crit", "k=1"])
    assert code == 0
    rows = payload["results"]["rows"]
    assert len(rows) == 1
    assert rows[0]["p_crit"] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-8)


def test_ghz_single_split_past_gap_underflow(tmp_path):
    code, payload = run_json(tmp_path, ["ghz", "--n", "600", "--crit", "k=1"])
    assert code == 0
    rows = payload["results"]["rows"]
    assert rows[0]["p_crit"] == pytest.approx(0.98410, abs=1e-5)


def test_ghz_zero_temperature_qo_reports_no_root(tmp_path):
    # s = 0 and C = B/2: the gap a^n ((1 - a)^n - 1) / 4 is negative at
    # every t > 0, so there is no t_crit to print.
    channel = '{"kind": "qo", "B": 1, "C": 0.5, "s": 0}'
    code, payload = run_json(tmp_path, ["ghz", "--n", "3", "--channel", channel])
    assert code == 0
    assert payload["results"]["rows"] == [{"k": 1, "t_crit": None}]
    # As lower and upper --method eb do when nothing crosses, it says so.
    (warning,) = payload["warnings"]
    assert "never cross" in warning and "t_crit" in warning


def test_ghz_blockwise_sweep(tmp_path):
    code, meta, data = run_csv(
        tmp_path, ["ghz", "--blockwise", "--sweep", "0.2:1.0:0.2"]
    )
    assert code == 0
    assert data[0] == "kt,p,upper_M,lower_M,upper_M_small_kt"
    for line in data[1:]:
        _, _, upper, lower, _ = (float(x) for x in line.split(","))
        assert upper >= lower


def test_ghz_blockwise_qo(tmp_path):
    code, meta, data = run_csv(
        tmp_path,
        [
            "ghz",
            "--blockwise",
            "--sweep",
            "0.2:0.6:0.2",
            "--channel",
            '{"kind": "qo", "B": 1.0, "C": 1.0, "s": 0.5}',
        ],
    )
    assert code == 0
    assert data[0] == "t,upper_M_qo"


def test_channel_from_file(tmp_path):
    spec = tmp_path / "channel.json"
    spec.write_text(json.dumps({"kind": "dephasing"}))
    code, payload = run_json(
        tmp_path, ["scan", "--graph", "ring:4", "--channel", f"@{spec}"]
    )
    assert code == 0
    ps = [float(r["p_crit"]) for r in payload["results"]["rows"]]
    assert max(ps) == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-3)


def test_tolerance_flags(tmp_path):
    code, payload = run_json(
        tmp_path, ["scan", "--graph", "line:2", "--tol-root", "1e-6"]
    )
    assert code == 0
    assert float(payload["results"]["rows"][0]["p_crit"]) == pytest.approx(
        1.0 / math.sqrt(3.0), abs=1e-5
    )


def test_oracle_check_passes(tmp_path):
    code, payload = run_json(
        tmp_path, ["oracle-check", "--cases", "3", "--max-n", "5", "--seed", "11"]
    )
    assert code == 0
    summary = payload["results"]["summary"]
    assert summary["ok"] is True
    assert summary["max_dev_pt_vs_dense"] <= 1e-9
    assert len(payload["results"]["rows"]) == 3


# --- Exit codes -------------------------------------------------------------------


def test_validation_errors_exit_2(tmp_path, capsys):
    assert main(["ghz"]) == 2  # no --n
    assert main(["ghz", "--blockwise"]) == 2  # no --sweep
    assert main(["scan", "--graph", "ring:4", "--channel", '{"kind": "qo", "B": 1, "C": 1, "s": 0.5}']) == 2
    assert main(["lower", "--graph", "ring:4", "--channel", "nonsense"]) == 2
    assert main(["ghz", "--blockwise", "--sweep", "1.0:0.5:0.1"]) == 2
    assert main(["ghz", "--blockwise", "--sweep", "1:2"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["upper", "--method", "eb", "--channel", "{bad"],
        ["upper", "--method", "eb", "--channel", "@/nonexistent/channel.json"],
        ["upper", "--method", "eb", "--channel", '{"kind": "depolarizing", "p": "x"}'],
        ["lower", "--graph", "@/nonexistent/graph.json"],
        ["lower", "--graph", '{"n": 3, "edges": [[0, 1, "x"]]}'],
        ["ghz", "--n", "6", "--crit", "k=abc"],
        ["ghz", "--n", "1"],
        ["encode", "--kt", "nan"],
        ["upper", "--method", "eb", "--channel", "depolarizing", "--tol-root", "nan"],
        ["upper", "--method", "eb", "--channel", "depolarizing", "--tol-root", "inf"],
        ["upper", "--method", "eb", "--channel", '{"kind": "qo", "B": NaN, "C": 1, "s": 0.5}'],
        ["oracle-check", "--max-n", "1"],
        ["oracle-check", "--max-n", "0"],
        ["oracle-check", "--cases", "0"],
        ["oracle-check", "--cases", "-1"],
        ["encode", "--kt", "0.01", "--levels", "-1"],
        ["scan", "--graph", "ring:4", "--jobs", "0"],
        ["scan", "--graph", "ring:4", "--jobs", "-2"],
        ["upper", "--method", "eb", "--channel", '{"kind": "depolarizing", "p": 0.3}'],
        ["ghz", "--blockwise", "--sweep", "a:1:0.1"],
        ["weighted", "--sweep-phi", "0.5:x:0.2"],
        ["ghz", "--blockwise", "--sweep", "0.5:0.6:nan"],
        ["ghz", "--blockwise", "--sweep", "0:inf:0.1"],
        ["lower", "--graph", '{"n": 1, "edges": []}'],
        ["lower"],
        ["scan"],
        ["lower", "--graph", '{"n": 3, "edges": 5}'],
        ["ghz", "--blockwise", "--sweep", "0:1:0.5", "--axis", "p"],
        ["ghz", "--n", "4", "--out", "/nonexistent/dir/out.csv"],
        ["encode", "--kt", "0.5", "--target-m", "nan"],
        ["encode", "--kt", "0.5", "--target-m", "inf"],
        ["ghz", "--blockwise", "--sweep", "0.1:0.5:0.2",
         "--channel", '{"kind": "qo", "B": NaN, "C": 1, "s": 0.5}'],
        ["ghz", "--n", "4", "--channel", '{"kind": "qo", "B": NaN, "C": 1, "s": 0.5}'],
        ["ghz", "--n", "4", "--channel", '{"kind": "qo", "B": 1, "C": Infinity, "s": 0.5}'],
        ["upper", "--method", "eb", "--via", "jamiolkowski",
         "--channel", '{"kind": "decay", "kappa": "nan"}'],
        ["upper", "--method", "eb", "--channel",
         '{"kind": "pauli", "p0": NaN, "p1": 0, "p2": 0, "p3": 0}'],
    ],
)
def test_bad_input_exits_2_without_traceback(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_capacity_errors_exit_3(capsys):
    assert main(["scan", "--graph", "complete:21"]) == 3
    assert main(["oracle-check", "--max-n", "9"]) == 3
    assert main(["ghz", "--n", "100000", "--crit", "k=1"]) == 3
    assert "capacity" in capsys.readouterr().err


# K31 with every gate phase 3.0: each gate's threshold lies below GATE_BRACKET.
K31_PHASE_3 = json.dumps(
    {"n": 31, "edges": [[u, v, 3.0] for u in range(31) for v in range(u + 1, 31)]}
)


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--graph", "ring:15"],
        ["weighted", "--sweep-phi", "3.0:3.14:0.1", "--deg", "30"],
        ["upper", "--method", "ising", "--graph", K31_PHASE_3],
    ],
    ids=["scan ring:15", "weighted deg 30", "upper ising K31"],
)
def test_capacity_limits_exit_3_in_one_line(argv, capsys, monkeypatch):
    from qdeco import graphdiag

    def unreachable(*args):
        raise AssertionError("the scan went on to its splits")

    monkeypatch.setattr(graphdiag, "_scan_splits", unreachable)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("capacity error: ") and err.count("\n") == 1


def test_upper_ising_on_complete_41_is_the_closed_form(tmp_path):
    code, payload = run_json(tmp_path, ["upper", "--method", "ising", "--graph", "complete:41"])
    assert code == 0
    summary = payload["results"]["summary"]
    assert summary["p_z_threshold"] == pytest.approx((math.sqrt(2.0) - 1.0) ** 40, rel=1e-8)
    assert summary["applicable"] is True


@pytest.mark.parametrize("spec", ["complete:30", "ring:6"])
def test_upper_ising_under_dephasing_reports_the_dephasing_threshold(tmp_path, spec):
    # Under dephasing the native parameter is p_z itself, however small:
    # complete:30 has p_z = (sqrt(2) - 1)^29 = 7.9e-12.
    argv = ["upper", "--method", "ising", "--graph", spec, "--channel", "dephasing"]
    code, payload = run_json(tmp_path, argv)
    assert code == 0
    summary = payload["results"]["summary"]
    assert summary["applicable"] is True
    assert summary["native_p"] == summary["p_z_threshold"]
    assert payload["warnings"] == []


def test_weighted_lower_has_no_neighbourhood_cap(tmp_path):
    # Edge (0, 1) with eight more neighbours per end: 18 qubits around it.
    edges = [[0, 1, 2.0]] + [[end, v, 0.3 + 0.1 * v] for end in (0, 1)
                             for v in range(2 + 8 * end, 10 + 8 * end)]
    graph = json.dumps({"n": 18, "edges": edges})
    code, _, data = run_csv(tmp_path, ["lower", "--graph", graph])
    assert code == 0
    assert len(data) == 1 + len(edges)


@pytest.mark.parametrize(
    "argv",
    [
        ["weighted", "--sweep-phi", "0.5:3.14:1e-15"],
        ["ghz", "--blockwise", "--sweep", "0.01:0.8:1e-13"],
        ["ghz", "--blockwise", "--sweep=-1e308:1e308:1"],
        ["ghz", "--blockwise", "--sweep", "0:1:5e-324"],
    ],
)
def test_oversized_sweeps_exit_3_in_one_line(argv, capsys):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("capacity error: ") and err.count("\n") == 1


def test_sweep_cap_counts_the_points_of_the_axis():
    assert len(_parse_sweep(f"0:{SWEEP_CAP - 1}:1")) == SWEEP_CAP
    assert len(_parse_sweep(f"0:{SWEEP_CAP - 0.4}:1")) == SWEEP_CAP
    with pytest.raises(CapacityError):
        _parse_sweep(f"0:{SWEEP_CAP}:1")


@pytest.mark.parametrize(
    "text, points, last",
    [
        ("0.01:0.8:0.01", 80, 0.8),  # README axes
        ("0.5:3.14:0.2", 14, 3.0999999999999996),
        ("3:3.3:0.1", 4, 3.3000000000000003),  # STOP, give or take rounding
        ("0.2:1.0:0.2", 5, 1.0),
        ("0.5:3.14:1.0", 3, 2.5),  # arange's 3.5 passes STOP
        ("0.1:0.9:0.3", 3, 0.7000000000000001),
        ("1e-12:1e-9:1e-10", 10, 9.01e-10),
    ],
)
def test_sweep_axis_ends_at_stop(text, points, last):
    axis = _parse_sweep(text)
    start, _, step = (float(x) for x in text.split(":"))
    assert len(axis) == points and axis[-1] == last
    # Every point is arange's, bit for bit.
    assert axis == [float(x) for x in np.arange(start, start + (points - 0.5) * step, step)]


def test_sweep_never_runs_past_stop(capsys):
    assert main(["weighted", "--sweep-phi", "0.5:3.14:1.0"]) == 0
    rows = capsys.readouterr().out.splitlines()[-3:]
    assert [row.split(",")[0] for row in rows] == ["0.5", "1.5", "2.5"]
    assert main(["ghz", "--blockwise", "--axis", "p", "--sweep", "0.1:0.9:0.3"]) == 0
    rows = capsys.readouterr().out.splitlines()[-3:]
    assert [row.split(",")[1] for row in rows] == ["0.1", "0.4", "0.7"]


def test_blockwise_kt_axis_rejects_kt_at_most_zero(capsys):
    assert main(["ghz", "--blockwise", "--sweep", "0:0.5:0.1"]) == 2
    assert capsys.readouterr().err == "error: --axis kt needs kt > 0, got 0.0\n"
    assert main(["ghz", "--blockwise", "--sweep=-0.2:0.5:0.1"]) == 2
    assert capsys.readouterr().err == "error: --axis kt needs kt > 0, got -0.2\n"


# Each subcommand registers only the shared flags it reads; argparse rejects the
# rest, and no subcommand takes --eig-zero.  Only scan takes --jobs, and upper
# has no ppt method (scan reports the PPT thresholds).  `upper` registers
# --graph and --via for the methods that read them; the other method exits 2
# on one given a value other than its default.
@pytest.mark.parametrize(
    "argv",
    [
        ["ghz", "--n", "4", "--jobs", "2"],
        ["lower", "--graph", "ring:4", "--jobs", "2"],
        ["weighted", "--sweep-phi", "1:2:0.5", "--channel", "dephasing"],
        ["weighted", "--sweep-phi", "1:2:0.5", "--jobs", "2"],
        ["encode", "--kt", "0.01", "--channel", "dephasing"],
        ["encode", "--kt", "0.01", "--jobs", "2"],
        ["oracle-check", "--channel", "dephasing"],
        ["oracle-check", "--jobs", "2"],
        ["oracle-check", "--tol-root", "1e-3"],
        ["weighted", "--sweep-phi", "1:2:0.5", "--graph", "ring:4"],
        ["ghz", "--n", "4", "--eig-zero", "-1e-9"],
        ["lower", "--graph", "ring:4", "--eig-zero", "-1e-9"],
        ["upper", "--method", "ising", "--graph", "ring:4", "--eig-zero", "5"],
        ["upper", "--method", "eb", "--eig-zero", "1e-9"],
        ["scan", "--graph", "ring:4", "--eig-zero", "5"],
        ["weighted", "--sweep-phi", "3.14159:3.1416:1", "--deg", "2", "--eig-zero", "0.5"],
        ["encode", "--kt", "0.01", "--eig-zero", "-1e-9"],
        ["oracle-check", "--eig-zero", "-1e-9"],
        ["upper", "--method", "eb", "--graph", "ring:4"],
        ["upper", "--method", "eb", "--jobs", "2"],
        ["upper", "--method", "eb", "--graph", "ring:4", "--jobs", "2"],
        ["upper", "--method", "ising", "--graph", "ring:4", "--jobs", "2"],
        ["upper", "--method", "ising", "--graph", "ring:4", "--via", "jamiolkowski"],
        ["upper", "--method", "ising", "--graph", "ring:4", "--via", "jamiolkowski",
         "--jobs", "2"],
        ["upper", "--method", "ppt", "--graph", "ring:4", "--via", "jamiolkowski"],
        ["upper", "--method", "eb", "--via", "jamiolkowski", "--jobs", "1"],
        ["upper", "--method", "ising", "--graph", "ring:4", "--via", "analytic", "--jobs", "1"],
    ],
)
def test_unread_flags_are_rejected(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    if "ppt" in argv:
        *usage, error = err.splitlines()  # argparse's usage lines and its error line
        assert usage[0].startswith("usage: qdeco upper")
        assert "argument --method: invalid choice: 'ppt'" in error
    elif argv[0] == "upper" and argv[-2] not in ("--eig-zero", "--jobs"):
        method = argv[argv.index("--method") + 1]
        assert err == f"error: --method {method} does not read {argv[-2]}\n"
    else:
        assert err.count("\n") == 2  # argparse's usage line and its error line
        assert err.endswith("unrecognized arguments: " + " ".join(argv[-2:]) + "\n")


@pytest.mark.parametrize(
    "argv", [["upper", "--method", "ising", "--graph", "ring:4", "--via", "analytic"]]
)
def test_upper_accepts_the_default_of_a_flag_its_method_does_not_read(argv, capsys):
    assert main(argv) == 0
    capsys.readouterr()


def test_argparse_errors_exit_2(capsys):
    assert main(["upper"]) == 2  # --method is required
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("kt,levels", [("0.5", "3"), ("1", "1"), ("1e308", "6")])
def test_encode_past_full_depolarisation_reports_inf(tmp_path, capsys, kt, levels):
    code, _, data = run_csv(tmp_path, ["encode", "--kt", kt, "--levels", levels])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    assert data[0].split(",")[2] == "kt_eff_exact"
    assert data[-1].split(",")[2] == "inf"


# --- Numeric boundary (property-based) ----------------------------------------------

BOUNDARY = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def exit_code(argv, capsys, codes=(0, 2, 3)):
    """Run the CLI in-process; it must exit with one of codes (by default 0,
    2 or 3) and never print a traceback."""
    code = main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code in codes, err
    return code


@BOUNDARY
@given(kt=st.floats())
@example(kt=math.nan)
@example(kt=math.inf)
@example(kt=-math.inf)
@example(kt=0.0)
@example(kt=0.5)
@example(kt=1e6)
@example(kt=1e308)
@example(kt=1e-310)
@example(kt=5e-324)
def test_encode_kt_boundary(kt, capsys):
    code = exit_code(["encode", f"--kt={kt!r}"], capsys)
    assert code == (0 if 0.0 <= kt < math.inf else 2)


@BOUNDARY
@given(tol=st.floats())
@example(tol=math.nan)
@example(tol=math.inf)
@example(tol=0.0)
@example(tol=1e308)
def test_tol_root_boundary(tol, capsys):
    argv = ["upper", "--method", "eb", "--channel", "depolarizing", f"--tol-root={tol!r}"]
    assert exit_code(argv, capsys) == (0 if 0.0 < tol < math.inf else 2)


@BOUNDARY
@given(n=st.integers(2, 10**6))
@example(n=GHZ_CAP)
@example(n=GHZ_CAP + 1)
@example(n=100_000)
def test_ghz_n_boundary(n, capsys):
    code = exit_code(["ghz", "--n", str(n), "--crit", "k=1"], capsys)
    assert code == (3 if n > GHZ_CAP else 0)


# --- Argv fuzz of every subcommand (property-based) ---------------------------------

# Values tried for each flag that takes one, valid and invalid; flags with
# choices also get each choice.  Every run stays at n <= 30 (n <= 6 for scan
# and oracle-check), every sweep at a few dozen points, --jobs at 2 workers
# and --cases at 5.
FUZZ_VALUES = {
    "--n": ["2", "3", "17", "30", "1", "0", "-4", "2.5", "x"],
    "--crit": ["k=1", "k=2", "k=15", "k=0", "k=29", "k=-1", "k=1.5", "x=1", "k=", "="],
    "--sweep": ["0.1:2:0.5", "0.5:0.95:0.15", "0:1:0.25", "0:3:1", "1:0:1", "0:1:0",
                "0:1:-0.1", "nan:1:0.1", "a:b:c", "0:1"],
    "--channel": [
        "depolarizing", "dephasing", "bitflip", "qo", "decay", "amplitude",
        '{"kind": "qo", "B": 1.0, "C": 0.8, "s": 0.3}',
        '{"kind": "qo", "B": 1.0, "C": 0.5, "s": 0.0}',
        '{"kind": "qo", "B": 0.0, "C": 0.5, "s": 0.5}',
        '{"kind": "qo", "B": 1.0, "C": 0.1, "s": 2.0}',
        '{"kind": "qo", "B": NaN, "C": 1.0, "s": 0.5}', '{"kind": "decay", "kappa": "inf"}',
        '{"kind": "qo", "B": "a"}',
        '{"kind": "pauli", "p0": 0.7, "p1": 0.1, "p2": 0.1, "p3": 0.1}',
        '{"kind": "depolarizing", "x": 1}', '{"kind": 3}', "[]", '"depolarizing"', "{",
        "@no-such-file.json",
    ],
    "--graph": [
        "ring:5", "ring:30", "line:2", "star:6", "grid2d:5x5", "grid3d:3x3x3",
        "complete:5", "ring:2", "ring:0", "line:1", "grid2d:0x3", "ring:-1",
        "torus:3", "ring:x",
        '{"n": 3, "edges": [[0, 1], [1, 2]]}',
        '{"n": 4, "edges": [[0, 1, 0.5], [1, 2, 1.0], [2, 3, 3.14159]]}',
        '{"n": 3, "edges": [[0, 1]]}', '{"n": 2, "edges": []}',
        '{"n": 3, "edges": 5}', '{"n": 3, "edges": [[1, 0]]}', '{"n": 3}', "{",
        "@no-such-file.json",
    ],
    "--tol-root": ["1e-10", "1e-6", "0.1", "0", "-1", "nan", "inf", "abc"],
    "--jobs": ["1", "2", "0", "-3", "1.5"],
    "--sweep-phi": ["0.5:3.1:0.5", "0.1:3.14159:1", "3:3.2:0.1", "1e-12:1e-9:1e-10",
                    "0:1:0.25", "1:4:1", "1:0:1", "0.5:1:0", "nan:1:0.1", "a:b:c", "0:1"],
    "--deg": ["1", "2", "5", "1000", "0", "-1", "x"],
    "--kt": ["0.5", "0.01", "1", "0", "1e-310", "1e308", "-1", "nan", "inf"],
    "--levels": ["0", "3", "6", "12", "13", "-1", "2.5"],
    "--target-m": ["2", "5", "1057", "1e308", "1.5", "0", "nan", "inf", "-inf"],
    "--out": ["{tmp}/out.csv", "{tmp}/out.json", "{tmp}/out", "{tmp}",
              "{tmp}/no-such-dir/out.csv"],
    "--cases": ["1", "3", "5", "0", "-2", "2.5", "x"],
    "--max-n": ["2", "4", "6", "1", "0", "9", "-3", "6.0"],
    "--seed": ["0", "7", "-1", "12345678901234567890", "1.5", "x"],
}
# The --graph values of the scan fuzz: those of at most six vertices.
SMALL_GRAPHS = [
    "ring:5", "ring:6", "line:2", "line:4", "star:6", "grid2d:2x3", "complete:5", "ring:2",
    "ring:0", "line:1", "grid2d:0x3", "ring:-1", "torus:3", "ring:x",
    '{"n": 3, "edges": [[0, 1], [1, 2]]}',
    '{"n": 4, "edges": [[0, 1, 0.5], [1, 2, 1.0], [2, 3, 3.14159]]}',
    '{"n": 3, "edges": [[0, 1]]}', '{"n": 2, "edges": []}',
    '{"n": 3, "edges": 5}', '{"n": 3, "edges": [[1, 0]]}', '{"n": 3}', "{",
    "@no-such-file.json",
]
FUZZ_JUNK = ["", "-1", "nan", "junk"]


def registered_flags(cmd):
    """The options build_parser registers for one subcommand, by flag."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.option_strings[-1]: a for a in sub.choices[cmd]._actions if a.option_strings}


def flag_tokens(flag, action, fuzz_values):
    if action.nargs == 0:  # --blockwise, --help
        return st.just([flag])
    junk = [] if flag == "--out" else FUZZ_JUNK  # --out writes only under tmp_path
    values = fuzz_values.get(flag, []) + list(action.choices or ()) + junk
    value = st.sampled_from(values)
    return st.one_of(value.map(lambda v: [flag, v]), value.map(lambda v: [f"{flag}={v}"]))


def fuzz_argv(cmd, *required, fuzz_values=FUZZ_VALUES):
    """argv for cmd: each flag of `required` first, then up to six more groups."""
    flags = registered_flags(cmd)
    token = st.one_of(
        *(flag_tokens(flag, action, fuzz_values) for flag, action in sorted(flags.items())),
        st.sampled_from([["--no-such-flag"], ["stray"]]),
    )
    head = st.tuples(*(flag_tokens(flag, flags[flag], fuzz_values) for flag in required))
    groups = st.tuples(head, st.lists(token, max_size=6))
    return groups.map(lambda g: [cmd] + sum(g[0], []) + sum(g[1], []))


FUZZED = ("ghz", "lower", "upper", "weighted", "encode", "scan", "oracle-check")


def test_fuzz_values_cover_only_registered_flags():
    registered = set().union(*(registered_flags(cmd) for cmd in FUZZED))
    assert set(FUZZ_VALUES) <= registered
    assert {"--graph", "--jobs"} <= set(registered_flags("scan"))
    assert {"--cases", "--max-n", "--seed"} <= set(registered_flags("oracle-check"))


@BOUNDARY
@given(argv=fuzz_argv("ghz"))
@example(argv=["ghz", "--n", "30"])
@example(argv=["ghz", "--n", "30", "--channel", '{"kind": "qo", "B": 1.0, "C": 0.8, "s": 0.3}'])
@example(argv=["ghz", "--blockwise", "--sweep", "0:3:1", "--axis", "p"])
@example(argv=["ghz", "--n", "5", "--out", "{tmp}"])
def test_ghz_argv_fuzz(argv, tmp_path, capsys):
    argv = [t.replace("{tmp}", str(tmp_path)) for t in argv]
    exit_code(argv, capsys, codes=(0, 1, 2, 3))


@BOUNDARY
@given(argv=fuzz_argv("lower"))
@example(argv=["lower", "--graph", "ring:30"])
@example(argv=["lower", "--graph", '{"n": 3, "edges": [[0, 1, 0.5], [1, 2, 1.0]]}'])
@example(argv=["lower", "--graph", '{"n": 3, "edges": 5}'])
@example(argv=["lower", "--graph", "ring:5", "--out", "{tmp}/no-such-dir/out.csv"])
@example(argv=["lower"])
def test_lower_argv_fuzz(argv, tmp_path, capsys):
    argv = [t.replace("{tmp}", str(tmp_path)) for t in argv]
    exit_code(argv, capsys, codes=(0, 1, 2, 3))


@BOUNDARY
@given(argv=fuzz_argv("upper", "--method"))
@example(argv=["upper", "--method", "ising", "--graph", "ring:30"])
@example(argv=["upper", "--method", "ising", "--graph", "ring:5", "--channel", "bitflip"])
@example(argv=["upper", "--method", "ising", "--graph",
               '{"n": 4, "edges": [[0, 1, 0.5], [1, 2, 1.0], [2, 3, 3.14159]]}'])
@example(argv=["upper", "--method", "eb", "--via", "jamiolkowski", "--channel", "qo"])
@example(argv=["upper", "--method", "ising"])
def test_upper_argv_fuzz(argv, tmp_path, capsys):
    argv = [t.replace("{tmp}", str(tmp_path)) for t in argv]
    exit_code(argv, capsys, codes=(0, 1, 2, 3))


@BOUNDARY
@given(argv=fuzz_argv("weighted", "--sweep-phi"))
@example(argv=["weighted", "--sweep-phi", "0.5:3.1:0.5", "--deg", "1000"])
@example(argv=["weighted", "--sweep-phi", "1e-12:1e-9:1e-10"])
@example(argv=["weighted", "--sweep-phi", "3:3.2:0.1"])
def test_weighted_argv_fuzz(argv, tmp_path, capsys):
    argv = [t.replace("{tmp}", str(tmp_path)) for t in argv]
    exit_code(argv, capsys, codes=(0, 1, 2, 3))


@BOUNDARY
@given(argv=fuzz_argv("encode", "--kt"))
@example(argv=["encode", "--kt", "0.5", "--target-m", "nan"])
@example(argv=["encode", "--kt", "0.5", "--target-m", "inf"])
@example(argv=["encode", "--kt", "0.01", "--levels", "12", "--target-m", "1057"])
@example(argv=["encode", "--kt", "1e308", "--target-m", "1e308"])
def test_encode_argv_fuzz(argv, tmp_path, capsys):
    argv = [t.replace("{tmp}", str(tmp_path)) for t in argv]
    exit_code(argv, capsys, codes=(0, 1, 2, 3))


@BOUNDARY
@given(argv=fuzz_argv("scan", "--graph", fuzz_values={**FUZZ_VALUES, "--graph": SMALL_GRAPHS}))
@example(argv=["scan", "--graph", "star:6", "--jobs", "2"])
@example(argv=["scan", "--graph", "complete:5", "--channel", "bitflip"])
@example(argv=["scan", "--graph", '{"n": 4, "edges": [[0, 1, 0.5], [1, 2, 1.0], [2, 3, 3.14159]]}'])
@example(argv=["scan", "--graph", "ring:5", "--tol-root", "0.1", "--out", "{tmp}/out.json"])
@example(argv=["scan"])
def test_scan_argv_fuzz(argv, tmp_path, capsys):
    argv = [t.replace("{tmp}", str(tmp_path)) for t in argv]
    exit_code(argv, capsys, codes=(0, 1, 2, 3))


@BOUNDARY
@given(argv=fuzz_argv("oracle-check"))
@example(argv=["oracle-check", "--cases", "5", "--max-n", "6"])
@example(argv=["oracle-check", "--max-n", "9"])
@example(argv=["oracle-check", "--cases", "1", "--seed", "12345678901234567890"])
def test_oracle_check_argv_fuzz(argv, tmp_path, capsys):
    # --cases defaults to 20: the fuzz always sets it (at most 5).
    if not any(t.startswith("--cases") for t in argv):
        argv = argv + ["--cases", "2"]
    argv = [t.replace("{tmp}", str(tmp_path)) for t in argv]
    exit_code(argv, capsys, codes=(0, 1, 2, 3))
