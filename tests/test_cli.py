import json
import math
from importlib import resources

import jsonschema
import pytest

from qdeco.cli import main

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


def test_upper_ppt_rows(tmp_path):
    code, payload = run_json(tmp_path, ["upper", "--method", "ppt", "--graph", "ring:5"])
    assert code == 0
    rows = {row["which"]: row for row in payload["results"]["rows"]}
    assert set(rows) == {"first_ppt", "last_ppt"}
    assert rows["first_ppt"]["p_crit"] >= rows["last_ppt"]["p_crit"]
    assert rows["last_ppt"]["kt_crit"] == pytest.approx(
        -math.log(rows["last_ppt"]["p_crit"])
    )


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
    assert "capacity" in capsys.readouterr().err


def test_argparse_errors_exit_2(capsys):
    assert main(["upper"]) == 2  # --method is required
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
