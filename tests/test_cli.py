"""End-to-end command line behavior, run in process through main(argv)."""

import json
import os

import pytest

from qmds.cli import main


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def run_json(capsys, *argv):
    status, out, err = run(capsys, *argv)
    assert err == ""
    return status, json.loads(out)


def test_field_command(capsys):
    status, payload = run_json(capsys, "field", "2", "2")
    assert status == 0
    assert payload == {
        "p": 2, "m": 2, "q": 4, "modulus": [1, 1, 1], "generator": 2,
    }


def test_field_rejects_non_prime(capsys):
    status, out, err = run(capsys, "field", "9")
    assert status == 2
    assert out == "" and "error:" in err


def test_mds_command(capsys):
    status, payload = run_json(capsys, "mds", "9", "3")
    assert status == 0
    assert payload["n"] == 10 and payload["k"] == 8
    assert payload["bch_bound"] == 3 and payload["mds_verify"] is True
    assert payload["spec"]["defining_set"] == [0, 1]


def test_pc_routes_agree(capsys):
    status, payload = run_json(capsys, "pc", "3", "3", "--route", "both")
    assert status == 0
    assert payload["routes_agree"] is True
    assert payload["direct"]["k"] == payload["spectral"]["k"] == 6


def test_weights_all_decided(capsys):
    status, payload = run_json(capsys, "weights", "3", "3")
    assert status == 0
    verdicts = {row["weight"]: row["verdict"] for row in payload["rows"]}
    assert verdicts[4] == "FoundWitness"
    assert verdicts[10] == "FoundWitness"
    for row in payload["rows"]:
        if row["verdict"] == "FoundWitness":
            assert row["witness"]["weight"] == row["weight"]


def test_weights_undecided_exit_three(capsys):
    status, payload = run_json(
        capsys,
        "--budget-enum", "10", "--budget-support", "0",
        "--budget-samples", "50",
        "weights", "4", "3", "--range", "2..2",
    )
    assert status == 3
    assert payload["rows"][0]["verdict"] == "UnknownWithinBudget"


def test_weights_bad_range(capsys):
    status, out, err = run(capsys, "weights", "3", "3", "--range", "0..4")
    assert status == 2 and "error:" in err


def test_qmds_verify_round_trip(capsys, tmp_path):
    status, payload = run_json(capsys, "qmds", "3", "4")
    assert status == 0
    assert payload["bch_bound"] == 4
    found = [r for r in payload["presence"] if r["verdict"] == "FoundWitness"]
    assert [r["weight"] for r in found] == [10]
    witness = found[0]["witness"]
    path = tmp_path / "w10.json"
    path.write_text(json.dumps(witness))
    status, check = run_json(capsys, "verify", str(path))
    assert status == 0
    assert check["ok"] is True
    assert check["record"]["k"] == 4 and check["record"]["d"] == 4

    tampered = dict(witness)
    tampered["values"] = list(tampered["values"])
    tampered["values"][0] = 1 if tampered["values"][0] != 1 else 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(tampered))
    status, check = run_json(capsys, "verify", str(bad))
    assert status == 1 and check["ok"] is False

    broken = dict(witness)
    del broken["support"]
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps(broken))
    status, out, err = run(capsys, "verify", str(bad2))
    assert status == 2 and "error:" in err

    status, out, err = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert status == 2


def test_q2p2_and_output_mirror(capsys, tmp_path):
    target = tmp_path / "out.json"
    status, out, err = run(capsys, "--output", str(target), "q2p2", "1")
    assert status == 0
    assert target.read_text() == out
    payload = json.loads(out)
    assert payload["record"]["n"] == 6 and payload["record"]["k"] == 0
    assert payload["witness"]["weight"] == 6


def test_shorten_command(capsys):
    status, payload = run_json(capsys, "shorten", "3:10:0:6", "1")
    assert status == 0
    assert (payload["n"], payload["k"], payload["d"]) == (9, 1, 5)
    status, out, err = run(capsys, "shorten", "3:9:0:6", "1")
    assert status == 2
    status, out, err = run(capsys, "shorten", "3:10:0:6", "7")
    assert status == 2


def test_reproduce_smallest_dataset(capsys):
    status, out, err = run(capsys, "reproduce", "6A")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# dataset 6A")
    assert lines[-1] == "result ok"
    assert "mismatch" not in out


@pytest.mark.skipif(
    not os.environ.get("QMDS_HEAVY"),
    reason="set QMDS_HEAVY=1 to replay the large stored datasets",
)
@pytest.mark.parametrize("table", ["6D", "6E", "6F"])
def test_reproduce_heavy_datasets(capsys, table):
    # rows the default budget cannot settle may stay undecided (exit 3);
    # only a contradiction is a failure
    status, out, err = run(capsys, "reproduce", table)
    assert status in (0, 3)
    assert "mismatch" not in out


def test_conjectures_command(capsys):
    status, payload = run_json(capsys, "conjectures", "--q", "2..3")
    assert status == 0
    assert all(r["verdict"] == "confirmed" for r in payload["pc_params"])
    assert payload["distance4_char2"][0]["status"] == "scanned"


def test_figdata_csv(capsys):
    status, out, err = run(capsys, "figdata", "9")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,d,n,status"
    assert all(line.endswith(",unknown") for line in lines[1:])
    status, out, err = run(capsys, "figdata", "6")
    assert status == 2


def test_figdata_deterministic(capsys):
    status, first, _ = run(capsys, "figdata", "2")
    assert status == 0
    status, second, _ = run(capsys, "figdata", "2")
    assert first == second


@pytest.mark.parametrize("argv", [
    ("weights", "5", "4", "--range", "5..x"),
    ("weights", "5", "4", "--range", "x"),
    ("weights", "5", "4", "--range", "5.."),
    ("conjectures", "--q", "2..x"),
    ("conjectures", "--q", "x"),
    ("conjectures", "--q", "5..2"),
    ("conjectures", "--q", "0..1"),
])
def test_malformed_range_is_a_usage_error(capsys, argv):
    status, out, err = run(capsys, *argv)
    assert status == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


GOOD_WITNESS = {"q": 3, "d": 3, "n": 10, "weight": 2, "support": [0, 1],
                "values": [1, 2], "seed": 0}


@pytest.mark.parametrize("text", [
    "{not json",
    "[1, 2]",
    json.dumps(dict(GOOD_WITNESS, q="3")),
    json.dumps(dict(GOOD_WITNESS, d=3.0)),
    json.dumps(dict(GOOD_WITNESS, n=None)),
    json.dumps(dict(GOOD_WITNESS, support=[0, "1"])),
    json.dumps(dict(GOOD_WITNESS, support=[0, 1.5])),
    json.dumps(dict(GOOD_WITNESS, values=[1, True])),
    json.dumps(dict(GOOD_WITNESS, support=7)),
    json.dumps(dict(GOOD_WITNESS, values=[1])),
    json.dumps(dict(GOOD_WITNESS, support=[1, 1])),
    json.dumps(dict(GOOD_WITNESS, values=[1, 9])),
    json.dumps(dict(GOOD_WITNESS, values=[1, -1])),
], ids=["json", "not-object", "q-str", "d-float", "n-null", "support-str",
        "support-float", "value-bool", "support-int", "lengths", "repeat",
        "value-9", "value-neg"])
def test_malformed_witness_is_an_input_error(capsys, tmp_path, text):
    path = tmp_path / "w.json"
    path.write_text(text)
    status, out, err = run(capsys, "verify", str(path))
    assert status == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_contradiction_exits_one(capsys, monkeypatch):
    import qmds.cli
    from qmds.errors import Contradiction

    def broken(p, m=1):
        raise Contradiction(f"exp table for GF({p}**{m}) did not close")

    monkeypatch.setattr(qmds.cli, "build_field", broken)
    status, out, err = run(capsys, "field", "2", "3")
    assert status == 1
    assert out == ""
    assert err == "error: exp table for GF(2**3) did not close\n"


def test_thread_env_is_tolerated(capsys, monkeypatch):
    monkeypatch.setenv("QMDS_THREADS", "not-a-number")
    status, _ = run_json(capsys, "field", "3")
    assert status == 0
    monkeypatch.setenv("QMDS_THREADS", "8")
    status, _ = run_json(capsys, "field", "3")
    assert status == 0
