"""End-to-end command line behavior, run in process through main(argv)."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmds
from qmds.budgets import SearchBudget
from qmds.ccodes import build_code, mds_spec
from qmds.cli import main
from qmds.errors import BadBudget, TooLarge
from qmds.gf import MAX_FIELD_ORDER
from qmds.linalg import mds_verify


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


def test_mds_over_the_subset_cap_is_refused(capsys):
    # [129, 125] over GF(128): C(129, 4) column subsets exceed MDS_SUBSET_CAP,
    # so the check is refused (null), not failed, and the command succeeds
    status, payload = run_json(capsys, "mds", "128", "5")
    assert status == 0
    assert payload["n"] == 129 and payload["k"] == 125
    assert payload["mds_verify"] is None
    with pytest.raises(TooLarge):
        mds_verify(build_code(mds_spec(128, 5)))


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


@pytest.mark.parametrize("q,d", [(2, 3), (3, 3), (3, 4)])
def test_verify_settles_each_witness_as_the_pipeline_did(capsys, tmp_path, q, d):
    """verify of every witness qmds prints gives the pipeline's record for
    that length, down to the route that settled its distance."""
    status, payload = run_json(capsys, "qmds", str(q), str(d))
    assert status == 0
    records = {r["n"]: r for r in payload["records"]}
    found = [r for r in payload["presence"] if "witness" in r]
    assert found and len(found) == len(records)
    for row in found:
        path = tmp_path / f"w{row['weight']}.json"
        path.write_text(json.dumps(row["witness"]))
        status, check = run_json(capsys, "verify", str(path))
        assert status == 0 and check["ok"] is True
        got, want = check["record"], records[row["weight"]]
        for key in ("q", "n", "k", "d", "pure", "d_exact"):
            assert got[key] == want[key], (row["weight"], key)
        assert got["provenance"][-1] == want["provenance"][-1], row["weight"]


@pytest.mark.parametrize("m", [1, 2])
def test_q2p2_witness_round_trip(capsys, tmp_path, m):
    status, payload = run_json(capsys, "q2p2", str(m))
    assert status == 0
    witness = payload["witness"]
    path = tmp_path / "w.json"
    path.write_text(json.dumps(witness))
    status, check = run_json(capsys, "verify", str(path))
    assert status == 0 and check["ok"] is True
    assert all(check["checks"].values())
    # the record q2p2 printed, settled the same way, under the witness-file tags
    q, n = 2**m, 4**m + 2
    record = check["record"]
    assert (record["q"], record["n"], record["k"], record["d"], record["d_exact"]) == (
        q, n, n - 6, 4, True)
    built = payload["record"]
    assert record["provenance"] == (
        ["norm-triple-family", "witness-file", f"w={n}"] + built["provenance"][3:])
    assert dict(record, provenance=None) == dict(built, provenance=None)

    # another nonzero value where the alphabet has one, else a zero
    tampered = dict(witness, values=list(witness["values"]))
    tampered["values"][0] = tampered["values"][0] % (q - 1) + 1 if q > 2 else 0
    path.write_text(json.dumps(tampered))
    status, check = run_json(capsys, "verify", str(path))
    assert status == 1 and check["ok"] is False


def test_q2p2_and_output_mirror(capsys, tmp_path):
    target = tmp_path / "out.json"
    status, out, err = run(capsys, "--output", str(target), "q2p2", "1")
    assert status == 0
    assert target.read_text() == out
    payload = json.loads(out)
    assert payload["record"]["n"] == 6 and payload["record"]["k"] == 0
    assert payload["witness"]["weight"] == 6


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_exits_two_and_prints_nothing(capsys, tmp_path, where):
    target = tmp_path / "missing" / "out.json" if where == "missing-directory" else tmp_path
    status, out, err = run(capsys, "--output", str(target), "field", "2", "3")
    assert status == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_qmds_computes_the_bch_bound_once(capsys, monkeypatch):
    import qmds.qstab
    from qmds.ccodes import bch_ht_bound

    calls = []

    def counted(spec):
        calls.append(spec)
        return bch_ht_bound(spec)

    for module in (qmds.qstab, qmds.cli):
        monkeypatch.setattr(module, "bch_ht_bound", counted)
    status, payload = run_json(capsys, "qmds", "3", "3")
    assert status == 0 and payload["bch_bound"] == bch_ht_bound(calls[0])
    assert len(calls) == 1


def test_construction_eliminates_the_shorter_side(capsys, monkeypatch):
    """Every code of pc 8 5 --route both is built from its fewer rows: 56
    rref pivots in all (244 when each code was the rref of its k rows)."""
    from qmds import kernels

    pivots = []
    rref = kernels.rref

    def counted(field, mat):
        red, piv = rref(field, mat)
        pivots.append(len(piv))
        return red, piv

    monkeypatch.setattr(kernels, "rref", counted)
    status, _, _ = run(capsys, "pc", "8", "5", "--route", "both")
    assert status == 0
    assert sum(pivots) <= 56


def test_shorten_command(capsys):
    status, payload = run_json(capsys, "shorten", "3:10:0:6", "1")
    assert status == 0
    assert (payload["n"], payload["k"], payload["d"]) == (9, 1, 5)
    status, out, err = run(capsys, "shorten", "3:9:0:6", "1")
    assert status == 2
    status, out, err = run(capsys, "shorten", "3:10:0:6", "7")
    assert status == 2


@pytest.mark.parametrize("key,message", [
    ("3:10:0", "registry keys look like q:n:k:d, got '3:10:0'"),
    ("a:b:c:d", "registry keys need integers, got 'a:b:c:d'"),
])
def test_shorten_malformed_key_is_an_input_error(capsys, key, message):
    status, out, err = run(capsys, "shorten", key, "1")
    assert (status, out, err) == (2, "", f"error: {message}\n")


def test_reproduce_smallest_dataset(capsys):
    status, out, err = run(capsys, "reproduce", "6A")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# dataset 6A")
    assert lines[-1] == "result ok"
    assert "mismatch" not in out


def test_reproduce_6d_settles_every_row(capsys):
    status, out, err = run(capsys, "reproduce", "6D")
    assert status == 0
    assert out.strip().splitlines()[-1] == "result ok"
    assert "mismatch" not in out


@pytest.mark.skipif(
    not os.environ.get("QMDS_HEAVY"),
    reason="set QMDS_HEAVY=1 to replay the large stored datasets",
)
@pytest.mark.parametrize("table", ["6E", "6F"])
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


@pytest.mark.parametrize("flag,value", [
    ("--budget-enum", "-1"), ("--budget-support", "-3"), ("--budget-samples", "-5"),
])
def test_negative_budget_is_a_usage_error(capsys, flag, value):
    status, out, err = run(capsys, flag, value, "qmds", "3", "3")
    assert (status, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and value in err
    with pytest.raises(BadBudget):
        SearchBudget(**{flag.removeprefix("--budget-"): int(value)})


def test_root_field_too_large_is_an_input_error(capsys):
    # GF(257) itself is fine; the splitting field GF(257**2) is not
    status, out, err = run(capsys, "mds", "257", "5")
    assert status == 2
    assert out == ""
    assert err == f"error: root field GF(257**2) exceeds {MAX_FIELD_ORDER}\n"


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


@pytest.mark.parametrize("q,d", [(3, 5), (4, 6), (3, 0)])
def test_verify_distance_outside_the_pipeline_is_an_input_error(capsys, tmp_path, q, d):
    """A witness claims a code of distance d over GF(q**2); the families
    run 1..q+1, so any other d is refused before a code is built."""
    path = tmp_path / "w.json"
    path.write_text(json.dumps(dict(GOOD_WITNESS, q=q, d=d, n=q * q + 1)))
    status, out, err = run(capsys, "verify", str(path))
    assert (status, out) == (2, "")
    assert err == f"error: pipeline distances run 1..{q + 1}, got {d}\n"


@pytest.mark.parametrize("command,q,d", [("pc", 3, 5), ("weights", 3, 5), ("pc", 4, 0),
                                         ("weights", 2, 4)])
def test_pc_and_weights_refuse_a_distance_outside_the_pipeline(capsys, command, q, d):
    """A zero P(C) or a row of ProvenAbsent weights would answer a question
    the families do not ask: pc and weights refuse d as qmds does."""
    status, out, err = run(capsys, command, str(q), str(d))
    assert (status, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err == run(capsys, "qmds", str(q), str(d))[2]


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


def test_broken_invariant_exits_one(capsys, monkeypatch):
    import qmds.qstab

    monkeypatch.setattr(qmds.qstab, "bch_ht_bound", lambda spec: 1)
    status, out, err = run(capsys, "qmds", "3", "3")
    assert status == 1
    assert out == ""
    assert err == "error: BCH/HT bound 1 is below the design distance 3\n"


def test_optimised_interpreter_prints_the_same_bytes():
    """Invariant checks are raises, not asserts, so -O changes nothing."""
    src = os.path.dirname(os.path.dirname(qmds.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    runs = [
        subprocess.run([sys.executable, *flags, "-m", "qmds", "q2p2", "2"],
                       capture_output=True, env=env, timeout=300)
        for flags in ([], ["-O"])
    ]
    plain, optimised = runs
    assert plain.returncode == 0 and plain.stdout
    assert (optimised.returncode, optimised.stdout, optimised.stderr) == (
        plain.returncode, plain.stdout, plain.stderr)


def test_thread_env_is_tolerated(capsys, monkeypatch):
    monkeypatch.setenv("QMDS_THREADS", "not-a-number")
    status, _ = run_json(capsys, "field", "3")
    assert status == 0
    monkeypatch.setenv("QMDS_THREADS", "8")
    status, _ = run_json(capsys, "field", "3")
    assert status == 0


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


# Every drawn argv is malformed or names an alphabet of at most 3, so each
# example runs in well under a second.
# a command line cannot hold a NUL byte
JUNK = st.text(st.characters(blacklist_characters="\x00"), max_size=6).filter(_not_an_int)
SMALL = st.one_of(st.integers(max_value=3), st.integers(min_value=MAX_FIELD_ORDER + 1))
ANY_INT = st.integers()
ARG = st.one_of(SMALL.map(str), JUNK)
DIST = st.one_of(ANY_INT.map(str), JUNK)
RANGE = st.one_of(
    JUNK,
    st.tuples(ANY_INT, ANY_INT).map(lambda ab: f"{ab[0]}..{ab[1]}"),
    st.tuples(ANY_INT, st.integers(max_value=3)).map(lambda ab: f"{ab[0]}..{ab[1]}"),
    ANY_INT.map(lambda a: f"{a}.."),
)
SMALL_RANGE = st.one_of(
    JUNK,
    st.integers(max_value=3).map(str),
    st.tuples(ANY_INT, st.integers(max_value=3)).map(lambda ab: f"{ab[0]}..{ab[1]}"),
    st.tuples(JUNK, ANY_INT).map(lambda ab: f"{ab[0]}..{ab[1]}"),
)
JSON_VALUE = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=4),
    SMALL, st.integers(-3, 12), st.lists(st.integers(-2, 12), max_size=12),
    st.lists(st.one_of(st.integers(0, 3), st.text(max_size=2)), max_size=4),
)
WITNESS = st.one_of(
    st.text(max_size=20),
    st.dictionaries(
        st.sampled_from(["q", "d", "n", "weight", "support", "values", "seed"]),
        JSON_VALUE, max_size=7,
    ).map(json.dumps),
    st.fixed_dictionaries({
        "q": st.one_of(SMALL, JSON_VALUE), "d": JSON_VALUE, "n": JSON_VALUE,
        "weight": JSON_VALUE, "support": JSON_VALUE, "values": JSON_VALUE,
    }).map(json.dumps),
)
ARGV = st.one_of(
    st.tuples(st.just("field"), ARG, st.one_of(st.integers(max_value=1).map(str),
                                               st.integers(min_value=17).map(str), JUNK)),
    st.tuples(st.just("mds"), ARG, DIST),
    st.tuples(st.just("pc"), ARG, DIST, st.just("--route"),
              st.one_of(st.sampled_from(["direct", "spectral", "both"]), JUNK)),
    st.tuples(st.just("weights"), ARG, DIST, st.just("--range"), RANGE),
    st.tuples(st.just("qmds"), ARG, DIST),
    st.tuples(st.just("q2p2"), st.one_of(st.integers(max_value=1).map(str),
                                         st.integers(min_value=5).map(str), JUNK)),
    st.tuples(st.just("shorten"), st.one_of(JUNK, st.just("3:10:4:4"), st.just("2:6:0:4")),
              DIST),
    st.tuples(st.just("conjectures"), st.just("--q"), SMALL_RANGE),
    st.tuples(st.just("figdata"), ARG),
    st.tuples(st.sampled_from(["--seed", "--budget-enum", "--budget-samples"]), JUNK,
              st.just("field"), st.just("2")),
    st.lists(JUNK, max_size=3).map(tuple),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(argv=ARGV, witness=WITNESS)
def test_malformed_argv_never_crashes(tmp_path_factory, argv, witness):
    """Exit status 0..3, at most one stderr line, never a traceback."""
    base = tmp_path_factory.getbasetemp()
    path = base / "fuzz-witness.json"
    path.write_text(witness)
    home = os.getcwd()
    os.chdir(base)  # junk argv may abbreviate --output
    try:
        for args in (argv, ("verify", str(path))):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    status = main(list(args))
                except SystemExit as exc:
                    status = exc.code
            text = err.getvalue()
            assert status in (0, 1, 2, 3), (args, status, text)
            assert text.count("\n") <= 1 and "Traceback" not in text, (args, text)
    finally:
        os.chdir(home)
