"""Tests of the benchmark's own checks and tracer, on tiny codes against
brute force.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
from spans import Tracer  # noqa: E402


def random_rows(rng, k, n, p):
    return [[rng.randrange(p) for _ in range(n)] for _ in range(k)]


def span_brute(rows, p, n):
    words = set()
    for msg in itertools.product(range(p), repeat=len(rows)):
        words.add(tuple(sum(m * r[j] for m, r in zip(msg, rows)) % p for j in range(n)))
    return words


def dual_brute(rows, p, n):
    return {
        v for v in itertools.product(range(p), repeat=n)
        if all(sum(a * b for a, b in zip(r, v)) % p == 0 for r in rows)
    }


def distribution(words, n):
    out = [0] * (n + 1)
    for w in words:
        out[sum(1 for x in w if x)] += 1
    return out


@pytest.mark.parametrize("p,k,n", [(2, 3, 6), (3, 2, 5), (3, 4, 6), (5, 2, 4), (5, 3, 5)])
def test_rank_and_distribution_match_brute_force(p, k, n):
    rng = random.Random(p * 100 + k * 10 + n)
    for _ in range(5):
        rows = random_rows(rng, k, n, p)
        words = span_brute(rows, p, n)
        assert p ** checks.rank_mod_p(rows, p) == len(words)
        if checks.rank_mod_p(rows, p) == k:
            assert checks.weight_distribution(rows, p, n) == distribution(words, n)


@pytest.mark.parametrize("p,k,n", [(2, 2, 6), (3, 2, 5), (3, 3, 6), (5, 2, 4)])
def test_macwilliams_gives_the_dual_distribution(p, k, n):
    rng = random.Random(7 * p + k + n)
    for _ in range(5):
        rows = random_rows(rng, k, n, p)
        code = distribution(span_brute(rows, p, n), n)
        dual = distribution(dual_brute(rows, p, n), n)
        assert checks.macwilliams(code, p) == dual
        assert checks.macwilliams(dual, p) == code


def test_orthogonality_and_distribution_problems():
    gen = [[1, 0, 1], [0, 1, 1]]
    assert checks.orthogonal_mod_p(gen, [[1, 1, 2]], 3)
    assert not checks.orthogonal_mod_p(gen, [[1, 1, 1]], 3)
    assert checks.distribution_problems([1, 0, 6, 2], 3, 2, "x") == []
    assert checks.distribution_problems([1, 0, 5, 2], 3, 2, "x")
    assert checks.distribution_problems([1, -1, 7, 2], 3, 2, "x")


def qmds_output(*argv):
    sys.path.insert(0, str(ROOT / "src"))
    from qmds import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, json.loads(buf.getvalue())


def test_puncture_reference_matches_brute_force():
    ref = checks.puncture_reference(ROOT, 3, 3)
    assert ref.problems == []
    words = dual_brute(ref.parity, 3, ref.n)
    assert len(words) == 3**ref.k
    assert ref.dist == distribution(words, ref.n)


def test_puncture_reference_flags_bad_rows():
    good = checks.puncture_reference(ROOT, 3, 3)
    parity = [row[:] for row in good.parity]
    parity[0][0] = (parity[0][0] + 1) % 3
    bad = checks.PunctureReference(3, 3, good.gen, parity)
    assert any("orthogonal" in p for p in bad.problems)


def test_qmds_check_accepts_the_engine_and_flags_wrong_answers():
    ref = checks.puncture_reference(ROOT, 3, 4)
    rc, payload = qmds_output("qmds", "3", "4")
    assert rc == 0
    assert checks.check_qmds(payload, 3, 4, ref) == []
    assert checks.verdicts_decided(payload) == len(payload["presence"]) + len(payload["records"])

    wrong = json.loads(json.dumps(payload))
    row = next(r for r in wrong["presence"] if r["verdict"] == "ProvenAbsent")
    row["verdict"] = "FoundWitness"
    row["witness"] = wrong["presence"][-1]["witness"]
    assert checks.check_qmds(wrong, 3, 4, ref)

    wrong = json.loads(json.dumps(payload))
    wrong["records"][0]["k"] += 2
    assert any("n + 2 != k + 2d" in p for p in checks.check_qmds(wrong, 3, 4, ref))

    wrong = json.loads(json.dumps(payload))
    wit = wrong["presence"][-1]["witness"]
    wit["values"][0] = 3 - wit["values"][0]
    assert any("not in P(C)" in p for p in checks.check_qmds(wrong, 3, 4, ref))


def test_pc_and_mds_checks():
    rc, payload = qmds_output("pc", "3", "3", "--route", "both")
    assert rc == 0 and checks.check_pc(payload, 3, 3) == []
    payload["direct"]["k"] -= 1
    assert checks.check_pc(payload, 3, 3)
    rc, payload = qmds_output("mds", "9", "4")
    assert rc == 0 and checks.check_mds(payload, 9, 4) == []
    assert checks.check_mds(payload, 9, 3)


def test_command_of_skips_global_options():
    argv = ["--seed", "1", "--budget-enum", "9", "qmds", "5", "5"]
    assert checks.command_of(argv) == ("qmds", ["5", "5"])


def test_tracer_self_time_generators_and_patching(monkeypatch):
    clock = [0]
    monkeypatch.setattr(spans, "time", types.SimpleNamespace(perf_counter_ns=lambda: clock[0]))
    owner = types.ModuleType("fake_owner")
    user = types.ModuleType("fake_user")

    def inner():
        clock[0] += 20
        return 1

    def outer():
        clock[0] += 10
        return owner.inner() + owner.inner()

    def chunks():
        for i in range(3):
            clock[0] += 5
            yield [i]

    owner.inner, owner.outer, owner.chunks = inner, outer, chunks
    user.outer = outer  # as if it did `from fake_owner import outer`
    tracer = Tracer()
    seen = []
    for name in ("inner", "outer", "chunks"):
        tracer.patch([owner, user], owner, name, f"fake.{name}",
                     (lambda t, a, k, item: seen.append(item)) if name == "chunks" else None)
    assert user.outer is owner.outer and user.outer is not outer
    assert user.outer() == 2
    assert [c for c in owner.chunks()] == [[0], [1], [2]]
    assert seen == [[0], [1], [2]]
    selfs = dict(zip(tracer.names, tracer.self_times()))
    calls = dict(zip(tracer.names, tracer.calls))
    assert calls == {"fake.inner": 2, "fake.outer": 1, "fake.chunks": 1}
    # outer, two inner, three chunks and the advance that ends the generator
    assert len(tracer.spans) == 1 + 2 + 3 + 1
    assert selfs == {"fake.inner": 40e-9, "fake.outer": 10e-9, "fake.chunks": 15e-9}
    tracer.uninstall()
    assert owner.outer is outer and user.outer is outer and owner.chunks is chunks


def test_tracer_closes_spans_of_an_abandoned_generator():
    owner = types.ModuleType("fake_owner")

    def chunks():
        yield 1
        yield 2

    owner.chunks = chunks
    tracer = Tracer()
    tracer.patch([owner], owner, "chunks", "fake.chunks")
    gen = owner.chunks()
    assert next(gen) == 1
    gen.close()
    assert tracer.stack == [] and all(s[3] for s in tracer.spans)


def test_installed_tracer_counts_every_level_once():
    sys.path.insert(0, str(ROOT / "src"))
    import qmds.cli

    tracer = Tracer()
    tracer.install()
    try:
        rc, payload = qmds_output("--budget-enum", "1", "--budget-samples", "0", "qmds", "3", "3")
    finally:
        tracer.uninstall()
    assert rc == 0 and qmds.cli.main.__module__ == "qmds.cli"
    m = tracer.metrics()
    routes = sum(m[f"pcode.levels_{r}"] for r in spans.LEVEL_ROUTES)
    assert routes == m["pcode.weight_present.calls"] == len(payload["presence"])
    assert m["pcode.levels_unknown"] == 0 and m["cli.self_s"] > 0
    assert m["kernels.scan_level.supports"] > 0 and m["kernels.batch_rank.matrices"] > 0
    assert 0 < m["kernels.scan_level.prefilter_pass"] <= 1
    assert m["qstab.stabilizer_from_self_orthogonal.calls"] == len(payload["records"])
    layers = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers == pytest.approx(sum(tracer.function_self_times().values()))
    assert not hasattr(qmds.cli.main, "__wrapped__")
