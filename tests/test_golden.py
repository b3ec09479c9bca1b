"""Byte-identical command output across refactors of the weight search.

Each case pins the sha256 of stdout and the exit code of one invocation.
The hashes were recorded at commit 2e4e677, before enumeration, support
scans and sampling shared one search state.  Together the cases take every
route of min_weight, min_weight_relative and weight_present: enumeration,
level scans that find a witness or prove absence, and sampling that stops
at the proven floor or runs out.
"""

import hashlib

import pytest

from qmds.cli import main

GOLDEN = [
    (("qmds", "3", "3"),
     "f1507c904cbad0137157d3dd8ee23b716164c913354a8a5ec306656147bd5c1f", 0),
    (("qmds", "4", "4"),
     "53fa5091c5217d692106307844216aec8c77d32641d32611f8d5a8f6bc159212", 0),
    (("--budget-enum", "1", "qmds", "3", "3"),
     "64b1a91e395774d0c2f6ca9fd08d2572a33727a5987e2be109fa5159a41eabf9", 0),
    (("--budget-enum", "1", "--budget-support", "0", "--budget-samples", "3000",
      "qmds", "4", "3"),
     "9c34e1544ed7256172dafd0acd5b0be5f4e9c8507f81f09911718351a6b920a2", 3),
    (("--budget-enum", "1", "--budget-support", "0", "--budget-samples", "5000",
      "weights", "4", "3"),
     "97b93e4c43235982c940f9ed280961fd8b267e84f519955f26686ca261840fff", 3),
    (("conjectures", "--q", "2..4"),
     "819439f50a468bef4274c03f2ba907a74ebb639f11703a72d80ea5e6dbdf18be", 0),
    (("--budget-enum", "1", "--budget-support", "100000", "conjectures", "--q", "3..4"),
     "6a1b9058130d3cfb8907ddbb47467878cd8e37538c3b1abb1d206df0fa110423", 3),
    (("reproduce", "6A"),
     "c5e6bb5a3a23300636123be79a4d762fa38530a268c926560c616fb5e8dd67a8", 0),
    (("q2p2", "2"),
     "10dd60682c01b2111f34408be32d8add55ee4358b51cf5247ebd0ebc16640508", 0),
    # weight_present scans that find and that rule out, and relative
    # sampling that stops at the floor after partial level scans
    (("--budget-enum", "1", "--budget-samples", "10", "weights", "3", "3",
      "--range", "1..10"),
     "6e425495471df65aa9a5751218aa5411e4fa365c0d1e82d795f337d1158e0d73", 0),
    (("--budget-enum", "1", "--budget-support", "300", "--budget-samples", "20000",
      "qmds", "3", "3"),
     "800b95ce3f3555bb50c74e8453e9c70f0d0e4ce09ff98cee2589d80b7de7c4c5", 0),
]


@pytest.mark.parametrize("argv,digest,status", GOLDEN, ids=[" ".join(a) for a, _, _ in GOLDEN])
def test_stdout_matches_recorded_hash(capsys, argv, digest, status):
    got = main(list(argv))
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), got) == (digest, status)
