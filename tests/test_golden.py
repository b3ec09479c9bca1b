"""Byte-identical command output across refactors and kernel rewrites.

Each case pins the sha256 of stdout and the exit code of one invocation.
The first eleven hashes were recorded at commit 2e4e677, before
enumeration, support scans and sampling shared one search state.  Together
they take every route of min_weight, min_weight_relative and
weight_present: enumeration, level scans that find a witness or prove
absence, and sampling that stops at the proven floor or runs out.  The
last five were recorded at commit 404af8d, before the modulus search used
order tests and before mds_verify walked a prefix tree of column subsets:
`field 2 12` and `field 7 4` print moduli that search found, and the
`mds` cases print the verdict of that check over GF(64), GF(49) (both
table fields, parity side) and GF(9).  The last four were recorded at
commit 23533b4, before gf_matmul multiplied in float32, batch_rank
narrowed its stacks and rref ran on numpy: `qmds 5 4` and
`--budget-enum 2500000 qmds 5 5` are the scans, probes, sampling and
enumeration over GF(5), the `pc` cases RREF-heavy builds over GF(64) and
GF(7).  The last two were recorded at commit ba99247, before weight_present
took the shared sampling pass ahead of its level scan: `weights 4 3` at
enum 10 and 1000 samples samples first, then scans levels on both sides of
r, and `qmds 3 3` at enum 1 and no samples decides every level by scan.
The last two were recorded at commit e2d9530, before support scans found
their dependent supports on a prefix tree instead of ranking every
support: `weights 8 3` scans over GF(8) by table gathers, proving weights
1-3 absent by complete scans and finding 4-6 mid-level, and `weights 7 4`
scans over GF(7) by mod-p elimination, five complete levels that prove
1-5 absent.  The last one was recorded at commit 2c7cd07, before code
membership became a syndrome product and the product rows one table
broadcast: `pc 9 5 --route both` builds P(C) of a code over GF(81), an
odd-characteristic table field, from the product rows of the direct route
and by the spectral route, whose code build checks the twisted shift
closure.  The last two were recorded at commit b869cfa, before gf_matmul
multiplied over an extension field by the base-p digits of its elements:
`qmds 8 4` at enum 1, no support scans and 4096 samples samples witnesses
over GF(8), then rescales them and settles the distance over GF(64), and
`weights 9 3` at the same budget samples over GF(9), an extension field of
odd characteristic.  The last one was recorded at commit a9dde9c, before
the sampler read a word's weight off its message on unit columns:
`--seed 7 qmds 5 4` runs the full 10**6-message sampling pass, with no
subcode, on a Philox stream that no other case draws.  The last one was
recorded on top of commit 6a17b0d, once figdata searched at the budget it
is given: `figdata 5` is the grid the length conjecture's evidence reads,
each cell settled as the pipeline settles its code.  The last two were
recorded at commit 12c8657, before verify and the pipeline took their codes
from one family function each and the literature records became one
function: `reproduce 6C` reads the pipeline, the norm-triple family, the
literature records and their shortenings over GF(4), and `shorten` turns a
literature key into a record.  `test_verify_matches_recorded_hash` pins
verify of two fixed witnesses, recorded at the same commit.  The last six
were recorded at commit 98e5b3c, before mds_verify walked one column subset
per rotation orbit on shift-closed codes, twisted_shift was solved instead
of searched and rank_one_update took differences by XOR in characteristic
2: the `pc` cases build P(C) over GF(64) and GF(256) by both routes, `mds
81 5` and `mds 256 4` print the check over an odd and an even table field,
`q2p2 3` checks a [66,63] code that no twisted shift maps into itself, and
`qmds 8 9` at a raised support budget settles the distance of a [65,57]
code by eliminations over GF(64).  The last two were recorded at commit
d39e212, before support scans settled the supports whose kernel is a line
in one batched elimination per chunk and grew the walk's chunks two
levels above the leaves: `weights 5 4` at enum 1 and no samples decides
all 26 levels of the [26,17] P(C) over GF(5) by scan alone, the dense
levels above r included, and `conjectures --q 5..5` reports every d of
that alphabet.  The last one was recorded at commit 1951f1a, before
decide scanned every open level ahead of the sampling pass wherever the
scan gate admits them all: `--budget-support 0 qmds 5 4` admits no level,
so it keeps the full default pass over the [26,17] P(C) pinned.  At that
change five hashes were re-recorded, each with the same verdicts and exit
code, and every changed witness passing `qmds verify`, because the level
scans now find the witnesses the pass found before:
`--budget-enum 1 qmds 3 3` (64b1a91e... -> 4f111e7b..., now the same bytes
as at no samples), `--budget-enum 1 --budget-samples 10 weights 3 3
--range 1..10` (6e425495... -> e4d09b6b...), `qmds 5 4` (da50b85f... ->
e563203a...), `--budget-enum 10 --budget-samples 1000 weights 4 3`
(5e07531a... -> 28f1333a...) and `--seed 7 qmds 5 4` (e5a70f8a... ->
1ed0bc84...).  Neither `qmds 5 4` case runs the full pass any more: at
the default seed the scans settle every level and the pass draws nothing,
and at seed 7 it draws one chunk, for the weight 26 that the level's one
sampled probe missed.  The last one was recorded at commit 4eda9bd, before
decide read its route order off the scan gate at the middle level and the
walk grew its chunks from small at every depth: `qmds 5 5` at the default
budget runs the pass first, then scans the complete levels 8-11 and level
12, which stops at an early witness.
"""

import hashlib
import json

import pytest

from qmds.cli import main

GOLDEN = [
    (("qmds", "3", "3"),
     "f1507c904cbad0137157d3dd8ee23b716164c913354a8a5ec306656147bd5c1f", 0),
    (("qmds", "4", "4"),
     "53fa5091c5217d692106307844216aec8c77d32641d32611f8d5a8f6bc159212", 0),
    (("--budget-enum", "1", "qmds", "3", "3"),
     "4f111e7b8e03297a2c65b52611dbb76c1de32228e5a5254bea1cf4e4cdd99d6c", 0),
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
     "e4d09b6bb7b670b804419849a1bd31c4e266b8f8e63aedacae6fdb4d06e78695", 0),
    (("--budget-enum", "1", "--budget-support", "300", "--budget-samples", "20000",
      "qmds", "3", "3"),
     "800b95ce3f3555bb50c74e8453e9c70f0d0e4ce09ff98cee2589d80b7de7c4c5", 0),
    # the modulus search and the MDS check
    (("field", "2", "12"),
     "0e0154029883d682d629c58e4a0a3f340aba3f39d7297d8720518bf123c269a6", 0),
    (("field", "7", "4"),
     "9e3c30ff182cf82812d0ab362ee1f28991e0edd08d0451f4dce042bd74bdf02e", 0),
    (("mds", "64", "5"),
     "83f6e308f677e9357c5aa1a220a49b842f0018035c967cbe9660baefa804b3f2", 0),
    (("mds", "49", "5"),
     "e63f31d4a58834f1c950ab0dcbe10a1517a785362ccf1f341994bdd48f4504fd", 0),
    (("mds", "9", "4"),
     "c6ac26910fbaf318e2a260ead270ba1f8c0972098fa720cc1fabedfa392ea9e0", 0),
    # the encode, rank and RREF kernels
    (("qmds", "5", "4"),
     "e563203a9208afe9ed65cba62c21d1defd8b0b2e470c5f93a3ec7bf5c6a6aa72", 0),
    (("--budget-enum", "2500000", "qmds", "5", "5"),
     "89fd1becd1485c3bbea5b097ff8b0d0ef0fae730f240d95c944025292e770064", 0),
    (("pc", "8", "2", "--route", "both"),
     "205a587e74153203d317e5dd76c76081859fe1e27aa569058f980fd9faaa3bec", 0),
    (("pc", "7", "4", "--route", "both"),
     "5c122b82b51e06b09734bb73c3dbd28128459ec0be6c99f7e66f9bdb6265606b", 0),
    # the presence route order: level scans first where the gate admits them
    (("--budget-enum", "10", "--budget-samples", "1000", "weights", "4", "3"),
     "28f1333a7773e4ed744a158511a39bec26eda961529b085aca7ddf853f651e1c", 0),
    (("--budget-enum", "1", "--budget-samples", "0", "qmds", "3", "3"),
     "4f111e7b8e03297a2c65b52611dbb76c1de32228e5a5254bea1cf4e4cdd99d6c", 0),
    # support scans on the prefix tree, table and mod-p fields
    (("--budget-enum", "1", "--budget-samples", "0", "weights", "8", "3",
      "--range", "1..6"),
     "74698f40b4eac290527d167d6ce098544ff22a6456a23d51244a9b8526c095d0", 0),
    (("--budget-enum", "1", "--budget-samples", "0", "weights", "7", "4",
      "--range", "1..9"),
     "9c9c4a63adc72e3eeba8db21412260a7541ecccf69ab18d68b0d8e5d0a407604", 3),
    # product rows, shift closure and the direct route over GF(81)
    (("pc", "9", "5", "--route", "both"),
     "dd239e731c456915d44806d7bd1bef96261fa51813f5b4950459606c68a44616", 0),
    # encodes over extension fields by their base-p digits
    (("--budget-enum", "1", "--budget-support", "0", "--budget-samples", "4096",
      "qmds", "8", "4"),
     "84b130bb961d02db89464f803358965dd1dd28f5e02bbffd3e5cc2a0adfcd659", 3),
    (("--budget-enum", "1", "--budget-support", "0", "--budget-samples", "4096",
      "weights", "9", "3"),
     "2c074d5e78a19739c39aab08de33e7ac3038060cc53c6b7c7ea964b64f86db0f", 3),
    # the default budget on another seed's stream
    (("--seed", "7", "qmds", "5", "4"),
     "1ed0bc843d7977e74342a9c92ac42d0d3b0eb9a7ce42e21d045162da7b529fe4", 0),
    # the achievability grid, each cell settled at the default budget
    (("figdata", "5"),
     "a44f63b5491d66e5e31258dd138033e59342de8608a46ea73bc0340983937cb5", 0),
    # the literature records, their shortenings and the family records
    (("reproduce", "6C"),
     "2f0f8fc0d8a6823db489638d0726a9d87e46e803a412dca4f2e046f1ae45a31d", 0),
    (("shorten", "3:10:0:6", "1"),
     "eb2dce2208cf6fa6e9746309cd7b3418ecf8984c134343bde83b26041f417cd6", 0),
    # the necklace MDS check, the solved twisted shift and XOR elimination
    (("pc", "8", "5", "--route", "both"),
     "47b517d21b6e2f1ce47e7ffa1f5b7a4aabefccfaa8f2f22fc5c6596ab8c4c1bc", 0),
    (("pc", "16", "5", "--route", "both"),
     "423e70f4f9272279303be1b3188b9714f2b7585172e5ce57f82df111d679bb47", 0),
    (("mds", "81", "5"),
     "fdd98110f2a592a90f89a933d24b902589503218f1b76a559f7ba79129230dd9", 0),
    (("mds", "256", "4"),
     "2fb616829aa940363a488f3f54a9c2d26e4e487a8524d4375f8f03f09152fb3f", 0),
    (("q2p2", "3"),
     "1e278e16de46e8ea740ebe4bb9858d616f007c0129202ea106e46d9148f96ed7", 0),
    (("--budget-support", "1000000000", "--budget-samples", "20000", "qmds", "8", "9"),
     "f87a286a160d56952cc1f3838e0f04f3061d6012962a38bb8474d94d0241acfd", 0),
    # batched kernel-line probes and growing chunks above the leaves
    (("--budget-enum", "1", "--budget-samples", "0", "weights", "5", "4"),
     "a477f9b98b0f4f9890642ab747db2c65b6e8e3b289949c9ad39ba726dbb7f2a8", 0),
    (("conjectures", "--q", "5..5"),
     "d69ceb375c1b37e4289d94fc5c500e3ea312363641dea0c5d3d7837493b4e687", 0),
    # the full default sampling pass where the scan gate admits no level
    (("--budget-support", "0", "qmds", "5", "4"),
     "b90ba41919b48709539eb3fa88663bbcb041a78f82a0f8d54ffe540f23bec855", 3),
    # the pass ahead of the level scans where the gate refuses the middle level
    (("qmds", "5", "5"),
     "433785451bf6c5beab6aa5b9e65a54cc499808eba104932c35c72d749cbeb08e", 0),
]

# Witnesses as `qmds 3 4` (weight 10) and `q2p2 2` print them, each with the
# sha256 of verify's stdout; verify exits 0 on both.
VERIFY_GOLDEN = [
    ({"d": 4, "n": 10, "q": 3, "seed": 49374, "support": list(range(10)),
      "values": [1, 2] * 5, "weight": 10},
     "0c830229056e7812e3c7ea5a42049e0aed737ab5b02e689e0865d2cc3dc2eb58"),
    ({"d": 4, "n": 18, "q": 4, "seed": 49374, "support": list(range(18)),
      "values": [2, 3, 3] * 5 + [2, 1, 1], "weight": 18},
     "8150a6aa51fd6ecbcf010056d868c05a8ed26611c235eb6ca7a0e0f32f4f73a5"),
]


@pytest.mark.parametrize("argv,digest,status", GOLDEN, ids=[" ".join(a) for a, _, _ in GOLDEN])
def test_stdout_matches_recorded_hash(capsys, argv, digest, status):
    got = main(list(argv))
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), got) == (digest, status)


@pytest.mark.parametrize("witness,digest", VERIFY_GOLDEN, ids=["qmds-3-4-w10", "q2p2-2"])
def test_verify_matches_recorded_hash(capsys, tmp_path, witness, digest):
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness))
    got = main(["verify", str(path)])
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), got) == (digest, 0)
