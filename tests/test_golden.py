"""Byte identity of traces and default check reports on a fixed corpus.

Each case pins the sha256 of ``Trace.dumps()`` and of every report line that
``lumigather check`` prints by default for that trace (``default_checks`` plus
``equivariance``, run from ``CHECKS`` on the parsed trace with default
arguments).  The digests were recorded before the trace parse and the engine views were
cached, those of the n=5 ``_SCHEDULE_CASES`` before the asynchronous engine
read its legality from one field per robot, and those of the n=10 cases
before it kept its ready, mover and starvation state incrementally; any
change to them means a trace or a report changed.

Two more pin sets cover what the default checks do not print:

* ``ANNOTATED`` pins the potential-annotated copy of each ``elect-one-lds``
  (potential f) and ``lu-gather`` (potential g) trace.  Its interval entries
  are the only serialized bytes that ``SqrtSum.interval`` reaches.
* ``ENUMERATED`` pins the ``enumerate_unfair`` report of three bundled
  scenarios at depth 6 with the move fractions 1 and 1/2, so that truncated
  moves are covered.

On the same corpus, each trace must survive ``Trace.parse`` and ``dumps``
byte for byte, and the incremental ``TraceData.replayed`` must agree with a
full per-robot recomputation at every instant.

Run ``PYTHONPATH=src python tests/test_golden.py`` to print the current digests.
"""

import functools
import hashlib
import random
from pathlib import Path

import pytest

from lumigather.checker import (
    CHECKS,
    TraceData,
    annotate_potentials,
    default_checks,
    enumerate_unfair,
)
from lumigather.configuration import canonical
from lumigather.engine import Scenario, Trace, run
from lumigather.fuzz import random_scenario
from lumigather.rational import Rat

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

_FUZZ_CASES = [
    (alg, n, seed)
    for alg, seed in (("three-color", 41), ("six-color", 43))
    for n in (4, 6)
]

# (case name, algorithm, scheduler, policy, seed, n): the other asynchronous
# adversaries and the fair round schedulers at n=5, and the random and the
# lockstep asynchronous adversaries at n=10
_SCHEDULE_CASES = [
    *(
        (f"fuzz-three-color-{policy}-n5", "three-color", "async", policy, 47, 5)
        for policy in ("round-robin", "stingy", "rigid", "ssync-embedded", "ssync-stingy")
    ),
    *(
        (f"fuzz-{alg}-{sched}-n5", alg, sched, "random", 53, 5)
        for alg in ("elect-one-lds", "lu-gather")
        for sched in ("fsync", "ssync")
    ),
    *(
        (f"fuzz-three-color-{policy}-n10", "three-color", "async", policy, 47, 10)
        for policy in ("random", "ssync-embedded")
    ),
]


def corpus():
    """(case name, Scenario) pairs of the golden corpus."""
    cases = [(p.stem, Scenario.load(p)) for p in sorted(SCENARIOS.glob("*.json"))]
    for alg, n, seed in _FUZZ_CASES:
        sc = random_scenario(random.Random(seed * 100 + n), alg, "async", n, bound=8)
        cases.append((f"fuzz-{alg}-n{n}", sc))
    for name, alg, sched, policy, seed, n in _SCHEDULE_CASES:
        sc = random_scenario(random.Random(seed * 100 + n), alg, sched, n, bound=8, policy=policy)
        cases.append((name, sc))
    return cases


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(scenario):
    """{"trace": sha, <check>: sha, ...} for one scenario."""
    text = run(scenario).dumps()
    td = TraceData.of(Trace.parse(text))
    out = {"trace": _sha(text)}
    for name in default_checks(td.algorithm.id, td.scenario.scheduler) + ["equivariance"]:
        out[name] = _sha(str(CHECKS[name](td)))
    return out


def annotated_digest(scenario):
    """sha of the trace annotated with its algorithm's potential, as ``check --annotate`` writes it."""
    return _sha(annotate_potentials(Trace.parse(run(scenario).dumps())).dumps())


ENUM_DEPTH = 6
ENUM_FRACTIONS = (Rat(1), Rat(1, 2))


def enumerated_digest(scenario):
    """sha of the ``enumerate_unfair`` report from the scenario's robots and delta."""
    rep = enumerate_unfair(
        scenario.robots,
        scenario.algorithm,
        ENUM_DEPTH,
        fractions=ENUM_FRACTIONS,
        delta=scenario.delta,
    )
    return _sha(str(rep))


GOLDEN = {
    "line-lu": {
        "trace": "3f9e5e69f6325669afd56c2ff6f74f8d37dfb5693a3dc2cb240389a73ad50149",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "monotone": "d70204e5e79e809b1da163a6cfd3f0c8ac20339ae5c1e68aaa06cdbdad7b09bd",
        "gather": "c205218c4d14f7fd15d7ea0ad8ccd882cb61f115fb585c123927cc930e029d57",
        "equivariance": "b61f7540ddc3c961573ee2922e85b923b2e586e889c537ab75eee2be951227a9",
    },
    "rectangle-unfair": {
        "trace": "07843d00292747105c661bdbcef3c9f4a0c88340a3c39dc3c23e2701cea937c1",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "monotone": "07cd137ee1c2b76e1a4fe831d1324816cb7e2163997d563eefdb6afc50bcb6aa",
        "equivariance": "29215c78ee236cae52d962a6208505b430502b41bcd6d23b5af1f0f99ed8ffce",
    },
    "segment100": {
        "trace": "ce6f67d5a38915778ccb20773c907fe6b4a4684add697e02ec66335204903b3b",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "shrink": "c46a660a688fa0bd8ac8ee508ccab60b1f7fe3198b2f04a8bd066976c66ceeb4",
        "gather": "b018dd1f22301b2bb4d6c7129196af64cdae5a6b4f3ff1d4a19156f0e48890ec",
        "equivariance": "b61f7540ddc3c961573ee2922e85b923b2e586e889c537ab75eee2be951227a9",
    },
    "square": {
        "trace": "e2e5062e4f9e4359f019b4feda513e373440e9cb53ad5325f6696c3b9f5c0600",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "cycle": "dd7f68baf0f88d04d5b0e7dc53de9669d5567019a607b4b155f898aefd6c98ec",
        "switch": "aa5fb42318997cdebe161ce3c778a54e2adae94afa202853854776dbefb16f8f",
        "gather": "8c4074ca063207df9f90295ee38cf74df2083522a51a9a884bfb5a87c3138fa2",
        "equivariance": "b61f7540ddc3c961573ee2922e85b923b2e586e889c537ab75eee2be951227a9",
    },
    "triangle-enum": {
        "trace": "daf713b3ec87a7cdda43410d57fe582b3b3a8ea1dcdb4f7c711f916c594ac0fb",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "monotone": "e927a9c6f2103305137aa2f073739712ccb36e2db1b3b5cf9b31ad44dfe76f90",
        "equivariance": "f5c7fd7bbd1b65e23c70e16937650f85ffd69903ba31ae1e0af2a7b224bb5a63",
    },
    "fuzz-three-color-n4": {
        "trace": "d3f7417bbb9ed7b91d219d21eff5139a8359e25f8d8df2c658c6bba0ee854bd0",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "cycle": "ef5f0868671ecd21818ad453bed612f62baee050a84eb8635baf3f8afa8b9c32",
        "switch": "c9b57a2695a9762a2e397c1819796a595ea1ddb416c766018a9dd559a634bb52",
        "gather": "d916026d7601a6b611dbe032cc660207f692d0512867a6f9e6ec7b43b0cd922c",
        "equivariance": "b61f7540ddc3c961573ee2922e85b923b2e586e889c537ab75eee2be951227a9",
    },
    "fuzz-three-color-n6": {
        "trace": "5de53b41134aafead635d38f986df928542bc9f7d11b6f0a86a95a83a9c6b90a",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "cycle": "e01dfa5df729433b903124311f6e4fc51e3fa00bbe3d5bf938d61069ab55eb63",
        "switch": "ae04bbf3c8182618ebf79ad83382705d91bb2b7ac4a53e963cc308435d83d812",
        "gather": "7186277a89412de8361b9ce22e308ff1aa9d54083d177ff06e1bc8c9c2a5f6bc",
        "equivariance": "b8202ac1a748b98ef897d2a9ab48fea382cb65d14158dac6b8beafa68d6d66ff",
    },
    "fuzz-six-color-n4": {
        "trace": "fe95fd8e7c8d4d9df29f2bda38cbfff4db2dbe1ab2edc90e73f54fcda0acd589",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "cycle": "cd26b0c92e1932c31a08e6417c0804d4fa81d844178d03f3a6e5f9c5b93f9d43",
        "switch": "05be1b71ef09b6987a7dcf21894e88d325e0ff9632f7745097d8b5f04748afba",
        "gather": "47301b3758aabcc2d0508facb0f746ad8641f81ce25d73d83c09f2ac8d15d808",
        "equivariance": "b61f7540ddc3c961573ee2922e85b923b2e586e889c537ab75eee2be951227a9",
    },
    "fuzz-six-color-n6": {
        "trace": "3a7bb3a8d05e91a7b637e5ff403e9fcb95770b6e8a87784f8b05519a13295504",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "cycle": "53e26dc05c531ba167ecb82e84ea780c7c3018c4c81ce1aa322215e74495ee19",
        "switch": "56ed7481aae3b69cd991de77d2e2218135c758b73aea99910f29aec500bbfdfc",
        "gather": "7e08c6f2d4e99cf39d01f70f4dd876b9851f8fcfde0a71e677e85e4747fd5274",
        "equivariance": "b8202ac1a748b98ef897d2a9ab48fea382cb65d14158dac6b8beafa68d6d66ff",
    },
    "fuzz-three-color-round-robin-n5": {
        "trace": "a8ad25adb07d8aa1133e0bd1fc400c57d5e2484fb0aa79872ab887911ba07e3e",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "cycle": "c84d207a4187a5e0e97b0369f24798ece8ea81e18d18f74298b5627623dc57ae",
        "switch": "1365d1560f5f10410c482324f13943b3eb816d75d3ffa92dfa04d221b256db86",
        "gather": "87d2c1bcd4b52a08b9e4e11b4e2abb2e51d48ebfc56fd31740db5d71962c1f6a",
        "equivariance": "0993185457704fd9a62120ff4453283bc71af3710743282986eb11ff4d1ff1c9",
    },
    "fuzz-three-color-stingy-n5": {
        "trace": "b0a880ce3d8ae79c328d8ac55a57956539fc5d8b4e8b4b0ffcbc9260c7e940d9",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "cycle": "53e26dc05c531ba167ecb82e84ea780c7c3018c4c81ce1aa322215e74495ee19",
        "switch": "931325c39fe7e0149511119bc56ce9a8cd234287c62e6b7f97dc5df9707e9bc4",
        "gather": "a9a74ce6bb52c0cc69c2cebe65e7ce489f30e3ec8ac624ae5786e5f1f2403ec2",
        "equivariance": "0993185457704fd9a62120ff4453283bc71af3710743282986eb11ff4d1ff1c9",
    },
    "fuzz-three-color-rigid-n5": {
        "trace": "58d932b2477db52705509343da0b25cb5d7fbb2a0ad3897748e61d1acc0b6384",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "cycle": "d1a8bcd13c96f17d250a5b397ac34d21338e7f8f84e1da79593d4f4f10613928",
        "switch": "7499e8ac7d6b0e81d5c3714b64286cd25c41c7acd53bce70bf0cab0c3be52c9e",
        "gather": "99f4514746a6cd56187ba02230e3ef2ff0f3e570e4230e24fad04ea0b8d3bd6d",
        "equivariance": "0993185457704fd9a62120ff4453283bc71af3710743282986eb11ff4d1ff1c9",
    },
    "fuzz-three-color-ssync-embedded-n5": {
        "trace": "f0d7b934cc1bee6a9534fb9e610e76610e34cd78c628e7909ed06bbd48b09878",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "cycle": "1d2d5e605450c38a0f3b2ac9dd12b329a643d8149fe4231da93a4d9c082e463d",
        "switch": "232e33ce9b61a56486935431cd6cddc52881ed2b3baf402eb0eb8c0548ad7ea2",
        "gather": "ed67036b12d18712b2337c327ee460f8662e95f0f7e9de849dcd74060db1a9ce",
        "equivariance": "0993185457704fd9a62120ff4453283bc71af3710743282986eb11ff4d1ff1c9",
    },
    "fuzz-three-color-ssync-stingy-n5": {
        "trace": "89d713b358b1aa6942a54f82333f277fe6d1bd9c6b4ee794396a84c4281b0886",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "cycle": "cd26b0c92e1932c31a08e6417c0804d4fa81d844178d03f3a6e5f9c5b93f9d43",
        "switch": "27754f908be89c93db93a8c7c832b29dacd2dd41aed1d9d42c79e54f54d353e3",
        "gather": "324eb65dead3545cff474e875cac8dad5a73b97c2bd5cb73566cf154acd6cb40",
        "equivariance": "0993185457704fd9a62120ff4453283bc71af3710743282986eb11ff4d1ff1c9",
    },
    "fuzz-elect-one-lds-fsync-n5": {
        "trace": "851f9e02ceab339bd5b575b30270ba11d34d4defb24df4c81c03bebede07fab9",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "monotone": "701b632162bb659cca21271b0f40f79e786933300515b9bd6e73a01a5e944c94",
        "equivariance": "0993185457704fd9a62120ff4453283bc71af3710743282986eb11ff4d1ff1c9",
    },
    "fuzz-elect-one-lds-ssync-n5": {
        "trace": "6b693ff04283d80354be75d43d45876c088ca39cb2f26543ea36824d27e8585c",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "monotone": "d36701d17570dc7050b4b331bc34846c1eb802ffc5846fc5e14ed377c08aa6ac",
        "equivariance": "0993185457704fd9a62120ff4453283bc71af3710743282986eb11ff4d1ff1c9",
    },
    "fuzz-lu-gather-fsync-n5": {
        "trace": "34f61f7cfd42d2d2cb0d34c6cb073e7c77e13a986b7b4ee7b2459a7230acfc20",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "monotone": "fd9d46ab41daaaf0655fdeee1aa3a94fc7b25becc68c54d31e5d803990d34f8b",
        "gather": "a114edd9712a015ef7ed10426596faf69300547b3ea106fc6acb9bb159dced89",
        "equivariance": "623af41ef52d5aaa1e9e28963b6c4e03d4890bdb206894be99f499813925f430",
    },
    "fuzz-lu-gather-ssync-n5": {
        "trace": "1c4e7cf7d2715733548bd09a32e0dbbc1a649f78fd8a64b854db650603a9b4f0",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "monotone": "d70204e5e79e809b1da163a6cfd3f0c8ac20339ae5c1e68aaa06cdbdad7b09bd",
        "gather": "b9a9795181875148d5bdb863816abcee724d68b417d855acec2021847c71cff9",
        "equivariance": "0993185457704fd9a62120ff4453283bc71af3710743282986eb11ff4d1ff1c9",
    },
    "fuzz-three-color-random-n10": {
        "trace": "84475173491c6166c9e50c93f963b23a920709496d5998418fe62b2a848441ff",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "cycle": "ef69e13448e373012685ad879e30fc8349fb913ee1941a0abbdfbc8671b4008b",
        "switch": "49a1230e1270eb334ab60dc8b8b4dcd8e402c617b40e22a7d0392dd517073906",
        "gather": "579ade70bfb201fbaabd77be9ae5e41b226677573ab59dc8f049e0da9563b77e",
        "equivariance": "234c0db617f60c4eb287d88b0fe0ea5d31afdca25b16be0fe2eeb23014a9cdd6",
    },
    "fuzz-three-color-ssync-embedded-n10": {
        "trace": "81ec38a1592a99abf6767665faf494143ef016fe0bfb95c9ea8f5dbf02398c28",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "cycle": "0d69f0bc6baa5fd4a5ef7ddb719d2992bf13f9d628a95b56a9e5d58e628b9f7a",
        "switch": "fd8a1cf9cd1d2d0cf5e3cdbcdbdd1a2f1d215ecbba4d1a426f533b8720a045b4",
        "gather": "7f2074db26f0e1ffbe70f4e0dbd9959f600f24335ec0667a0793dd3e42589003",
        "equivariance": "234c0db617f60c4eb287d88b0fe0ea5d31afdca25b16be0fe2eeb23014a9cdd6",
    },
}


ANNOTATED = {
    "line-lu": "2c4860021f33d16d7a6b088faf088a998e0e5968108e060dc8b0acd963d2f658",
    "rectangle-unfair": "b7be8ba5a7d4e216ec8c20b9937657e8be03a784ee9ab2671dd90df12b6c9823",
    "triangle-enum": "d10ad2e7a6980bbdbb488d2668c80c26fdbe814c9deded87cea32e06d6e7b4a8",
    "fuzz-elect-one-lds-fsync-n5": "e2f2afa0664f1da6692e52b2284a41411351cf2472552cd17e0cbd75dec0838a",
    "fuzz-elect-one-lds-ssync-n5": "5a27f40cef3b6fded2d589b30104d62acfcce97ccecc8fd1fc6780f36c69a75f",
    "fuzz-lu-gather-fsync-n5": "e656a0d6989816e908168d4012e8afd33e588bdce6664ba034d40bcd8731c97a",
    "fuzz-lu-gather-ssync-n5": "c3e75126d271ec85bbc492ce07259797e87c298a169bb42037b661a16092dfee",
}

ENUMERATED = {
    "line-lu": "cfd6be36b1386d5ba907bc896410dd34d9072396dbe78472147898b83cdec9e8",
    "rectangle-unfair": "a79084aad4b95927ee73c850b8935ecdcda69ba4bf922c7b28a73bfdbb9adb3e",
    "triangle-enum": "328c483a48f4210dc8028f87a9292646e62c3304d0d2f57f8936758f95beb742",
}


CORPUS = corpus()
POTENTIAL_CASES = [(n, sc) for n, sc in CORPUS if sc.algorithm in ("elect-one-lds", "lu-gather")]
ENUM_CASES = [(n, sc) for n, sc in CORPUS if n in ("line-lu", "rectangle-unfair", "triangle-enum")]


@pytest.mark.parametrize("name,scenario", CORPUS, ids=[name for name, _ in CORPUS])
def test_golden_digests(name, scenario):
    assert digests(scenario) == GOLDEN[name]


@pytest.mark.parametrize("name,scenario", POTENTIAL_CASES, ids=[n for n, _ in POTENTIAL_CASES])
def test_annotated_potentials(name, scenario):
    assert annotated_digest(scenario) == ANNOTATED[name]


@pytest.mark.parametrize("name,scenario", ENUM_CASES, ids=[n for n, _ in ENUM_CASES])
def test_enumerate_reports(name, scenario):
    assert enumerated_digest(scenario) == ENUMERATED[name]


@functools.lru_cache(maxsize=None)
def _text(name):
    return run(dict(CORPUS)[name]).dumps()


@pytest.mark.parametrize("name", [n for n, _ in CORPUS])
def test_parse_then_dumps_is_byte_identical(name):
    text = _text(name)
    assert Trace.parse(text).dumps() == text


@pytest.mark.parametrize("name", [n for n, _ in CORPUS])
def test_incremental_replay_equals_full_recomputation(name):
    td = TraceData(Trace.parse(_text(name)))

    def full(t):
        return canonical([(td.visible_pos(i, t), td.visible_color(i, t)) for i in range(td.n)])

    times = range(td.end_time + 1)
    expected = [full(t) for t in times]
    assert [td.replayed(t).entries for t in times] == expected
    # out of order, every instant is recomputed in full
    td = TraceData(Trace.parse(_text(name)))
    assert [td.replayed(t).entries for t in reversed(times)] == expected[::-1]


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: digests(sc) for name, sc in CORPUS}, width=100)
    pprint.pprint({name: annotated_digest(sc) for name, sc in POTENTIAL_CASES}, width=100)
    pprint.pprint({name: enumerated_digest(sc) for name, sc in ENUM_CASES}, width=100)
