"""Byte identity of traces and default check reports on a fixed corpus.

Each case pins the sha256 of ``Trace.dumps()`` and of every report line that
``lumigather check`` prints by default for that trace (``default_checks`` plus
``equivariance``, run from ``CHECKS`` on the parsed trace with default
arguments).  The report digests were recorded before the trace parse and
the engine views were cached, those of the n=5 ``_SCHEDULE_CASES`` before
the asynchronous engine read its legality from one field per robot, and
those of the n=10 cases before it kept its ready, mover and starvation state
incrementally; any change to them means a report changed.  The trace
digests were re-pinned once when traces stopped repeating an unchanged
configuration (format 2); ``FORMAT1_TRACES`` keeps the earlier ones.

Two more pin sets cover what the default checks do not print:

* ``ANNOTATED`` pins the potential-annotated copy of each ``elect-one-lds``
  (potential f) and ``lu-gather`` (potential g) trace.  Its interval entries
  are the only serialized bytes that ``SqrtSum.interval`` reaches.
* ``ENUMERATED`` pins the ``enumerate_unfair`` report of three bundled
  scenarios at depth 6 with the move fractions 1 and 1/2, so that truncated
  moves are covered.

``FORMAT1_TRACES`` and ``FORMAT1_ANNOTATED`` pin the same traces and
annotated copies in format 1, with a Config line at every instant: ``format1``
rebuilds those bytes from a trace that has Config lines only where the
configuration changes.

On the same corpus, each trace must survive ``Trace.parse`` and ``dumps``
byte for byte, ``TraceData.shown`` and ``replayed``, read from one forward
pass over the trace, must agree at every instant with each robot's own
latest Compute and move (``shown_by_robot``), and ``replay`` must reject a
deleted changing Config line, an inserted repeated one and one after End.

Run ``PYTHONPATH=src python tests/test_golden.py`` to print the current digests.
"""

import functools
import hashlib
import random
from bisect import bisect_left
from operator import attrgetter, itemgetter
from pathlib import Path

import pytest

from lumigather.checker import (
    CHECKS,
    TraceData,
    annotate_potentials,
    default_checks,
    enumerate_unfair,
    validate_trace,
)
from lumigather.configuration import canonical
from lumigather.engine import Scenario, Trace, run
from lumigather.fuzz import random_scenario
from lumigather.rational import Rat

import forgeries

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


def format1(text):
    """Trace text in format 1: a Config line at every instant from 0 to End.

    Format 2 writes a Config line only at instant 0 and where the observed
    configuration changes.  For each instant without one, a copy of the
    latest Config line is inserted with that instant as its t, after the
    instant's MoveProgress lines and before all its other lines; in an
    annotated trace the Potential line that follows a Config line is copied
    with it.
    """
    lines = Trace.parse(text).lines
    out = [lines[0]]
    copies = []  # the latest Config line and its Potential line
    todo = 0  # the first instant that has no Config line yet

    def fill(stop):
        nonlocal todo
        for t in range(todo, stop):
            out.extend({**ln, "t": t} for ln in copies)
        todo = max(todo, stop)

    for ln in lines[1:]:
        kind, t = ln["kind"], ln["t"]
        if kind == "Config":
            fill(t)
            copies = [ln]
            todo = t + 1
        elif kind == "Potential":
            copies.append(ln)
        else:
            fill(t if kind == "MoveProgress" else t + 1)
        out.append(ln)
    return Trace(out).dumps()


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
        "trace": "6ebf6318514003663a0c9d8ac960c67990ff5e4630042ab81920e4b3c64ee34a",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "monotone": "d70204e5e79e809b1da163a6cfd3f0c8ac20339ae5c1e68aaa06cdbdad7b09bd",
        "gather": "c205218c4d14f7fd15d7ea0ad8ccd882cb61f115fb585c123927cc930e029d57",
        "equivariance": "b61f7540ddc3c961573ee2922e85b923b2e586e889c537ab75eee2be951227a9",
    },
    "rectangle-unfair": {
        "trace": "1599c97f1afc9400217ba37e3ef8d9facd648bde3f5e870ce42c5e2d69c1403d",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "monotone": "07cd137ee1c2b76e1a4fe831d1324816cb7e2163997d563eefdb6afc50bcb6aa",
        "equivariance": "29215c78ee236cae52d962a6208505b430502b41bcd6d23b5af1f0f99ed8ffce",
    },
    "segment100": {
        "trace": "41efc731540019a5eed3e76c39c687dee228d2b4e3bec44465533ff89a7d63d8",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "shrink": "c46a660a688fa0bd8ac8ee508ccab60b1f7fe3198b2f04a8bd066976c66ceeb4",
        "gather": "b018dd1f22301b2bb4d6c7129196af64cdae5a6b4f3ff1d4a19156f0e48890ec",
        "equivariance": "b61f7540ddc3c961573ee2922e85b923b2e586e889c537ab75eee2be951227a9",
    },
    "square": {
        "trace": "8e081f9cd78a6cbd00c15b174b9c45661ae529a2452fd003fc5e897e12229878",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "cycle": "dd7f68baf0f88d04d5b0e7dc53de9669d5567019a607b4b155f898aefd6c98ec",
        "switch": "aa5fb42318997cdebe161ce3c778a54e2adae94afa202853854776dbefb16f8f",
        "gather": "8c4074ca063207df9f90295ee38cf74df2083522a51a9a884bfb5a87c3138fa2",
        "equivariance": "b61f7540ddc3c961573ee2922e85b923b2e586e889c537ab75eee2be951227a9",
    },
    "triangle-enum": {
        "trace": "48035496fbe9fb3e1f9424545faed897e32889d5d78c17768521853c352aa8e7",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "monotone": "e927a9c6f2103305137aa2f073739712ccb36e2db1b3b5cf9b31ad44dfe76f90",
        "equivariance": "f5c7fd7bbd1b65e23c70e16937650f85ffd69903ba31ae1e0af2a7b224bb5a63",
    },
    "fuzz-three-color-n4": {
        "trace": "5cd8eaf9548d6f0be82f469ceda3133114bd2151b7fd564c662859e0adbc4ee3",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "cycle": "ef5f0868671ecd21818ad453bed612f62baee050a84eb8635baf3f8afa8b9c32",
        "switch": "c9b57a2695a9762a2e397c1819796a595ea1ddb416c766018a9dd559a634bb52",
        "gather": "d916026d7601a6b611dbe032cc660207f692d0512867a6f9e6ec7b43b0cd922c",
        "equivariance": "b61f7540ddc3c961573ee2922e85b923b2e586e889c537ab75eee2be951227a9",
    },
    "fuzz-three-color-n6": {
        "trace": "49f54b6ffab67f070a5138fe8109d96efa18a7eabec372e163da8e726ed633d2",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "cycle": "e01dfa5df729433b903124311f6e4fc51e3fa00bbe3d5bf938d61069ab55eb63",
        "switch": "ae04bbf3c8182618ebf79ad83382705d91bb2b7ac4a53e963cc308435d83d812",
        "gather": "7186277a89412de8361b9ce22e308ff1aa9d54083d177ff06e1bc8c9c2a5f6bc",
        "equivariance": "b8202ac1a748b98ef897d2a9ab48fea382cb65d14158dac6b8beafa68d6d66ff",
    },
    "fuzz-six-color-n4": {
        "trace": "0316125eb306041171f2208eb134533f8840d3ffe045a350d493adad3b446da4",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "cycle": "cd26b0c92e1932c31a08e6417c0804d4fa81d844178d03f3a6e5f9c5b93f9d43",
        "switch": "05be1b71ef09b6987a7dcf21894e88d325e0ff9632f7745097d8b5f04748afba",
        "gather": "47301b3758aabcc2d0508facb0f746ad8641f81ce25d73d83c09f2ac8d15d808",
        "equivariance": "b61f7540ddc3c961573ee2922e85b923b2e586e889c537ab75eee2be951227a9",
    },
    "fuzz-six-color-n6": {
        "trace": "f33331a0704a572dac77bafb35212f3d6f089764dc4ef26bfb8d126f7d9dcf34",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "cycle": "53e26dc05c531ba167ecb82e84ea780c7c3018c4c81ce1aa322215e74495ee19",
        "switch": "56ed7481aae3b69cd991de77d2e2218135c758b73aea99910f29aec500bbfdfc",
        "gather": "7e08c6f2d4e99cf39d01f70f4dd876b9851f8fcfde0a71e677e85e4747fd5274",
        "equivariance": "b8202ac1a748b98ef897d2a9ab48fea382cb65d14158dac6b8beafa68d6d66ff",
    },
    "fuzz-three-color-round-robin-n5": {
        "trace": "4c07f025b1af3fc7250f06976d8c15d2d413ef475d9535d56e26a4fb86905933",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "cycle": "c84d207a4187a5e0e97b0369f24798ece8ea81e18d18f74298b5627623dc57ae",
        "switch": "1365d1560f5f10410c482324f13943b3eb816d75d3ffa92dfa04d221b256db86",
        "gather": "87d2c1bcd4b52a08b9e4e11b4e2abb2e51d48ebfc56fd31740db5d71962c1f6a",
        "equivariance": "0993185457704fd9a62120ff4453283bc71af3710743282986eb11ff4d1ff1c9",
    },
    "fuzz-three-color-stingy-n5": {
        "trace": "f4827bf887b04790799a5c5e17a85252cadd59d53b0563e9d463e2811bb47bc8",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "cycle": "53e26dc05c531ba167ecb82e84ea780c7c3018c4c81ce1aa322215e74495ee19",
        "switch": "931325c39fe7e0149511119bc56ce9a8cd234287c62e6b7f97dc5df9707e9bc4",
        "gather": "a9a74ce6bb52c0cc69c2cebe65e7ce489f30e3ec8ac624ae5786e5f1f2403ec2",
        "equivariance": "0993185457704fd9a62120ff4453283bc71af3710743282986eb11ff4d1ff1c9",
    },
    "fuzz-three-color-rigid-n5": {
        "trace": "3cf9f77c2fe70b2439a3a4944944fae3f320bed5e8041dd7e173e4bd472007ce",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "cycle": "d1a8bcd13c96f17d250a5b397ac34d21338e7f8f84e1da79593d4f4f10613928",
        "switch": "7499e8ac7d6b0e81d5c3714b64286cd25c41c7acd53bce70bf0cab0c3be52c9e",
        "gather": "99f4514746a6cd56187ba02230e3ef2ff0f3e570e4230e24fad04ea0b8d3bd6d",
        "equivariance": "0993185457704fd9a62120ff4453283bc71af3710743282986eb11ff4d1ff1c9",
    },
    "fuzz-three-color-ssync-embedded-n5": {
        "trace": "2c8edc3ef61ce29ce8b5e31d0da91d97d4def7a9c4760c1abc4876f022e9562b",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "cycle": "1d2d5e605450c38a0f3b2ac9dd12b329a643d8149fe4231da93a4d9c082e463d",
        "switch": "232e33ce9b61a56486935431cd6cddc52881ed2b3baf402eb0eb8c0548ad7ea2",
        "gather": "ed67036b12d18712b2337c327ee460f8662e95f0f7e9de849dcd74060db1a9ce",
        "equivariance": "0993185457704fd9a62120ff4453283bc71af3710743282986eb11ff4d1ff1c9",
    },
    "fuzz-three-color-ssync-stingy-n5": {
        "trace": "241c56cd13ad8c3af36094250be56771a37b767d0898d8e15d2c5619bba21555",
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
        "trace": "2ce2317bb6a0001e8f21767de8170733504b9da383f4ba61be33387d6c173fb7",
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
        "trace": "8e812d89487a0c10e00677f623964a3513f35932cf37b5d295b3371a4211e5ce",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "monotone": "d70204e5e79e809b1da163a6cfd3f0c8ac20339ae5c1e68aaa06cdbdad7b09bd",
        "gather": "b9a9795181875148d5bdb863816abcee724d68b417d855acec2021847c71cff9",
        "equivariance": "0993185457704fd9a62120ff4453283bc71af3710743282986eb11ff4d1ff1c9",
    },
    "fuzz-three-color-random-n10": {
        "trace": "2e96d408c0cce544ee9759b2bc4d9f5d9847bf59ac4801021a1284119ea97e57",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "cycle": "ef69e13448e373012685ad879e30fc8349fb913ee1941a0abbdfbc8671b4008b",
        "switch": "49a1230e1270eb334ab60dc8b8b4dcd8e402c617b40e22a7d0392dd517073906",
        "gather": "579ade70bfb201fbaabd77be9ae5e41b226677573ab59dc8f049e0da9563b77e",
        "equivariance": "234c0db617f60c4eb287d88b0fe0ea5d31afdca25b16be0fe2eeb23014a9cdd6",
    },
    "fuzz-three-color-ssync-embedded-n10": {
        "trace": "797cd7d46542975b0a0118364b6ccc3919b96005ff1874456c952a9661f6603b",
        "replay": "0c453badd2661407868af77883c9b4f4a4e74a346cfe1728471ebb301213f888",
        "cycle": "0d69f0bc6baa5fd4a5ef7ddb719d2992bf13f9d628a95b56a9e5d58e628b9f7a",
        "switch": "fd8a1cf9cd1d2d0cf5e3cdbcdbdd1a2f1d215ecbba4d1a426f533b8720a045b4",
        "gather": "7f2074db26f0e1ffbe70f4e0dbd9959f600f24335ec0667a0793dd3e42589003",
        "equivariance": "234c0db617f60c4eb287d88b0fe0ea5d31afdca25b16be0fe2eeb23014a9cdd6",
    },
}


ANNOTATED = {
    "line-lu": "bd00663495c73dccdbf2b2a9a77562a369b12b7c619286298bea26022fbb8022",
    "rectangle-unfair": "9985f3e8eafbf9734559048d309c01feed3f2bc17f7bc1a0c97cbf8f18b78a7a",
    "triangle-enum": "63ec896c320b008560f5254cb428f59f7d677c9fd6de1ebceb1cdfd40a877f45",
    "fuzz-elect-one-lds-fsync-n5": "e2f2afa0664f1da6692e52b2284a41411351cf2472552cd17e0cbd75dec0838a",
    "fuzz-elect-one-lds-ssync-n5": "0d0bdb1ad90a6af6413f7d25d76fe1f19e45c8bb8512adfc9652fb7909735aaf",
    "fuzz-lu-gather-fsync-n5": "e656a0d6989816e908168d4012e8afd33e588bdce6664ba034d40bcd8731c97a",
    "fuzz-lu-gather-ssync-n5": "ba4837be3cbdf80111fcd3c151e1a1c2aa9766cc4442543a611adb2e341b801a",
}

ENUMERATED = {
    "line-lu": "cfd6be36b1386d5ba907bc896410dd34d9072396dbe78472147898b83cdec9e8",
    "rectangle-unfair": "a79084aad4b95927ee73c850b8935ecdcda69ba4bf922c7b28a73bfdbb9adb3e",
    "triangle-enum": "328c483a48f4210dc8028f87a9292646e62c3304d0d2f57f8936758f95beb742",
}


# the digests of the same traces and annotated copies in format 1, which
# wrote a Config line at every instant; ``format1`` rebuilds those bytes
FORMAT1_TRACES = {
    "line-lu": "3f9e5e69f6325669afd56c2ff6f74f8d37dfb5693a3dc2cb240389a73ad50149",
    "rectangle-unfair": "07843d00292747105c661bdbcef3c9f4a0c88340a3c39dc3c23e2701cea937c1",
    "segment100": "ce6f67d5a38915778ccb20773c907fe6b4a4684add697e02ec66335204903b3b",
    "square": "e2e5062e4f9e4359f019b4feda513e373440e9cb53ad5325f6696c3b9f5c0600",
    "triangle-enum": "daf713b3ec87a7cdda43410d57fe582b3b3a8ea1dcdb4f7c711f916c594ac0fb",
    "fuzz-three-color-n4": "d3f7417bbb9ed7b91d219d21eff5139a8359e25f8d8df2c658c6bba0ee854bd0",
    "fuzz-three-color-n6": "5de53b41134aafead635d38f986df928542bc9f7d11b6f0a86a95a83a9c6b90a",
    "fuzz-six-color-n4": "fe95fd8e7c8d4d9df29f2bda38cbfff4db2dbe1ab2edc90e73f54fcda0acd589",
    "fuzz-six-color-n6": "3a7bb3a8d05e91a7b637e5ff403e9fcb95770b6e8a87784f8b05519a13295504",
    "fuzz-three-color-round-robin-n5": "a8ad25adb07d8aa1133e0bd1fc400c57d5e2484fb0aa79872ab887911ba07e3e",
    "fuzz-three-color-stingy-n5": "b0a880ce3d8ae79c328d8ac55a57956539fc5d8b4e8b4b0ffcbc9260c7e940d9",
    "fuzz-three-color-rigid-n5": "58d932b2477db52705509343da0b25cb5d7fbb2a0ad3897748e61d1acc0b6384",
    "fuzz-three-color-ssync-embedded-n5": "f0d7b934cc1bee6a9534fb9e610e76610e34cd78c628e7909ed06bbd48b09878",
    "fuzz-three-color-ssync-stingy-n5": "89d713b358b1aa6942a54f82333f277fe6d1bd9c6b4ee794396a84c4281b0886",
    "fuzz-elect-one-lds-fsync-n5": "851f9e02ceab339bd5b575b30270ba11d34d4defb24df4c81c03bebede07fab9",
    "fuzz-elect-one-lds-ssync-n5": "6b693ff04283d80354be75d43d45876c088ca39cb2f26543ea36824d27e8585c",
    "fuzz-lu-gather-fsync-n5": "34f61f7cfd42d2d2cb0d34c6cb073e7c77e13a986b7b4ee7b2459a7230acfc20",
    "fuzz-lu-gather-ssync-n5": "1c4e7cf7d2715733548bd09a32e0dbbc1a649f78fd8a64b854db650603a9b4f0",
    "fuzz-three-color-random-n10": "84475173491c6166c9e50c93f963b23a920709496d5998418fe62b2a848441ff",
    "fuzz-three-color-ssync-embedded-n10": "81ec38a1592a99abf6767665faf494143ef016fe0bfb95c9ea8f5dbf02398c28",
}

FORMAT1_ANNOTATED = {
    "line-lu": "2c4860021f33d16d7a6b088faf088a998e0e5968108e060dc8b0acd963d2f658",
    "rectangle-unfair": "b7be8ba5a7d4e216ec8c20b9937657e8be03a784ee9ab2671dd90df12b6c9823",
    "triangle-enum": "d10ad2e7a6980bbdbb488d2668c80c26fdbe814c9deded87cea32e06d6e7b4a8",
    "fuzz-elect-one-lds-fsync-n5": "e2f2afa0664f1da6692e52b2284a41411351cf2472552cd17e0cbd75dec0838a",
    "fuzz-elect-one-lds-ssync-n5": "5a27f40cef3b6fded2d589b30104d62acfcce97ccecc8fd1fc6780f36c69a75f",
    "fuzz-lu-gather-fsync-n5": "e656a0d6989816e908168d4012e8afd33e588bdce6664ba034d40bcd8731c97a",
    "fuzz-lu-gather-ssync-n5": "c3e75126d271ec85bbc492ce07259797e87c298a169bb42037b661a16092dfee",
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


@pytest.mark.parametrize("name", [n for n, _ in CORPUS])
def test_format1_rebuild_gives_the_format1_digest(name):
    assert _sha(format1(_text(name))) == FORMAT1_TRACES[name]


@pytest.mark.parametrize("name,scenario", POTENTIAL_CASES, ids=[n for n, _ in POTENTIAL_CASES])
def test_annotated_format1_rebuild_gives_the_format1_digest(name, scenario):
    text = annotate_potentials(Trace.parse(_text(name))).dumps()
    assert _sha(format1(text)) == FORMAT1_ANNOTATED[name]


@functools.lru_cache(maxsize=None)
def _text(name):
    return run(dict(CORPUS)[name]).dumps()


def _lines(name):
    return Trace.parse(_text(name)).lines


@pytest.mark.parametrize("name", [n for n, _ in CORPUS])
def test_replay_rejects_a_deleted_changing_line(name):
    forged = forgeries.config_deleted(_lines(name))
    (t,) = set(forgeries.config_times(_lines(name))) - set(forgeries.config_times(forged))
    assert validate_trace(Trace(forged)).violations == [
        {"t": t, "detail": f"no Config line at t={t}, where the configuration changes"}
    ]


@pytest.mark.parametrize("name", [n for n, _ in CORPUS])
def test_replay_rejects_an_inserted_repeated_line(name):
    forged = forgeries.config_repeated(_lines(name))
    added = set(forgeries.config_times(forged)) - set(forgeries.config_times(_lines(name)))
    if not added:
        # every fsync round of these runs moves a robot
        assert dict(CORPUS)[name].scheduler == "fsync"
        return
    (t,) = added
    assert validate_trace(Trace(forged)).violations == [
        {"t": t, "detail": f"Config line at t={t}, where the configuration does not change"}
    ]


@pytest.mark.parametrize("name", [n for n, _ in CORPUS])
def test_replay_rejects_a_config_line_after_end(name):
    lines = _lines(name)
    t = lines[-1]["t"]
    assert validate_trace(Trace(forgeries.config_after_end(lines))).violations == [
        {"t": t, "detail": "1 line(s) after the End line"},
    ]


@pytest.mark.parametrize("name", [n for n, _ in CORPUS])
def test_parse_then_dumps_is_byte_identical(name):
    text = _text(name)
    annotated = annotate_potentials(Trace.parse(text)).dumps()
    for written in (text, annotated):
        assert Trace.parse(written).dumps() == written


def shown_by_robot(td, rid, t):
    """Reference for ``TraceData.shown``: robot rid's entry at t from its own records.

    The color of its latest Compute before t, found by bisection, and the
    position of its latest move begun before t: the move's reach once it has
    ended before t, else its progress point at t; before any of them, the
    header's.
    """
    i = bisect_left(td.computes[rid], t, key=itemgetter(0))
    color = td.computes[rid][i - 1][1] if i else td.scenario.robots[rid][1]
    j = bisect_left(td.moves[rid], t, key=attrgetter("t_b"))
    if j == 0:
        return td.scenario.robots[rid][0], color
    m = td.moves[rid][j - 1]
    return (m.reach if m.t_e is not None and t > m.t_e else m.progress[t]), color


@pytest.mark.parametrize("name", [n for n, _ in CORPUS])
def test_incremental_replay_equals_full_recomputation(name):
    td = TraceData(Trace.parse(_text(name)))
    times = range(td.end_time + 1)
    rows = [tuple(shown_by_robot(td, i, t) for i in range(td.n)) for t in times]
    expected = [canonical(row) for row in rows]
    assert [td.shown(t) for t in times] == rows
    assert [td.replayed(t).entries for t in times] == expected
    # read backwards on a fresh instance: what is interned on first use
    # does not depend on the order of the queries
    td = TraceData(Trace.parse(_text(name)))
    assert [td.replayed(t).entries for t in reversed(times)] == expected[::-1]
    assert [td.shown(t) for t in reversed(times)] == rows[::-1]


@pytest.mark.parametrize("name", [n for n, sc in CORPUS if sc.scheduler == "async"])
def test_progress_lines_moved_last_in_their_instant_show_the_same(name):
    # a progress point shows at its own instant and a color or reach at the
    # next, whatever the order of the lines within an instant
    tr = Trace.parse(_text(name))
    moved = tr.lines[:1] + sorted(tr.lines[1:], key=lambda l: (l["t"], l["kind"] == "MoveProgress"))
    assert moved != tr.lines
    td, forged = TraceData(tr), TraceData(Trace(moved))
    assert [forged.shown(t) for t in range(td.end_time + 1)] == [
        td.shown(t) for t in range(td.end_time + 1)
    ]


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: digests(sc) for name, sc in CORPUS}, width=100)
    pprint.pprint({name: annotated_digest(sc) for name, sc in POTENTIAL_CASES}, width=100)
    pprint.pprint({name: enumerated_digest(sc) for name, sc in ENUM_CASES}, width=100)
