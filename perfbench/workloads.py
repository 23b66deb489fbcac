"""Seeded inputs of the three workloads.

Everything a workload sends is a pure function of the benchmark seed (and,
for the service workloads, the repetition index), so the same seed gives a
byte-identical request sequence in any process.  The program only ever sees
the generated inputs, never the seed.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.corpus.ground_truth import RaceCase
from repro.runtime.compiler import package_fingerprint

#: ``drfix evaluate`` and ``drfix serve`` default corpus scale.
SCALE = 0.25
#: ``drfix serve --runs`` default; every request uses it.
RUNS = 10
#: /detect requests one ``detect`` repetition sends (2 closed-loop clients).
DETECT_REQUESTS = 200
#: Length of one ``serve`` repetition's arrival schedule, in seconds.
SERVE_WINDOW_S = 8.5
#: Share of ``serve`` sends that resubmit an earlier line byte for byte.
WARM_SHARE = 0.75
#: A racy package's /fix is eligible this many sends after its /detect.
FIX_GAP = 4


def corpus_config(seed: int) -> CorpusConfig:
    """The evaluation corpus (and the service's example database)."""
    return CorpusConfig(seed=seed).scaled(SCALE)


def rep_seed(seed: int, rep: int) -> int:
    """Input seed of one repetition of a service workload."""
    return seed * 1000 + rep


def distinct_packages(seed: int, count: int) -> List[RaceCase]:
    """``count`` mutant-corpus cases whose packages all differ in source
    fingerprint, so no request for one can hit the result cache of another."""
    cases = CorpusGenerator(CorpusConfig(seed=seed)).generate_mutant_corpus(
        count + count // 4 + 8)
    seen = set()
    distinct: List[RaceCase] = []
    for case in cases:
        fingerprint = package_fingerprint(case.package)
        if fingerprint not in seen:
            seen.add(fingerprint)
            distinct.append(case)
    if len(distinct) < count:
        raise RuntimeError(f"seed {seed} gives only {len(distinct)} distinct "
                           f"packages, {count} needed")
    return distinct[:count]


def request_line(kind: str, case: RaceCase) -> str:
    """One line-delimited JSON request, as a CI client would send it."""
    return json.dumps({
        "kind": kind,
        "package": case.package.name,
        "files": {file.name: file.source for file in case.package.files},
        "runs": RUNS,
    })


def detect_lines(seed: int, rep: int) -> List[Tuple[RaceCase, str]]:
    """The ``detect`` repetition's /detect stream: distinct packages only."""
    cases = distinct_packages(rep_seed(seed, rep), DETECT_REQUESTS)
    return [(case, request_line("detect", case)) for case in cases]


@dataclass(frozen=True)
class Send:
    """One scheduled ``serve`` request."""

    due_s: float
    #: ``detect`` or ``fix`` for a first submission, ``warm`` for a resend.
    tag: str
    line: str
    case_id: str
    racy: bool


def serve_schedule(seed: int, rep: int, rate: float,
                   window_s: float = SERVE_WINDOW_S) -> List[Send]:
    """A Poisson open-loop CI flow at ``rate`` requests per second.

    New packages arrive as /detect; each package labelled racy is followed,
    at least :data:`FIX_GAP` sends later, by a /fix of the same package; about
    :data:`WARM_SHARE` of the sends resubmit an earlier line unchanged.
    """
    rng = random.Random(f"serve:{rep_seed(seed, rep)}:{rate}")
    # A Poisson process conditioned on its count: exactly rate x window
    # arrivals at uniformly drawn times, so every repetition offers the
    # same load and only the arrival pattern varies with the seed.
    count = round(rate * window_s)
    dues = sorted(rng.uniform(0.0, window_s) for _ in range(count))
    fresh = deque(distinct_packages(rep_seed(seed, rep),
                                    int(count * (1 - WARM_SHARE)) + 16))
    pending: "deque[Tuple[int, RaceCase]]" = deque()
    first_sends: List[Send] = []
    schedule: List[Send] = []
    for index, due in enumerate(dues):
        fix_ready = bool(pending) and pending[0][0] + FIX_GAP <= index
        warm = bool(first_sends) and rng.random() < WARM_SHARE
        if not warm and fix_ready and (rng.random() < 0.5 or not fresh):
            _, case = pending.popleft()
            send = Send(due, "fix", request_line("fix", case), case.case_id, True)
            first_sends.append(send)
        elif warm or not fresh:
            earlier = rng.choice(first_sends)
            send = Send(due, "warm", earlier.line, earlier.case_id, earlier.racy)
        else:
            case = fresh.popleft()
            send = Send(due, "detect", request_line("detect", case), case.case_id,
                        case.expected_race)
            first_sends.append(send)
            if case.expected_race:
                pending.append((index, case))
        schedule.append(send)
    return schedule


def sample_indices(seed: int, population: int, count: int) -> Sequence[int]:
    """Seeded choice of which responses are re-checked by direct calls."""
    rng = random.Random(f"check:{seed}")
    return sorted(rng.sample(range(population), min(count, population)))
