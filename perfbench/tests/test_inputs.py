"""The benchmark's inputs are a pure function of its seed.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import workloads  # noqa: E402

RATE = 35.0
WINDOW_S = 3.0


def sequence_digest(seed: int, rep: int) -> str:
    """Digest of everything the detect and serve repetitions would send."""
    digest = hashlib.sha256()
    for _, line in workloads.detect_lines(seed, rep):
        digest.update(line.encode("utf-8"))
    for send in workloads.serve_schedule(seed, rep, RATE, WINDOW_S):
        digest.update(f"{send.due_s!r}|{send.tag}|{send.line}".encode("utf-8"))
    return digest.hexdigest()


def test_same_seed_gives_byte_identical_requests_across_processes():
    here = sequence_digest(7, 1)
    assert sequence_digest(7, 1) == here
    script = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH)!r}, "
        f"{str(Path(__file__).parent)!r}]\n"
        "import test_inputs\n"
        "print(test_inputs.sequence_digest(7, 1))\n"
    )
    other = subprocess.run([sys.executable, "-c", script], capture_output=True,
                           text=True, check=True, timeout=120)
    assert other.stdout.strip() == here


def test_other_seed_or_repetition_gives_other_requests():
    assert sequence_digest(7, 1) != sequence_digest(8, 1)
    assert sequence_digest(7, 1) != sequence_digest(7, 2)


def test_detect_packages_are_distinct():
    lines = [line for _, line in workloads.detect_lines(3, 0)]
    assert len(lines) == workloads.DETECT_REQUESTS
    assert len(set(lines)) == len(lines)


def test_serve_schedule_follows_the_ci_flow():
    schedule = workloads.serve_schedule(3, 0, RATE, WINDOW_S)
    dues = [send.due_s for send in schedule]
    assert dues == sorted(dues) and 0 < dues[-1] < WINDOW_S
    sent_before = set()
    detected_at = {}
    for index, send in enumerate(schedule):
        if send.tag == "warm":
            assert send.line in sent_before
        elif send.tag == "fix":
            assert send.racy
            assert index - detected_at[send.case_id] >= workloads.FIX_GAP
        else:
            detected_at[send.case_id] = index
        sent_before.add(send.line)
    warm = sum(send.tag == "warm" for send in schedule) / len(schedule)
    assert 0.6 < warm < 0.9
