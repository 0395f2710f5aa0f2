"""Acceptance suite: every criterion at full size, one line per criterion.

Run with `pytest tests/test_acceptance.py -v` (or `saguaro selftest` for the
same checks outside pytest).  Batch sizes are the stated ones; the suite is
seeded, and each criterion goes through selftest.run_criterion, so one that
runs over its time limit fails here as it does in `saguaro selftest`.
"""

import pytest

from saguaro import selftest


@pytest.mark.parametrize(
    "number,title,check,limit",
    selftest.CHECKS,
    ids=[f"{number:02d}-{title.replace(' ', '-')}" for number, title, *_ in selftest.CHECKS],
)
def test_acceptance(number, title, check, limit):
    failures, elapsed = selftest.run_criterion(
        number, check, limit, False, selftest.seed_from_env()
    )
    status = "ok  " if not failures else "FAIL"
    print(f"{status} {number:2d}  {title} ({elapsed:.2f} s)")
    assert not failures, failures
