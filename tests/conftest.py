"""Hypothesis profiles for the test suites.

Tier-1 runs the default profile: each test keeps its own draw count, and a
test that sets none takes Hypothesis's default.  The `oracle` profile runs
those tests at 1,500 draws; it is meant for the independent-checker oracle:

    python -m pytest tests/test_bounds.py -k independent_checker --hypothesis-profile oracle
"""

from hypothesis import settings

settings.register_profile("oracle", max_examples=1500)
