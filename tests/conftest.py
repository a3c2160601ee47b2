"""Hypothesis profiles for the test suites.

Tier-1 runs the default profile: each test keeps its own draw count, and a
test that sets none takes Hypothesis's default.  The `oracle` profile runs
those tests at 1,500 draws; it is meant for the independent-checker oracle,
for batched reports against their ensembles reported alone, those of
test_batched_scans_stop_inside_stacks_of_their_own among them, for
test_minus_gaps_are_twice_member_distances_of_mu_minus's gap identity, and
for test_array_reader_matches_json's edited ensemble files:

    python -m pytest tests/test_bounds.py tests/test_cli.py
        --hypothesis-profile oracle
        -k "independent_checker or batched_reports_match_one_at_a_time
            or batched_scans_stop_inside_stacks
            or minus_gaps_are_twice_member_distances or array_reader_matches_json"

(one command; CI's end-to-end job runs it).
"""

from hypothesis import settings

settings.register_profile("oracle", max_examples=1500)
