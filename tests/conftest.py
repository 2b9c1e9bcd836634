"""Test-suite settings: Hypothesis runs a fixed, bounded set of examples.

``derandomize`` draws the same examples on every run, so the suite stays
deterministic; ``deadline=None`` because exact ``Fraction`` arithmetic makes
single examples slow but not wrong; ``database=None`` because derandomized
runs have no failing examples of earlier runs to replay.
"""

from hypothesis import settings

settings.register_profile(
    "algebroidkit", derandomize=True, deadline=None, max_examples=25, database=None
)
settings.load_profile("algebroidkit")
