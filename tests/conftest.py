"""Suite-wide test configuration: Hypothesis search profiles.

``python -m pytest --hypothesis-profile=deep tests/telemetry/test_oracle.py``
runs the property suites' deep counterexample search; tier-1 runs keep
Hypothesis' default profile and each suite's own example cap.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=2_000, deadline=None)
