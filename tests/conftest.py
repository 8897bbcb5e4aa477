"""Hypothesis profiles.

`wide` gives each property test that sets no example budget of its own
5,000 examples: `python -m pytest tests/test_numtext.py --hypothesis-profile wide`.
"""

from hypothesis import settings

settings.register_profile("wide", max_examples=5000)
