"""Hypothesis profiles.

`ci` prints the reproduction blob of each failing example, so that a
failure in a CI log can be replayed locally with `@reproduce_failure`.  Load
it with `pytest --hypothesis-profile=ci`; without the option the default
profile applies.
"""

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
