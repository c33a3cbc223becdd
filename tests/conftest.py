"""Hypothesis profiles for the suite.

Default runs use Hypothesis's own defaults. The `mutants` profile turns
shrinking off, for runs against a deliberately broken copy of the code: a
failing property then stops at its first failing example instead of
minimising it, so a mutant run takes about as long as a passing one.
tests/mutants.py runs the suite under it on mutants of the source:

    python tests/mutants.py
"""

from hypothesis import Phase, settings

settings.register_profile(
    "mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
