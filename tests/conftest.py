"""Suite-wide settings: property tests run a fixed, derandomized set of
Hypothesis examples, so every run checks the same inputs."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile(
        "divsel", derandomize=True, max_examples=300, deadline=None, database=None
    )
    settings.load_profile("divsel")
