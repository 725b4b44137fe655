"""Shared pytest settings.

Property tests run under one hypothesis profile: derandomized and without
an example database, so every run draws the same examples and cannot flake,
with a bounded example count and no per-example deadline (the first kernel
build in a process is slower than the rest).
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("bergreen", derandomize=True, database=None, max_examples=25,
                              deadline=None, print_blob=True)
    settings.load_profile("bergreen")
