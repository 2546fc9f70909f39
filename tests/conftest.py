from hypothesis import settings

# Property tests draw the same examples on every run, and slow examples
# (generator builds, CSV writes) are not failures.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
