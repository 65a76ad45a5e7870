from hypothesis import settings

# Property tests draw the same examples on every run (no example database,
# no per-example deadline), so the suite stays deterministic on a loaded box.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
