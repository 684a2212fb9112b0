from hypothesis import settings

# `pytest --hypothesis-profile=ci`: more examples, no per-example deadline on
# shared runners; tests that set their own settings keep them
settings.register_profile("ci", max_examples=500, deadline=None)
