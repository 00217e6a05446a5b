"""One hypothesis profile for every property test: derandomised, so a run draws the
same examples every time, and without a per-example deadline, as the certificate and
integrator checks take uneven time. A test sets only its own max_examples."""

from hypothesis import settings

settings.register_profile("tvkuramoto", derandomize=True, deadline=None)
settings.load_profile("tvkuramoto")
