import pytest
from hypothesis import HealthCheck, settings

from support import BACKENDS, on_backend

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
# more examples for the property tests, selected with --hypothesis-profile=ci.
# An explicit @settings(max_examples=N) wins over any profile, so a test that
# wants more or fewer examples than the default scales the loaded profile's
# count, as in settings().max_examples * 3 // 2
settings.register_profile("ci", parent=settings.get_profile("suite"), max_examples=1000)
settings.load_profile("suite")


@pytest.fixture(params=list(BACKENDS))
def backend(request):
    """Runs the test once with every Ed25519 and ChaCha20-Poly1305 primitive
    on each backend; the libsodium run is skipped where the library cannot be
    loaded."""
    with on_backend(request.param):
        yield request.param
