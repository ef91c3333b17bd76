import pytest
from hypothesis import HealthCheck, settings

from pseudorate import crypto
from support import VERIFY_BACKENDS

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
# more examples for the property tests, selected with --hypothesis-profile=ci.
# An explicit @settings(max_examples=N) wins over any profile, so a test that
# wants more or fewer examples than the default scales the loaded profile's
# count, as in settings().max_examples * 3 // 2
settings.register_profile("ci", parent=settings.get_profile("suite"), max_examples=1000)
settings.load_profile("suite")


@pytest.fixture(params=list(VERIFY_BACKENDS))
def verify_backend(request, monkeypatch):
    """Runs the test once with each Ed25519 backend behind ``crypto.verify``;
    the libsodium run is skipped where the library cannot be loaded."""
    if VERIFY_BACKENDS[request.param] is None:
        pytest.skip("libsodium cannot be loaded")
    monkeypatch.setattr(crypto, "_backend", VERIFY_BACKENDS[request.param])
