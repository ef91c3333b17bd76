from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
# more examples for the property tests, selected with --hypothesis-profile=ci
settings.register_profile("ci", parent=settings.get_profile("suite"), max_examples=1000)
settings.load_profile("suite")
