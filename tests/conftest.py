import pytest
from hypothesis import HealthCheck, settings

from spinff import ModelSpec, Schedule

settings.register_profile(
    "ci", max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# deeper runs of the property tests: pytest --hypothesis-profile thorough
settings.register_profile("thorough", settings.get_profile("ci"), max_examples=1000)
settings.load_profile("ci")


@pytest.fixture
def lz_model():
    return ModelSpec.lz(delta=1.0)


@pytest.fixture
def tfim_model():
    # generic affine couplings so both slopes enter the closed forms
    return ModelSpec.tfim(j=(0.3, 0.2), bx=(2.0, -0.5))


@pytest.fixture
def qa_model():
    return ModelSpec.qa(j=1.0, bz=0.1, b0=10.0)


@pytest.fixture
def gen_model():
    return ModelSpec.gen(j=8.0, bx=1.0, by=1.0, b0=25.0)


@pytest.fixture
def qa_schedule():
    return Schedule(0.0, 100.0, 0.1)


@pytest.fixture
def gen_schedule():
    return Schedule(0.0, 250.0, 0.1)
