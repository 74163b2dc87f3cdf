import pytest

from cfk.suite import PROPERTIES, SuiteContext, run_suite


@pytest.fixture(scope="module")
def ctx():
    return SuiteContext(5)


@pytest.mark.parametrize("name, prop", PROPERTIES, ids=[name for name, _ in PROPERTIES])
def test_property(ctx, name, prop):
    cases, failures = prop(ctx)
    assert cases > 0
    assert not failures, "\n".join(failures[:5])


def test_suite_passes_quickly():
    lines = []
    assert run_suite(seed_count=5, emit=lines.append)
    assert lines[-1] == "suite PASS"
    assert len(lines) == len(PROPERTIES) + 1


def test_suite_deterministic():
    first: list[str] = []
    second: list[str] = []
    run_suite(seed_count=8, emit=first.append)
    run_suite(seed_count=8, emit=second.append)
    assert first == second
