import pytest

import udnet.kernels as kernels


@pytest.fixture(autouse=True)
def cold_plans(monkeypatch):
    """Each test starts with no character plans kept from an earlier test."""
    monkeypatch.setattr(kernels, "_PLANS", kernels._PlanCache())
