"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, NodeSpec, ResourceVector, uniform_cluster
from repro.config import DSPConfig, SimConfig
from repro.dag import Job, Task, diamond_dag, fork_join_dag, paper_figure2_dag


@pytest.fixture
def small_cluster() -> Cluster:
    """Two homogeneous nodes, g(k) = 1000 MIPS each."""
    return uniform_cluster(2, cpu_size=4.0, mem_size=4.0, mips_per_unit=250.0)


@pytest.fixture
def config() -> DSPConfig:
    return DSPConfig()


@pytest.fixture
def fast_sim_config() -> SimConfig:
    """Short epochs/periods so unit-scale workloads exercise every code path."""
    return SimConfig(epoch=1.0, scheduling_period=10.0)


@pytest.fixture
def diamond_job() -> Job:
    """Four tasks A -> {B, C} -> D, 1 s each at 1000 MIPS, deadline 100 s."""
    return Job.from_tasks("J1", diamond_dag("J1", size_mi=1000.0), deadline=100.0)


@pytest.fixture
def fig2_job() -> Job:
    """The paper's Fig. 2 seven-task example."""
    return Job.from_tasks("fig2", paper_figure2_dag(), deadline=1000.0)
