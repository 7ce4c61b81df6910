"""Task/job DAG model: tasks, jobs, graph operations and generators."""

from .task import Task, TaskState
from .job import Job
from .graph import (
    DependencyCycleError,
    UnknownParentError,
    build_children_map,
    compute_levels,
    critical_path_length,
    descendants_by_depth,
    enumerate_chains,
    level_partition,
    order_and_children,
    topological_order,
    validate_acyclic,
)
from .dot import job_to_dot, write_dot
from .generators import (
    MAX_DEPENDENTS,
    MAX_LEVELS,
    chain_dag,
    diamond_dag,
    fork_join_dag,
    inverted_tree_dag,
    layered_random_dag,
    paper_figure1_dag,
    paper_figure2_dag,
    paper_figure3_dag,
    tree_dag,
)

__all__ = [
    "Task",
    "TaskState",
    "Job",
    "DependencyCycleError",
    "UnknownParentError",
    "build_children_map",
    "compute_levels",
    "critical_path_length",
    "descendants_by_depth",
    "enumerate_chains",
    "level_partition",
    "order_and_children",
    "topological_order",
    "validate_acyclic",
    "MAX_DEPENDENTS",
    "MAX_LEVELS",
    "chain_dag",
    "diamond_dag",
    "fork_join_dag",
    "inverted_tree_dag",
    "layered_random_dag",
    "paper_figure1_dag",
    "paper_figure2_dag",
    "paper_figure3_dag",
    "tree_dag",
    "job_to_dot",
    "write_dot",
]
