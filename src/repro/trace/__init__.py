"""Trace substrate: synthetic Google-trace records, dependency inference,
CSV persistence, and the workload builder."""

from .google_trace import GoogleTraceGenerator, TraceTaskRecord
from .dependency_infer import infer_dependencies, infer_from_columns
from .google_reader import (
    FINISH_EVENT,
    SCHEDULE_EVENT,
    TraceSkipStats,
    iter_task_events,
    read_task_events,
    read_task_events_csv,
)
from .trace_io import (
    read_trace_csv,
    records_from_csv_string,
    records_to_csv_string,
    write_trace_csv,
)
from .validate import ValidationReport, validate_workload
from .workload import (
    TASK_BANDWIDTH_MBPS,
    TASK_DISK_MB,
    Workload,
    WorkloadSpec,
    build_workload,
    job_from_columns,
    job_from_records,
)

__all__ = [
    "GoogleTraceGenerator",
    "TraceTaskRecord",
    "infer_dependencies",
    "infer_from_columns",
    "FINISH_EVENT",
    "SCHEDULE_EVENT",
    "TraceSkipStats",
    "iter_task_events",
    "read_task_events",
    "read_task_events_csv",
    "read_trace_csv",
    "records_from_csv_string",
    "records_to_csv_string",
    "write_trace_csv",
    "TASK_BANDWIDTH_MBPS",
    "TASK_DISK_MB",
    "ValidationReport",
    "validate_workload",
    "Workload",
    "WorkloadSpec",
    "build_workload",
    "job_from_records",
    "job_from_columns",
]
