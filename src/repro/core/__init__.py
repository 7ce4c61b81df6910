"""DSP core: priority model, level deadlines, ILP + heuristic schedulers,
the preemption engine and the bundled system facade."""

from .levels import allowable_waiting_time, level_max_exec_times, task_deadlines
from .priority import PriorityEvaluator, leaf_priority
from .schedule import Schedule, ScheduleInfeasible, TaskAssignment, verify_schedule
from .estimates import estimate_preemptions
from .ilp import ILPResult, ILPScheduler
from .lanes import LanePlanner, LaneTimelines, demand_sized_lanes
from .ilp_heuristic import HeuristicScheduler
from .scheduler import DSPScheduler
from .preemption import DSPPreemption
from .dsp import DSPSystem

__all__ = [
    "allowable_waiting_time",
    "level_max_exec_times",
    "task_deadlines",
    "PriorityEvaluator",
    "leaf_priority",
    "Schedule",
    "ScheduleInfeasible",
    "TaskAssignment",
    "verify_schedule",
    "estimate_preemptions",
    "ILPResult",
    "ILPScheduler",
    "LanePlanner",
    "LaneTimelines",
    "demand_sized_lanes",
    "HeuristicScheduler",
    "DSPScheduler",
    "DSPPreemption",
    "DSPSystem",
]
