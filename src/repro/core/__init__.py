"""``repro.core`` -- the paper's load-balancing abstraction.

Three stages, mirroring Figure 1:

1. **Work definition** (:mod:`.work`, :mod:`.iterators`): sparse data
   expressed as atoms / tiles / tile sets through iterators.
2. **Load balancing** (:mod:`.schedule`, :mod:`.schedules`): pluggable
   schedules mapping atom/tile subsequences to processor ids.
3. **Work execution** (:mod:`.ranges`): user-owned kernels consume the
   balanced work as composable ranges.

Plus the Section 6.2 heuristic selector (:mod:`.heuristic`), the
schedule-selection *policies* built on it (:mod:`.policy`: fixed /
heuristic / oracle-best).
"""

from . import schedules as _schedules  # noqa: F401  (registers schedules)
from .heuristic import DEFAULT_HEURISTIC, HeuristicParams, select_schedule
from .iterators import (
    ArrayIterator,
    ConstantIterator,
    CountingIterator,
    TransformIterator,
    ZipIterator,
    counting_iterator,
    make_transform_iterator,
)
from .policy import (
    FixedPolicy,
    HeuristicPolicy,
    OracleBestPolicy,
    PolicyError,
    SchedulePolicy,
    as_policy,
)
from .ranges import (
    InfiniteRange,
    StepRange,
    block_stride_range,
    grid_stride_range,
    infinite_range,
    step_range,
    warp_stride_range,
)
from .schedule import (
    LaunchParams,
    Schedule,
    WorkCosts,
    available_schedules,
    make_schedule,
    register_schedule,
)
from .schedules import (
    BlockMappedSchedule,
    GroupMappedSchedule,
    LrbSchedule,
    MergePathSchedule,
    NonzeroSplitSchedule,
    ThreadMappedSchedule,
    WarpMappedSchedule,
    merge_path_partition,
)
from .work import WorkSpec

__all__ = [
    "DEFAULT_HEURISTIC",
    "HeuristicParams",
    "select_schedule",
    "ArrayIterator",
    "ConstantIterator",
    "CountingIterator",
    "TransformIterator",
    "ZipIterator",
    "counting_iterator",
    "make_transform_iterator",
    "SchedulePolicy",
    "FixedPolicy",
    "HeuristicPolicy",
    "OracleBestPolicy",
    "PolicyError",
    "as_policy",
    "InfiniteRange",
    "StepRange",
    "block_stride_range",
    "grid_stride_range",
    "infinite_range",
    "step_range",
    "warp_stride_range",
    "LaunchParams",
    "Schedule",
    "WorkCosts",
    "available_schedules",
    "make_schedule",
    "register_schedule",
    "BlockMappedSchedule",
    "GroupMappedSchedule",
    "LrbSchedule",
    "MergePathSchedule",
    "NonzeroSplitSchedule",
    "ThreadMappedSchedule",
    "WarpMappedSchedule",
    "merge_path_partition",
    "WorkSpec",
]
