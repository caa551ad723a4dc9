"""Adaptive online optimizers and the regret laboratory around them."""

from types import ModuleType as _ModuleType

from .config import (
    RunConfig,
    build_problem,
    build_region,
    load_config,
    parse_config,
    sweep_cells,
)
from .errors import CheckFailure, ConfigError, NumericFailure
from .optim import (
    OPTIMIZER_KINDS,
    FeasibleRegion,
    HyperParams,
    box_region,
    project_weighted,
    step,
    stepsize_probe,
    validate_hyperparams,
)
from .problems import (
    Dataset,
    QuadraticProblem,
    SoftmaxL2Problem,
    finite_diff_grad,
    load_csv,
    quadratic_grad,
    quadratic_loss,
    sample_batch,
    softmax_l2_grad,
    softmax_l2_loss,
    synth_classification,
)
from .regret import (
    BoundConstants,
    Cell,
    Condition3Result,
    Condition4Result,
    GrowthFit,
    RegretReport,
    TrajectoryTrace,
    best_in_hindsight,
    check_condition3,
    check_condition4,
    check_gamma_psd,
    checkpoint_grid,
    compute_regret,
    fit_growth,
    lane_groups,
    measure_constants,
    region_scenarios,
    region_stepsize_table,
    run_online,
    run_sweep,
    theoretical_bound,
)
from .svgchart import write_compare_svg
from .traceio import read_trace, write_compare_csv, write_trace

__version__ = "0.1.0"

#: every public name imported above, sorted; the submodules are left out
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
