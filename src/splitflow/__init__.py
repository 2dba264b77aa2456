"""AC power flow with continuously differentiable device controls.

The solver works in rectangular current-voltage coordinates, where the
network is linear: ratio-fixed branches and fixed shunts form a constant
admittance block built once per index map, next to tables of the taps,
the injecting devices and the control rows, which each stamp pass
evaluates as arrays. Each NR step solves J dx = -F, with F and J from
one stamp pass. The control loops that classical solvers run in outer
iterations (reactive limits, remote voltage control, switched shunts,
transformer taps, distributed slack) are smooth models solved implicitly
inside NR, with homotopy continuation for robustness. A classical
hard-switching outer loop is included for comparison.
"""

from .baseline_outer_loop import SwitchTrace, classify_stability, solve_outer_loop
from .case_model import (
    Branch,
    Bus,
    FixedShunt,
    Generator,
    Load,
    NetworkCase,
    RemoteControlGroup,
    SwitchedShunt,
    TapControl,
    parse_matpower,
    parse_native,
    serialize_native,
    validate,
)
from .circuit_stamps import (
    ControlMode,
    StateVector,
    assemble,
    build_index,
    classify_regions,
    dc_start,
    flat_start,
    residual,
)
from .discrete_control import resolve_after_snap, snap_to_steps
from .errors import (
    CaseParseError,
    CaseValidationError,
    ContinuationError,
    SingularPointError,
    SingularSystemError,
    SnappedInfeasibleError,
    SplitflowError,
)
from .homotopy_driver import (
    init_p_limit_relaxation,
    init_q_limit_relaxation,
    run_homotopy,
)
from .nr_solver import SolveReport, SolverOptions, nr_solve, solve_linear, step_limit

__version__ = "0.1.0"
