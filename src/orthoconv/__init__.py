"""orthoconv: exact triadic step-function calculus for orthogonal series.

The package revolves around three layers:

* exact piecewise-constant functions on (0,1] and conditional L2 norms
  over the triadic grids (:mod:`orthoconv.stepfn`),
* the contraction calculus V_j and the convergence criteria built on
  information functions of tail partitions (:mod:`orthoconv.vcalc`,
  :mod:`orthoconv.info`, :mod:`orthoconv.criteria`,
  :mod:`orthoconv.sets`),
* explicit orthogonal families and processes with large maximal
  functions (:mod:`orthoconv.ortho`, :mod:`orthoconv.construct`).
"""

from .stepfn import StepFunction, cond_norm, clip_min, pos_part, pointwise
from .info import (
    CoefficientSeq,
    PointSet,
    tail_set,
    info_fn,
    dyadic_floor,
    dyadic_halffloor,
    is_triadic_fn,
    is_type_level,
)
from .vcalc import (
    VTrace,
    v_step,
    v_bar_step,
    v_composite,
    v_functional,
    select_blocks,
    type_reduction,
)
from . import criteria, sets, ortho, construct, suites

__version__ = "0.1.0"
