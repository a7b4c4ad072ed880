"""chromatile: proper edge colorings of rectangles, tori and tiled grids.

For any symmetric generating set S of Z^n (identity excluded), the
Schreier graphs built here admit proper edge colorings with |S| + 1
colors that are *local*: each tiling region's colors depend only on its
size and core shift, never on its position.  The package constructs
those colorings at finite-torus scale, verifies every one it emits, and
ships finite witnesses for the matching lower bound that shows the
extra color is unavoidable for position-independent colorings: an exact
search for pattern-respecting labelings, and the generator-parity rule
that decides perfect matchings and the chromatic index.
"""

from .errors import (
    ChromatileError,
    ColorConflictError,
    InfeasibleError,
    InvalidInputError,
    VerificationError,
)
from .grid import (
    Box,
    SchreierGraphView,
    Torus,
    adjacent_edges,
    edges_in,
)
from .lattice import (
    Decomposition,
    GeneratorSet,
    SubgroupBasis,
    decompose_with_constants,
    hermite_normal_form,
    load_generator_file,
    parse_generator_text,
    smallest_multiple_in,
)
from .layered import (
    CosetModel,
    LayeredResult,
    build_model,
    plan_tilings,
    run_layered,
    run_pipeline,
    verify_layered,
)
from .lowerbound import (
    chromatic_index,
    has_perfect_matching,
    pattern_count,
    search_respecting_labelings,
)
from .rectcolor import (
    C,
    P,
    RectColoring,
    color_bc1,
    color_bc2,
    color_core,
    color_shifted_core,
    palette,
    verify_boundary_condition,
    verify_shifted_core,
)
from .tiling import (
    Tiling,
    brick_tiling,
    color_tiling,
    validate_tiling,
    verify_tiling_coloring,
)

__version__ = "0.1.0"
