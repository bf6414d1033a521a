"""Exact arithmetic for abelian-by-cyclic groups: ball enumeration,
conjugacy invariants, class-growth ratios, Folner-box experiments and
unit-root spectral tables."""

from .conjugacy import (
    UnionFind,
    brute_force_partition,
    conjugacy_key,
)
from .enumeration import BallIndex, ResourceCapError, enumerate_ball
from .folner import (
    folner_box,
    left_defect,
    right_defect,
    separating_translate,
    translate_experiment,
)
from .groups import (
    BaumslagSolitarContext,
    Element,
    GroupContext,
    LamplighterContext,
    MatrixContext,
    load_matrix_config,
    parse_group_descriptor,
)
from .linalg import (
    cyclotomic_orders,
    unimodular_inverse,
)
from .ratios import format_csv, ratio_table, threshold_function
from .spectral import (
    epsilon_norm_table,
    relative_growth_table,
    unit_root_projection,
)
from .words import (
    cyclic_reduce,
    evaluate,
    format_word,
    parse_word,
    to_staircase,
)

__version__ = "0.1.0"
