"""Weighted sequential pattern mining over uncertain sequence databases."""

from .model import (
    EPS,
    Event,
    ExtKind,
    ItemId,
    MiningError,
    MiningParams,
    MissingWeightError,
    Pattern,
    ProbItem,
    ScoredPattern,
    Thresholds,
    UncertainDatabase,
    USequence,
    WamAccumulator,
    WeightTable,
    extend,
    meets,
    s_weight,
    single,
)
from .trie import USeqTrie, sup_calc
from .fuws import (
    BoundRecord,
    MineStats,
    PreprocessedDB,
    ProjectedDB,
    determine,
    mine_trie,
    preprocess,
    project,
    root_projection,
)
from .incremental import (
    IncrementalState,
    init_mining,
    load_state,
    save_state,
    uwsinc_step,
    uwsincplus_step,
)
from .oracle import (
    OracleSizeError,
    max_pr_dynamic,
    oracle_exp_sup,
    oracle_max_pr_s,
    oracle_mine,
    oracle_wes,
)
from .dataio import (
    GenConfig,
    ParseError,
    SplitSpec,
    draw_fractions,
    format_pattern,
    gen_uncertain,
    parse_pattern,
    parse_uncertain_db,
    parse_weights,
    read_patterns_tsv,
    split_db,
    write_patterns,
    write_uncertain_db,
    write_weights,
)

__version__ = "0.1.0"
