"""Permutation-based feature subset selection.

Feature subsets are scored by how much a pre-trained model's performance
degrades when the selected columns are shuffled; a two-objective
evolutionary search trades that degradation off against subset size.
Single-feature permutation importance, correlation, and information-gain
rankers are included as baselines, together with an experiment runner
and Wilcoxon-based win/loss analysis.
"""

from .analysis import (
    OverfitKind,
    PairedSample,
    RankingRow,
    WilcoxonResult,
    overfit_ratio,
    wilcoxon_signed_rank,
    win_loss_ranking,
)
from .baselines import correlation_rank, infogain_rank
from .dataset import (
    Dataset,
    Partition,
    RowView,
    SyntheticSpec,
    Task,
    generate_synthetic,
    load_csv,
    split,
    write_csv,
)
from .learner import LearnerSpec, RandomForestModel, fit
from .metrics import (
    Metric,
    MetricValue,
    Orientation,
    accuracy,
    balanced_accuracy,
    nrmse,
    r_squared,
    rmse,
)
from .moea import (
    Individual,
    MoeaConfig,
    RunTrace,
    bit_flip_mutation,
    crowding_distance,
    dominates,
    evolve,
    evolve_on_context,
    fast_nondominated_sort,
    hux_crossover,
    hypervolume_2d,
    initialize,
    select_final,
)
from .permutation import (
    EvalContext,
    FeatureScores,
    build_context,
    merit,
    merit_mc,
    pfi_rank,
    select_top_k,
)
from .runner import (
    DatasetSpec,
    ExperimentConfig,
    MethodSpec,
    ReportRow,
    aggregate,
    evaluate_subset,
    run_experiment,
    run_selection,
)

__version__ = "0.1.0"
