"""sushilab: simulation and verification laboratory for equivariant
point-process constructions over measure-preserving transformations.

Layers, bottom up:

* windows       exact rational windows, intervals, intensity measures
* dynamics      interval translations and rank-one cutting-and-stacking
                machines with exact orbit arithmetic
* point_process Poisson sampling on windows, deterministic seeded streams,
                counting, push-forwards, CSV dumps
* split_mark    independent splittings, mark attachment, separation thinning
* cluster       cluster (sushi) measures, infinitely divisible sampling,
                orbit coding (encode/decode), closed-form moments
* moments       factorial-moment partition decomposition, diagonal weights
* stats         seeded Monte Carlo test battery producing TestReports
* experiment    JSON experiment specs, preset batteries, run manifests
* cli           the `sushi-lab` command line front end

Everything downstream of a seed is deterministic: reruns reproduce reports
byte for byte.  Replicates run serially; the ``threads`` argument of
``run`` and ``replicate_matrix`` is accepted for compatibility only.
"""

from .windows import (
    Interval,
    IntensitySpec,
    Window,
    as_rat,
    format_rat,
    parse_window,
)
from .dynamics import (
    DEFAULT_MAX_STAGE,
    OrbitError,
    RankOneMachine,
    TransformHandle,
    Translation,
    chacon3_recipe,
    cesaro_overlap,
    infinite_chacon_recipe,
    orbit,
    recipe_from_arrays,
)
from .point_process import (
    PointConfig,
    Rng,
    Streams,
    count,
    count_replicates,
    counts,
    dissociation_check,
    dump_csv,
    free_check,
    push_forward,
    sample_poisson,
    superpose,
)
from .split_mark import (
    LatticeSampler,
    MarkLaw,
    attach_marks,
    bernoulli_split,
    project_mark_set,
    separation_thin,
)
from .cluster import (
    ClusterEntry,
    ClusterLaw,
    EncodedCluster,
    SushiSpec,
    phi_decode,
    phi_encode,
    sample_id_measure,
    sample_sushi,
    simplify,
    sushi_mean,
    sushi_variance,
    truncate_weights,
    unit_intensity_c,
)
from .moments import (
    DiagonalWeightResult,
    FitResult,
    MomentEstimate,
    Partition,
    default_design,
    diagonal_weight,
    estimate_moment,
    fit_partition_decomposition,
    count_matrix,
    m_pi,
    partitions,
    replicate_matrix,
)
from .stats import (
    TestReport,
    cesaro_factorization,
    correlation_check,
    covariance_check,
    dispersion_index_test,
    mixed_moment_factorization,
    poisson_gof,
    two_sample_count_test,
    variance_check,
    z_test_report,
)
from .experiment import (
    BATTERY_PRESETS,
    ExperimentSpec,
    RunManifest,
    list_presets,
    preset_spec,
    resolve_transformation,
    run,
)

__version__ = "0.1.0"
