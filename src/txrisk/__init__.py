"""Statistical overloading-risk assessment for residential oil-immersed
transformer fleets.

The pipeline pairs a 24-hour transformer thermal/aging simulation with
mixed-type weighted k-means clustering of multi-year residential service
operation data; cluster profiles drive loading thresholds, impact
rankings, maximum-service studies, economic loss figures, and
inverse-distance estimates for uninstrumented areas.
"""

from .aging import (
    NORMAL_LIFE_DAYS,
    accumulate_life_loss,
    aging_acceleration,
    economic_loss,
    equivalent_aging,
)
from .clustering import (
    ClusterModel,
    composition,
    extract_profiles,
    kmeans,
    load_model,
    month_cluster_matrix,
    save_model,
    train_model,
)
from .estimation import (
    EstimationResult,
    avg_load_from_energy,
    cluster_max_top_oil,
    estimate,
    estimate_day_temperature,
)
from .features import (
    FeatureDef,
    FeatureSchema,
    NormalizationParams,
    default_schema,
    distance,
    encode,
    encode_ordinal,
    fit_normalization,
)
from .ingest import Dataset, SynthConfig, load_dataset, synth_dataset
from .riskassess import (
    ServiceGrid,
    Thresholds,
    cluster_thresholds,
    life_loss_by_n,
    max_services_by_life,
    max_services_by_temperature,
    service_grid,
)
from .thermal import (
    ThermalTrace,
    TransformerSpec,
    exponential_step,
    load_transformer_spec,
    simulate_day,
    ultimate_hotspot_rise,
    ultimate_top_oil_rise,
)

__version__ = "0.1.0"
