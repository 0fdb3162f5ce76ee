"""Alarm-based earthquake prediction evaluation on seismic catalogs."""

from ._random import Rng
from .alarm import (
    Alarm,
    AlarmSet,
    AlarmTargetIndex,
    FloorRule,
    ScoreSummary,
    VolumeEstimate,
    alarm_volume_fraction,
    count_predicted,
    count_successful_alarms,
    dumps_alarms_csv,
    generate_alarms,
    score,
    union_volume_fraction_mc,
)
from .catalog import (
    Catalog,
    CatalogParseError,
    Event,
    StudyVolume,
    dumps_csv,
    filter_catalog,
    format_instant,
    parse_csv,
    parse_instant,
    parse_ndk,
)
from .decluster import DeclusterResult, WindowRow, WindowTable, decluster, decluster_stats
from .geo import (
    EARTH_RADIUS_KM,
    GeoPoint,
    GlobalSphere,
    LatLonBox,
    SphericalCap,
    cap_area_km2,
)
from .nullmodels import (
    CellGrid,
    gen_gamma_renewal,
    gen_heterogeneous_poisson,
    gen_homogeneous_poisson,
    historical_cell_rates,
    permute_times,
    randomize_times_uniform,
)
from .sigtests import (
    BaselineReport,
    GridOutcome,
    TestReport,
    alarm_measure_pi,
    binomial_tail_pvalue,
    exact_permutation_pvalue,
    permutation_test,
    permutation_test_fixed_alarms,
    poisson_binomial_pvalue,
    r_score,
    r_score_baseline,
)

__version__ = "0.1.0"
