"""Shadow-evaporation junction uniformity toolkit.

Forward geometric model of deposited electrode widths and overlap areas,
wafer layout construction, synthetic conductance generation, the filtering
and statistics pipeline, SEM-style image metrology with a rendering
oracle, and design pre-compensation.
"""

from .analysis import (
    FilterConfig,
    FrequencyModel,
    RegressionFit,
    Regressor,
    absolute_filter,
    conductance_cv,
    effective_conductivity,
    frequency_rsd,
    mean_filter,
    normalized_heatmap,
    predicted_frequency,
    quadratic_radial_fit,
    regression_filter_die,
)
from .compensation import compensated_layout, precompensate, precompensate_fixed_top
from .config import RunConfig, load_config, parse_config
from .errors import (
    ConfigError,
    DataError,
    ExtractionError,
    FitError,
    GeometryError,
    JJShadowError,
    ShadowedError,
    TargetError,
)
from .geometry import (
    EvaporatorGeometry,
    Fidelity,
    JunctionDesign,
    Variant,
    WaferPoint,
    actual_overlap_area,
    actual_top_width,
    actual_width_vertical,
    bottom_thickness,
    lip_height,
    lip_width,
    source_distance,
)
from .imaging import (
    ExtractionResult,
    GrayImage,
    extract_overlap_area,
    extract_widths,
    read_pgm,
    render_junction,
    write_pgm,
)
from .layout import (
    LayoutKind,
    StructureTable,
    TestStructureSpec,
    WaferLayout,
    build_35x35,
    build_planar_17q,
    build_tsv_17q,
)
from .report import UniformityReport, build_report, render_report_text
from .synth import (
    MeasurementRecord,
    MeasurementTable,
    ParasiticsModel,
    ProcessModel,
    synthesize_wafer,
    truth_table,
)

__version__ = "0.1.0"
