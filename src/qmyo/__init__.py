"""Quantum-inspired simultaneous proportional myoelectric control.

EMG feature windows are encoded as unit-norm amplitude states, per-DOF
measurement operator triples are learned from single-DOF training data,
and expectation values decode simultaneous proportional angle commands
for every degree of freedom at once.
"""

import types

from .control import (
    DecodedAction,
    DecodedBatch,
    DecodeDiagnostics,
    DofDecision,
    decode_batch,
    decode_features,
    residual_activations,
)
from .datasets import (
    FeatureDataset,
    from_test_set,
    from_training_samples,
    from_training_table,
    load_feature_dataset,
    save_decode_csv,
    save_feature_dataset,
    training_table,
)
from .errors import (
    ConfigurationError,
    DataError,
    DatasetParseError,
    DatasetSchemaError,
    DegenerateOperatorsError,
    DegeneratePrototypeError,
    DimensionError,
    EmptyInputError,
    InsufficientTrainingError,
    ModelError,
    ModelFileError,
    QmyoError,
    UndefinedDenominatorError,
)
from .evaluation import (
    BlockErrorReport,
    block_errors,
    r_squared_dof,
    r_squared_global,
)
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    SizeResult,
    evaluate_model,
    render_report_csv,
    render_report_text,
    report_for_model,
    run_experiment,
)
from .features import (
    EmgRecording,
    FeatureKind,
    FeatureVector,
    load_recording,
    mav,
    save_recording,
    segment_windows,
)
from .operators import (
    ControllerModel,
    DecodeConfig,
    Direction,
    Dof,
    DofOperators,
    MovementPhase,
    Operator,
    TrainingSample,
    TrainingTable,
    build_completeness_operator,
    build_direction_operator,
    load_model,
    overlap_curve,
    save_model,
    train,
    train_table,
)
from .state import QuantumState, encode_rows, inner_product
from .synthetic import (
    MixingModel,
    ScenarioBlock,
    TestSet,
    default_mixing_model,
    default_scenario,
    generate_features,
    generate_raw_emg,
    generate_test_scenario,
    generate_training_set,
    generate_training_table,
    orthogonal_mixing_model,
)

__version__ = "0.1.0"

# The public names are everything imported above, submodules aside.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
