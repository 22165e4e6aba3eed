"""Knowledge-graph embedding with compound geometric operators.

Relations act on entity vectors through relation-specific cascades of
translation, rotation, and scaling applied per 2D coordinate block; a
triple's score is the norm of the gap between the transformed head and
tail.  The package covers the full experimental loop: scoring with
analytic gradients, self-adversarial negative-sampling training,
filtered MRR/Hits@k evaluation split by relation category, operator
diagnostics, and synthetic relation-pattern benchmarks.
"""

from .dataset import (
    Category,
    FilterIndex,
    RelationCategory,
    TripleStore,
    build_filter_index,
    categorize_relations,
    complex_triple_fraction,
    load_dataset,
)
from .diagnostics import (
    RelationDiagnostics,
    composition_residual,
    export_entity_embeddings,
    export_relation_histograms,
    inversion_residual,
    relation_diagnostics,
    relation_matrices,
    subrelation_score_gap,
    symmetry_residual,
)
from .errors import (
    CheckpointError,
    DatasetError,
    DatasetParseError,
    SingularOperatorError,
    TrainingDivergedError,
)
from .evaluation import Direction, EvalReport, evaluate, filtered_rank
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .model import KGEModel, init_model, model_from_preset
from .scoring import (
    CompoundSpec,
    ModelPreset,
    Norm,
    RelationParams,
    Variant,
    compound_spec,
    grad_score,
    preset_linearre,
    preset_pairre,
    preset_rotate,
    preset_transe,
    score,
)
from .synthetic import SyntheticPattern, generate_synthetic_kg
from .training import (
    Adam,
    TrainConfig,
    TrainResult,
    loss,
    normalize_entities,
    sample_negatives,
    self_adversarial_weights,
    train,
    train_step,
)
from .transforms import (
    OperatorKind,
    TransformParams,
    apply_chain,
    apply_rotation,
    apply_scaling,
    apply_translation,
    compound_matrix_2d,
    invert_compound_2d,
)

__version__ = "0.6.0"
