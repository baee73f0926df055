from .attention import MultiHeadAttention, TransformerBlock, TransformerClassifier, transformer_forward
from .common import CommunicationQuantizer, ConfigError, check_site
from .gnn import ContrastiveWorldModel, GnnModel, gnn_step
from .rim import RimModel, RimRegressor, rim_step

__all__ = [
    "CommunicationQuantizer",
    "ConfigError",
    "ContrastiveWorldModel",
    "GnnModel",
    "MultiHeadAttention",
    "RimModel",
    "RimRegressor",
    "TransformerBlock",
    "TransformerClassifier",
    "check_site",
    "gnn_step",
    "rim_step",
    "transformer_forward",
]
