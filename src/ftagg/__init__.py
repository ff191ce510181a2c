"""Fault-tolerant privacy-preserving aggregation over an unreliable ring."""

from .model import (
    DC,
    Activation,
    AckS,
    BackendSpec,
    EndOfRound,
    FailureGraph,
    InitialData,
    MaskingSpec,
    PaillierSpec,
    RoundOutcome,
    Scenario,
    ScenarioError,
    TraceRecord,
    link_on,
    party_name,
    scenario_digest,
    scenario_from_json,
    scenario_to_json,
    trace_to_jsonl,
    validate_scenario,
)
from .baseline import (
    BaselineResult,
    BaselineStatus,
    eavesdropper_delta,
    eavesdropper_view,
    run_baseline_round,
)
from .game import (
    FAMILIES,
    STRATEGIES,
    AdversaryView,
    GameSetup,
    GameStats,
    SetupViolation,
    Trial,
    attack_dc_plus_neighbor,
    empirical_unlinkability,
    play_game,
    run_trial,
    wilson_interval,
)
from .masking import MaskingBackend
from .netsim import DeliveryStatus, SimNetwork
from .paillier import PaillierBackend, PaillierKeys, keygen
from .protocol import (
    MalformedTrace,
    classify_steps,
    make_backend,
    proof_case_histogram,
    run_round,
)
from .walker import predict_aggregate, reachable_active

__version__ = "0.1.0"
