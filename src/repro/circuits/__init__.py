"""Circuit-simulation substrate: MNA solver, op-amp and flash-ADC workloads."""

from repro.circuits.adc import ADC_METRIC_NAMES, ADCMetrics, FlashADC, FlashADCDesign
from repro.circuits.components import (
    GROUND,
    Capacitor,
    Component,
    CurrentSource,
    Inductor,
    Resistor,
    VCCS,
    VoltageSource,
)
from repro.circuits.dies import die_draw_bank
from repro.circuits.linearity import (
    LinearityResult,
    inl_dnl_from_dac_levels,
    inl_dnl_from_histogram,
    inl_dnl_from_levels,
)
from repro.circuits.corners import (
    STANDARD_CORNERS,
    CornerSpec,
    generate_corner_datasets,
)
from repro.circuits.devices import Mosfet, MosfetGeometry, MosfetProcess, SmallSignal
from repro.circuits.mna import BatchedACSolution, StampPlan
from repro.circuits.montecarlo import (
    PairedDataset,
    dataset_cache_path,
    generate_adc_dataset,
    generate_opamp_dataset,
)
from repro.circuits.netlist import Netlist
from repro.circuits.ota import (
    OTA_METRIC_NAMES,
    FoldedCascodeDesign,
    FoldedCascodeOTA,
    OTAMetrics,
    generate_ota_dataset,
)
from repro.circuits.opamp import (
    OPAMP_METRIC_NAMES,
    OpAmpDesign,
    OpAmpMetrics,
    TwoStageOpAmp,
)
from repro.circuits.r2r_dac import (
    R2R_DAC_METRIC_NAMES,
    R2RDACDesign,
    R2RDACMetrics,
    R2RLadderDAC,
)
from repro.circuits.registry import (
    CircuitEntry,
    circuit_names,
    generate_dataset,
    get_circuit,
)
from repro.circuits.sar_adc import (
    SAR_ADC_METRIC_NAMES,
    SarADC,
    SarADCDesign,
    SarADCMetrics,
)
from repro.circuits.svf import (
    SVF_METRIC_NAMES,
    GmCFilterDesign,
    GmCStateVariableFilter,
    SVFMetrics,
)
from repro.circuits.variants import (
    CircuitVariant,
    corner_spec,
    scale_divergence,
    scaled_process_model,
)
from repro.circuits.process import (
    GlobalVariation,
    ProcessBank,
    ProcessSample,
    ProcessVariationModel,
)
from repro.circuits.noise import BOLTZMANN, NoiseAnalysis, NoiseResult
from repro.circuits.transient import (
    TransientAnalysis,
    TransientResult,
    sine,
    step,
)
from repro.circuits.testbench import (
    SpectralAnalyzer,
    SpectralMetrics,
    SpectralMetricsBatch,
    coherent_frequency,
    sine_record,
)

__all__ = [
    "BOLTZMANN",
    "ADCMetrics",
    "BatchedACSolution",
    "ADC_METRIC_NAMES",
    "Capacitor",
    "CircuitEntry",
    "CircuitVariant",
    "CornerSpec",
    "Component",
    "CurrentSource",
    "FlashADC",
    "FlashADCDesign",
    "FoldedCascodeDesign",
    "FoldedCascodeOTA",
    "GmCFilterDesign",
    "GmCStateVariableFilter",
    "GROUND",
    "GlobalVariation",
    "Inductor",
    "LinearityResult",
    "Mosfet",
    "MosfetGeometry",
    "MosfetProcess",
    "Netlist",
    "NoiseAnalysis",
    "NoiseResult",
    "OPAMP_METRIC_NAMES",
    "OTAMetrics",
    "OTA_METRIC_NAMES",
    "OpAmpDesign",
    "OpAmpMetrics",
    "PairedDataset",
    "ProcessBank",
    "ProcessSample",
    "ProcessVariationModel",
    "R2RDACDesign",
    "R2RDACMetrics",
    "R2RLadderDAC",
    "R2R_DAC_METRIC_NAMES",
    "Resistor",
    "STANDARD_CORNERS",
    "SAR_ADC_METRIC_NAMES",
    "SVFMetrics",
    "SVF_METRIC_NAMES",
    "SarADC",
    "SarADCDesign",
    "SarADCMetrics",
    "SmallSignal",
    "SpectralAnalyzer",
    "SpectralMetrics",
    "SpectralMetricsBatch",
    "StampPlan",
    "TransientAnalysis",
    "TransientResult",
    "TwoStageOpAmp",
    "VCCS",
    "VoltageSource",
    "circuit_names",
    "coherent_frequency",
    "corner_spec",
    "dataset_cache_path",
    "die_draw_bank",
    "generate_adc_dataset",
    "generate_corner_datasets",
    "generate_dataset",
    "generate_ota_dataset",
    "generate_opamp_dataset",
    "get_circuit",
    "inl_dnl_from_dac_levels",
    "inl_dnl_from_histogram",
    "inl_dnl_from_levels",
    "scale_divergence",
    "scaled_process_model",
    "sine",
    "sine_record",
    "step",
]
