//! Testbed: traffic generation, link/platform models and the evaluation
//! experiments of §5.
//!
//! The paper's testbed uses MoonGen on a host NIC (for the NetFPGA switch
//! platform) and a Spirent hardware tester (for the Corundum NIC platform).
//! Neither exists here, so this crate provides their simulated equivalents:
//!
//! * [`traffic`] — workload generators: packet-size sweeps and per-module
//!   rate mixes built on the Table 3 programs;
//! * [`throughput`] — the packet-size sweeps of Figure 11 (a–d), combining
//!   the analytical platform timing model (`menshen_rmt::clock`) with a
//!   functional pass through the real pipeline to confirm packets of every
//!   size are actually forwarded;
//! * [`reconfig_experiment`] — the live-reconfiguration timeline of
//!   Figure 10: three CALC tenants at a 5:3:2 rate split on a 10 Gbit/s link,
//!   module 1 reconfigured 0.5 s into the run, the other two unaffected;
//! * [`capacity`] — the closed-loop capacity sweep: rate-rescaled replay at
//!   geometrically increasing offered rates until the p99 sojourn knees,
//!   turning the latency series into a capacity figure;
//! * [`elasticity`] — live resharding under replay: scale the threaded
//!   runtime out and back in mid-traffic (e.g. 2 → 8 → 2), measuring each
//!   transition's migration pause and the post-resize latency/throughput.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacity;
pub mod elasticity;
pub mod reconfig_experiment;
pub mod service;
pub mod throughput;
pub mod traffic;

pub use capacity::{
    capacity_sweep, CapacityPoint, CapacityReport, CapacitySweepConfig, KneeDetector, KneeSample,
    KneeVerdict, ReplayPoint,
};
pub use elasticity::{
    elasticity_experiment, ElasticityConfig, ElasticityReport, ElasticityStage,
    ElasticityTransition,
};
pub use reconfig_experiment::{ReconfigExperiment, ReconfigTimeline, TimelinePoint};
pub use service::{passthrough_template, run_loadgen, LoadgenConfig, LoadgenSummary};
pub use throughput::{latency_sweep, throughput_sweep, LatencyPoint, ThroughputPoint};
pub use traffic::{RateMix, RateMixError, SizeSweep, TrafficGenerator};
