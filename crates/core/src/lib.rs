//! Menshen: isolation mechanisms for high-speed packet-processing pipelines.
//!
//! This crate is the Rust reproduction of the core contribution of the
//! NSDI 2022 paper *"Isolation Mechanisms for High-Speed Packet-Processing
//! Pipelines"*: a set of lightweight primitives layered on an RMT pipeline so
//! that many independently developed packet-processing modules can share one
//! line-rate pipeline without interfering with each other.
//!
//! Two mechanisms do all the work (Table 1 of the paper):
//!
//! * **Space partitioning** for resources that are plentiful enough to divide
//!   at flow granularity — match-action table entries and stateful memory.
//!   Each module owns a contiguous, non-overlapping range
//!   ([`partition::RangeAllocator`]), and the module ID is appended to every
//!   match key so lookups can never alias across modules.
//! * **Overlays** for resources that are shared per packet — the parser,
//!   deparser, key extractor, key mask and segment table. Each gets a small
//!   per-module configuration table ([`overlay::OverlayTable`]) indexed by the
//!   packet's module ID (its VLAN ID).
//!
//! Around these sit the [`packet_filter::PacketFilter`] (secure separation of
//! reconfiguration traffic and the "being reconfigured" bitmap), the
//! [`reconfig`] daisy chain (the only way configuration is ever written) and
//! the [`system_module::SystemModule`] (virtual IPs, routing, multicast,
//! device statistics).
//!
//! The full multi-module data path is [`pipeline::MenshenPipeline`]. It is
//! also the one admission boundary:
//! [`check_module_config`](pipeline::MenshenPipeline::check_module_config)
//! runs the §3.4 static checks and the operator's
//! [`resources::SharingPolicy`] before every load and update.
//!
//! # Quick example
//!
//! ```
//! use menshen_core::prelude::*;
//! use menshen_rmt::TABLE5;
//!
//! // An empty module that simply forwards its packets.
//! let module = ModuleConfig::empty(ModuleId::new(7), "forwarder", 5);
//! let mut pipeline = MenshenPipeline::new(TABLE5);
//! pipeline.load_module(&module).unwrap();
//! assert_eq!(pipeline.loaded_modules(), vec![ModuleId::new(7)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod error;
pub mod metrics;
pub mod module;
pub mod overlay;
pub mod packet_filter;
pub mod partition;
pub mod pipeline;
pub mod profile;
pub mod reconfig;
pub mod resources;
pub mod segment_table;
pub mod system_module;
pub mod telemetry;

pub use digest::{DigestField, DigestSpec, StateDigest, DIGEST_MAX_FIELDS};
pub use error::CoreError;
pub use metrics::{
    labels, validate_prometheus, Counter, Labels, MetricSample, MetricValue, MetricsSnapshot,
    TenantTelemetry, VerdictLedger,
};
pub use module::{
    LpmMatchRule, MatchRule, ModuleConfig, ModuleId, RangeMatchRule, ResourceAllocation,
    StageModuleConfig, StateMergeability, TableRule,
};
pub use overlay::OverlayTable;
pub use packet_filter::{FilterDecision, PacketFilter};
pub use partition::{Allocation, RangeAllocator};
pub use pipeline::{
    DropReason, LoadReport, MenshenPipeline, ModuleCounters, ModuleState, Verdict, BURST_SIZE,
};
pub use profile::{Phase, StageProfile, PROFILE_PHASES};
pub use reconfig::{ReconfigCommand, ResourceKind, WritePayload};
pub use resources::SharingPolicy;
pub use segment_table::{SegmentEntry, SegmentTable, SegmentTranslator};
pub use system_module::{ForwardingDecision, SystemModule, SystemStats};
pub use telemetry::{BaselineMismatch, Gauge, LatencyHistogram, Percentiles};

/// Result alias used across the crate.
pub type Result<T> = core::result::Result<T, CoreError>;

/// Convenient glob-import surface for examples and downstream crates.
pub mod prelude {
    pub use crate::module::{
        LpmMatchRule, MatchRule, ModuleConfig, ModuleId, RangeMatchRule, StageModuleConfig,
        TableRule,
    };
    pub use crate::pipeline::{DropReason, MenshenPipeline, Verdict, BURST_SIZE};
    pub use crate::resources::SharingPolicy;
    pub use crate::system_module::SystemModule;
}
