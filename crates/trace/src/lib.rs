//! Trace-driven traffic for the Menshen testbed: capture files, heavy-tailed
//! workload synthesis, and paced replay with latency telemetry.
//!
//! The paper's evaluation drives the hardware with real traffic and reports
//! both throughput *and* packet latency; the simulated testbed previously
//! synthesised only uniform flows and measured only throughput. This crate
//! closes that gap with three pieces:
//!
//! * [`pcap`] — a std-only reader/writer for the classic pcap container
//!   (microsecond and nanosecond magic, either endianness) and the pcapng
//!   container (SHB/IDB/EPB), round-tripping [`menshen_packet::Packet`]s
//!   byte-identically together with their nanosecond timestamps;
//! * [`synth`] — a deterministic workload synthesiser producing traces with
//!   realistic structure: Zipf flow popularity, Pareto or lognormal
//!   flow-size tails, a configurable tenant mix, and Poisson arrivals at a
//!   target mean rate — written out as real pcap files;
//! * [`replay`] — an open-loop replay engine that feeds a trace into a
//!   [`menshen_core::MenshenPipeline`] or a threaded
//!   [`menshen_runtime::ShardedRuntime`] with timestamp-faithful or
//!   rate-rescaled pacing, accounts for every packet (in == out + drops),
//!   and reports latency percentiles from the log-bucketed
//!   [`LatencyHistogram`].
//!
//! Heavy-tailed flow sizes are exactly what stresses RSS balance: a handful
//! of elephant flows pin whole shards while mice scatter, which
//! [`replay::ReplayReport::effective_shards`] makes visible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pcap;
pub mod replay;
pub mod synth;

pub use menshen_core::telemetry::{LatencyHistogram, Percentiles};
pub use pcap::{
    read_pcap, read_pcap_file, write_pcap, write_pcap_file, write_pcapng, write_pcapng_file,
    Endianness, PcapError, TimestampPrecision,
};
pub use replay::{
    pace_until, replay_pipeline, replay_sharded, schedule_offsets, Pacing, ReplayReport,
};
pub use synth::{synthesize, FlowPopularity, SynthError, WorkloadSpec};
