//! Menshen-RS: a Rust reproduction of *"Isolation Mechanisms for High-Speed
//! Packet-Processing Pipelines"* (NSDI 2022).
//!
//! This umbrella crate re-exports the workspace crates under one roof so that
//! examples, integration tests and downstream users can depend on a single
//! package:
//!
//! * [`packet`] — wire formats (Ethernet / 802.1Q / IPv4 / UDP / TCP).
//! * [`rmt`] — the baseline RMT pipeline simulator.
//! * [`core`] — Menshen's isolation layer (overlays, space partitioning,
//!   packet filter, daisy-chain reconfiguration, system-level module,
//!   admission control).
//! * [`compiler`] — the module DSL front end and Menshen backend.
//! * [`programs`] — the evaluated modules of Table 3.
//! * [`runtime`] — the sharded multi-core runtime: RSS flow steering,
//!   per-shard pipeline replicas, epoch-versioned reconfiguration.
//! * [`io`] — pluggable packet I/O backends (in-process, trace replay, UDP
//!   sockets) and the network-attached [`io::Service`] runner.
//! * [`trace`] — trace-driven traffic: pcap/pcapng I/O, heavy-tailed
//!   workload synthesis, paced replay with latency percentiles.
//! * [`testbed`] — traffic generation and the §5 experiments.
//! * [`cost`] — FPGA / ASIC / configuration-time cost models.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the paper-vs-measured record of every table and
//! figure.

#![forbid(unsafe_code)]

pub use menshen_compiler as compiler;
pub use menshen_core as core;
pub use menshen_cost as cost;
pub use menshen_io as io;
pub use menshen_packet as packet;
pub use menshen_programs as programs;
pub use menshen_rmt as rmt;
pub use menshen_runtime as runtime;
pub use menshen_testbed as testbed;
pub use menshen_trace as trace;

/// A convenient prelude for examples and quick experiments.
pub mod prelude {
    pub use menshen_compiler::{compile_source, CompileOptions};
    pub use menshen_core::prelude::*;
    pub use menshen_io::{PacketIo, Service, ServiceConfig, UdpSocketIo};
    pub use menshen_packet::{Packet, PacketBuilder};
    pub use menshen_programs::{all_programs, EvaluatedProgram};
    pub use menshen_rmt::{PipelineParams, TABLE5};
    pub use menshen_runtime::{RuntimeOptions, ShardedRuntime, SteeringMode};
}
