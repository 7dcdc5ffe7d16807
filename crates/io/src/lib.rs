//! Pluggable packet I/O for the Menshen runtime: the boundary where the
//! sharded pipeline meets an actual network.
//!
//! Everything upstream of this crate moves packets through in-process calls;
//! everything in it is about running Menshen as a **long-lived service**
//! under traffic that arrives from outside the process. The shape follows
//! the DPDK deployments the paper targets — one NIC RX queue per dispatcher,
//! burst receive into the dispatch plane, verdict-driven transmit back out:
//!
//! * [`PacketIo`] — the backend trait: burst rx, an [`EgressSink`] for
//!   verdict-driven tx, drain semantics, and per-backend [`LinkStats`]
//!   that export as a `menshen_core::MetricsSnapshot`;
//! * [`InProcessIo`] — today's `submit_owned` path behind the trait: a
//!   caller injects packets through a handle and reads echoed verdicts back;
//! * [`TraceIo`] — `crates/trace` replay behind the trait, preserving the
//!   replay engine's exact [`Pacing`](menshen_trace::Pacing) model;
//! * [`UdpSocketIo`] — a real `std::net` data plane: one UDP socket per rx
//!   queue, nonblocking burst receive of encapsulated frames, and a compact
//!   per-packet verdict echo ([`echo`]) sent back to the learned peer;
//! * [`Service`] — the runner: a [`ShardedRuntime`](menshen_runtime::ShardedRuntime)
//!   behind any backend, a line-oriented TCP control socket for live
//!   reconfig (load/unload module, resize, metrics, audit) while traffic
//!   flows, and graceful drain on shutdown (stop rx → flush barrier →
//!   conservation audit → report).

pub mod backend;
pub mod echo;
pub mod inprocess;
pub mod service;
pub mod trace_io;
pub mod udp;

pub use backend::{IoError, LinkCounters, LinkStats, PacketIo};
pub use echo::{
    decode_echo, drop_reason_code, encode_echo, EchoRecord, ECHO_KIND_DROPPED, ECHO_KIND_FORWARDED,
    ECHO_LEN, ECHO_MAGIC, ECHO_TOKEN_LEN, ECHO_VERSION,
};
pub use inprocess::{InProcessHandle, InProcessIo};
pub use menshen_runtime::EgressSink;
pub use service::{
    control_request, DrainReport, PollOutcome, Service, ServiceConfig, ServiceError,
};
pub use trace_io::TraceIo;
pub use udp::{UdpEgress, UdpSocketIo};
