//! Sharded multi-core runtime for the Menshen pipeline.
//!
//! Menshen isolates tenants *within* one RMT pipeline; this crate scales
//! that pipeline *across* cores, the way DPDK deployments shard a NIC's
//! traffic over worker lcores with receive-side scaling (RSS). The dispatch
//! plane itself is parallel: N dispatcher threads (per-NIC-queue model) each
//! run the Toeplitz steer + burst-assembly loop over their own row of SPSC
//! rings:
//!
//! ```text
//!             ┌──────────────┐ SPSC rings ┌──────────────────┐
//!  packets →  │ dispatcher 0 │ ══════════▶│ shard 0: replica │──┐
//!   (chunk    │  (Toeplitz   │ ╔═════════▶├──────────────────┤  │   ┌────────────┐
//!    spray)   │   steering)  │ ║ ════════▶│ shard 1: replica │──┼──▶│ aggregator │
//!          └─▶├──────────────┤ ║     ...  ├──────────────────┤  │   │ (Σ counters│
//!             │ dispatcher N │═╝ ════════▶│ shard M: replica │──┘   │  Σ stats)  │
//!             └──────────────┘            └──────────────────┘      └────────────┘
//!                   ▲                            ▲
//!                   │      epoch-versioned       │  applied at burst
//!                   └──── control-plane log ─────┘  boundaries, acked
//!  submitter ◀═══════ return rings: spent bursts ═══════ shards
//! ```
//!
//! * [`rss`] — Toeplitz hashing (bit-exact against the Microsoft RSS test
//!   vectors) plus the indirection table; tenant-affine by default so
//!   per-module counters and stateful ALUs stay shard-local and the
//!   single-pipeline isolation semantics are preserved. The RETA partitions
//!   into per-dispatcher slices ([`Steerer::reta_slice`]) for flow-affine
//!   chunk spray.
//! * [`ring`] — cache-padded, atomics-based bounded SPSC burst rings with
//!   backpressure: cached-index fast path, spin-then-park waiting, lock-free
//!   occupancy telemetry. One lock-free `UnsafeCell` slot array, the only
//!   `unsafe` in the crate, confined to a private module of `ring.rs`. The
//!   same ring type carries each shard's spent bursts back to the
//!   submitting thread, which frees the frames it allocated.
//! * [`control`] — every configuration change is one [`ControlOp`] batch
//!   published as a numbered epoch; shards apply epochs in order at burst
//!   boundaries and acknowledge them, and the flush barrier quiesces every
//!   dispatcher before an epoch publishes, giving hitless reconfiguration
//!   at any dispatcher count. The same machinery carries **live
//!   resharding**: [`ShardedRuntime::resize`] / [`ShardedRuntime::set_reta`]
//!   export the moving tenants' state (`ExportState`), stand shards up from
//!   the compacted log or retire them (`Retire`), replay the state into its
//!   new owners (`InjectState`), and publish the new RETA — all at a full
//!   quiesce, so no packet ever observes a half-moved tenant. Under 5-tuple
//!   steering a non-mergeable stateful program runs in one of two regimes:
//!   **replicated** by default (state-compute replication — the dispatcher
//!   broadcasts a per-packet state digest to every non-owning shard, whose
//!   replica replays it on the match-action path so all copies advance in
//!   lockstep; resize seeds new replicas from any live copy, and
//!   `supervise()` reseeds a respawned one from a live peer), or **pinned**
//!   tenant-affine when its parser is not digestible
//!   ([`Steerer::pin_module`]) — single-owner and
//!   migratable, at the price of one shard carrying the whole tenant.
//! * [`shard`] — the shard and dispatcher thread bodies, the cross-thread
//!   progress board, and [`ShardTelemetry`], the one telemetry record every
//!   aggregate merges.
//! * [`runtime`] — [`ShardedRuntime`], tying it all together, in a
//!   threaded mode (deployment) and a deterministic in-process mode that is
//!   exactly testable against a single [`menshen_core::MenshenPipeline`] for
//!   any dispatcher × shard combination.

// `deny`, not `forbid`: the ring's slot array (`ring::slots`) is the one
// module allowed to override it.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
pub mod events;
pub mod faults;
pub mod ring;
pub mod rss;
pub mod runtime;
pub mod shard;

pub use control::{CompactionReport, ControlOp, EpochEntry, EpochLog};
pub use events::{
    chrome_trace_to_events, ControlEvent, ControlEventKind, EventTrace, DEFAULT_EVENT_CAPACITY,
};
pub use faults::{FaultPlan, FaultSpec, PacketFault, WorkerFault};
pub use ring::{
    ring as bounded_ring, ring_with_parker, Consumer, Parker, Producer, PushError, RingClosed,
};
pub use rss::{
    toeplitz_hash, RssHasher, Steerer, SteeringMode, DEFAULT_RSS_KEY, MAX_HASH_INPUT, RETA_SIZE,
    RSS_KEY_LEN,
};
pub use runtime::{
    ConservationAudit, DispatchSpray, DispatcherStats, ExecutionMode, RecoveryReport, ResizeReport,
    RetiredTally, RuntimeError, RuntimeOptions, ShardedRuntime,
};
pub use shard::{EgressSink, RingDepth, ShardSnapshot, ShardStats, ShardTelemetry};
