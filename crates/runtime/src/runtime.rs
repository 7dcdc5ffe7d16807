//! The sharded runtime: dispatch plane → rings → shards → aggregator.
//!
//! [`ShardedRuntime`] owns N worker shards, each running its own
//! [`MenshenPipeline`] replica, and scales the single-pipeline batched data
//! path across cores the way DPDK deployments shard a NIC's traffic over
//! worker lcores:
//!
//! * the **dispatch plane** steers every packet with an RSS-style Toeplitz
//!   hash ([`crate::Steerer`]) — tenant-affine by default, so all of a
//!   tenant's packets, counters and stateful ALU words stay on one shard and
//!   the isolation semantics of the single pipeline carry over unchanged.
//!   With [`RuntimeOptions::dispatchers`] `== 0` the submitting thread
//!   steers inline (the classic serial dispatcher); with `dispatchers ≥ 1`
//!   the plane is **parallel**: the submitter only sprays raw chunks across
//!   per-dispatcher input rings (the per-NIC-queue model — round-robin, or
//!   flow-affine along the RETA partition of [`crate::Steerer::reta_slice`]),
//!   and each dispatcher thread runs the Toeplitz steer + burst-assembly
//!   loop over its own row of shard rings;
//! * **bounded SPSC rings** ([`crate::ring`]) carry bursts to the shards
//!   with backpressure — one ring per (dispatcher, shard) pair, so every
//!   ring keeps exactly one producer and one consumer;
//! * the **epoch-versioned control plane** ([`crate::control`]) broadcasts
//!   every configuration change to all replicas, applied at burst boundaries
//!   — the synchronous wrappers flush first, which quiesces every dispatcher
//!   (partial bursts drained, nothing in flight) before the epoch publishes,
//!   so reconfiguration ordering is preserved no matter how many dispatcher
//!   threads feed the shards;
//! * the **aggregator** merges per-tenant counters, device statistics and
//!   shard tallies across replicas ([`ShardedRuntime::aggregated_counters`]).
//!
//! # Execution modes
//!
//! [`ExecutionMode::Threaded`] runs each shard (and each dispatcher, when
//! configured) on its own `std::thread` — the deployment shape.
//! [`ExecutionMode::Deterministic`] keeps all replicas in-process and drains
//! them round-robin inside `process_batch`, with control changes applied
//! synchronously between bursts; it simulates the same dispatcher spray and
//! per-(dispatcher, shard) grouping, and each shard runs the same
//! `ShardCore` (epoch catch-up and burst step) a threaded worker runs, so
//! the sharded runtime is
//! *exactly* testable against a single pipeline for any dispatcher × shard
//! combination (same steering, same replica semantics, no scheduling
//! nondeterminism). The `shard_equivalence` integration tests exploit this
//! to prove the per-tenant verdict multiset, counter totals, stateful words
//! and link statistics match a lone `MenshenPipeline` for 1–8 shards × 1–4
//! dispatchers, including across interleaved reconfigurations.

use crate::control::{CompactionReport, ControlOp, EpochEntry};
use crate::events::{ControlEvent, ControlEventKind};
use crate::faults::FaultPlan;
use crate::ring::{ring, ring_with_parker, Consumer, Parker, Producer, PushError};
use crate::rss::{Steerer, SteeringMode, RETA_SIZE};
use crate::shard::{
    run_dispatcher, run_worker, Burst, DispatcherUpdate, EgressSink, RingDepth, ShardBurst,
    ShardCore, ShardProgress, ShardSnapshot, ShardStats, ShardTelemetry, Shared,
};
use menshen_core::TableRule;
use menshen_core::{labels, MetricsSnapshot, StageProfile, TenantTelemetry, PROFILE_PHASES};
use menshen_core::{CoreError, DigestSpec, StateDigest, StateMergeability};
use menshen_core::{MenshenPipeline, ModuleConfig, ModuleCounters, ModuleId, ReconfigCommand};
use menshen_core::{ModuleState, SystemStats, Verdict, BURST_SIZE};
use menshen_json::Json;
use menshen_packet::{Ipv4Address, Packet};
use menshen_rmt::params::PipelineParams;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the runtime executes its shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// No threads: replicas live in the runtime and `process_batch` drains
    /// them round-robin. Bit-for-bit reproducible; used by the equivalence
    /// tests and anywhere determinism beats parallelism.
    Deterministic,
    /// One `std::thread` per shard (plus one per dispatcher when
    /// [`RuntimeOptions::dispatchers`] ≥ 1), fed through bounded SPSC rings.
    /// The deployment shape; throughput scales with cores.
    Threaded,
}

/// How the submitting thread sprays packets across the dispatcher threads
/// (ignored when [`RuntimeOptions::dispatchers`] is 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchSpray {
    /// Burst-sized chunks rotate round-robin over the dispatchers — the
    /// cheapest spray (no per-packet work on the ingress thread, maximum
    /// dispatch parallelism). Packets of one flow may traverse different
    /// dispatchers, so cross-burst per-flow order is only preserved within
    /// each dispatcher — the same relaxation a multi-queue NIC exhibits
    /// when a flow migrates queues.
    #[default]
    RoundRobin,
    /// Each packet goes to the dispatcher owning its RETA slice
    /// ([`crate::Steerer::reta_slice`]): per-flow order is preserved end to
    /// end, at the cost of one Toeplitz hash per packet on the ingress
    /// thread (the model of hardware RSS spreading flows over NIC queues).
    FlowAffine,
}

/// Construction-time options for [`ShardedRuntime`].
#[derive(Debug, Clone, Copy)]
pub struct RuntimeOptions {
    /// Number of worker shards (≥ 1).
    pub shards: usize,
    /// Number of dispatcher threads. `0` means the submitting thread steers
    /// inline (the classic serial dispatcher); `n ≥ 1` spawns `n` dispatcher
    /// threads, each steering its share of the traffic over its own row of
    /// per-shard rings.
    pub dispatchers: usize,
    /// How the submitter sprays chunks over dispatcher threads.
    pub spray: DispatchSpray,
    /// Threaded or deterministic execution.
    pub mode: ExecutionMode,
    /// Which flow identifiers steer packets to shards.
    pub steering: SteeringMode,
    /// Packets per burst handed to a shard.
    pub burst_size: usize,
    /// Ring capacity per (dispatcher, shard) ring, in bursts — also the
    /// capacity of each dispatcher's input ring, in chunks.
    pub ring_capacity: usize,
    /// How long a submission (ingress → dispatcher ring, dispatcher → shard
    /// ring) waits on a full ring before *shedding* the burst instead of
    /// parking forever. Shed packets are attributed per tenant
    /// ([`ConservationAudit::shed`], the ledgers' backpressure column), so
    /// an overloaded tenant pays for its own overload instead of
    /// head-of-line-blocking the rest of the plane.
    pub submit_wait: Duration,
    /// How stale a shard's heartbeat may grow *while work is queued for it*
    /// before [`ShardedRuntime::supervise`] declares it wedged.
    pub wedge_threshold: Duration,
}

impl RuntimeOptions {
    /// Deterministic mode with `shards` shards and tenant-affine steering.
    pub fn deterministic(shards: usize) -> Self {
        RuntimeOptions {
            shards,
            dispatchers: 0,
            spray: DispatchSpray::RoundRobin,
            mode: ExecutionMode::Deterministic,
            steering: SteeringMode::TenantAffine,
            burst_size: BURST_SIZE,
            ring_capacity: 64,
            submit_wait: Duration::from_secs(5),
            wedge_threshold: Duration::from_millis(500),
        }
    }

    /// Threaded mode with `shards` shards and tenant-affine steering.
    pub fn threaded(shards: usize) -> Self {
        RuntimeOptions {
            mode: ExecutionMode::Threaded,
            ..Self::deterministic(shards)
        }
    }

    /// Replaces the steering mode.
    pub fn with_steering(mut self, steering: SteeringMode) -> Self {
        self.steering = steering;
        self
    }

    /// Sets the number of dispatcher threads (0 = inline dispatch on the
    /// submitting thread).
    pub fn with_dispatchers(mut self, dispatchers: usize) -> Self {
        self.dispatchers = dispatchers;
        self
    }

    /// Replaces the dispatcher spray policy.
    pub fn with_spray(mut self, spray: DispatchSpray) -> Self {
        self.spray = spray;
        self
    }

    /// Sets the bounded wait a full ring is given before the submission is
    /// shed (per-tenant backpressure drop) instead of parking forever.
    pub fn with_submit_wait(mut self, wait: Duration) -> Self {
        self.submit_wait = wait;
        self
    }

    /// Sets the heartbeat staleness threshold for wedged-shard detection.
    pub fn with_wedge_threshold(mut self, threshold: Duration) -> Self {
        self.wedge_threshold = threshold;
        self
    }
}

/// Errors surfaced by the sharded runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A published epoch failed on a shard. Every configuration op is
    /// decided before it is published (a refusal is
    /// [`RuntimeError::Rejected`]), so only what acts on one shard's own
    /// state fails here: a state injection ([`ControlOp::InjectState`],
    /// [`ControlOp::ReplaceState`]) that shard refuses, or a fault injected
    /// by a [`FaultPlan`].
    Control {
        /// The epoch that failed.
        epoch: u64,
        /// The first per-op error message.
        message: String,
    },
    /// The requested entry point does not exist in the current execution
    /// mode (e.g. `process_batch` on a threaded runtime).
    WrongMode(&'static str),
    /// A worker shard is no longer running (the runtime was shut down, or
    /// the worker thread panicked), so the requested work cannot complete.
    ShardDown {
        /// The dead shard's index.
        shard: usize,
    },
    /// A dispatcher thread is no longer running (shutdown, or it exited
    /// without a failed shard on record), so submissions cannot be accepted.
    DispatcherDown {
        /// The dead dispatcher's index.
        dispatcher: usize,
    },
    /// A `resize`/`set_reta` request was structurally invalid (zero shards,
    /// a RETA entry naming a shard that would not exist) and was refused
    /// before touching the plane.
    InvalidResize {
        /// What was wrong with the request.
        message: String,
    },
    /// The runtime's configuration replica refused a control op — a load
    /// or update that fails [`MenshenPipeline::check_module_config`] or does
    /// not fit, a duplicate or unknown module ID, a rule batch the table
    /// would not take. Nothing was published and steering is unchanged.
    Rejected(CoreError),
    /// An epoch wait exceeded its configured deadline
    /// ([`ShardedRuntime::set_control_timeout`] /
    /// [`ShardedRuntime::wait_for_epoch_deadline`]): at least one live shard
    /// had still not applied the epoch when time ran out. The epoch remains
    /// published — a stalled-but-alive shard will still apply it eventually —
    /// so this is a liveness report, not a rollback.
    EpochTimeout {
        /// The epoch that was being waited on.
        epoch: u64,
        /// How long the waiter was prepared to wait.
        waited: Duration,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Control { epoch, message } => {
                write!(f, "control epoch {epoch} failed: {message}")
            }
            RuntimeError::WrongMode(what) => write!(f, "{what}"),
            RuntimeError::ShardDown { shard } => {
                write!(f, "worker shard {shard} is no longer running")
            }
            RuntimeError::DispatcherDown { dispatcher } => {
                write!(f, "dispatcher {dispatcher} is no longer running")
            }
            RuntimeError::InvalidResize { message } => {
                write!(f, "invalid resize request: {message}")
            }
            RuntimeError::Rejected(error) => write!(f, "control op refused: {error}"),
            RuntimeError::EpochTimeout { epoch, waited } => {
                write!(
                    f,
                    "epoch {epoch} not applied by every live shard within {:?}",
                    waited
                )
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// One dispatcher thread's occupancy and throughput telemetry
/// ([`ShardedRuntime::dispatcher_stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DispatcherStats {
    /// Packets the submitter has handed this dispatcher.
    pub packets_submitted: u64,
    /// Packets this dispatcher has steered and pushed onto shard rings.
    pub packets_dispatched: u64,
    /// Bursts pushed onto shard rings.
    pub bursts_dispatched: u64,
    /// Chunks currently queued in this dispatcher's input ring (relaxed
    /// occupancy gauge — telemetry, not synchronisation).
    pub queued_chunks: u64,
    /// The deepest this dispatcher's input ring has ever been, in chunks.
    pub queue_depth_high_watermark: u64,
    /// True once the dispatcher thread has exited.
    pub exited: bool,
}

/// The outcome of one live resharding operation
/// ([`ShardedRuntime::resize`] / [`ShardedRuntime::set_reta`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ResizeReport {
    /// Shard count before the operation.
    pub from_shards: usize,
    /// Shard count after.
    pub to_shards: usize,
    /// Wall-clock duration the ingress was blocked: flush-barrier quiesce →
    /// state export → replica stand-up/retirement → injection → RETA
    /// publication. This is the *migration pause* — the one number a
    /// deployment pays per elastic step.
    pub pause: Duration,
    /// Single-owner modules whose state moved to a different shard.
    pub migrated_modules: usize,
    /// Stateful words replayed into target replicas (across all injected
    /// snapshots).
    pub migrated_words: usize,
    /// The epoch that committed the migration (injections + retirements).
    pub epoch: u64,
}

/// Dynamic totals inherited from shards that are gone — retired by
/// scale-in or recovered after a failure (the dead incarnation's books):
/// their traffic tallies and their merged telemetry record. Per-module
/// counters and stateful words are *not* here — those migrate into surviving
/// replicas — but shard-level telemetry has no owning replica to move to, so
/// the runtime folds it into every aggregate instead of losing history.
#[derive(Debug, Clone, Default)]
pub struct RetiredTally {
    /// Number of shards retired over the runtime's lifetime.
    pub shards_retired: usize,
    /// Summed traffic tallies of retired shards.
    pub stats: ShardStats,
    /// Merged telemetry records of retired shards.
    pub telemetry: ShardTelemetry,
}

impl RetiredTally {
    /// Folds a departing shard's books — its tallies and the telemetry
    /// record of its last snapshot — into the tally.
    fn fold(&mut self, slot: &mut ShardProgress) {
        self.shards_retired += 1;
        self.stats.merge(&slot.stats);
        if let Some(snapshot) = slot.snapshot.take() {
            self.telemetry.merge(&snapshot.telemetry);
        }
    }
}

/// The packet-conservation audit
/// ([`ShardedRuntime::conservation_audit`]): every packet the runtime ever
/// accepted, attributed. Taken at a full quiesce, so a healthy runtime
/// shows zero in flight and a ledger that retells the shard tallies
/// exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConservationAudit {
    /// Packets ever accepted by `submit`/`submit_owned`/`process_batch`.
    pub submitted: u64,
    /// Packets the shards (live + retired) finished, per their tallies.
    pub processed: u64,
    /// Of those, forwarded.
    pub forwarded: u64,
    /// Dropped, all reasons — verdict drops on the shards *plus* the shed
    /// count below (shed packets are backpressure drops, attributed in the
    /// ledgers' backpressure column).
    pub dropped: u64,
    /// Packets shed before processing because a ring stayed full past the
    /// bounded submission wait — the overloaded tenant's own typed
    /// backpressure drops, never another tenant's head-of-line stall.
    pub shed: u64,
    /// Packets that worker failure made unprocessable: in-flight bursts of
    /// dead workers, ring residue drained during recovery, and bursts that
    /// hit a closed ring. Exact, not estimated — failure containment keeps
    /// the dead shard's rings open until the supervisor has counted them.
    pub lost_to_failure: u64,
    /// Submitted but not yet processed — ring slots and dispatcher scratch.
    /// Always zero at the audit's quiesce point unless a worker died.
    pub in_flight: u64,
    /// Packets the per-tenant verdict ledgers attributed (shed included) —
    /// the second, independent set of books the audit balances against the
    /// tallies.
    pub ledger_total: u64,
}

impl ConservationAudit {
    /// True when every ingress packet is accounted for: nothing in flight,
    /// verdicts plus shed partition the submitted count (less what failure
    /// provably lost), and the per-tenant ledgers independently retell it.
    pub fn is_balanced(&self) -> bool {
        self.in_flight == 0
            && self.forwarded + self.dropped == self.processed + self.shed
            && self.ledger_total == self.processed + self.shed
    }
}

/// The outcome of recovering one failed shard
/// ([`ShardedRuntime::supervise`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The shard that died and was respawned in place.
    pub shard: usize,
    /// Packets the failure made unprocessable (the casualty's in-flight
    /// burst plus the ring residue the supervisor drained), now in
    /// [`ConservationAudit::lost_to_failure`].
    pub lost_packets: u64,
    /// Worker death → supervisor noticing (bounded by how often
    /// [`supervise`](ShardedRuntime::supervise) is called).
    pub detection: Duration,
    /// Route-around → replacement worker live: the recovery pause.
    pub pause: Duration,
}

/// A threaded-mode shard handle.
struct Worker {
    /// The single input ring's producer in inline-dispatch mode; `None`
    /// when dispatcher threads own the producers.
    input: Option<Producer<ShardBurst>>,
    /// The consumer side of the shard's return ring: spent bursts come back
    /// here so the thread that allocated their frames frees them
    /// ([`reclaim`]).
    home: Consumer<Burst>,
    /// The shard's park handle (shared by all its input rings): the control
    /// plane wakes it so published epochs are applied promptly even while
    /// idle.
    parker: Arc<Parker>,
    handle: Option<JoinHandle<()>>,
    submitted_bursts: u64,
}

/// A dispatcher-thread handle.
struct DispatcherHandle {
    input: Producer<Burst>,
    handle: Option<JoinHandle<()>>,
    submitted_packets: u64,
}

enum Backend {
    Deterministic(Vec<ShardCore>),
    Threaded {
        workers: Vec<Worker>,
        dispatchers: Vec<DispatcherHandle>,
    },
}

/// Spawns one worker-shard thread with one input ring per producer row
/// (dispatcher, or the single inline row), all sharing the shard's parker,
/// and one return ring as deep as those input rings together (so it holds
/// every burst that can be in flight towards the shard). Returns the handle
/// plus the ring producers in row order. Used at construction, when a live
/// resize stands up additional shards and when recovery respawns one.
fn spawn_worker(
    shared: &Arc<Shared>,
    options: &RuntimeOptions,
    core: ShardCore,
    rows: usize,
) -> (Worker, Vec<Producer<ShardBurst>>) {
    let index = core.index;
    let parker = Arc::new(Parker::new());
    let mut producers = Vec::with_capacity(rows);
    let mut consumers = Vec::with_capacity(rows);
    for _ in 0..rows {
        let (producer, consumer) = ring_with_parker(options.ring_capacity, Arc::clone(&parker));
        producers.push(producer);
        consumers.push(consumer);
    }
    let (home_tx, home) = ring(rows * options.ring_capacity);
    let thread_shared = Arc::clone(shared);
    let worker_parker = Arc::clone(&parker);
    let handle = std::thread::Builder::new()
        .name(format!("menshen-shard-{index}"))
        .spawn(move || run_worker(core, consumers, home_tx, worker_parker, thread_shared))
        .expect("spawning a shard thread");
    (
        Worker {
            input: None,
            home,
            parker,
            handle: Some(handle),
            submitted_bursts: 0,
        },
        producers,
    )
}

/// Empties the workers' return rings on the calling thread — the thread
/// that submitted, and so allocated, the frames in them. The frames are
/// freed here; the emptied vectors become spare burst storage, up to one
/// full drain of every return ring: fewer would free vectors only to
/// allocate them again, and dispatcher threads mint a fresh vector per
/// burst, so without a bound the list would grow with the traffic.
fn reclaim(workers: &[Worker], spares: &mut Vec<Burst>, options: &RuntimeOptions) {
    let limit = options.shards * options.dispatchers.max(1) * options.ring_capacity;
    for worker in workers {
        while let Some(mut spent) = worker.home.try_pop() {
            spent.clear();
            if spares.len() < limit {
                spares.push(spent);
            }
        }
    }
}

/// An empty burst vector to fill: a reclaimed one if any is left.
fn spare(spares: &mut Vec<Burst>, burst_size: usize) -> Burst {
    spares
        .pop()
        .unwrap_or_else(|| Vec::with_capacity(burst_size))
}

/// Hands one sealed burst to an inline worker's input ring, waiting at most
/// `wait` on a full ring. A refused burst is accounted — shed per tenant
/// (still full at the deadline: the overloaded tenant's own drop) or lost
/// (closed: the worker is gone) — and dropped here, on the submitting
/// thread. Returns false when the ring was closed.
fn push_inline(
    worker: &mut Worker,
    burst: ShardBurst,
    wait: Duration,
    shed: &mut BTreeMap<u16, u64>,
    lost: &mut u64,
) -> bool {
    let input = worker.input.as_ref().expect("inline worker has a producer");
    match input.push_deadline(burst, wait) {
        Ok(()) => worker.submitted_bursts += 1,
        Err(PushError::Timeout(burst)) => {
            // Shed bursts drop their digests with their packets — under
            // overload the replicas may diverge until rebuilt, the
            // documented degraded regime.
            for packet in &burst.packets {
                *shed.entry(crate::shard::packet_tenant(packet)).or_insert(0) += 1;
            }
        }
        Err(PushError::Closed(burst)) => {
            *lost += burst.packets.len() as u64;
            return false;
        }
    }
    true
}

/// Once the live portion of the epoch log reaches this many entries, the
/// synchronous control path drops the acknowledged prefix so the log stops
/// growing across reconfigurations.
const COMPACT_THRESHOLD: usize = 8;

/// The event-trace record for one control operation, if it has one. Epoch
/// membership is carried by the surrounding `EpochPublished` record; raw
/// daisy-chain writes and routing tweaks ride on that record alone.
fn op_event(op: &ControlOp, epoch: u64) -> Option<ControlEventKind> {
    Some(match op {
        ControlOp::Load(config) => ControlEventKind::ModuleLoaded {
            module: config.module_id.value() as u64,
        },
        ControlOp::Update(config) => ControlEventKind::ModuleUpdated {
            module: config.module_id.value() as u64,
        },
        ControlOp::Unload(module) => ControlEventKind::ModuleUnloaded {
            module: module.value() as u64,
        },
        ControlOp::BeginReconfiguration(module) => ControlEventKind::ReconfigBegan {
            module: module.value() as u64,
        },
        ControlOp::EndReconfiguration(module) => ControlEventKind::ReconfigEnded {
            module: module.value() as u64,
        },
        ControlOp::InstallRules {
            module,
            stage,
            rules,
        } => ControlEventKind::RulesInstalled {
            module: module.value() as u64,
            stage: *stage as u64,
            rules: rules.len() as u64,
        },
        ControlOp::Snapshot => ControlEventKind::SnapshotRequested { epoch },
        ControlOp::ExportState {
            modules,
            from_shard,
        } => ControlEventKind::StateExported {
            modules: modules.len() as u64,
            from_shard: *from_shard as u64,
        },
        ControlOp::InjectState { shard, state } => ControlEventKind::StateInjected {
            shard: *shard as u64,
            modules: u64::from(!state.is_zero()),
        },
        ControlOp::ExportStateSnapshot { modules, shard } => ControlEventKind::StateExported {
            modules: modules.len() as u64,
            from_shard: *shard as u64,
        },
        ControlOp::ReplaceState { shard, state } => ControlEventKind::StateInjected {
            shard: *shard as u64,
            modules: u64::from(!state.is_zero()),
        },
        ControlOp::Retire { keep } => ControlEventKind::ShardsRetired { kept: *keep as u64 },
        ControlOp::Command(_) | ControlOp::AddRoute(..) | ControlOp::SetDefaultPort(_) => {
            return None
        }
    })
}

/// The digest spec `module` replicates under on a runtime whose
/// configuration is `head`: under 5-tuple steering, a loaded module whose
/// stateful memory is non-mergeable replicates. Tenant-affine steering is
/// single-owner, so nothing replicates there.
fn replication(head: &MenshenPipeline, mode: SteeringMode, module: ModuleId) -> Option<DigestSpec> {
    if mode != SteeringMode::FiveTuple {
        return None;
    }
    match head.module_state_mergeability(module)? {
        StateMergeability::NonMergeable { .. } => head.module_digest_spec(module),
        _ => None,
    }
}

/// Sets the steerer's entry for each of `modules` to its [`replication`]
/// under `head`. Returns true if any entry changed, so the dispatchers need
/// the new steerer.
fn derive_replication(
    steerer: &mut Steerer,
    head: &MenshenPipeline,
    modules: Vec<ModuleId>,
) -> bool {
    let mut changed = false;
    for module in modules {
        changed |= match replication(head, steerer.mode(), module) {
            Some(spec) => steerer.set_replicated(module.value(), Arc::new(spec)),
            None => steerer.clear_replicated(module.value()),
        };
    }
    changed
}

/// The sharded multi-core runtime. See the module docs for the architecture.
pub struct ShardedRuntime {
    options: RuntimeOptions,
    steerer: Steerer,
    shared: Arc<Shared>,
    backend: Backend,
    epoch: u64,
    /// The configuration replica at the newest published epoch. Every
    /// control op is applied here before it is published, and a refused op
    /// is never published; standby replicas and the replicated set are
    /// derived from it.
    head: MenshenPipeline,
    // Dispatcher scratch, reused across calls so steady-state dispatch does
    // not allocate. In deterministic mode the scratch is indexed by
    // (dispatcher × shard) group; the inline threaded path keeps one open
    // burst per shard in the first `shards` entries, and the spray to
    // dispatcher threads one open chunk per dispatcher.
    scatter: Vec<Vec<Packet>>,
    scatter_pos: Vec<Vec<usize>>,
    /// Per-group state digests awaiting dispatch, parallel to `scatter`:
    /// each digest's `before` indexes into the receiving group's packet
    /// scatter, so replicated-module replay interleaves in global order.
    digest_scatter: Vec<Vec<StateDigest>>,
    /// Emptied burst vectors that came home over the return rings, refilled
    /// by the threaded dispatch paths instead of allocating.
    spares: Vec<Burst>,
    reorder: Vec<Option<Verdict>>,
    /// State digests generated on this thread (deterministic simulation and
    /// inline threaded dispatch) — `menshen_runtime_digest_packets_total`
    /// together with the dispatcher threads' own tallies.
    digest_packets: u64,
    /// Wire bytes of those digests (`menshen_runtime_digest_bytes_total`).
    digest_bytes: u64,
    /// Round-robin spray cursor (threaded dispatcher mode).
    spray_cursor: usize,
    /// Telemetry inherited from shards retired by scale-in.
    retired: RetiredTally,
    /// Packets ever accepted into the runtime — the conservation audit's
    /// ingress side of the ledger.
    submitted_packets: u64,
    /// Packets shed per tenant on the *submitting* thread (inline dispatch
    /// to a full shard ring, or spray to a full dispatcher input ring).
    /// The dispatcher threads keep their own shed maps on the progress
    /// board; aggregates merge both.
    shed_inline: BTreeMap<u16, u64>,
    /// Packets lost to failure and already folded out of the progress board
    /// (recovered casualties' in-flight bursts, drained ring residue, and
    /// submissions that hit a closed ring).
    lost_folded: u64,
    /// Worker failures detected and recovered over the runtime's lifetime
    /// (`menshen_runtime_failures_total`).
    failures: u64,
    /// Shards currently routed around as wedged (stale heartbeat while
    /// their rings held work). A wedged shard is left running in case it
    /// wakes; if it later dies, recovery clears its entry here.
    wedged_routed: BTreeSet<usize>,
    /// Deadline applied by [`wait_for_epoch`](Self::wait_for_epoch) (and so
    /// by every synchronous control wrapper): `None` waits forever — the
    /// historical behaviour — while `Some(limit)` surfaces
    /// [`RuntimeError::EpochTimeout`] when a live shard stalls past it.
    control_timeout: Option<Duration>,
}

impl ShardedRuntime {
    /// Creates a runtime whose shards replicate an empty pipeline with the
    /// given hardware parameters. Configuration then flows exclusively
    /// through the epoch-versioned control plane, keeping all replicas
    /// identical by construction.
    pub fn new(params: PipelineParams, options: RuntimeOptions) -> Self {
        Self::from_pipeline(&MenshenPipeline::new(params), options)
    }

    /// Creates a runtime whose shards are configuration replicas of an
    /// existing pipeline ([`MenshenPipeline::config_replica`]): same loaded
    /// modules and routing state, zeroed counters and stateful memory.
    ///
    /// Templates containing stateful modules whose state is *not* mergeable
    /// ([`MenshenPipeline::module_state_mergeability`]) are legal under
    /// 5-tuple steering: such programs are **replicated**
    /// ([`Steerer::set_replicated`]) — every shard keeps a bit-identical
    /// copy of the state, kept in sync by per-packet state digests broadcast
    /// from the dispatch plane.
    pub fn from_pipeline(template: &MenshenPipeline, options: RuntimeOptions) -> Self {
        assert!(options.shards >= 1, "at least one shard is required");
        assert!(options.burst_size >= 1, "burst size must be positive");
        let shared = Arc::new(Shared::new(options.shards, options.dispatchers));
        let head = template.config_replica();
        let mut steerer = Steerer::new(options.steering, options.shards);
        derive_replication(&mut steerer, &head, head.loaded_modules());
        let backend = match options.mode {
            ExecutionMode::Deterministic => Backend::Deterministic(
                (0..options.shards)
                    .map(|index| ShardCore::new(index, template.config_replica(), 0))
                    .collect(),
            ),
            ExecutionMode::Threaded => {
                let mut workers = Vec::with_capacity(options.shards);
                // One ring row per dispatcher (or the single inline row):
                // every (producer, shard) pair gets a dedicated SPSC ring,
                // and each shard's rings share one parker.
                let rows = options.dispatchers.max(1);
                let mut producer_rows: Vec<Vec<Producer<ShardBurst>>> = (0..rows)
                    .map(|_| Vec::with_capacity(options.shards))
                    .collect();
                for index in 0..options.shards {
                    let core = ShardCore::new(index, template.config_replica(), 0);
                    let (worker, producers) = spawn_worker(&shared, &options, core, rows);
                    for (row, producer) in producer_rows.iter_mut().zip(producers) {
                        row.push(producer);
                    }
                    workers.push(worker);
                }
                let mut dispatchers = Vec::with_capacity(options.dispatchers);
                if options.dispatchers == 0 {
                    // Inline dispatch: the submitting thread owns the single
                    // producer row.
                    let row = producer_rows.pop().expect("one inline row");
                    for (worker, producer) in workers.iter_mut().zip(row) {
                        worker.input = Some(producer);
                    }
                } else {
                    for (index, row) in producer_rows.into_iter().enumerate() {
                        let (producer, consumer) = ring(options.ring_capacity);
                        let shared = Arc::clone(&shared);
                        let steerer = steerer.clone();
                        let burst_size = options.burst_size;
                        let submit_wait = options.submit_wait;
                        let handle = std::thread::Builder::new()
                            .name(format!("menshen-dispatch-{index}"))
                            .spawn(move || {
                                run_dispatcher(
                                    index,
                                    steerer,
                                    consumer,
                                    row,
                                    burst_size,
                                    submit_wait,
                                    shared,
                                )
                            })
                            .expect("spawning a dispatcher thread");
                        dispatchers.push(DispatcherHandle {
                            input: producer,
                            handle: Some(handle),
                            submitted_packets: 0,
                        });
                    }
                }
                Backend::Threaded {
                    workers,
                    dispatchers,
                }
            }
        };
        let groups = options.dispatchers.max(1) * options.shards;
        ShardedRuntime {
            scatter: vec![Vec::new(); groups],
            scatter_pos: vec![Vec::new(); groups],
            digest_scatter: vec![Vec::new(); groups],
            spares: Vec::new(),
            reorder: Vec::new(),
            digest_packets: 0,
            digest_bytes: 0,
            spray_cursor: 0,
            retired: RetiredTally::default(),
            submitted_packets: 0,
            shed_inline: BTreeMap::new(),
            lost_folded: 0,
            failures: 0,
            wedged_routed: BTreeSet::new(),
            control_timeout: None,
            steerer,
            shared,
            backend,
            epoch: 0,
            head,
            options,
        }
    }

    /// Number of worker shards.
    pub fn shard_count(&self) -> usize {
        self.options.shards
    }

    /// The execution mode.
    pub fn mode(&self) -> ExecutionMode {
        self.options.mode
    }

    /// The steering mode.
    pub fn steering(&self) -> SteeringMode {
        self.steerer.mode()
    }

    /// The most recently published configuration epoch.
    pub fn current_epoch(&self) -> u64 {
        self.epoch
    }

    /// The configuration epoch each shard has applied.
    pub fn applied_epochs(&self) -> Vec<u64> {
        self.shared
            .progress
            .lock()
            .expect("progress lock poisoned")
            .shards
            .iter()
            .map(|p| p.applied_epoch)
            .collect()
    }

    // -----------------------------------------------------------------------
    // Control plane: epoch-versioned broadcast
    // -----------------------------------------------------------------------

    /// Publishes a batch of control operations as one new epoch and returns
    /// it, *without* waiting for shards to apply it. Shards pick the epoch up
    /// at their next burst boundary. Use
    /// [`wait_for_epoch`](Self::wait_for_epoch) to block until it is
    /// globally in effect, or the synchronous wrappers
    /// ([`load_module`](Self::load_module) …) which
    /// flush in-flight traffic first and then wait — the hitless-reconfig
    /// ordering guarantee: the change lands strictly after all previously
    /// submitted packets and strictly before all subsequent ones. The flush
    /// quiesces every dispatcher thread too (partial bursts drained), so the
    /// ordering holds for any dispatcher count.
    ///
    /// Every op is applied to `head` first. If `head` refuses one, nothing
    /// is published, the epoch does not move and steering is untouched:
    /// the result is [`RuntimeError::Rejected`]. Otherwise the replication
    /// of the modules the entry touched is re-derived from `head` right
    /// after publishing, before anyone waits, so even an
    /// [`RuntimeError::EpochTimeout`] leaves steering equal to the published
    /// program.
    fn publish(&mut self, ops: Vec<ControlOp>) -> Result<u64, RuntimeError> {
        self.debug_assert_replication();
        // Every typed wrapper publishes at most one configuration op per
        // entry, and the pipeline refuses an op before changing anything, so
        // a refusal leaves `head` exactly as it was.
        debug_assert!(ops.iter().filter(|op| op.configures()).count() <= 1);
        for op in &ops {
            op.apply(&mut self.head).map_err(RuntimeError::Rejected)?;
        }
        // The modules whose replication the entry can change: the one a load,
        // update or unload names, or every loaded one after a raw write.
        let touched = match ops.iter().find(|op| op.configures()) {
            Some(ControlOp::Load(config) | ControlOp::Update(config)) => vec![config.module_id],
            Some(ControlOp::Unload(module)) => vec![*module],
            Some(ControlOp::Command(_)) => self.head.loaded_modules(),
            _ => Vec::new(),
        };
        self.epoch += 1;
        let now_ns = self.shared.now_ns();
        self.shared.events.emit(
            now_ns,
            ControlEventKind::EpochPublished {
                epoch: self.epoch,
                ops: ops.len() as u64,
            },
        );
        for op in &ops {
            if let Some(kind) = op_event(op, self.epoch) {
                self.shared.events.emit(now_ns, kind);
            }
        }
        let entry = EpochEntry {
            epoch: self.epoch,
            ops,
        };
        self.shared
            .log
            .lock()
            .expect("log lock poisoned")
            .append(entry);
        // SeqCst: the store participates in the shard parkers' flag/recheck
        // wakeup protocol, so a parked shard cannot miss the new epoch.
        self.shared.published.store(self.epoch, Ordering::SeqCst);
        match &mut self.backend {
            // Deterministic cores catch up right here, through the same
            // `catch_up` a worker runs. A `Retire` is acknowledged here; the
            // resize control path truncates the core vector right after.
            Backend::Deterministic(cores) => {
                for core in cores.iter_mut() {
                    core.catch_up(&self.shared, RingDepth::default);
                }
            }
            Backend::Threaded { workers, .. } => {
                for worker in workers.iter() {
                    worker.parker.unpark();
                }
            }
        }
        if derive_replication(&mut self.steerer, &self.head, touched) {
            self.push_steering();
        }
        Ok(self.epoch)
    }

    /// Debug builds: the steerer replicates exactly the loaded modules of
    /// `head` that [`replication`] names.
    fn debug_assert_replication(&self) {
        debug_assert_eq!(
            self.steerer.replicated_modules(),
            self.head
                .loaded_modules()
                .into_iter()
                .filter(|&m| replication(&self.head, self.steerer.mode(), m).is_some())
                .map(|m| m.value())
                .collect::<Vec<_>>(),
            "the replicated set drifted from the published program"
        );
    }

    /// Blocks until every *live* shard has applied `epoch`. Returns `Ok` when
    /// all shards applied it, or `Err(ShardDown)` if a shard exited (shutdown
    /// or worker panic) before reaching it — waiting on a dead shard would
    /// otherwise hang forever. Honours the configured
    /// [`control timeout`](Self::set_control_timeout), if any, surfacing
    /// [`RuntimeError::EpochTimeout`] when a live shard stalls past it.
    pub fn wait_for_epoch(&self, epoch: u64) -> Result<(), RuntimeError> {
        self.wait_for_epoch_deadline(epoch, self.control_timeout)
    }

    /// [`wait_for_epoch`](Self::wait_for_epoch) with an explicit per-call
    /// deadline: `None` waits forever, `Some(limit)` returns
    /// [`RuntimeError::EpochTimeout`] if any live shard has still not
    /// applied `epoch` after `limit`. The epoch stays published either way.
    pub fn wait_for_epoch_deadline(
        &self,
        epoch: u64,
        timeout: Option<Duration>,
    ) -> Result<(), RuntimeError> {
        let start = Instant::now();
        let mut progress = self.shared.progress.lock().expect("progress lock poisoned");
        while progress
            .shards
            .iter()
            .any(|p| !p.exited && p.applied_epoch < epoch)
        {
            match timeout {
                None => {
                    progress = self
                        .shared
                        .cv
                        .wait(progress)
                        .expect("progress lock poisoned");
                }
                Some(limit) => {
                    let elapsed = start.elapsed();
                    if elapsed >= limit {
                        return Err(RuntimeError::EpochTimeout {
                            epoch,
                            waited: limit,
                        });
                    }
                    let (guard, _) = self
                        .shared
                        .cv
                        .wait_timeout(progress, limit - elapsed)
                        .expect("progress lock poisoned");
                    progress = guard;
                }
            }
        }
        match progress
            .shards
            .iter()
            .position(|p| p.exited && p.applied_epoch < epoch)
        {
            Some(shard) => Err(RuntimeError::ShardDown { shard }),
            None => Ok(()),
        }
    }

    /// Sets the deadline every epoch wait (and so every synchronous control
    /// wrapper — `load_module`, `install_rules`, `resize`, …) applies from
    /// now on: `None` (the default) blocks forever, `Some(limit)` surfaces
    /// [`RuntimeError::EpochTimeout`] instead of hanging when a shard
    /// stalls. Long-lived services should set this so a wedged worker turns
    /// into a typed error on the control path, not a hung control socket.
    pub fn set_control_timeout(&mut self, timeout: Option<Duration>) {
        self.control_timeout = timeout;
    }

    /// The configured control-path deadline, if any.
    pub fn control_timeout(&self) -> Option<Duration> {
        self.control_timeout
    }

    /// Installs (or, with `None`, removes) the [`EgressSink`] the data plane
    /// hands every processed packet and verdict to. Every shard adopts the
    /// new sink at its next burst boundary, in both execution modes.
    /// Typically called once, before traffic starts — packets processed
    /// between staging and pickup go to whichever sink their shard last
    /// saw.
    pub fn set_egress(&mut self, sink: Option<Arc<dyn EgressSink>>) {
        *self.shared.egress.lock().expect("egress lock poisoned") = sink;
        self.shared.egress_version.fetch_add(1, Ordering::SeqCst);
        // Wake parked workers so an idle plane picks the sink up promptly.
        if let Backend::Threaded { workers, .. } = &self.backend {
            for worker in workers.iter() {
                worker.parker.unpark();
            }
        }
    }

    /// Synchronous control-plane round trip: flush in-flight traffic, publish
    /// one epoch (or return `Rejected` without publishing), wait for every
    /// shard to apply it, and surface the first shard error for it.
    fn control(&mut self, ops: Vec<ControlOp>) -> Result<(), RuntimeError> {
        // The pre-publish flush honours the control timeout too: a stalled
        // shard turns the sync op into a typed `EpochTimeout` instead of a
        // hang, without wedging later epochs (nothing is published here — a
        // retry after the stall clears proceeds normally).
        if let Some(limit) = self.control_timeout {
            if !self.flush_until(Some(Instant::now() + limit)) {
                return Err(RuntimeError::EpochTimeout {
                    epoch: self.epoch,
                    waited: limit,
                });
            }
        } else {
            self.flush();
        }
        let epoch = self.publish(ops)?;
        self.wait_for_epoch(epoch)?;
        let result = self.epoch_error(epoch).map_or(Ok(()), Err);
        // Every live shard has acknowledged `epoch` at this point, so the
        // whole log prefix is compactable; drop it once enough entries
        // accumulate, keeping the log bounded across arbitrarily many
        // reconfigurations.
        let needs_compaction =
            self.shared.log.lock().expect("log lock poisoned").len() >= COMPACT_THRESHOLD;
        if needs_compaction {
            self.compact_log();
        }
        self.debug_assert_replication();
        result
    }

    /// Drops every epoch that *all live shards* have acknowledged from the
    /// log. Called automatically by the synchronous control-plane wrappers
    /// once the log reaches a threshold; public so callers publishing with
    /// [`install_rules_async`](Self::install_rules_async) can compact on
    /// their own schedule.
    pub fn compact_log(&mut self) -> CompactionReport {
        let min_applied = {
            let progress = self.shared.progress.lock().expect("progress lock poisoned");
            progress
                .shards
                .iter()
                .filter(|slot| !slot.exited)
                .map(|slot| slot.applied_epoch)
                .min()
                // All shards gone: nobody will ever read the entries again.
                .unwrap_or(self.epoch)
        };
        let report = self
            .shared
            .log
            .lock()
            .expect("log lock poisoned")
            .compact(min_applied);
        if report.entries_dropped > 0 {
            self.shared.events.emit(
                self.shared.now_ns(),
                ControlEventKind::LogCompacted {
                    through_epoch: report.compacted_epoch,
                    entries_dropped: report.entries_dropped as u64,
                },
            );
        }
        report
    }

    /// Number of live (uncompacted) entries in the control-plane log.
    pub fn epoch_log_len(&self) -> usize {
        self.shared.log.lock().expect("log lock poisoned").len()
    }

    /// The newest epoch compaction has dropped from the log (0 before any
    /// compaction).
    pub fn compacted_epoch(&self) -> u64 {
        self.shared
            .log
            .lock()
            .expect("log lock poisoned")
            .base_epoch()
    }

    /// A fresh configuration replica at the newest published epoch (a
    /// [`MenshenPipeline::config_replica`] of the runtime's own): exactly
    /// the pipeline a brand-new shard runs, which is what scale-out and
    /// recovery spawn from.
    pub fn standby_replica(&self) -> MenshenPipeline {
        self.head.config_replica()
    }

    /// Pushes the runtime's current steerer (RETA, shard count, replicated
    /// modules) to every dispatcher thread without touching the ring
    /// topology. The dispatchers adopt it before steering their next chunk;
    /// the calling thread owns `&mut self`, so no packet can be submitted in
    /// between.
    fn push_steering(&self) {
        let Backend::Threaded { dispatchers, .. } = &self.backend else {
            return;
        };
        for index in 0..dispatchers.len() {
            self.shared.stage_dispatcher_update(
                index,
                DispatcherUpdate {
                    steerer: self.steerer.clone(),
                    keep: self.options.shards,
                    append: Vec::new(),
                    replace: Vec::new(),
                },
            );
        }
    }

    /// Loads a module on every shard replica (one epoch). Under 5-tuple
    /// steering, mergeable (and stateless) modules spread with no extra
    /// machinery, while a module with non-mergeable stateful memory is
    /// replicated (digest-broadcast, see
    /// [`replicated_modules`](Self::replicated_modules)) rather than
    /// refused. A load the pipeline refuses — failed static checks, no room,
    /// a module ID already loaded — is [`RuntimeError::Rejected`] and
    /// publishes no epoch.
    pub fn load_module(&mut self, config: &ModuleConfig) -> Result<(), RuntimeError> {
        self.control(vec![ControlOp::Load(Box::new(config.clone()))])
    }

    /// Updates a loaded module on every shard replica (one epoch),
    /// re-aligning its steering with the new program's state
    /// classification. Refused like [`load_module`](Self::load_module), and
    /// then the running program and its steering are untouched.
    pub fn update_module(&mut self, config: &ModuleConfig) -> Result<(), RuntimeError> {
        self.control(vec![ControlOp::Update(Box::new(config.clone()))])
    }

    /// Unloads a module from every shard replica (one epoch) and clears any
    /// replication entry it held.
    pub fn unload_module(&mut self, module: ModuleId) -> Result<(), RuntimeError> {
        self.control(vec![ControlOp::Unload(module)])
    }

    /// The modules currently running replicated under 5-tuple mode — their
    /// flows spread across shards while every shard keeps a bit-identical
    /// copy of the stateful words via digest broadcast (empty in
    /// tenant-affine mode).
    pub fn replicated_modules(&self) -> Vec<u16> {
        self.steerer.replicated_modules()
    }

    /// State digests generated runtime-lifetime as `(packets, wire_bytes)`:
    /// one digest per (replicated-module packet, non-owning shard), counted
    /// at generation time whether dispatch happened inline, in the
    /// deterministic simulation, or on dispatcher threads. Digests are
    /// control metadata — they never appear in packet conservation.
    pub fn digest_totals(&self) -> (u64, u64) {
        let mut packets = self.digest_packets;
        let mut bytes = self.digest_bytes;
        let progress = self.shared.progress.lock().expect("progress lock poisoned");
        for slot in progress.dispatchers.iter() {
            packets += slot.digests_dispatched;
            bytes += slot.digest_bytes_dispatched;
        }
        (packets, bytes)
    }

    /// The current RSS indirection table.
    pub fn reta(&self) -> [u16; RETA_SIZE] {
        *self.steerer.reta()
    }

    /// Marks a module as being reconfigured on every shard (its packets drop
    /// until [`end_reconfiguration`](Self::end_reconfiguration); other
    /// modules keep forwarding — reconfiguration is hitless for them).
    pub fn begin_reconfiguration(&mut self, module: ModuleId) -> Result<(), RuntimeError> {
        self.control(vec![ControlOp::BeginReconfiguration(module)])
    }

    /// Clears a module's reconfiguration mark on every shard.
    pub fn end_reconfiguration(&mut self, module: ModuleId) -> Result<(), RuntimeError> {
        self.control(vec![ControlOp::EndReconfiguration(module)])
    }

    /// Applies one raw daisy-chain write on every shard replica.
    pub fn apply_command(&mut self, command: &ReconfigCommand) -> Result<(), RuntimeError> {
        self.control(vec![ControlOp::Command(command.clone())])
    }

    /// Installs rules into a module's flat match table (LPM or range) on
    /// every shard replica, synchronously: flushes in-flight traffic, then
    /// publishes the batch and waits for every shard to apply it. A batch
    /// the table would refuse is [`RuntimeError::Rejected`], with no rule
    /// installed anywhere. The insert itself is incremental — the module is never marked
    /// reconfiguring, so its packets keep forwarding right up to (and after)
    /// the epoch boundary.
    pub fn install_rules(
        &mut self,
        module: ModuleId,
        stage: usize,
        rules: &[TableRule],
    ) -> Result<(), RuntimeError> {
        self.control(vec![ControlOp::InstallRules {
            module,
            stage,
            rules: rules.to_vec(),
        }])
    }

    /// Publishes a rule-install epoch without flushing or waiting — the
    /// non-quiescing control path. Shards pick the rules up at their next
    /// burst boundary while continuing to process traffic; use
    /// [`wait_for_epoch`](Self::wait_for_epoch) with the returned epoch to
    /// observe global visibility. A batch the table would refuse is
    /// [`RuntimeError::Rejected`] here, before anything is published.
    pub fn install_rules_async(
        &mut self,
        module: ModuleId,
        stage: usize,
        rules: &[TableRule],
    ) -> Result<u64, RuntimeError> {
        self.publish(vec![ControlOp::InstallRules {
            module,
            stage,
            rules: rules.to_vec(),
        }])
    }

    /// The first shard error recorded for `epoch`, if any: what still fails
    /// on a shard once an epoch is published (see [`RuntimeError::Control`]).
    pub fn epoch_error(&self, epoch: u64) -> Option<RuntimeError> {
        let progress = self.shared.progress.lock().expect("progress lock poisoned");
        progress
            .shards
            .iter()
            .find_map(|slot| match &slot.last_error {
                Some((failed_epoch, message)) if *failed_epoch == epoch => {
                    Some(RuntimeError::Control {
                        epoch,
                        message: message.clone(),
                    })
                }
                _ => None,
            })
    }

    /// Installs a system-module route on every shard replica.
    pub fn add_route(&mut self, ip: Ipv4Address, port: u16) -> Result<(), RuntimeError> {
        self.control(vec![ControlOp::AddRoute(ip, port)])
    }

    /// Sets the system-module default port on every shard replica.
    pub fn set_default_port(&mut self, port: u16) -> Result<(), RuntimeError> {
        self.control(vec![ControlOp::SetDefaultPort(port)])
    }

    // -----------------------------------------------------------------------
    // Live resharding: elastic scale-out/in with tenant state migration
    // -----------------------------------------------------------------------

    /// Live resharding: grows or shrinks the runtime to `new_shards` worker
    /// shards at runtime, rewriting the indirection table to the round-robin
    /// default over the new count and migrating every moving tenant's state.
    ///
    /// The sequence (all of it while the ingress is blocked — the returned
    /// [`ResizeReport::pause`] is exactly how long):
    ///
    /// 1. **Quiesce** — the two-stage flush barrier drains every dispatcher
    ///    and every shard, so nothing is in flight anywhere.
    /// 2. **Export** — one epoch broadcasts [`ControlOp::ExportState`]: each
    ///    shard extracts-and-clears the moving tenants' counters and
    ///    stateful words (single-owner modules whose owner shard changes;
    ///    plus, on a shrink under 5-tuple steering, everything still on the
    ///    retiring shards), and snapshots its telemetry.
    /// 3. **Stand up / retire** — new shards spawn from
    ///    [`standby_replica`](Self::standby_replica) (exactly the current
    ///    configuration); on a shrink the
    ///    retiring shards' telemetry is folded into the
    ///    [`retired_tally`](Self::retired_tally).
    /// 4. **Inject + commit** — a second epoch replays each merged extract
    ///    into its new owner ([`ControlOp::InjectState`]) and retires the
    ///    shards beyond the new count ([`ControlOp::Retire`]).
    /// 5. **Publish the RETA** — the runtime's steerer swaps and every
    ///    dispatcher thread adopts the new table (and its grown/shrunk ring
    ///    row) before steering its next packet.
    ///
    /// Because the entire sequence runs at a full quiesce, no packet ever
    /// observes a half-moved tenant: traffic before the resize ran entirely
    /// under the old RETA against the old owners, traffic after runs
    /// entirely under the new.
    pub fn resize(&mut self, new_shards: usize) -> Result<ResizeReport, RuntimeError> {
        if new_shards == 0 {
            return Err(RuntimeError::InvalidResize {
                message: "at least one shard is required".into(),
            });
        }
        self.reshard(new_shards, Steerer::round_robin_reta(new_shards))
    }

    /// Live RETA rewrite at the current shard count: installs `reta`
    /// wholesale (every entry must name an existing shard) and migrates the
    /// single-owner tenants whose owner shard the rewrite moves. Same
    /// quiesce → export → inject → publish sequence as
    /// [`resize`](Self::resize).
    pub fn set_reta(&mut self, reta: [u16; RETA_SIZE]) -> Result<ResizeReport, RuntimeError> {
        let shards = self.options.shards;
        if let Some(entry) = reta.iter().find(|&&entry| usize::from(entry) >= shards) {
            return Err(RuntimeError::InvalidResize {
                message: format!("RETA entry {entry} names a shard >= the shard count {shards}"),
            });
        }
        self.reshard(shards, reta)
    }

    /// The shared implementation of [`resize`](Self::resize) and
    /// [`set_reta`](Self::set_reta). `new_reta` entries must already be
    /// validated against `new_shards`.
    fn reshard(
        &mut self,
        new_shards: usize,
        new_reta: [u16; RETA_SIZE],
    ) -> Result<ResizeReport, RuntimeError> {
        let start = Instant::now();
        let start_ns = self.shared.now_ns();
        let old_shards = self.options.shards;
        self.shared.events.emit(
            start_ns,
            ControlEventKind::ResizeStarted {
                from_shards: old_shards as u64,
                to_shards: new_shards as u64,
            },
        );

        // 1. Quiesce: dispatchers drained to their input-ring-dry flush
        // point, shards drained to their last burst. The caller holds
        // `&mut self`, so no new packet can be submitted until we return.
        self.flush();

        // The post-migration steering decision (same mode, same replicated
        // modules).
        let mut new_steerer = self.steerer.clone();
        new_steerer.retarget(new_shards);
        new_steerer.set_reta(new_reta);

        // Plan the moves. Single-owner modules (every module under
        // tenant-affine steering) move whole when their owner shard changes.
        // Spread modules (5-tuple, mergeable or replicated) need no move on
        // a RETA change — mergeable per-shard partial sums stay correct
        // wherever the flows land, and replicated copies are bit-identical
        // everywhere — except on a shrink, where the retiring shards' state must be rescued into a
        // survivor before the shards disappear, and, for replicated modules,
        // on a grow, where the brand-new shards must be seeded with a full
        // copy of the state before any of the module's traffic reaches them.
        let mut moving: Vec<(ModuleId, usize)> = Vec::new();
        let mut rescue: Vec<ModuleId> = Vec::new();
        let mut seeding: Vec<ModuleId> = Vec::new();
        for module in self.head.loaded_modules() {
            match (
                self.steerer.owner_shard(module.value()),
                new_steerer.owner_shard(module.value()),
            ) {
                (Some(old_owner), Some(new_owner)) => {
                    if old_owner != new_owner {
                        moving.push((module, new_owner));
                    }
                }
                _ => {
                    if new_shards < old_shards {
                        rescue.push(module);
                    } else if new_shards > old_shards && self.steerer.is_replicated(module.value())
                    {
                        seeding.push(module);
                    }
                }
            }
        }

        // 2. Export epoch: every shard extracts-and-clears the moving
        // modules (only the owner holds non-zero state; the others
        // contribute zeros), retiring shards additionally surrender their
        // rescued state, shard 0 snapshots the replicated modules a grow
        // must seed (non-clearing — any replica's copy is authoritative),
        // and everyone snapshots telemetry so a retiring shard's history
        // survives it.
        let mut ops: Vec<ControlOp> = Vec::new();
        if !moving.is_empty() {
            ops.push(ControlOp::ExportState {
                modules: moving.iter().map(|(module, _)| *module).collect(),
                from_shard: 0,
            });
        }
        if !rescue.is_empty() {
            ops.push(ControlOp::ExportState {
                modules: rescue,
                from_shard: new_shards,
            });
        }
        if !seeding.is_empty() {
            ops.push(ControlOp::ExportStateSnapshot {
                modules: seeding.clone(),
                shard: 0,
            });
        }
        ops.push(ControlOp::Snapshot);
        let export_epoch = self.publish(ops)?;
        self.wait_for_epoch(export_epoch)?;

        // Merge the per-shard extracts. The retiring shards' telemetry is
        // *not* folded into the lifetime tally yet — that only happens once
        // the commit epoch below has succeeded, so a resize that fails
        // mid-way (shard panic, inject error) cannot leave the books
        // double-counting shards that were never actually dropped.
        let mut merged: HashMap<u16, ModuleState> = HashMap::new();
        {
            let mut progress = self.shared.progress.lock().expect("progress lock poisoned");
            for slot in progress.shards.iter_mut() {
                if let Some((epoch, exports)) = slot.exported.take() {
                    if epoch == export_epoch {
                        for state in exports {
                            match merged.entry(state.module_id) {
                                std::collections::hash_map::Entry::Occupied(mut entry) => {
                                    entry.get_mut().merge(&state)
                                }
                                std::collections::hash_map::Entry::Vacant(entry) => {
                                    entry.insert(state);
                                }
                            }
                        }
                    }
                }
            }
        }

        // 3. Scale-out: stand the new shards up *before* the injection
        // epoch, so injections addressed to them are applied live. Their
        // replicas embody every epoch up to `export_epoch` (the export op
        // replays as a no-op on a config replica), so that is their log
        // cursor.
        let mut appended_rows: Vec<Vec<Producer<ShardBurst>>> =
            (0..self.options.dispatchers.max(1))
                .map(|_| Vec::new())
                .collect();
        if new_shards > old_shards {
            {
                let mut progress = self.shared.progress.lock().expect("progress lock poisoned");
                let epoch = self.epoch;
                progress.shards.resize_with(new_shards, || ShardProgress {
                    applied_epoch: epoch,
                    ..Default::default()
                });
                let mut wreckage = self.shared.wreckage.lock().expect("wreckage lock poisoned");
                wreckage.resize_with(new_shards, || None);
            }
            // Each new shard copies `head` once.
            let cores = (old_shards..new_shards)
                .map(|index| ShardCore::new(index, self.head.config_replica(), self.epoch));
            match &mut self.backend {
                Backend::Deterministic(shards) => shards.extend(cores),
                Backend::Threaded {
                    workers,
                    dispatchers,
                } => {
                    let rows = self.options.dispatchers.max(1);
                    for core in cores {
                        let (mut worker, producers) =
                            spawn_worker(&self.shared, &self.options, core, rows);
                        if dispatchers.is_empty() {
                            let mut producers = producers;
                            worker.input = Some(producers.remove(0));
                        } else {
                            for (row, producer) in appended_rows.iter_mut().zip(producers) {
                                row.push(producer);
                            }
                        }
                        workers.push(worker);
                    }
                }
            }
        }

        // 4. Commit epoch: replay each merged extract into its new owner,
        // seed grown shards' replicated copies, and retire the tail shards.
        // Rescued state (no single owner) merges into shard 0 — for
        // mergeable state any survivor is equally legal, only the sum is
        // defined.
        let mut ops: Vec<ControlOp> = Vec::new();
        let mut migrated_modules = 0usize;
        let mut migrated_words = 0usize;
        for (module, target) in &moving {
            if let Some(state) = merged.remove(&module.value()) {
                if !state.is_zero() {
                    migrated_modules += 1;
                    migrated_words += state.word_count();
                    ops.push(ControlOp::InjectState {
                        shard: *target,
                        state: Box::new(state),
                    });
                }
            }
        }
        // Grow: every new shard receives a whole copy of each replicated
        // module's state (shard 0's snapshot), with the snapshot's counters
        // zeroed — the copy is state replication, not traffic history, and
        // the counter aggregate must not multiply.
        for module in &seeding {
            if let Some(state) = merged.remove(&module.value()) {
                let mut seed = state;
                seed.counters = ModuleCounters::default();
                if !seed.is_zero() {
                    migrated_modules += 1;
                    for target in old_shards..new_shards {
                        migrated_words += seed.word_count();
                        ops.push(ControlOp::ReplaceState {
                            shard: target,
                            state: Box::new(seed.clone()),
                        });
                    }
                }
            }
        }
        let mut rescued: Vec<ModuleState> = merged.into_values().collect();
        rescued.sort_by_key(|state| state.module_id);
        for mut state in rescued {
            if self.steerer.is_replicated(state.module_id) {
                // Each retiring replica surrendered a *full* copy of the
                // replicated words; the survivors already hold one, so only
                // the retiring shards' counter partials travel — re-merging
                // the words would multiply the state by the retiree count.
                for stage in state.stages.iter_mut() {
                    stage.iter_mut().for_each(|word| *word = 0);
                }
            }
            if !state.is_zero() {
                migrated_modules += 1;
                migrated_words += state.word_count();
                ops.push(ControlOp::InjectState {
                    shard: 0,
                    state: Box::new(state),
                });
            }
        }
        if new_shards < old_shards {
            ops.push(ControlOp::Retire { keep: new_shards });
        }
        // A failed op inside the commit epoch (an inject refused) is
        // surfaced to the caller, but only *after* the topology bookkeeping
        // below completes — the Retire op has already taken effect on the
        // workers, so the shard set must be reconciled either way.
        let mut commit_error = None;
        let commit_epoch = if ops.is_empty() {
            export_epoch
        } else {
            let epoch = self.publish(ops)?;
            self.wait_for_epoch(epoch)?;
            commit_error = self.epoch_error(epoch);
            epoch
        };

        // Scale-in bookkeeping: the retired workers have acknowledged the
        // retire epoch and exited; join them and drop their slots so no
        // later barrier or epoch ever waits on them.
        if new_shards < old_shards {
            match &mut self.backend {
                Backend::Deterministic(shards) => shards.truncate(new_shards),
                Backend::Threaded { workers, .. } => {
                    for worker in workers.iter_mut().skip(new_shards) {
                        if let Some(handle) = worker.handle.take() {
                            let _ = handle.join();
                        }
                    }
                    // The retirees' last spent bursts come home before
                    // their return rings are dropped.
                    reclaim(&workers[new_shards..], &mut self.spares, &self.options);
                    // Dropping a retired worker drops its inline producer
                    // (if any), closing the already-drained ring.
                    workers.truncate(new_shards);
                }
            }
            let mut progress = self.shared.progress.lock().expect("progress lock poisoned");
            // Fold the retiring shards' telemetry into the lifetime tally —
            // only now, with the commit epoch acknowledged, are they really
            // gone (an earlier fold would double-count them on a failed
            // resize, where the slots survive).
            for slot in progress.shards.iter_mut().skip(new_shards) {
                self.retired.fold(slot);
            }
            progress.shards.truncate(new_shards);
            // Dispatcher per-shard tallies follow the shard slots: a stale
            // entry for a retired index would otherwise become a phantom
            // flush target if that index is later recreated.
            for slot in progress.dispatchers.iter_mut() {
                slot.per_shard.truncate(new_shards);
                slot.lost_per_shard.truncate(new_shards);
            }
            drop(progress);
            let mut wreckage = self.shared.wreckage.lock().expect("wreckage lock poisoned");
            wreckage.truncate(new_shards);
        }

        // 5. Publish the new steering atomically with respect to traffic:
        // the runtime's steerer swaps now (inline dispatch and the
        // deterministic simulation read it directly), and every dispatcher
        // thread adopts its staged clone — plus its grown/shrunk ring row —
        // before steering the next chunk it pops.
        self.steerer = new_steerer;
        self.options.shards = new_shards;
        let groups = self.options.dispatchers.max(1) * new_shards;
        self.scatter.resize_with(groups, Vec::new);
        self.scatter_pos.resize_with(groups, Vec::new);
        self.digest_scatter.resize_with(groups, Vec::new);
        if let Backend::Threaded { dispatchers, .. } = &self.backend {
            if !dispatchers.is_empty() {
                for (index, append) in appended_rows.into_iter().enumerate() {
                    self.shared.stage_dispatcher_update(
                        index,
                        DispatcherUpdate {
                            steerer: self.steerer.clone(),
                            keep: old_shards.min(new_shards),
                            append,
                            replace: Vec::new(),
                        },
                    );
                }
            }
        }

        self.shared.events.emit(
            self.shared.now_ns(),
            ControlEventKind::RetaRewritten {
                buckets: RETA_SIZE as u64,
                shards: new_shards as u64,
            },
        );

        if let Some(error) = commit_error {
            return Err(error);
        }
        let pause = start.elapsed();
        self.shared.events.emit(
            self.shared.now_ns(),
            ControlEventKind::ResizeCompleted {
                from_shards: old_shards as u64,
                to_shards: new_shards as u64,
                start_ns,
                pause_ns: pause.as_nanos() as u64,
                migrated_modules: migrated_modules as u64,
                migrated_words: migrated_words as u64,
            },
        );
        Ok(ResizeReport {
            from_shards: old_shards,
            to_shards: new_shards,
            pause,
            migrated_modules,
            migrated_words,
            epoch: commit_epoch,
        })
    }

    /// Telemetry inherited from shards retired by scale-in (folded into
    /// every aggregate this runtime reports).
    pub fn retired_tally(&self) -> &RetiredTally {
        &self.retired
    }

    // -----------------------------------------------------------------------
    // Data path
    // -----------------------------------------------------------------------

    /// Deterministic-mode data path: steers `packets` across the shard
    /// replicas — simulating the configured dispatcher count and spray —
    /// and returns one verdict per packet in the *input* order. Each shard
    /// then steps once per dispatcher that steered it anything, in (shard,
    /// dispatcher) order, through the same `ShardCore` step a threaded
    /// worker runs: one burst of every packet that dispatcher steered to the
    /// shard in this call, not cut at [`RuntimeOptions::burst_size`] (burst
    /// boundaries move no verdict). Not available in threaded mode, where
    /// verdict streams live on the worker threads — use
    /// [`submit`](Self::submit) / [`flush`](Self::flush) and the aggregated
    /// statistics instead.
    ///
    /// Allocates the returned vector; callers draining many bursts should
    /// use [`process_batch_into`](Self::process_batch_into) with a reused
    /// verdict buffer, as with the single pipeline's
    /// [`MenshenPipeline::process_batch_into`].
    pub fn process_batch(&mut self, packets: Vec<Packet>) -> Result<Vec<Verdict>, RuntimeError> {
        let mut verdicts = Vec::with_capacity(packets.len());
        self.process_batch_into(packets, &mut verdicts)?;
        Ok(verdicts)
    }

    /// Allocation-lean variant of [`process_batch`](Self::process_batch):
    /// writes one verdict per packet, in input order, into `out` (cleared
    /// first). The steering scatter, per-group position index, the shards'
    /// verdict buffers and the reorder buffer are all runtime-owned and
    /// reused across calls, so the steady state performs no heap allocation
    /// for verdict storage — the same contract as
    /// [`MenshenPipeline::process_batch_into`].
    ///
    /// Every packet is stamped with the runtime's ingress clock at entry,
    /// as [`submit_owned`](Self::submit_owned) does, so a shard's sojourn
    /// times run from batch entry to its burst's completion.
    pub fn process_batch_into(
        &mut self,
        packets: Vec<Packet>,
        out: &mut Vec<Verdict>,
    ) -> Result<(), RuntimeError> {
        out.clear();
        let Backend::Deterministic(cores) = &mut self.backend else {
            return Err(RuntimeError::WrongMode(
                "process_batch requires deterministic mode; threaded runtimes expose submit/flush",
            ));
        };
        let dispatchers = self.options.dispatchers.max(1);
        let shard_count = self.options.shards;
        let total = packets.len();
        self.submitted_packets += total as u64;
        let ingress_ns = self.shared.now_ns();
        // Model the dispatch plane: the spray assigns each packet a
        // dispatcher (round-robin per burst-sized chunk, or flow-affine by
        // RETA slice), and each dispatcher's Toeplitz steer picks the shard.
        let mut chunk_fill = 0usize;
        let mut cursor = 0usize;
        for (position, mut packet) in packets.into_iter().enumerate() {
            packet.timestamp_ns = ingress_ns;
            let spec = self.steerer.digest_spec_for(&packet);
            let dispatcher = match &spec {
                // Replicated modules trade dispatcher-level parallelism for
                // global order: all of a module's packets ride one
                // dispatcher so a single steering thread serialises its
                // digest stream (`dispatcher_for` folds this in for
                // FlowAffine; the round-robin spray is overridden here).
                Some(spec) => self
                    .steerer
                    .replicated_dispatcher(spec.module(), dispatchers),
                None => match self.options.spray {
                    DispatchSpray::RoundRobin => {
                        let d = cursor;
                        chunk_fill += 1;
                        if chunk_fill == self.options.burst_size {
                            chunk_fill = 0;
                            cursor = (cursor + 1) % dispatchers;
                        }
                        d
                    }
                    DispatchSpray::FlowAffine => self.steerer.dispatcher_for(&packet, dispatchers),
                },
            };
            let shard = self.steerer.shard_for(&packet);
            let group = dispatcher * shard_count + shard;
            if let Some(spec) = spec {
                // Broadcast the packet's state digest to every non-owning
                // shard of the same dispatcher, anchored before the first
                // of that shard's own not-yet-drained packets.
                for other in 0..shard_count {
                    if other == shard {
                        continue;
                    }
                    let other_group = dispatcher * shard_count + other;
                    let digest = spec.extract(&packet, self.scatter[other_group].len() as u32);
                    self.digest_packets += 1;
                    self.digest_bytes += digest.wire_bytes() as u64;
                    self.digest_scatter[other_group].push(digest);
                }
            }
            self.scatter[group].push(packet);
            self.scatter_pos[group].push(position);
        }
        // The reorder buffer is reused scratch like the scatter vectors; the
        // only steady-state allocation left is the returned Vec itself.
        self.reorder.clear();
        self.reorder.resize_with(total, || None);
        for (index, core) in cores.iter_mut().enumerate() {
            for dispatcher in 0..dispatchers {
                let group = dispatcher * shard_count + index;
                if self.scatter[group].is_empty() && self.digest_scatter[group].is_empty() {
                    continue;
                }
                core.step(
                    &self.scatter[group],
                    &self.digest_scatter[group],
                    &self.shared,
                );
                for (verdict, &position) in core.verdicts.drain(..).zip(&self.scatter_pos[group]) {
                    self.reorder[position] = Some(verdict);
                }
                self.scatter[group].clear();
                self.scatter_pos[group].clear();
                self.digest_scatter[group].clear();
            }
        }
        out.reserve(total);
        out.extend(
            self.reorder
                .drain(..)
                .map(|verdict| verdict.expect("every input position receives a verdict")),
        );
        Ok(())
    }

    /// Threaded-mode data path: hands `packets` to the dispatch plane,
    /// blocking for backpressure when rings are full. Returns immediately
    /// after enqueueing; pair with [`flush`](Self::flush) to wait for
    /// completion. Clones each packet — callers that already own the packets
    /// should prefer [`submit_owned`](Self::submit_owned), which moves them
    /// (a real DPDK dispatcher passes mbuf pointers; cloning in the ingress
    /// stage is pure overhead).
    ///
    /// Errors with [`RuntimeError::ShardDown`] /
    /// [`RuntimeError::DispatcherDown`] — without silently dropping the
    /// remaining packets — if a destination worker has shut down.
    pub fn submit(&mut self, packets: &[Packet]) -> Result<(), RuntimeError> {
        if !matches!(self.backend, Backend::Threaded { .. }) {
            return Err(RuntimeError::WrongMode(
                "submit requires threaded mode; deterministic runtimes expose process_batch",
            ));
        }
        self.submit_owned(packets.to_vec())
    }

    /// Like [`submit`](Self::submit), but takes ownership of the packets so
    /// the ingress stage never copies packet payloads.
    ///
    /// With inline dispatch (`dispatchers == 0`) the calling thread steers
    /// each packet into its shard's open burst and pushes a burst the
    /// moment it is full — ring synchronisation once per (shard, burst),
    /// never per packet, in time linear in the submission. With dispatcher
    /// threads the calling thread only sprays burst-sized chunks over the
    /// dispatcher input rings; the dispatchers steer in parallel.
    ///
    /// Frame lifecycle: caller → input ring → shard → return ring → caller.
    /// The shards never free a submitted frame; each sends its spent bursts
    /// home over a per-shard return ring, and this method — *after* it has
    /// pushed the new bursts, so off the packets' latency path — frees the
    /// frames that have arrived on the calling thread and keeps the emptied
    /// vectors to fill next time ([`flush`](Self::flush),
    /// [`supervise`](Self::supervise), resizes and
    /// [`shutdown`](Self::shutdown) do the same). Calling from one thread
    /// therefore keeps every frame's allocation and free on that thread. A
    /// caller that stops calling is harmless: when a return ring is full the
    /// shard drops the burst itself.
    ///
    /// Every packet is stamped with the runtime's ingress clock
    /// (`Packet::timestamp_ns`, nanoseconds since runtime start) so the
    /// shard can record its sojourn time — any timestamp the caller carried
    /// (e.g. a trace capture time, already consumed by the replay pacer) is
    /// overwritten, because latency must be measured on one clock.
    pub fn submit_owned(&mut self, packets: Vec<Packet>) -> Result<(), RuntimeError> {
        let Backend::Threaded {
            workers,
            dispatchers,
        } = &mut self.backend
        else {
            return Err(RuntimeError::WrongMode(
                "submit requires threaded mode; deterministic runtimes expose process_batch",
            ));
        };
        let ingress_ns = self.shared.now_ns();
        self.submitted_packets += packets.len() as u64;
        let wait = self.options.submit_wait;
        let burst_size = self.options.burst_size;
        if dispatchers.is_empty() {
            // Inline dispatch: steer each packet straight into its shard's
            // open burst and hand the burst over the moment it is full —
            // one ring operation per (shard, burst), and no second pass
            // over the submission however large it is. A replicated-module
            // packet additionally leaves a state digest in every other
            // shard's open burst, anchored at that burst's current packet
            // count so replay interleaves in submission order. Every burst
            // leaves here accounted: delivered, shed or lost
            // ([`push_inline`]).
            let mut failed_shard = None;
            let mut seal = |shard: usize, open: &mut Burst, digests: &mut Vec<StateDigest>| {
                let burst = ShardBurst {
                    packets: std::mem::replace(open, spare(&mut self.spares, burst_size)),
                    digests: std::mem::take(digests),
                };
                if !push_inline(
                    &mut workers[shard],
                    burst,
                    wait,
                    &mut self.shed_inline,
                    &mut self.lost_folded,
                ) {
                    failed_shard = Some(shard);
                }
            };
            let shards = self.options.shards;
            for mut packet in packets {
                packet.timestamp_ns = ingress_ns;
                let shard = self.steerer.shard_for(&packet);
                if let Some(spec) = self.steerer.digest_spec_for(&packet) {
                    for other in 0..shards {
                        if other == shard {
                            continue;
                        }
                        let digest = spec.extract(&packet, self.scatter[other].len() as u32);
                        self.digest_packets += 1;
                        self.digest_bytes += digest.wire_bytes() as u64;
                        self.digest_scatter[other].push(digest);
                    }
                }
                self.scatter[shard].push(packet);
                if self.scatter[shard].len() >= burst_size {
                    seal(
                        shard,
                        &mut self.scatter[shard],
                        &mut self.digest_scatter[shard],
                    );
                }
            }
            // Seal the partial bursts so every submitted packet is in
            // flight; a shard owed only digests gets a packetless burst
            // carrying them.
            for shard in 0..shards {
                if !self.scatter[shard].is_empty() || !self.digest_scatter[shard].is_empty() {
                    seal(
                        shard,
                        &mut self.scatter[shard],
                        &mut self.digest_scatter[shard],
                    );
                }
            }
            // Only now, with the new bursts on their way, take back what
            // the shards have finished with.
            reclaim(workers, &mut self.spares, &self.options);
            if let Some(shard) = failed_shard {
                return Err(RuntimeError::ShardDown { shard });
            }
            return Ok(());
        }
        // Parallel dispatch plane: spray chunks over the dispatcher input
        // rings, with the same bounded-wait accounting (a full input ring
        // sheds the chunk per tenant; a closed one counts it lost). Chunk
        // scratch reuses the scatter buffers (one per dispatcher — the
        // buffers are sized dispatchers × shards, so the first `dispatchers`
        // entries are free for this), each replaced by a spare vector when
        // its chunk leaves.
        let count = dispatchers.len();
        let mut failed = None;
        let shed_inline = &mut self.shed_inline;
        let lost_folded = &mut self.lost_folded;
        let mut push_chunk =
            |dispatcher: &mut DispatcherHandle, index: usize, chunk: Burst| -> Option<usize> {
                let submitted = chunk.len() as u64;
                match dispatcher.input.push_deadline(chunk, wait) {
                    Ok(()) => {
                        dispatcher.submitted_packets += submitted;
                        None
                    }
                    Err(PushError::Timeout(chunk)) => {
                        for packet in &chunk {
                            *shed_inline
                                .entry(crate::shard::packet_tenant(packet))
                                .or_insert(0) += 1;
                        }
                        None
                    }
                    Err(PushError::Closed(chunk)) => {
                        *lost_folded += chunk.len() as u64;
                        Some(index)
                    }
                }
            };
        for mut packet in packets {
            packet.timestamp_ns = ingress_ns;
            // Replicated-module packets always ride their module's
            // dispatcher — the digest streams the dispatcher threads
            // generate are only globally ordered if one thread serialises
            // each module's traffic. Everything else sprays as configured.
            let target = match self.steerer.digest_spec_for(&packet) {
                Some(spec) => self.steerer.replicated_dispatcher(spec.module(), count),
                None => match self.options.spray {
                    DispatchSpray::RoundRobin => self.spray_cursor,
                    DispatchSpray::FlowAffine => self.steerer.dispatcher_for(&packet, count),
                },
            };
            self.scatter[target].push(packet);
            if self.scatter[target].len() >= burst_size {
                let chunk = std::mem::replace(
                    &mut self.scatter[target],
                    spare(&mut self.spares, burst_size),
                );
                if let Some(index) = push_chunk(&mut dispatchers[target], target, chunk) {
                    failed = Some(index);
                }
                if self.options.spray == DispatchSpray::RoundRobin && target == self.spray_cursor {
                    self.spray_cursor = (self.spray_cursor + 1) % count;
                }
            }
        }
        // Flush partial chunks so every submitted packet is in flight.
        // A flushed partial also advances the round-robin cursor:
        // otherwise sub-burst submissions would pin every packet to
        // dispatcher 0 forever.
        let mut cursor_flushed = false;
        for (index, dispatcher) in dispatchers.iter_mut().enumerate() {
            if self.scatter[index].is_empty() {
                continue;
            }
            cursor_flushed |= index == self.spray_cursor;
            let chunk = std::mem::replace(
                &mut self.scatter[index],
                spare(&mut self.spares, burst_size),
            );
            if let Some(failed_index) = push_chunk(dispatcher, index, chunk) {
                failed = Some(failed_index);
            }
        }
        if cursor_flushed && self.options.spray == DispatchSpray::RoundRobin {
            self.spray_cursor = (self.spray_cursor + 1) % count;
        }
        // The shards send spent bursts home whichever thread steered them:
        // the frames were allocated on this one.
        reclaim(workers, &mut self.spares, &self.options);
        if let Some(dispatcher) = failed {
            // Blame the shard whose ring failed the dispatcher if one is on
            // record; otherwise the dispatcher itself is gone. Either way the
            // lost packets are already counted, so the books still balance.
            let progress = self.shared.progress.lock().expect("progress lock poisoned");
            return Err(
                match progress
                    .dispatchers
                    .get(dispatcher)
                    .and_then(|slot| slot.failed_shard)
                {
                    Some(shard) => RuntimeError::ShardDown { shard },
                    None => RuntimeError::DispatcherDown { dispatcher },
                },
            );
        }
        Ok(())
    }

    /// Blocks until every packet submitted so far has been fully processed.
    /// No-op in deterministic mode (processing is synchronous there).
    ///
    /// With dispatcher threads this is a two-stage barrier: first every
    /// dispatcher quiesces (all received packets steered, partial bursts
    /// drained to the shard rings), then every shard finishes the bursts
    /// pushed to it — which is exactly the "all dispatchers quiesce at burst
    /// boundaries" precondition the control plane needs before publishing an
    /// epoch. A worker that exited (shutdown or panic) is not waited on; the
    /// loss surfaces as [`RuntimeError::ShardDown`] /
    /// [`RuntimeError::DispatcherDown`] from the next
    /// [`submit`](Self::submit) or control-plane call rather than as a hang
    /// here.
    ///
    /// Spent bursts that have come home by then are reclaimed on the way out
    /// (their frames freed on this thread).
    pub fn flush(&mut self) {
        self.flush_until(None);
    }

    /// [`flush`](Self::flush) with a deadline: returns `false` (with the
    /// barrier incomplete) if the plane has not quiesced by `deadline`.
    /// `None` waits forever. A shard wedged mid-burst thus turns a
    /// synchronous control op into [`RuntimeError::EpochTimeout`] instead of
    /// an unbounded hang.
    fn flush_until(&mut self, deadline: Option<Instant>) -> bool {
        let quiesced = self.flush_barrier(deadline);
        if let Backend::Threaded { workers, .. } = &self.backend {
            reclaim(workers, &mut self.spares, &self.options);
        }
        quiesced
    }

    /// The barrier behind [`flush_until`](Self::flush_until): waits, and
    /// changes nothing.
    fn flush_barrier(&self, deadline: Option<Instant>) -> bool {
        // One condvar wait honouring the optional deadline; returns false
        // once the deadline has passed.
        fn wait_step<'a>(
            shared: &'a Shared,
            guard: std::sync::MutexGuard<'a, crate::shard::ProgressBoard>,
            deadline: Option<Instant>,
        ) -> Option<std::sync::MutexGuard<'a, crate::shard::ProgressBoard>> {
            match deadline {
                None => Some(shared.cv.wait(guard).expect("progress lock poisoned")),
                Some(limit) => {
                    let now = Instant::now();
                    if now >= limit {
                        return None;
                    }
                    let (guard, _) = shared
                        .cv
                        .wait_timeout(guard, limit - now)
                        .expect("progress lock poisoned");
                    Some(guard)
                }
            }
        }
        let Backend::Threaded {
            workers,
            dispatchers,
        } = &self.backend
        else {
            return true;
        };
        if dispatchers.is_empty() {
            let targets: Vec<u64> = workers.iter().map(|w| w.submitted_bursts).collect();
            let mut progress = self.shared.progress.lock().expect("progress lock poisoned");
            while progress
                .shards
                .iter()
                .zip(targets.iter())
                .any(|(slot, &target)| !slot.exited && slot.bursts_done < target)
            {
                match wait_step(&self.shared, progress, deadline) {
                    Some(guard) => progress = guard,
                    None => return false,
                }
            }
            return true;
        }
        // Stage 1: every live dispatcher has steered everything it was
        // handed (partial bursts included — the dispatcher flushes them the
        // moment its input ring runs dry). `packets_dispatched` counts shed
        // and lost packets too, so a shedding dispatcher still quiesces.
        let targets: Vec<u64> = dispatchers.iter().map(|d| d.submitted_packets).collect();
        let mut progress = self.shared.progress.lock().expect("progress lock poisoned");
        while progress
            .dispatchers
            .iter()
            .zip(targets.iter())
            .any(|(slot, &target)| !slot.exited && slot.packets_dispatched < target)
        {
            match wait_step(&self.shared, progress, deadline) {
                Some(guard) => progress = guard,
                None => return false,
            }
        }
        // Stage 2: every live shard has processed everything the dispatchers
        // actually pushed to it (summed per shard across dispatchers, so an
        // exited worker never blocks the barrier). A respawned shard's
        // `flush_offset` credits what its dead predecessor processed or
        // provably lost, so the cumulative per-shard push counts still
        // reconcile.
        let shard_targets: Vec<u64> = (0..workers.len())
            .map(|shard| {
                progress
                    .dispatchers
                    .iter()
                    .map(|slot| slot.per_shard.get(shard).copied().unwrap_or(0))
                    .sum()
            })
            .collect();
        while progress
            .shards
            .iter()
            .zip(shard_targets.iter())
            .any(|(slot, &target)| !slot.exited && slot.stats.packets + slot.flush_offset < target)
        {
            match wait_step(&self.shared, progress, deadline) {
                Some(guard) => progress = guard,
                None => return false,
            }
        }
        true
    }

    // -----------------------------------------------------------------------
    // Chaos plane: fault injection, shard supervision & recovery
    // -----------------------------------------------------------------------

    /// Arms a deterministic fault-injection schedule: workers consult it per
    /// burst and dispatchers per chunk (one relaxed atomic load each when
    /// disarmed). The same plan against the same traffic reproduces the same
    /// panics and stalls — chaos runs are replayable from a seed.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        *self.shared.faults.lock().expect("fault plan lock poisoned") = Some(Arc::new(plan));
        self.shared.faults_armed.store(true, Ordering::SeqCst);
    }

    /// Disarms fault injection; faults already fired stay fired.
    pub fn disarm_faults(&mut self) {
        self.shared.faults_armed.store(false, Ordering::SeqCst);
        *self.shared.faults.lock().expect("fault plan lock poisoned") = None;
    }

    /// Worker failures (deaths and wedges) the supervisor has detected over
    /// the runtime's lifetime — `menshen_runtime_failures_total`.
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Packets shed per tenant because a ring stayed full past the bounded
    /// submission wait: the submitting thread's own shed map merged with
    /// every dispatcher's. These are the graceful-degradation drops — an
    /// overloaded tenant sheds its own load instead of head-of-line
    /// blocking the plane.
    pub fn shed_by_tenant(&self) -> BTreeMap<u16, u64> {
        let mut merged = self.shed_inline.clone();
        let progress = self.shared.progress.lock().expect("progress lock poisoned");
        for slot in progress.dispatchers.iter() {
            for (tenant, count) in &slot.shed_tenants {
                *merged.entry(*tenant).or_insert(0) += count;
            }
        }
        merged
    }

    /// Packets that worker failure made unprocessable, runtime-lifetime:
    /// casualties already folded by recovery plus losses still sitting on
    /// the progress board (a dead shard awaiting
    /// [`supervise`](Self::supervise), bursts that hit a closed ring).
    pub fn lost_to_failure_total(&self) -> u64 {
        let progress = self.shared.progress.lock().expect("progress lock poisoned");
        let boarded: u64 = progress
            .shards
            .iter()
            .map(|slot| slot.lost_packets)
            .sum::<u64>()
            + progress
                .dispatchers
                .iter()
                .map(|slot| slot.lost_per_shard.iter().sum::<u64>())
                .sum::<u64>();
        self.lost_folded + boarded
    }

    /// Nudges every not-yet-adopted dispatcher awake (an empty chunk — zero
    /// packets, so no tally moves) and waits until each live dispatcher has
    /// acknowledged the current steering version, or `deadline` passes.
    fn await_steering_adoption(&self, deadline: Instant) -> bool {
        let Backend::Threaded { dispatchers, .. } = &self.backend else {
            return true;
        };
        if dispatchers.is_empty() {
            return true;
        }
        let target = self.shared.steering_version.load(Ordering::SeqCst);
        loop {
            let pending: Vec<usize> = {
                let progress = self.shared.progress.lock().expect("progress lock poisoned");
                progress
                    .dispatchers
                    .iter()
                    .enumerate()
                    .filter(|(_, slot)| !slot.exited && slot.steering_adopted < target)
                    .map(|(index, _)| index)
                    .collect()
            };
            if pending.is_empty() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            // A dispatcher parked on an empty input ring only re-checks the
            // steering version when a chunk arrives; feed it an empty one.
            // `try_push` because a *full* input ring means the dispatcher is
            // busy and will hit the version check on its own.
            for index in &pending {
                let _ = dispatchers[*index].input.try_push(Vec::new());
            }
            let progress = self.shared.progress.lock().expect("progress lock poisoned");
            let _ = self
                .shared
                .cv
                .wait_timeout(progress, Duration::from_millis(5))
                .expect("progress lock poisoned");
        }
    }

    /// Detects dead and wedged shards and recovers the dead ones in place.
    /// Call it periodically (or after a submission returns
    /// [`RuntimeError::ShardDown`]); detection latency is bounded by the
    /// call cadence. Threaded mode only — deterministic mode has no worker
    /// threads to die — and a healthy plane pays one progress-board scan.
    ///
    /// Recovery of a dead shard is a two-phase handshake built for *exact*
    /// loss accounting:
    ///
    /// 1. **Route around.** The RETA is rewritten away from the casualty and
    ///    staged to every dispatcher; the supervisor waits for each live
    ///    dispatcher to acknowledge the version, after which no new push can
    ///    target the dead shard's rings.
    /// 2. **Count and respawn.** The casualty's rings (kept open by failure
    ///    containment, so racing pushes landed instead of erroring) are
    ///    sealed and drained; the residue plus the worker's in-flight burst
    ///    is the shard's exact `lost_to_failure` contribution. Telemetry
    ///    folds into [`retired_tally`](Self::retired_tally), a replacement
    ///    is spawned from [`standby_replica`](Self::standby_replica) at the
    ///    current epoch, and a second staged update swaps the fresh rings
    ///    into the original slot and restores the original steering.
    ///
    /// A wedged shard — stale heartbeat while its rings hold work — is
    /// routed around and left running in case it wakes, with a
    /// [`ControlEventKind::ShardWedged`] event; no state is touched.
    pub fn supervise(&mut self) -> Vec<RecoveryReport> {
        if matches!(self.backend, Backend::Deterministic(_)) {
            return Vec::new();
        }
        let shards = self.options.shards;
        let detect_ns = self.shared.now_ns();
        // 1. Detect: a contained panic sets `failure`; a wedge is a live
        // worker owing work whose heartbeat went stale.
        let mut dead: Vec<(usize, u64)> = Vec::new();
        let mut wedged: Vec<(usize, u64)> = Vec::new();
        {
            let wedge_ns = self.options.wedge_threshold.as_nanos() as u64;
            let progress = self.shared.progress.lock().expect("progress lock poisoned");
            for (index, slot) in progress.shards.iter().enumerate() {
                if slot.exited {
                    if slot.failure.is_some() {
                        let died = slot.exited_at_ns.unwrap_or(detect_ns);
                        dead.push((index, detect_ns.saturating_sub(died)));
                    }
                } else if !self.wedged_routed.contains(&index) {
                    let owed: u64 = progress
                        .dispatchers
                        .iter()
                        .map(|d| d.per_shard.get(index).copied().unwrap_or(0))
                        .sum();
                    let stalled = detect_ns.saturating_sub(slot.heartbeat_ns);
                    if owed > slot.stats.packets + slot.flush_offset && stalled > wedge_ns {
                        wedged.push((index, stalled));
                    }
                }
            }
        }
        let dead_set: BTreeSet<usize> = dead.iter().map(|(shard, _)| *shard).collect();
        // Wedged shards: event + route-around, nothing else.
        if !wedged.is_empty() {
            let mut reta = *self.steerer.reta();
            let mut changed = false;
            for &(shard, stalled_ns) in &wedged {
                self.failures += 1;
                self.wedged_routed.insert(shard);
                self.shared.events.emit(
                    detect_ns,
                    ControlEventKind::ShardWedged {
                        shard: shard as u64,
                        stalled_ns,
                    },
                );
            }
            for &(shard, _) in &wedged {
                if let Some(target) =
                    (0..shards).find(|i| !self.wedged_routed.contains(i) && !dead_set.contains(i))
                {
                    for bucket in reta.iter_mut() {
                        if *bucket as usize == shard {
                            *bucket = target as u16;
                            changed = true;
                        }
                    }
                }
            }
            if changed {
                self.steerer.set_reta(reta);
                self.push_steering();
                let _ = self.await_steering_adoption(Instant::now() + self.options.submit_wait);
            }
        }
        // Dead shards: the full two-phase recovery, one casualty at a time.
        let mut reports = Vec::new();
        for (shard, detection_ns) in dead {
            let pause_start = Instant::now();
            self.failures += 1;
            self.wedged_routed.remove(&shard);
            self.shared.events.emit(
                detect_ns,
                ControlEventKind::ShardFailed {
                    shard: shard as u64,
                    detection_ns,
                },
            );
            // Phase 1: seal the casualty's rings *first*. After the seal
            // every in-flight push resolves exactly — it either landed
            // before the seal (drained as residue below) or comes back
            // `Closed` and is counted by its pusher's loss tally — and a
            // dispatcher parked on the dead shard's full ring wakes
            // immediately instead of sitting out its whole bounded wait.
            // The books therefore need no adoption handshake; the
            // route-around below is purely an availability optimisation.
            let original = self.steerer.clone();
            let parked = self.shared.wreckage.lock().expect("wreckage lock poisoned")[shard].take();
            if let Some(consumers) = &parked {
                for consumer in consumers {
                    consumer.close();
                }
            }
            if let Some(target) = (0..shards).find(|i| *i != shard && !dead_set.contains(i)) {
                let mut reta = *self.steerer.reta();
                for bucket in reta.iter_mut() {
                    if *bucket as usize == shard {
                        *bucket = target as u16;
                    }
                }
                self.steerer.set_reta(reta);
            }
            self.push_steering();
            // Best effort: a dispatcher that misses the window sheds onto
            // the sealed ring's `Closed` path, which stays on the books.
            let _ = self.await_steering_adoption(Instant::now() + self.options.submit_wait);
            // Phase 2a: drain the sealed wreckage. Residue — bursts that
            // were pushed but never popped — is exactly what the dispatch
            // tallies credited to this shard beyond what it processed or
            // carried in flight.
            let mut residue: u64 = 0;
            if let Some(consumers) = parked {
                for consumer in consumers {
                    while let Some(burst) = consumer.pop() {
                        residue += burst.packets.len() as u64;
                    }
                }
            }
            // Phase 2b: fold the casualty's books. Its processed + lost
            // packets become the slot's flush offset so cumulative per-shard
            // dispatch tallies still reconcile across the respawn, its
            // telemetry joins the retired tally, and its provable losses
            // leave the board for `lost_folded`.
            let epoch = self.epoch;
            let now_ns = self.shared.now_ns();
            let lost_now;
            {
                let mut progress = self.shared.progress.lock().expect("progress lock poisoned");
                let slot = &mut progress.shards[shard];
                lost_now = slot.lost_packets + residue;
                let flush_offset =
                    slot.flush_offset + slot.stats.packets + slot.lost_packets + residue;
                self.retired.fold(slot);
                *slot = ShardProgress {
                    applied_epoch: epoch,
                    flush_offset,
                    heartbeat_ns: now_ns,
                    ..Default::default()
                };
            }
            self.lost_folded += lost_now;
            // Phase 2c: respawn in place from one copy of `head` — the
            // replacement embodies the current epoch, so `entries_after`
            // hands it nothing stale — and swap its fresh rings into the
            // original slot, restoring the original steering.
            let core = ShardCore::new(shard, self.head.config_replica(), epoch);
            let rows = self.options.dispatchers.max(1);
            let (mut worker, mut producers) = spawn_worker(&self.shared, &self.options, core, rows);
            self.steerer = original;
            let inline = {
                let Backend::Threaded {
                    workers,
                    dispatchers,
                } = &mut self.backend
                else {
                    unreachable!("supervise only runs in threaded mode");
                };
                let inline = dispatchers.is_empty();
                if inline {
                    worker.input = Some(producers.remove(0));
                }
                let mut old = std::mem::replace(&mut workers[shard], worker);
                if let Some(handle) = old.handle.take() {
                    let _ = handle.join();
                }
                // Bursts the casualty finished before it died were already
                // counted as processed; take them home before its return
                // ring goes away with the old handle.
                reclaim(std::slice::from_ref(&old), &mut self.spares, &self.options);
                inline
            };
            if !inline {
                for (dispatcher, producer) in producers.into_iter().enumerate() {
                    self.shared.stage_dispatcher_update(
                        dispatcher,
                        DispatcherUpdate {
                            steerer: self.steerer.clone(),
                            keep: shards,
                            append: Vec::new(),
                            replace: vec![(shard, producer)],
                        },
                    );
                }
                // Best effort again: until a dispatcher adopts the
                // replacement producer it pushes at the sealed old ring and
                // its `Closed` losses stay on the books.
                let _ = self.await_steering_adoption(Instant::now() + self.options.submit_wait);
            }
            // SCR rebuild: the replacement replica of every replicated
            // module must rejoin with the same state words as its peers —
            // and any live replica's snapshot is authoritative, so the
            // lowest live survivor donates a non-clearing snapshot that
            // replaces the respawn's zeroed words. The snapshot's counters
            // are zeroed first: the respawned shard's traffic history
            // starts clean, exactly like its telemetry slot.
            let replicated = self.steerer.replicated_modules();
            if !replicated.is_empty() {
                if let Some(donor) = (0..shards).find(|i| {
                    *i != shard && !dead_set.contains(i) && !self.wedged_routed.contains(i)
                }) {
                    // Quiesce so the donor's copy reflects every digest in
                    // flight; bounded so a wedged plane cannot hang the
                    // supervisor.
                    let _ = self.flush_until(Some(Instant::now() + self.options.submit_wait));
                    let modules: Vec<ModuleId> =
                        replicated.iter().map(|m| ModuleId::new(*m)).collect();
                    let exported = self
                        .publish(vec![ControlOp::ExportStateSnapshot {
                            modules,
                            shard: donor,
                        }])
                        .and_then(|epoch| self.wait_for_epoch(epoch).map(|()| epoch));
                    if let Ok(export_epoch) = exported {
                        let mut seeds: Vec<ModuleState> = Vec::new();
                        {
                            let mut progress =
                                self.shared.progress.lock().expect("progress lock poisoned");
                            if let Some((epoch, exports)) = progress.shards[donor].exported.take() {
                                if epoch == export_epoch {
                                    seeds = exports;
                                }
                            }
                        }
                        seeds.sort_by_key(|state| state.module_id);
                        let mut ops: Vec<ControlOp> = Vec::new();
                        for mut state in seeds {
                            state.counters = ModuleCounters::default();
                            if !state.is_zero() {
                                ops.push(ControlOp::ReplaceState {
                                    shard,
                                    state: Box::new(state),
                                });
                            }
                        }
                        if !ops.is_empty() {
                            if let Ok(epoch) = self.publish(ops) {
                                let _ = self.wait_for_epoch(epoch);
                            }
                        }
                    }
                }
            }
            let pause = pause_start.elapsed();
            self.shared.events.emit(
                self.shared.now_ns(),
                ControlEventKind::ShardRecovered {
                    shard: shard as u64,
                    pause_ns: pause.as_nanos() as u64,
                    lost: lost_now,
                },
            );
            reports.push(RecoveryReport {
                shard,
                lost_packets: lost_now,
                detection: Duration::from_nanos(detection_ns),
                pause,
            });
        }
        reports
    }

    // -----------------------------------------------------------------------
    // Aggregation
    // -----------------------------------------------------------------------

    /// Per-shard traffic tallies (bursts, packets, forwarded, dropped) of
    /// the currently live shards. History of shards retired by scale-in
    /// lives in [`retired_tally`](Self::retired_tally); use
    /// [`total_stats`](Self::total_stats) for the runtime-lifetime total.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shared
            .progress
            .lock()
            .expect("progress lock poisoned")
            .shards
            .iter()
            .map(|slot| slot.stats)
            .collect()
    }

    /// Runtime-lifetime traffic totals: the live shards' tallies plus
    /// everything processed by since-retired shards — the figure packet
    /// accounting must balance against across resizes.
    pub fn total_stats(&self) -> ShardStats {
        let mut total = self.retired.stats;
        for stats in self.shard_stats() {
            total.merge(&stats);
        }
        total
    }

    /// Per-dispatcher occupancy and throughput telemetry. Empty unless the
    /// runtime runs dispatcher threads.
    pub fn dispatcher_stats(&self) -> Vec<DispatcherStats> {
        let Backend::Threaded { dispatchers, .. } = &self.backend else {
            return Vec::new();
        };
        let progress = self.shared.progress.lock().expect("progress lock poisoned");
        dispatchers
            .iter()
            .zip(progress.dispatchers.iter())
            .map(|(handle, slot)| DispatcherStats {
                packets_submitted: handle.submitted_packets,
                packets_dispatched: slot.packets_dispatched,
                bursts_dispatched: slot.bursts_dispatched,
                queued_chunks: handle.input.len() as u64,
                queue_depth_high_watermark: handle.input.depth_high_watermark(),
                exited: slot.exited,
            })
            .collect()
    }

    /// Takes a fresh statistics snapshot on every shard (one `Snapshot`
    /// epoch, preceded by a flush) and returns the per-shard snapshots.
    pub fn snapshots(&mut self) -> Result<Vec<ShardSnapshot>, RuntimeError> {
        self.control(vec![ControlOp::Snapshot])?;
        let progress = self.shared.progress.lock().expect("progress lock poisoned");
        Ok(progress
            .shards
            .iter()
            .map(|slot| slot.snapshot.clone().unwrap_or_default())
            .collect())
    }

    /// Aggregated per-tenant traffic counters, merged (summed) across all
    /// shard replicas. Under tenant-affine steering exactly one shard
    /// contributes per tenant; under 5-tuple steering the per-shard counters
    /// sum because every field of [`ModuleCounters`] is additive.
    pub fn aggregated_counters(&mut self) -> Result<HashMap<u16, ModuleCounters>, RuntimeError> {
        let mut merged: HashMap<u16, ModuleCounters> = HashMap::new();
        for snapshot in self.snapshots()? {
            for (module, counters) in snapshot.counters {
                merged.entry(module).or_default().add(&counters);
            }
        }
        Ok(merged)
    }

    /// The runtime's whole telemetry, from one `Snapshot` epoch (preceded
    /// by a flush): the retired shards' record merged with every live
    /// shard's, and shed packets — which never reached a shard, so no shard
    /// ledger attributed them — folded into each tenant's backpressure
    /// column. Returned with the live snapshots, whose gauges only mean
    /// something per shard. Every aggregate below is a projection of this
    /// one value; including the retired record keeps each of them monotone
    /// across resizes, so an earlier one subtracts cleanly as a baseline.
    fn aggregate(&mut self) -> Result<(ShardTelemetry, Vec<ShardSnapshot>), RuntimeError> {
        let snapshots = self.snapshots()?;
        let mut merged = self.retired.telemetry.clone();
        for snapshot in &snapshots {
            merged.merge(&snapshot.telemetry);
        }
        for (tenant, count) in self.shed_by_tenant() {
            if count > 0 {
                merged
                    .tenants
                    .entry(tenant)
                    .or_default()
                    .ledger
                    .record_backpressure(count);
            }
        }
        Ok((merged, snapshots))
    }

    /// The runtime's merged telemetry record (one `Snapshot` epoch,
    /// preceded by a flush): each shard records per-packet sojourn and
    /// per-burst service time locally, and the control plane merges the
    /// histograms — bucket-count addition, which is exact — together with
    /// the per-tenant views, stage profiles and link counters.
    pub fn aggregated_latency(&mut self) -> Result<ShardTelemetry, RuntimeError> {
        Ok(self.aggregate()?.0)
    }

    /// Per-shard input-ring depth telemetry from the most recent snapshot
    /// round: (high-watermark, occupancy at snapshot time), in bursts. Takes
    /// a fresh snapshot epoch.
    pub fn ring_depths(&mut self) -> Result<Vec<RingDepth>, RuntimeError> {
        Ok(self
            .snapshots()?
            .into_iter()
            .map(|snapshot| snapshot.ring)
            .collect())
    }

    // -----------------------------------------------------------------------
    // Observability: per-tenant SLO views, conservation audit, metrics
    // export, control-plane event trace
    // -----------------------------------------------------------------------

    /// Aggregated per-tenant SLO telemetry (sojourn histogram + verdict
    /// ledger per module ID), merged across live shards and everything
    /// retired shards recorded before scale-in; the overloaded tenant's
    /// view includes its own shed load. Takes one `Snapshot` epoch,
    /// preceded by a flush. Tenant 0 collects packets that carry no module
    /// ID (no VLAN tag, data-path reconfiguration packets); a packet whose
    /// VLAN names no loaded module is attributed to that ID.
    pub fn aggregated_tenants(&mut self) -> Result<BTreeMap<u16, TenantTelemetry>, RuntimeError> {
        Ok(self.aggregate()?.0.tenants)
    }

    /// Merged sampled stage-timing profile across all shards (live +
    /// retired). Empty unless the pipeline handed to
    /// [`from_pipeline`](Self::from_pipeline) had a sampling interval set
    /// ([`MenshenPipeline::set_profile_interval`]); every replica copies it.
    pub fn aggregated_profile(&mut self) -> Result<StageProfile, RuntimeError> {
        Ok(self.aggregate()?.0.profile)
    }

    /// The packet-conservation audit: quiesces the plane (flush + one
    /// snapshot epoch) and balances the books — every packet ever submitted
    /// must be attributed to a verdict in the shard tallies *and* retold by
    /// the per-tenant ledgers. See [`ConservationAudit::is_balanced`].
    pub fn conservation_audit(&mut self) -> Result<ConservationAudit, RuntimeError> {
        // `aggregate` runs the full flush barrier before its epoch, so the
        // counts below are taken at a true quiesce. Its ledgers already
        // carry the shed packets.
        let (merged, _) = self.aggregate()?;
        let total = self.total_stats();
        let ledger_total = merged
            .tenants
            .values()
            .map(|view| view.ledger.total())
            .sum();
        let shed: u64 = self.shed_by_tenant().values().sum();
        let lost_to_failure = self.lost_to_failure_total();
        Ok(ConservationAudit {
            submitted: self.submitted_packets,
            processed: total.packets,
            forwarded: total.forwarded,
            dropped: total.dropped + shed,
            shed,
            lost_to_failure,
            in_flight: self
                .submitted_packets
                .saturating_sub(total.packets + shed + lost_to_failure),
            ledger_total,
        })
    }

    /// One coherent metrics snapshot of the whole runtime, in the shared
    /// `menshen_`-prefixed naming scheme — export with
    /// [`MetricsSnapshot::to_prometheus`] or
    /// [`MetricsSnapshot::to_json`]. Takes one `Snapshot` epoch, preceded
    /// by a flush; snapshots from several runtimes merge exactly
    /// ([`MetricsSnapshot::merge`]).
    pub fn metrics_snapshot(&mut self) -> Result<MetricsSnapshot, RuntimeError> {
        let (merged, snapshots) = self.aggregate()?;
        let stats = self.shard_stats();
        let dispatcher_stats = self.dispatcher_stats();
        let mut out = MetricsSnapshot::new();
        out.push_gauge("menshen_control_epoch", Vec::new(), self.epoch, self.epoch);
        out.push_counter(
            "menshen_control_events_dropped_total",
            Vec::new(),
            self.shared.events.dropped(),
        );
        out.push_counter(
            "menshen_shards_retired_total",
            Vec::new(),
            self.retired.shards_retired as u64,
        );
        out.push_counter("menshen_runtime_failures_total", Vec::new(), self.failures);
        out.push_counter(
            "menshen_runtime_lost_packets_total",
            Vec::new(),
            self.lost_to_failure_total(),
        );
        out.push_counter(
            "menshen_runtime_shed_packets_total",
            Vec::new(),
            self.shed_by_tenant().values().sum(),
        );
        let (digest_packets, digest_bytes) = self.digest_totals();
        out.push_counter(
            "menshen_runtime_digest_packets_total",
            Vec::new(),
            digest_packets,
        );
        out.push_counter(
            "menshen_runtime_digest_bytes_total",
            Vec::new(),
            digest_bytes,
        );
        for (index, stat) in stats.iter().enumerate() {
            let shard = index.to_string();
            out.push_counter(
                "menshen_shard_packets_total",
                labels([("shard", shard.clone())]),
                stat.packets,
            );
            out.push_counter(
                "menshen_shard_forwarded_total",
                labels([("shard", shard.clone())]),
                stat.forwarded,
            );
            out.push_counter(
                "menshen_shard_dropped_total",
                labels([("shard", shard.clone())]),
                stat.dropped,
            );
            out.push_counter(
                "menshen_shard_bursts_total",
                labels([("shard", shard)]),
                stat.bursts,
            );
        }
        for (index, snapshot) in snapshots.iter().enumerate() {
            out.push_gauge(
                "menshen_ring_occupancy_bursts",
                labels([("shard", index.to_string())]),
                snapshot.ring.occupancy,
                snapshot.ring.high_watermark,
            );
        }
        out.push_histogram("menshen_packet_sojourn_ns", Vec::new(), merged.packet_ns);
        out.push_histogram("menshen_burst_service_ns", Vec::new(), merged.burst_ns);
        for (tenant, view) in merged.tenants {
            let tenant = tenant.to_string();
            out.push_counter(
                "menshen_tenant_forwarded_total",
                labels([("tenant", tenant.clone())]),
                view.ledger.forwarded,
            );
            for (reason, count) in view.ledger.drop_reasons() {
                out.push_counter(
                    "menshen_tenant_drops_total",
                    labels([("reason", reason.to_string()), ("tenant", tenant.clone())]),
                    count,
                );
            }
            out.push_histogram(
                "menshen_tenant_sojourn_ns",
                labels([("tenant", tenant)]),
                view.sojourn_ns,
            );
        }
        let profile = merged.profile;
        if !profile.is_empty() {
            out.push_counter("menshen_stage_samples_total", Vec::new(), profile.sampled);
            for (stage, histogram) in PROFILE_PHASES.iter().zip(profile.phase_ns) {
                out.push_histogram(
                    "menshen_stage_ns",
                    labels([("stage", stage.to_string())]),
                    histogram,
                );
            }
        }
        for (index, dispatcher) in dispatcher_stats.iter().enumerate() {
            let label = index.to_string();
            out.push_counter(
                "menshen_dispatcher_packets_total",
                labels([("dispatcher", label.clone())]),
                dispatcher.packets_dispatched,
            );
            out.push_gauge(
                "menshen_dispatcher_queue_chunks",
                labels([("dispatcher", label)]),
                dispatcher.queued_chunks,
                dispatcher.queue_depth_high_watermark,
            );
        }
        Ok(out)
    }

    /// The control-plane event trace, oldest first: every epoch publish and
    /// per-shard ack, module lifecycle change, rule install, resize step and
    /// RETA rewrite since start (bounded ring — see
    /// [`control_events_dropped`](Self::control_events_dropped)).
    pub fn control_events(&self) -> Vec<ControlEvent> {
        self.shared.events.events()
    }

    /// Events evicted from the trace ring because it was full.
    pub fn control_events_dropped(&self) -> u64 {
        self.shared.events.dropped()
    }

    /// The event trace as a Chrome trace-event JSON document — write
    /// `export_chrome_trace().pretty()` to a file and open it in
    /// `chrome://tracing` or Perfetto. Round-trips through
    /// [`crate::events::chrome_trace_to_events`].
    pub fn export_chrome_trace(&self) -> Json {
        self.shared.events.to_chrome_trace()
    }

    /// Aggregated device statistics: link packets/bytes sum across shards,
    /// retired ones included; the queue length reports the live maximum
    /// (queues are per shard, so the sum would be meaningless) and
    /// utilisation the live mean.
    pub fn aggregated_system_stats(&mut self) -> Result<SystemStats, RuntimeError> {
        let (merged, snapshots) = self.aggregate()?;
        let count = snapshots.len().max(1) as f64;
        Ok(SystemStats {
            link_packets: merged.link_packets,
            link_bytes: merged.link_bytes,
            queue_len: snapshots.iter().map(|s| s.queue_len).max().unwrap_or(0),
            link_utilization: snapshots.iter().map(|s| s.link_utilization / count).sum(),
        })
    }

    /// Aggregated counters for one module (convenience over
    /// [`aggregated_counters`](Self::aggregated_counters)).
    pub fn module_counters(
        &mut self,
        module: ModuleId,
    ) -> Result<Option<ModuleCounters>, RuntimeError> {
        Ok(self.aggregated_counters()?.remove(&module.value()))
    }

    /// Deterministic mode only: read access to one shard's pipeline replica
    /// (test and inspection hook).
    pub fn shard_pipeline(&self, index: usize) -> Option<&MenshenPipeline> {
        match &self.backend {
            Backend::Deterministic(shards) => shards.get(index).map(|s| &s.pipeline),
            Backend::Threaded { .. } => None,
        }
    }

    /// Deterministic mode only: a module's stateful word aggregated across
    /// the shard replicas. Under tenant-affine steering exactly one
    /// replica's copy ever advances, so the sum equals the single-pipeline
    /// value; under 5-tuple steering a mergeable module's per-shard partial
    /// sums likewise add up to the true value. A **replicated** module
    /// keeps a bit-identical full copy on every shard (digest broadcast),
    /// so its value is read from any one replica — summing would multiply
    /// it by the shard count.
    pub fn read_stateful_aggregate(
        &self,
        module: ModuleId,
        stage: usize,
        local_address: u32,
    ) -> Option<u64> {
        let Backend::Deterministic(shards) = &self.backend else {
            return None;
        };
        if self.steerer.is_replicated(module.value()) {
            return shards
                .iter()
                .find_map(|shard| shard.pipeline.read_stateful(module, stage, local_address));
        }
        let mut sum = 0u64;
        let mut any = false;
        for shard in shards {
            if let Some(word) = shard.pipeline.read_stateful(module, stage, local_address) {
                sum += word;
                any = true;
            }
        }
        any.then_some(sum)
    }

    /// Exports a non-clearing snapshot of `modules`' stateful words from
    /// one shard replica through the epoch log — the same donor path
    /// [`supervise`](Self::supervise) uses to rebuild a respawned replica
    /// of a replicated module. Works in both execution modes (threaded
    /// shards have no [`shard_pipeline`](Self::shard_pipeline) hook, this
    /// is their inspection window). Returns the states sorted by module;
    /// empty when the shard is down or holds none of the modules.
    pub fn export_shard_state(
        &mut self,
        shard: usize,
        modules: &[ModuleId],
    ) -> Result<Vec<ModuleState>, RuntimeError> {
        let epoch = self.publish(vec![ControlOp::ExportStateSnapshot {
            modules: modules.to_vec(),
            shard,
        }])?;
        self.wait_for_epoch(epoch)?;
        let mut exports = {
            let mut progress = self.shared.progress.lock().expect("progress lock poisoned");
            match progress
                .shards
                .get_mut(shard)
                .and_then(|slot| slot.exported.take())
            {
                Some((at, states)) if at == epoch => states,
                _ => Vec::new(),
            }
        };
        exports.sort_by_key(|state| state.module_id);
        Ok(exports)
    }

    /// Shuts the runtime down: closes the dispatcher input rings, joins the
    /// dispatchers (each flushes its scratch and closes its shard rings),
    /// lets shards drain what is queued, joins the worker threads, and
    /// empties their return rings. Called automatically on drop.
    pub fn shutdown(&mut self) {
        if let Backend::Threaded {
            workers,
            dispatchers,
        } = &mut self.backend
        {
            for dispatcher in dispatchers.iter() {
                dispatcher.input.close();
            }
            for dispatcher in dispatchers.iter_mut() {
                if let Some(handle) = dispatcher.handle.take() {
                    let _ = handle.join();
                }
            }
            // Drop any staged-but-unapplied topology updates: they hold the
            // ring producers of shards stood up by a resize that saw no
            // traffic afterwards, and those rings must close for their
            // workers to exit.
            for slot in self
                .shared
                .dispatcher_updates
                .lock()
                .expect("dispatcher update lock poisoned")
                .iter_mut()
            {
                slot.take();
            }
            for worker in workers.iter() {
                if let Some(input) = &worker.input {
                    input.close();
                }
            }
            for worker in workers.iter_mut() {
                if let Some(handle) = worker.handle.take() {
                    let _ = handle.join();
                }
            }
            // The shards are gone; what they sent home last is freed here.
            reclaim(workers, &mut self.spares, &self.options);
        }
    }
}

impl Drop for ShardedRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use menshen_core::module::{LpmMatchRule, MatchRule, StageModuleConfig};
    use menshen_packet::PacketBuilder;
    use menshen_rmt::action::{AluInstruction, VliwAction};
    use menshen_rmt::config::{KeyExtractEntry, KeyMask, ParseAction, ParserEntry};
    use menshen_rmt::match_table::LookupKey;
    use menshen_rmt::match_table::MatchKind;
    use menshen_rmt::phv::ContainerRef as C;
    use menshen_rmt::TABLE5;

    /// The same minimal module shape the core pipeline tests use: match on
    /// dst IP, rewrite the UDP dst port, count packets in stateful word 0.
    fn simple_module(module_id: u16, dst_ip: u32, rewrite_port: u16) -> ModuleConfig {
        let mut config = ModuleConfig::empty(ModuleId::new(module_id), format!("m{module_id}"), 5);
        config.parser = ParserEntry::new(vec![
            ParseAction::new(34, C::h4(1)).unwrap(),
            ParseAction::new(40, C::h2(0)).unwrap(),
        ])
        .unwrap();
        config.deparser = ParserEntry::new(vec![ParseAction::new(40, C::h2(0)).unwrap()]).unwrap();
        let key = LookupKey::from_slots(
            [
                (0, 6),
                (0, 6),
                (u64::from(dst_ip), 4),
                (0, 4),
                (0, 2),
                (0, 2),
            ],
            false,
        );
        config.stages[0] = StageModuleConfig {
            key_extract: Some(KeyExtractEntry {
                slots_4b: [1, 0],
                ..Default::default()
            }),
            key_mask: Some(KeyMask::for_slots(
                [false, false, true, false, false, false],
                false,
            )),
            rules: vec![MatchRule {
                key,
                action: VliwAction::nop()
                    .with(C::h2(0), AluInstruction::set(rewrite_port))
                    .with(C::h4(7), AluInstruction::loadd(0)),
            }],
            stateful_words: 16,
            ..Default::default()
        };
        config
    }

    fn packet_for(module: u16) -> Packet {
        PacketBuilder::udp_data(module, [10, 0, 0, 1], [10, 0, 0, 2], 5000, 80, &[0u8; 8])
    }

    #[test]
    fn deterministic_runtime_matches_single_pipeline() {
        let mut single = MenshenPipeline::new(TABLE5);
        let mut sharded = ShardedRuntime::new(TABLE5, RuntimeOptions::deterministic(4));
        for pipeline_config in [
            simple_module(1, 0x0a00_0002, 1111),
            simple_module(2, 0x0a00_0002, 2222),
            simple_module(3, 0x0a00_0002, 3333),
        ] {
            single.load_module(&pipeline_config).unwrap();
            sharded.load_module(&pipeline_config).unwrap();
        }
        let burst: Vec<Packet> = (0..96).map(|i| packet_for(1 + (i % 3) as u16)).collect();
        let expected = single.process_batch(burst.clone());
        let got = sharded.process_batch(burst).unwrap();
        assert_eq!(expected.len(), got.len());
        for (a, b) in expected.iter().zip(&got) {
            match (a, b) {
                (
                    Verdict::Forwarded {
                        packet: pa,
                        ports: na,
                        module_id: ma,
                        ..
                    },
                    Verdict::Forwarded {
                        packet: pb,
                        ports: nb,
                        module_id: mb,
                        ..
                    },
                ) => {
                    assert_eq!(pa.bytes(), pb.bytes());
                    assert_eq!(na, nb);
                    assert_eq!(ma, mb);
                }
                (a, b) => panic!("verdicts diverged: {a:?} vs {b:?}"),
            }
        }
        for id in [1u16, 2, 3] {
            assert_eq!(
                single.module_counters(ModuleId::new(id)),
                sharded.module_counters(ModuleId::new(id)).unwrap(),
                "module {id}"
            );
            assert_eq!(
                single.read_stateful(ModuleId::new(id), 0, 0),
                sharded.read_stateful_aggregate(ModuleId::new(id), 0, 0),
            );
        }
    }

    #[test]
    fn process_batch_into_reuses_the_callers_buffer() {
        let mut runtime = ShardedRuntime::new(TABLE5, RuntimeOptions::deterministic(3));
        runtime
            .load_module(&simple_module(1, 0x0a00_0002, 1111))
            .unwrap();
        let burst: Vec<Packet> = (0..96).map(|_| packet_for(1)).collect();
        let expected = runtime.process_batch(burst.clone()).unwrap();
        // The borrowing entry point fills the caller's buffer in input
        // order, clearing any stale contents first, and reuses its capacity
        // across bursts.
        let mut verdicts = Vec::new();
        runtime
            .process_batch_into(burst.clone(), &mut verdicts)
            .unwrap();
        assert_eq!(verdicts.len(), expected.len());
        for (a, b) in verdicts.iter().zip(&expected) {
            assert_eq!(a.is_forwarded(), b.is_forwarded());
            assert_eq!(
                a.packet().map(|p| p.udp_dst_port()),
                b.packet().map(|p| p.udp_dst_port())
            );
        }
        let capacity = verdicts.capacity();
        runtime.process_batch_into(burst, &mut verdicts).unwrap();
        assert_eq!(verdicts.len(), 96);
        assert_eq!(
            verdicts.capacity(),
            capacity,
            "steady-state bursts must not reallocate the verdict buffer"
        );
        // Wrong mode surfaces identically to process_batch.
        let mut threaded = ShardedRuntime::new(TABLE5, RuntimeOptions::threaded(1));
        assert!(matches!(
            threaded.process_batch_into(Vec::new(), &mut verdicts),
            Err(RuntimeError::WrongMode(_))
        ));
        threaded.shutdown();
    }

    #[test]
    fn threaded_runtime_processes_and_aggregates() {
        let mut runtime = ShardedRuntime::new(TABLE5, RuntimeOptions::threaded(3));
        runtime
            .load_module(&simple_module(1, 0x0a00_0002, 1111))
            .unwrap();
        runtime
            .load_module(&simple_module(2, 0x0a00_0002, 2222))
            .unwrap();
        let packets: Vec<Packet> = (0..500).map(|i| packet_for(1 + (i % 2) as u16)).collect();
        runtime.submit(&packets).unwrap();
        runtime.flush();
        let stats = runtime.shard_stats();
        assert_eq!(stats.iter().map(|s| s.packets).sum::<u64>(), 500);
        assert_eq!(stats.iter().map(|s| s.forwarded).sum::<u64>(), 500);
        let counters = runtime.aggregated_counters().unwrap();
        assert_eq!(counters[&1].packets_out, 250);
        assert_eq!(counters[&2].packets_out, 250);
        let system = runtime.aggregated_system_stats().unwrap();
        assert_eq!(system.link_packets, 500);
        runtime.shutdown();
    }

    #[test]
    fn multi_dispatcher_runtime_accounts_for_every_packet() {
        for spray in [DispatchSpray::RoundRobin, DispatchSpray::FlowAffine] {
            let mut runtime = ShardedRuntime::new(
                TABLE5,
                RuntimeOptions::threaded(3)
                    .with_dispatchers(2)
                    .with_spray(spray),
            );
            runtime
                .load_module(&simple_module(1, 0x0a00_0002, 1111))
                .unwrap();
            runtime
                .load_module(&simple_module(2, 0x0a00_0002, 2222))
                .unwrap();
            let packets: Vec<Packet> = (0..500).map(|i| packet_for(1 + (i % 2) as u16)).collect();
            runtime.submit(&packets).unwrap();
            runtime.submit(&packets).unwrap();
            runtime.flush();
            let stats = runtime.shard_stats();
            assert_eq!(
                stats.iter().map(|s| s.packets).sum::<u64>(),
                1000,
                "{spray:?}"
            );
            assert_eq!(stats.iter().map(|s| s.forwarded).sum::<u64>(), 1000);
            let counters = runtime.aggregated_counters().unwrap();
            assert_eq!(counters[&1].packets_out, 500);
            assert_eq!(counters[&2].packets_out, 500);
            // The dispatch-plane telemetry agrees with the submission.
            let dstats = runtime.dispatcher_stats();
            assert_eq!(dstats.len(), 2);
            assert_eq!(
                dstats.iter().map(|d| d.packets_submitted).sum::<u64>(),
                1000
            );
            assert_eq!(
                dstats.iter().map(|d| d.packets_dispatched).sum::<u64>(),
                1000,
                "flush implies every dispatcher quiesced ({spray:?})"
            );
            assert!(dstats.iter().all(|d| !d.exited));
            if spray == DispatchSpray::RoundRobin {
                // Round-robin spray puts work on every dispatcher.
                assert!(dstats.iter().all(|d| d.packets_submitted > 0), "{dstats:?}");
            }
            runtime.shutdown();
        }
    }

    #[test]
    fn sub_burst_submissions_still_rotate_over_dispatchers() {
        // Submissions smaller than a burst flush as partial chunks; the
        // round-robin cursor must advance on those too, or every packet
        // would pin to dispatcher 0 and the plane would degrade to serial.
        let mut runtime =
            ShardedRuntime::new(TABLE5, RuntimeOptions::threaded(2).with_dispatchers(3));
        runtime
            .load_module(&simple_module(1, 0x0a00_0002, 1111))
            .unwrap();
        for _ in 0..30 {
            runtime.submit(&[packet_for(1)]).unwrap();
        }
        runtime.flush();
        let dstats = runtime.dispatcher_stats();
        assert!(
            dstats.iter().all(|d| d.packets_submitted == 10),
            "single-packet submissions must rotate evenly: {dstats:?}"
        );
        assert_eq!(dstats.iter().map(|d| d.packets_dispatched).sum::<u64>(), 30);
        runtime.shutdown();
    }

    #[test]
    fn multi_dispatcher_reconfiguration_stays_hitless() {
        let mut runtime =
            ShardedRuntime::new(TABLE5, RuntimeOptions::threaded(2).with_dispatchers(2));
        runtime
            .load_module(&simple_module(1, 0x0a00_0002, 1111))
            .unwrap();
        runtime
            .load_module(&simple_module(2, 0x0a00_0002, 2222))
            .unwrap();
        let packets: Vec<Packet> = (0..200).map(|i| packet_for(1 + (i % 2) as u16)).collect();
        runtime.submit(&packets).unwrap();
        // The sync wrapper flushes first: both dispatchers must quiesce at a
        // burst boundary before the epoch publishes, so all 200 in-flight
        // packets forward under the old configuration.
        runtime
            .update_module(&simple_module(1, 0x0a00_0002, 7777))
            .unwrap();
        runtime.submit(&packets).unwrap();
        runtime.begin_reconfiguration(ModuleId::new(1)).unwrap();
        runtime.submit(&packets).unwrap();
        runtime.end_reconfiguration(ModuleId::new(1)).unwrap();
        runtime.flush();
        let counters = runtime.aggregated_counters().unwrap();
        assert_eq!(counters[&2].packets_out, 300);
        assert_eq!(counters[&1].packets_out, 200);
        assert_eq!(counters[&1].packets_dropped, 100);
        runtime.shutdown();
    }

    #[test]
    fn ring_depth_telemetry_reaches_snapshots() {
        let mut runtime =
            ShardedRuntime::new(TABLE5, RuntimeOptions::threaded(2).with_dispatchers(1));
        runtime
            .load_module(&simple_module(1, 0x0a00_0002, 1111))
            .unwrap();
        let packets: Vec<Packet> = (0..400).map(|_| packet_for(1)).collect();
        runtime.submit(&packets).unwrap();
        runtime.flush();
        let depths = runtime.ring_depths().unwrap();
        assert_eq!(depths.len(), 2);
        // Tenant-affine: every packet went to one shard, whose ring depth
        // watermark must have registered at least one queued burst.
        assert!(depths.iter().any(|d| d.high_watermark >= 1), "{depths:?}");
        // After a flush nothing is queued anywhere.
        assert!(depths.iter().all(|d| d.occupancy == 0), "{depths:?}");
        runtime.shutdown();
    }

    #[test]
    fn threaded_reconfiguration_is_hitless_for_other_tenants() {
        let mut runtime = ShardedRuntime::new(TABLE5, RuntimeOptions::threaded(2));
        runtime
            .load_module(&simple_module(1, 0x0a00_0002, 1111))
            .unwrap();
        runtime
            .load_module(&simple_module(2, 0x0a00_0002, 2222))
            .unwrap();

        let packets: Vec<Packet> = (0..200).map(|i| packet_for(1 + (i % 2) as u16)).collect();
        runtime.submit(&packets).unwrap();
        // Mid-stream control change: module 1 is re-streamed. The sync
        // wrapper flushes first, so the 200 in-flight packets all forward.
        runtime
            .update_module(&simple_module(1, 0x0a00_0002, 7777))
            .unwrap();
        runtime.submit(&packets).unwrap();
        // And a marked module drops only its own packets.
        runtime.begin_reconfiguration(ModuleId::new(1)).unwrap();
        runtime.submit(&packets).unwrap();
        runtime.end_reconfiguration(ModuleId::new(1)).unwrap();
        runtime.flush();

        let counters = runtime.aggregated_counters().unwrap();
        // Module 2 never lost a packet across all three phases.
        assert_eq!(counters[&2].packets_out, 300);
        // Module 1 forwarded in phases 1 and 2, dropped in phase 3.
        assert_eq!(counters[&1].packets_out, 200);
        assert_eq!(counters[&1].packets_dropped, 100);
    }

    #[test]
    fn refused_control_ops_publish_nothing_and_replicas_agree() {
        let mut runtime = ShardedRuntime::new(TABLE5, RuntimeOptions::threaded(2));
        runtime
            .load_module(&simple_module(1, 0x0a00_0002, 1111))
            .unwrap();
        let err = runtime
            .load_module(&simple_module(1, 0x0a00_0002, 1111))
            .unwrap_err();
        assert!(
            matches!(
                err,
                RuntimeError::Rejected(CoreError::ModuleAlreadyLoaded { module_id: 1 })
            ),
            "{err}"
        );
        assert_eq!(runtime.current_epoch(), 1, "the refusal published nothing");
        // The runtime stays usable after a refused op.
        runtime
            .load_module(&simple_module(2, 0x0a00_0002, 2222))
            .unwrap();
        assert_eq!(runtime.applied_epochs(), vec![2, 2]);
    }

    #[test]
    fn shutdown_surfaces_shard_down_instead_of_hanging() {
        let mut runtime = ShardedRuntime::new(TABLE5, RuntimeOptions::threaded(2));
        runtime
            .load_module(&simple_module(1, 0x0a00_0002, 1111))
            .unwrap();
        runtime.submit(&[packet_for(1)]).unwrap();
        runtime.shutdown();
        // Data and control paths error promptly instead of hanging on the
        // dead workers — and nothing is silently dropped.
        assert!(matches!(
            runtime.submit(&[packet_for(1)]),
            Err(RuntimeError::ShardDown { .. })
        ));
        assert!(matches!(
            runtime.load_module(&simple_module(2, 0x0a00_0002, 2222)),
            Err(RuntimeError::ShardDown { .. })
        ));
        assert!(matches!(
            runtime.aggregated_counters(),
            Err(RuntimeError::ShardDown { .. })
        ));
        runtime.flush(); // must return, not hang
    }

    #[test]
    fn shutdown_with_dispatchers_surfaces_errors_promptly() {
        let mut runtime =
            ShardedRuntime::new(TABLE5, RuntimeOptions::threaded(2).with_dispatchers(3));
        runtime
            .load_module(&simple_module(1, 0x0a00_0002, 1111))
            .unwrap();
        runtime.submit(&[packet_for(1)]).unwrap();
        runtime.shutdown();
        assert!(matches!(
            runtime.submit(&[packet_for(1)]),
            Err(RuntimeError::DispatcherDown { .. } | RuntimeError::ShardDown { .. })
        ));
        assert!(matches!(
            runtime.load_module(&simple_module(2, 0x0a00_0002, 2222)),
            Err(RuntimeError::ShardDown { .. })
        ));
        runtime.flush(); // must return, not hang
    }

    #[test]
    fn wrong_mode_entry_points_error() {
        let mut deterministic = ShardedRuntime::new(TABLE5, RuntimeOptions::deterministic(2));
        assert!(matches!(
            deterministic.submit(&[]),
            Err(RuntimeError::WrongMode(_))
        ));
        let mut threaded = ShardedRuntime::new(TABLE5, RuntimeOptions::threaded(2));
        assert!(matches!(
            threaded.process_batch(Vec::new()),
            Err(RuntimeError::WrongMode(_))
        ));
        assert!(threaded.shard_pipeline(0).is_none());
    }

    /// A module whose action overwrites a stateful word — classified
    /// non-mergeable, so 5-tuple steering must replicate it.
    fn storing_module(module_id: u16) -> ModuleConfig {
        let mut config = simple_module(module_id, 0x0a00_0002, 4444);
        config.stages[0].rules[0].action = VliwAction::nop()
            .with(C::h4(3), AluInstruction::store(C::h4(1), 2))
            .with(C::h2(0), AluInstruction::set(4444));
        config
    }

    #[test]
    fn five_tuple_steering_replicates_non_mergeable_state() {
        let mut runtime = ShardedRuntime::new(
            TABLE5,
            RuntimeOptions::deterministic(4).with_steering(SteeringMode::FiveTuple),
        );
        // A module that overwrites stateful words cannot merge per-shard
        // partial state, so it runs *replicated*: its flows spread and
        // digest broadcast keeps every copy of the state identical.
        runtime.load_module(&storing_module(3)).unwrap();
        assert_eq!(runtime.replicated_modules(), vec![3]);
        // Additive state spreads normally (no replication)…
        runtime
            .load_module(&simple_module(1, 0x0a00_0002, 1111))
            .unwrap();
        assert_eq!(runtime.replicated_modules(), vec![3]);
        // …and an update flips the regime with the program's classification.
        runtime.update_module(&storing_module(1)).unwrap();
        assert_eq!(runtime.replicated_modules(), vec![1, 3]);
        runtime
            .update_module(&simple_module(1, 0x0a00_0002, 1111))
            .unwrap();
        assert_eq!(runtime.replicated_modules(), vec![3]);
        // Unloading clears the regime.
        runtime.unload_module(ModuleId::new(3)).unwrap();
        assert!(runtime.replicated_modules().is_empty());

        // Tenant-affine steering needs no replication: every module is
        // already single-owner.
        let mut affine = ShardedRuntime::new(TABLE5, RuntimeOptions::deterministic(2));
        affine.load_module(&storing_module(3)).unwrap();
        assert!(affine.replicated_modules().is_empty());
    }

    #[test]
    fn replicating_a_non_mergeable_template_under_five_tuple_spreads_it() {
        // Templates configured *before* the runtime existed join the
        // replicated regime at construction: the module's flows spread
        // across shards while digest broadcast keeps every replica's
        // stateful words bit-identical — including on shards that never
        // processed one of its packets.
        let mut template = MenshenPipeline::new(TABLE5);
        template.load_module(&storing_module(4)).unwrap();
        let mut runtime = ShardedRuntime::from_pipeline(
            &template,
            RuntimeOptions::deterministic(3).with_steering(SteeringMode::FiveTuple),
        );
        assert_eq!(runtime.replicated_modules(), vec![4]);
        let packets: Vec<Packet> = (0..24)
            .map(|i| {
                PacketBuilder::udp_data(
                    4,
                    [10, 0, 0, 1 + (i % 7) as u8],
                    [10, 0, 0, 2],
                    4000 + i,
                    80,
                    &[0u8; 8],
                )
            })
            .collect();
        let verdicts = runtime.process_batch(packets).unwrap();
        assert!(verdicts.iter().all(|v| v.is_forwarded()));
        // The flows spread past one shard…
        let touched = runtime
            .shard_stats()
            .iter()
            .filter(|stats| stats.packets > 0)
            .count();
        assert!(touched > 1, "5-tuple steering must spread the tenant");
        // …and every replica holds the stored word, replicas that saw no
        // packet included — digest replay wrote it there.
        for shard in 0..3 {
            assert_eq!(
                runtime
                    .shard_pipeline(shard)
                    .unwrap()
                    .read_stateful(ModuleId::new(4), 0, 2),
                Some(0x0a00_0002),
                "replica {shard} must carry the replicated store"
            );
        }
        // One digest per packet per non-owning shard, counted at generation.
        let (digest_packets, digest_bytes) = runtime.digest_totals();
        assert_eq!(digest_packets, 24 * 2);
        assert!(digest_bytes >= digest_packets);
    }

    #[test]
    fn resize_migrates_state_and_accounts_everything() {
        for mode in [SteeringMode::TenantAffine, SteeringMode::FiveTuple] {
            let mut runtime =
                ShardedRuntime::new(TABLE5, RuntimeOptions::deterministic(2).with_steering(mode));
            runtime
                .load_module(&simple_module(1, 0x0a00_0002, 1111))
                .unwrap();
            runtime
                .load_module(&simple_module(2, 0x0a00_0002, 2222))
                .unwrap();
            let burst: Vec<Packet> = (0..200).map(|i| packet_for(1 + (i % 2) as u16)).collect();
            runtime.process_batch(burst.clone()).unwrap();

            // Grow 2 → 5: tenants move to new owners, state travels whole.
            let report = runtime.resize(5).unwrap();
            assert_eq!((report.from_shards, report.to_shards), (2, 5));
            runtime.process_batch(burst.clone()).unwrap();
            // Shrink 5 → 3: retiring shards' tenants and telemetry move.
            let report = runtime.resize(3).unwrap();
            assert_eq!((report.from_shards, report.to_shards), (5, 3));
            runtime.process_batch(burst).unwrap();

            assert_eq!(runtime.shard_count(), 3);
            // Counters survived every move: 300 packets per tenant.
            let counters = runtime.aggregated_counters().unwrap();
            assert_eq!(counters[&1].packets_out, 300, "{mode:?}");
            assert_eq!(counters[&2].packets_out, 300, "{mode:?}");
            // The stateful loadd counter survived too.
            assert_eq!(
                runtime.read_stateful_aggregate(ModuleId::new(1), 0, 0),
                Some(300),
                "{mode:?}"
            );
            // Lifetime accounting balances across the resizes.
            let total = runtime.total_stats();
            assert_eq!(total.packets, 600, "{mode:?}");
            assert_eq!(total.forwarded, 600, "{mode:?}");
            // Link history (including retired shards') is intact.
            assert_eq!(
                runtime.aggregated_system_stats().unwrap().link_packets,
                600,
                "{mode:?}"
            );
        }
    }

    #[test]
    fn set_reta_moves_tenants_and_validates_entries() {
        let mut runtime = ShardedRuntime::new(TABLE5, RuntimeOptions::deterministic(4));
        runtime
            .load_module(&simple_module(1, 0x0a00_0002, 1111))
            .unwrap();
        runtime.process_batch(vec![packet_for(1); 40]).unwrap();
        // Pin everything to shard 2 by hand.
        let report = runtime.set_reta([2u16; crate::RETA_SIZE]).unwrap();
        assert_eq!(report.from_shards, 4);
        assert_eq!(runtime.reta(), [2u16; crate::RETA_SIZE]);
        runtime.process_batch(vec![packet_for(1); 40]).unwrap();
        // All traffic (and the migrated state) now lives on shard 2.
        assert_eq!(
            runtime
                .shard_pipeline(2)
                .unwrap()
                .read_stateful(ModuleId::new(1), 0, 0),
            Some(80),
            "old state migrated to the RETA's chosen shard"
        );
        // Entries beyond the shard count are refused untouched.
        let err = runtime.set_reta([4u16; crate::RETA_SIZE]).unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidResize { .. }), "{err}");
        assert!(matches!(
            runtime.resize(0),
            Err(RuntimeError::InvalidResize { .. })
        ));
    }

    #[test]
    fn threaded_resize_grows_and_shrinks_with_live_traffic() {
        for dispatchers in [0usize, 2] {
            let mut runtime = ShardedRuntime::new(
                TABLE5,
                RuntimeOptions::threaded(2).with_dispatchers(dispatchers),
            );
            runtime
                .load_module(&simple_module(1, 0x0a00_0002, 1111))
                .unwrap();
            runtime
                .load_module(&simple_module(2, 0x0a00_0002, 2222))
                .unwrap();
            let packets: Vec<Packet> = (0..400).map(|i| packet_for(1 + (i % 2) as u16)).collect();
            runtime.submit(&packets).unwrap();
            let report = runtime.resize(4).unwrap();
            assert_eq!(report.to_shards, 4);
            assert!(report.pause > Duration::ZERO);
            runtime.submit(&packets).unwrap();
            let report = runtime.resize(2).unwrap();
            assert_eq!((report.from_shards, report.to_shards), (4, 2));
            runtime.submit(&packets).unwrap();
            runtime.flush();

            let total = runtime.total_stats();
            assert_eq!(total.packets, 1200, "{dispatchers} dispatchers");
            assert_eq!(total.forwarded, 1200, "{dispatchers} dispatchers");
            let counters = runtime.aggregated_counters().unwrap();
            assert_eq!(counters[&1].packets_out, 600);
            assert_eq!(counters[&2].packets_out, 600);
            // Latency telemetry stayed monotone across the resizes: every
            // packet's sojourn is somewhere in the merged histograms.
            let latency = runtime.aggregated_latency().unwrap();
            assert_eq!(latency.packet_ns.count(), 1200);
            assert!(runtime.retired_tally().shards_retired >= 2);
            runtime.shutdown();
        }
    }

    #[test]
    fn latency_telemetry_accounts_for_every_packet() {
        let mut runtime = ShardedRuntime::new(TABLE5, RuntimeOptions::threaded(2));
        runtime
            .load_module(&simple_module(1, 0x0a00_0002, 1111))
            .unwrap();
        runtime
            .load_module(&simple_module(2, 0x0a00_0002, 2222))
            .unwrap();
        let packets: Vec<Packet> = (0..300).map(|i| packet_for(1 + (i % 2) as u16)).collect();
        runtime.submit(&packets).unwrap();
        runtime.flush();
        let latency = runtime.aggregated_latency().unwrap();
        assert_eq!(latency.packet_ns.count(), 300);
        assert!(latency.burst_ns.count() >= 1);
        assert!(latency.packet_ns.quantile(0.5) > 0);
        assert!(latency.packet_ns.quantile(0.99) >= latency.packet_ns.quantile(0.5));
        // Sojourn (queueing + service) dominates pure service time.
        assert!(latency.packet_ns.max() >= latency.burst_ns.min());
    }

    #[test]
    fn deterministic_mode_records_latency_too() {
        let mut runtime = ShardedRuntime::new(TABLE5, RuntimeOptions::deterministic(2));
        runtime
            .load_module(&simple_module(1, 0x0a00_0002, 1111))
            .unwrap();
        let packets: Vec<Packet> = (0..64).map(|_| packet_for(1)).collect();
        runtime.process_batch(packets).unwrap();
        let latency = runtime.aggregated_latency().unwrap();
        assert_eq!(latency.packet_ns.count(), 64);
        assert!(latency.burst_ns.count() >= 1);
    }

    #[test]
    fn epoch_log_compacts_and_standby_replica_matches_full_replay() {
        let mut runtime = ShardedRuntime::new(TABLE5, RuntimeOptions::threaded(2));
        // A mirror pipeline receives the exact same configuration calls —
        // it *is* the full-log replay, kept outside the runtime.
        let mut mirror = MenshenPipeline::new(TABLE5);
        let mut max_log_len = 0usize;
        for round in 0..30u16 {
            let module = 1 + (round % 5);
            let port = 1000 + round;
            let config = simple_module(module, 0x0a00_0002, port);
            if runtime.load_module(&config).is_ok() {
                mirror.load_module(&config).unwrap();
            } else {
                runtime.update_module(&config).unwrap();
                mirror.update_module(&config).unwrap();
            }
            max_log_len = max_log_len.max(runtime.epoch_log_len());
        }
        // The log was bounded throughout: auto-compaction kept it below the
        // threshold plus the entries published since the last sync call.
        assert!(
            max_log_len <= COMPACT_THRESHOLD,
            "log grew to {max_log_len} entries despite compaction"
        );
        assert!(runtime.compacted_epoch() > 0, "compaction actually ran");
        // 5 first-time loads + 25 updates: the 25 refused loads published
        // nothing.
        assert_eq!(runtime.current_epoch(), 30);

        // A replica stood up from the compacted log matches the full replay.
        let mut standby = runtime.standby_replica();
        assert_eq!(standby.loaded_modules(), mirror.loaded_modules());
        for module in [1u16, 2, 3, 4, 5] {
            let expected = mirror.process(packet_for(module));
            let got = standby.process(packet_for(module));
            assert_eq!(
                expected.is_forwarded(),
                got.is_forwarded(),
                "module {module}"
            );
            assert_eq!(
                expected.packet().map(|p| p.udp_dst_port()),
                got.packet().map(|p| p.udp_dst_port()),
                "module {module}: standby replica must carry the latest update"
            );
        }
        runtime.shutdown();
    }

    #[test]
    fn explicit_compaction_reports_progress() {
        let mut runtime = ShardedRuntime::new(TABLE5, RuntimeOptions::deterministic(1));
        for module in 1..=3u16 {
            runtime
                .load_module(&simple_module(module, 0x0a00_0002, 1000 + module))
                .unwrap();
        }
        let before = runtime.epoch_log_len();
        assert!(before > 0);
        let report = runtime.compact_log();
        assert_eq!(report.entries_dropped, before);
        assert_eq!(report.entries_remaining, 0);
        assert_eq!(report.compacted_epoch, 3);
        assert_eq!(runtime.epoch_log_len(), 0);
        // Standby replicas survive total compaction.
        assert_eq!(runtime.standby_replica().loaded_modules().len(), 3);
    }

    /// An LPM module matching on the destination IP (4B key slot 0, key byte
    /// offset 12), rewriting the UDP dst port via its flat-table actions —
    /// the same shape the core pipeline tests use.
    fn lpm_module(module_id: u16) -> ModuleConfig {
        let mut config =
            ModuleConfig::empty(ModuleId::new(module_id), format!("lpm{module_id}"), 5);
        config.parser = ParserEntry::new(vec![
            ParseAction::new(34, C::h4(1)).unwrap(),
            ParseAction::new(40, C::h2(0)).unwrap(),
        ])
        .unwrap();
        config.deparser = ParserEntry::new(vec![ParseAction::new(40, C::h2(0)).unwrap()]).unwrap();
        config.stages[0] = StageModuleConfig {
            key_extract: Some(KeyExtractEntry {
                slots_4b: [1, 0],
                ..Default::default()
            }),
            key_mask: Some(KeyMask::for_slots(
                [false, false, true, false, false, false],
                false,
            )),
            match_kind: MatchKind::Lpm { key_offset: 12 },
            table_actions: vec![
                VliwAction::nop().with(C::h2(0), AluInstruction::set(1111)),
                VliwAction::nop().with(C::h2(0), AluInstruction::set(2222)),
            ],
            lpm_rules: vec![LpmMatchRule {
                prefix: 0x0a00_0000, // 10.0.0.0/8
                prefix_len: 8,
                action: 0,
            }],
            ..Default::default()
        };
        config
    }

    fn packet_to(module: u16, dst: [u8; 4]) -> Packet {
        PacketBuilder::udp_data(module, [10, 0, 0, 1], dst, 5000, 80, &[0u8; 8])
    }

    fn forwarded_port(verdict: &Verdict) -> Option<u16> {
        verdict.packet().and_then(|p| p.udp_dst_port())
    }

    #[test]
    fn rule_install_reaches_every_shard_and_the_standby_replica() {
        let mut runtime = ShardedRuntime::new(TABLE5, RuntimeOptions::deterministic(3));
        runtime.load_module(&lpm_module(9)).unwrap();

        // Before the install, 10.0.0.x only matches the /8 loaded with the
        // module (action 0 → port 1111).
        let verdicts = runtime
            .process_batch(vec![packet_to(9, [10, 0, 0, 5])])
            .unwrap();
        assert_eq!(forwarded_port(&verdicts[0]), Some(1111));

        // Install a more specific /24 through the control log; the longest
        // prefix must win on every shard afterwards.
        runtime
            .install_rules(
                ModuleId::new(9),
                0,
                &[TableRule::Lpm(LpmMatchRule {
                    prefix: 0x0a00_0000, // 10.0.0.0/24
                    prefix_len: 24,
                    action: 1,
                })],
            )
            .unwrap();
        let verdicts = runtime
            .process_batch(vec![
                packet_to(9, [10, 0, 0, 5]),
                packet_to(9, [10, 1, 0, 5]),
                packet_to(9, [11, 0, 0, 1]),
            ])
            .unwrap();
        assert_eq!(forwarded_port(&verdicts[0]), Some(2222), "/24 wins");
        assert_eq!(forwarded_port(&verdicts[1]), Some(1111), "/8 still holds");
        assert_eq!(
            forwarded_port(&verdicts[2]),
            Some(80),
            "miss passes through"
        );

        // InstallRules is a configuration op: a standby replica reconstructed
        // from the control log carries the installed rule too.
        let mut standby = runtime.standby_replica();
        let v = standby.process(packet_to(9, [10, 0, 0, 5]));
        assert_eq!(forwarded_port(&v), Some(2222));
        let table = standby.lpm_table(ModuleId::new(9), 0).unwrap();
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn rule_install_rejects_foreign_action_indices() {
        let mut runtime = ShardedRuntime::new(TABLE5, RuntimeOptions::deterministic(2));
        runtime.load_module(&lpm_module(9)).unwrap();
        // Action index 2 is outside the module's two table actions: the
        // runtime's configuration replica refuses it, so nothing publishes.
        let epoch = runtime.current_epoch();
        let err = runtime
            .install_rules(
                ModuleId::new(9),
                0,
                &[TableRule::Lpm(LpmMatchRule {
                    prefix: 0xc0a8_0000,
                    prefix_len: 16,
                    action: 2,
                })],
            )
            .unwrap_err();
        assert!(
            matches!(err, RuntimeError::Rejected(CoreError::BadReconfigPacket(_))),
            "{err:?}"
        );
        assert_eq!(runtime.current_epoch(), epoch, "no epoch was published");
        // The module keeps forwarding with its original rule.
        let verdicts = runtime
            .process_batch(vec![packet_to(9, [10, 0, 0, 5])])
            .unwrap();
        assert_eq!(forwarded_port(&verdicts[0]), Some(1111));
    }

    #[test]
    fn async_rule_install_is_non_quiescing_on_threaded_shards() {
        let mut runtime = ShardedRuntime::new(TABLE5, RuntimeOptions::threaded(2));
        runtime.load_module(&lpm_module(9)).unwrap();

        // Publish the install without flushing or waiting, with traffic
        // submitted around it. The module is never marked reconfiguring, so
        // every packet must be processed and forwarded — none dropped, none
        // stalled behind the epoch.
        runtime
            .submit(&vec![packet_to(9, [10, 0, 0, 5]); 32])
            .unwrap();
        let epoch = runtime
            .install_rules_async(
                ModuleId::new(9),
                0,
                &[TableRule::Lpm(LpmMatchRule {
                    prefix: 0x0a00_0000,
                    prefix_len: 24,
                    action: 1,
                })],
            )
            .unwrap();
        runtime
            .submit(&vec![packet_to(9, [10, 1, 0, 5]); 64])
            .unwrap();
        runtime.flush();
        runtime.wait_for_epoch(epoch).unwrap();
        assert!(runtime.epoch_error(epoch).is_none());

        let stats = runtime.shard_stats();
        assert_eq!(stats.iter().map(|s| s.packets).sum::<u64>(), 96);
        assert_eq!(
            stats.iter().map(|s| s.forwarded).sum::<u64>(),
            96,
            "install burst must not drop traffic"
        );
        let counters = runtime
            .module_counters(ModuleId::new(9))
            .unwrap()
            .expect("module loaded");
        assert_eq!(counters.packets_in, 96);
        assert_eq!(counters.packets_out, 96);

        // After the epoch every shard applied the rule; the control history a
        // standby replica replays carries it too, and the /24 now wins.
        let mut standby = runtime.standby_replica();
        let v = standby.process(packet_to(9, [10, 0, 0, 5]));
        assert_eq!(forwarded_port(&v), Some(2222));
        runtime.shutdown();
    }

    #[test]
    fn from_pipeline_replicates_existing_configuration() {
        let mut template = MenshenPipeline::new(TABLE5);
        template
            .load_module(&simple_module(5, 0x0a00_0002, 5555))
            .unwrap();
        // Dirty the template's dynamic state; replicas must start clean.
        template.process(packet_for(5));
        let mut runtime =
            ShardedRuntime::from_pipeline(&template, RuntimeOptions::deterministic(2));
        let verdicts = runtime.process_batch(vec![packet_for(5)]).unwrap();
        assert!(verdicts[0].is_forwarded());
        assert_eq!(
            verdicts[0].packet().unwrap().udp_dst_port(),
            Some(5555),
            "replica inherited the template's configuration"
        );
        let counters = runtime.module_counters(ModuleId::new(5)).unwrap().unwrap();
        assert_eq!(counters.packets_in, 1, "counters started from zero");
        assert_eq!(
            runtime.read_stateful_aggregate(ModuleId::new(5), 0, 0),
            Some(1),
            "stateful memory started from zero"
        );
    }
}
