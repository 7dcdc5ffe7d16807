//! The Menshen pipeline: a multi-module RMT pipeline with isolation.
//!
//! [`MenshenPipeline`] composes the baseline RMT hardware (stages from
//! `menshen-rmt`) with Menshen's isolation primitives:
//!
//! * the **packet filter** (VLAN check, reconfiguration-packet separation,
//!   "being reconfigured" bitmap, buffer-tag round robin);
//! * **overlay tables** for the parser, deparser, key extractor, key mask and
//!   segment table — one entry per module, indexed per packet by module ID;
//! * **space partitioning** of CAM/action entries and stateful memory through
//!   contiguous per-module ranges;
//! * the **module ID appended to match keys**, so lookups can never hit
//!   another module's entries;
//! * the **system-level module** wrapped around tenant processing;
//! * the **daisy-chain reconfiguration path**, which is the *only* way to
//!   write configuration — reconfiguration packets arriving on the data path
//!   are dropped (§3.1 "secure reconfiguration").
//!
//! # The data path
//!
//! There is one packet routine. [`MenshenPipeline::process_batch_into`]
//! pushes a DPDK-style burst (see [`BURST_SIZE`]) through it, and
//! [`MenshenPipeline::process`] is a burst of one through the same routine,
//! so verdicts, counters and stateful memory cannot depend on how a packet
//! stream is chopped into bursts. Per-packet overheads are amortised across
//! the burst: per-module parser/deparser/key-extractor/key-mask/segment
//! configuration is resolved once per `(module, burst)` into scratch buffers
//! owned by the pipeline, stages whose key mask selects no key bits resolve
//! their CAM lookup once per burst instead of once per packet, one scratch
//! PHV is reused for the whole burst, and per-module traffic counters are
//! accumulated in scratch and flushed once at the end of the burst. The
//! steady state allocates nothing beyond the returned verdicts.
//!
//! Configuration cannot change in the middle of a burst (the burst holds
//! `&mut self`), so the per-burst resolution is exact, and the CAM hash index
//! (`menshen_rmt::ExactMatchTable`) keeps each remaining per-packet lookup
//! O(1). The data path resolves them with the statistics-free `peek`: the
//! CAM's lookup/hit statistics are not bumped on the data path.
//!
//! The unamortised per-packet walk the burst routine was derived from — read
//! every overlay entry for every packet, one `StageHardware::process` per
//! stage — survives as `reference_process` in this module's tests, the
//! oracle the burst routine is checked against.

use crate::digest::{DigestSpec, StateDigest};
use crate::error::CoreError;
use crate::module::{
    ExecutionMode, LpmMatchRule, ModuleConfig, ModuleId, RangeMatchRule, StateMergeability,
    TableRule,
};
use crate::overlay::OverlayTable;
use crate::packet_filter::{FilterDecision, PacketFilter, RECONFIG_BITMAP_SLOTS};
use crate::partition::{Allocation, RangeAllocator};
use crate::profile::{HotPathProfiler, PacketSample, Phase, StageProfile};
use crate::reconfig::{ReconfigCommand, ResourceKind, WritePayload};
use crate::segment_table::{SegmentEntry, SegmentTable, SegmentTranslator};
use crate::system_module::{ForwardingDecision, SystemModule};
use crate::Result;
use menshen_packet::{Ipv4Address, Packet};
use menshen_rmt::config::{KeyExtractEntry, KeyMask, ParserEntry};
use menshen_rmt::deparser;
use menshen_rmt::key_extractor::extract_key;
use menshen_rmt::lpm::LpmTable;
use menshen_rmt::match_table::{LookupKey, MatchEntry, MatchKind};
use menshen_rmt::params::{PipelineParams, MATCH_TABLE_CAPACITY};
use menshen_rmt::parser;
use menshen_rmt::phv::{ContainerRef, Phv};
use menshen_rmt::stage::{StageConfig, StageHardware};
use menshen_rmt::ternary::{RangeRule, RangeTable};
use std::collections::HashMap;

/// DPDK-style default burst size for [`MenshenPipeline::process_batch_into`].
///
/// Callers may pass bursts of any length; this constant is the batch size the
/// testbed and benchmarks use when they chop a packet stream into bursts.
pub const BURST_SIZE: usize = 32;

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// No VLAN tag, so no module ID.
    NoVlan,
    /// The VLAN ID does not correspond to any loaded module.
    UnknownModule,
    /// The packet's module is currently being reconfigured.
    BeingReconfigured,
    /// The module's program executed a `discard` action.
    ModuleDiscard,
    /// A reconfiguration packet arrived on the untrusted data path.
    UntrustedReconfiguration,
}

/// The pipeline's verdict for one packet.
//
// `Forwarded` is much larger than `Dropped`, but boxing the PHV (clippy's
// suggestion) would put one heap allocation per forwarded packet on the
// allocation-free batched hot path — the wrong trade for a type that lives
// in reused scratch buffers.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Verdict {
    /// The packet was processed and forwarded to `ports`.
    Forwarded {
        /// The (possibly rewritten) packet.
        packet: Packet,
        /// Egress ports (one for unicast, several for multicast).
        ports: Vec<u16>,
        /// The final PHV (for tests and oracles).
        phv: Phv,
        /// The module that processed the packet.
        module_id: u16,
    },
    /// The packet was dropped.
    Dropped {
        /// Why it was dropped.
        reason: DropReason,
        /// The module it belonged to, when known.
        module_id: Option<u16>,
    },
}

impl Verdict {
    /// True if the packet was forwarded.
    pub fn is_forwarded(&self) -> bool {
        matches!(self, Verdict::Forwarded { .. })
    }

    /// The forwarded packet, if any.
    pub fn packet(&self) -> Option<&Packet> {
        match self {
            Verdict::Forwarded { packet, .. } => Some(packet),
            Verdict::Dropped { .. } => None,
        }
    }
}

/// Per-module traffic counters (the performance-isolation statistics of §5.1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModuleCounters {
    /// Packets admitted for this module.
    pub packets_in: u64,
    /// Packets forwarded for this module.
    pub packets_out: u64,
    /// Packets dropped (by discard actions or reconfiguration).
    pub packets_dropped: u64,
    /// Bytes admitted.
    pub bytes_in: u64,
    /// Bytes forwarded.
    pub bytes_out: u64,
}

impl ModuleCounters {
    /// Adds `other`'s tallies onto this one, field by field. Every field of
    /// the type is additive by design, which is what makes per-shard
    /// counters aggregatable and migratable — every summation site (merge,
    /// state injection, cross-shard aggregation) goes through here so a new
    /// field can never be forgotten at one of them.
    pub fn add(&mut self, other: &ModuleCounters) {
        self.packets_in += other.packets_in;
        self.packets_out += other.packets_out;
        self.packets_dropped += other.packets_dropped;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
    }
}

/// A portable snapshot of one module's *dynamic* state: its traffic counters
/// and the contents of its stateful-memory segments, in segment-local word
/// order per stage.
///
/// This is the unit of tenant state migration: the sharded runtime extracts
/// it on the source replica ([`MenshenPipeline::take_module_state`], which
/// clears the source so exactly one live copy exists), merges extracts from
/// several replicas if needed ([`ModuleState::merge`] — exact for additive
/// state, and trivially exact when all but one extract is zero), and replays
/// it into the target replica ([`MenshenPipeline::import_module_state`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ModuleState {
    /// The module this state belongs to.
    pub module_id: u16,
    /// The module's traffic counters at extraction time.
    pub counters: ModuleCounters,
    /// Per stage, the words of the module's stateful segment (segment-local
    /// order). Stages where the module owns no stateful memory are empty.
    pub stages: Vec<Vec<u64>>,
}

impl ModuleState {
    /// Total stateful words carried (across all stages).
    pub fn word_count(&self) -> usize {
        self.stages.iter().map(|s| s.len()).sum()
    }

    /// True when the snapshot carries no information: zero counters and all
    /// stateful words zero. Migration skips injecting these.
    pub fn is_zero(&self) -> bool {
        self.counters == ModuleCounters::default()
            && self.stages.iter().all(|s| s.iter().all(|&w| w == 0))
    }

    /// Folds `other` into `self` by addition: counters sum, stateful words
    /// add element-wise (wrapping, like the hardware's `loadd`). Exact for
    /// mergeable (additive) state; for single-owner state every extract but
    /// one is zero, so the sum equals the lone live copy.
    pub fn merge(&mut self, other: &ModuleState) {
        debug_assert_eq!(self.module_id, other.module_id);
        self.counters.add(&other.counters);
        if self.stages.len() < other.stages.len() {
            self.stages.resize(other.stages.len(), Vec::new());
        }
        for (mine, theirs) in self.stages.iter_mut().zip(other.stages.iter()) {
            if mine.len() < theirs.len() {
                mine.resize(theirs.len(), 0);
            }
            for (word, &value) in mine.iter_mut().zip(theirs.iter()) {
                *word = word.wrapping_add(value);
            }
        }
    }
}

/// Software-side record of one loaded module.
#[derive(Debug, Clone)]
struct ModuleRuntime {
    slot: usize,
    name: String,
    cam_ranges: Vec<Allocation>,
    stateful_ranges: Vec<Allocation>,
    counters: ModuleCounters,
}

/// Report returned by [`MenshenPipeline::load_module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadReport {
    /// The overlay-table slot assigned to the module.
    pub slot: usize,
    /// Number of reconfiguration packets (daisy-chain writes) it took to load
    /// the module — the quantity Figure 9's configuration-time model uses.
    pub reconfig_packets: usize,
}

/// How the CAM lookup of one `(module slot, stage)` resolves within a burst.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum ResolvedLookup {
    /// The masked key depends on packet contents: look up per packet.
    #[default]
    PerPacket,
    /// The masked key is burst-constant and missed: the stage cannot touch
    /// this module's packets, so it is skipped entirely.
    ConstantMiss,
    /// The masked key is burst-constant and hit this CAM address; only the
    /// action execution remains per-packet.
    ConstantHit(usize),
    /// The module has a flat LPM table in this stage: per-packet trie walk,
    /// then direct action execution (no CAM probe).
    PerPacketLpm,
    /// The module has a flat range table in this stage: per-packet interval
    /// search, then direct action execution (no CAM probe).
    PerPacketRange,
}

/// Per-`(module slot, stage)` configuration resolved out of the overlay
/// tables: once per burst on the packet path, once per digest on replay.
#[derive(Debug, Clone, Copy, Default)]
struct ResolvedStage {
    config: StageConfig,
    segment: Option<SegmentEntry>,
    lookup: ResolvedLookup,
}

/// Per-module-slot scratch state for one burst: the overlay configuration
/// resolved out of the tables once, plus the traffic-counter delta
/// accumulated until the end-of-burst flush.
#[derive(Debug, Clone, Default)]
struct SlotScratch {
    /// Burst stamp; a slot is (re)resolved when it differs from the batch's.
    epoch: u64,
    module_id: u16,
    parser: ParserEntry,
    deparser: ParserEntry,
    stages: Vec<ResolvedStage>,
    counters: ModuleCounters,
}

/// Scratch buffers owned by the pipeline and reused across bursts so the
/// steady-state batch path performs no heap allocation.
#[derive(Debug, Clone, Default)]
struct BatchScratch {
    epoch: u64,
    slots: Vec<SlotScratch>,
    touched: Vec<usize>,
    phv: Phv,
}

impl BatchScratch {
    /// Starts a new burst: bumps the epoch (lazily invalidating every slot)
    /// and sizes the slot table, keeping all existing allocations.
    fn begin(&mut self, overlay_depth: usize) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.slots.len() != overlay_depth {
            self.slots.resize(overlay_depth, SlotScratch::default());
        }
        self.touched.clear();
    }
}

/// One match-action stage plus its Menshen isolation primitives.
///
/// Besides the exact-match CAM inside [`StageHardware`], a stage holds one
/// optional flat match table per module slot: an LPM trie or a range/ternary
/// interval table. These are isolated by construction — each slot's table is
/// a separate object, so a lookup can never cross modules — and their rules
/// reference the module's space-partitioned VLIW action range directly.
#[derive(Debug, Clone)]
struct MenshenStage {
    hw: StageHardware,
    key_extract: OverlayTable<KeyExtractEntry>,
    key_mask: OverlayTable<KeyMask>,
    segment: SegmentTable,
    cam_alloc: RangeAllocator,
    stateful_alloc: RangeAllocator,
    /// Per-module-slot LPM tables (match kind `lpm`).
    lpm: Vec<Option<LpmTable>>,
    /// Per-module-slot range tables (match kind `range`).
    range: Vec<Option<RangeTable>>,
}

impl MenshenStage {
    fn new(params: &PipelineParams, stage_index: usize) -> Self {
        MenshenStage {
            hw: StageHardware::new(params),
            key_extract: OverlayTable::new("key extractor table", params.overlay_depth),
            key_mask: OverlayTable::new("key mask table", params.overlay_depth),
            segment: SegmentTable::new(params.overlay_depth),
            cam_alloc: RangeAllocator::new(
                format!("match entries, stage {stage_index}"),
                params.cam_depth,
            ),
            stateful_alloc: RangeAllocator::new(
                format!("stateful memory, stage {stage_index}"),
                params.stateful_words,
            ),
            lpm: vec![None; params.overlay_depth],
            range: vec![None; params.overlay_depth],
        }
    }

    /// Resolves module `slot`'s overlay configuration in this stage — key
    /// extractor, key mask, segment entry — and, where the masked key cannot
    /// depend on the packet, the CAM lookup itself.
    #[inline(always)]
    fn resolve(&self, slot: usize, module_id: u16) -> ResolvedStage {
        let config = StageConfig {
            key_extract: self.key_extract.read(slot).copied().unwrap_or_default(),
            key_mask: self.key_mask.read(slot).copied().unwrap_or_default(),
        };
        // The masked key is constant when no key byte participates in the
        // match and the predicate bit cannot fire (either masked out or not
        // configured): every packet then produces the all-zero masked key,
        // so the CAM lookup resolves once. Flat LPM/range tables always look
        // up per packet — the trie walk / interval search *is* the fast path.
        let lookup = if self.lpm[slot].is_some() {
            ResolvedLookup::PerPacketLpm
        } else if self.range[slot].is_some() {
            ResolvedLookup::PerPacketRange
        } else if config.key_mask.ignores_all_bytes()
            && (!config.key_mask.predicate || config.key_extract.predicate.is_none())
        {
            match self.hw.cam.peek(&LookupKey::default(), module_id) {
                Some(cam_index) => ResolvedLookup::ConstantHit(cam_index),
                None => ResolvedLookup::ConstantMiss,
            }
        } else {
            ResolvedLookup::PerPacket
        };
        ResolvedStage {
            config,
            segment: self.segment.read(slot),
            lookup,
        }
    }

    /// One step of the stage walk — the only one in the crate, shared by the
    /// packet routine and digest replay: matches `phv` against the module's
    /// table in this stage as `resolved` says and executes the action behind
    /// a hit. CAM hits execute through `execute_hit` (which follows the
    /// entry's action indirection); flat LPM/range tables resolve the action
    /// index directly. A miss leaves the PHV untouched.
    //
    // `inline(always)` (here and on `resolve`): with two callers LLVM leaves
    // both out of line, which cost `lone_exact` 4 % of its throughput and a
    // burst of one 25 ns (`core.process_batch_b1_ns`).
    #[inline(always)]
    fn step(&mut self, slot: usize, module_id: u16, resolved: &ResolvedStage, phv: &mut Phv) {
        let translator = SegmentTranslator::new(resolved.segment);
        let key =
            |phv: &Phv| extract_key(phv, &resolved.config.key_extract, &resolved.config.key_mask);
        match resolved.lookup {
            ResolvedLookup::ConstantMiss => {}
            ResolvedLookup::ConstantHit(cam_index) => {
                self.hw.execute_hit(cam_index, phv, &translator);
            }
            ResolvedLookup::PerPacket => {
                if let Some(cam_index) = self.hw.cam.peek(&key(phv), module_id) {
                    self.hw.execute_hit(cam_index, phv, &translator);
                }
            }
            ResolvedLookup::PerPacketLpm => {
                let table = self.lpm[slot].as_ref();
                if let Some(action) = table.and_then(|t| t.lookup_key(&key(phv))) {
                    self.hw.execute_action(action as usize, phv, &translator);
                }
            }
            ResolvedLookup::PerPacketRange => {
                let table = self.range[slot].as_ref();
                if let Some(action) = table.and_then(|t| t.lookup_key(&key(phv))) {
                    self.hw.execute_action(action as usize, phv, &translator);
                }
            }
        }
    }
}

/// The Menshen pipeline.
#[derive(Debug, Clone)]
pub struct MenshenPipeline {
    params: PipelineParams,
    filter: PacketFilter,
    parser_table: OverlayTable<ParserEntry>,
    deparser_table: OverlayTable<ParserEntry>,
    stages: Vec<MenshenStage>,
    system: SystemModule,
    modules: HashMap<u16, ModuleRuntime>,
    slots: Vec<Option<u16>>,
    cycle: u64,
    batch: BatchScratch,
    profiler: HotPathProfiler,
}

impl MenshenPipeline {
    /// Creates an empty pipeline with the given parameters.
    ///
    /// `overlay_depth` is capped at the 32 module slots the packet filter's
    /// being-reconfigured bitmap can mark (a module in a slot past it could
    /// not be stopped while it is rewritten), and every per-module table is
    /// sized by the capped depth; [`params`](Self::params) reports it.
    pub fn new(params: PipelineParams) -> Self {
        let params = PipelineParams {
            overlay_depth: params.overlay_depth.min(RECONFIG_BITMAP_SLOTS),
            ..params
        };
        MenshenPipeline {
            filter: PacketFilter::new(),
            parser_table: OverlayTable::new("parser table", params.overlay_depth),
            deparser_table: OverlayTable::new("deparser table", params.overlay_depth),
            stages: (0..params.num_stages)
                .map(|i| MenshenStage::new(&params, i))
                .collect(),
            system: SystemModule::new(),
            modules: HashMap::new(),
            slots: vec![None; params.overlay_depth],
            cycle: 0,
            batch: BatchScratch::default(),
            // `Default::default()` rather than the named constructor: the
            // profiler is a unit struct when `profiling` is off.
            profiler: Default::default(),
            params,
        }
    }

    /// Creates a pipeline with the prototype parameters of Table 5.
    pub fn with_default_params() -> Self {
        Self::new(PipelineParams::default())
    }

    /// The pipeline's parameters.
    pub fn params(&self) -> &PipelineParams {
        &self.params
    }

    /// Mutable access to the system-level module (to install routes, virtual
    /// IPs and multicast groups).
    pub fn system_mut(&mut self) -> &mut SystemModule {
        &mut self.system
    }

    /// Read access to the system-level module.
    pub fn system(&self) -> &SystemModule {
        &self.system
    }

    /// Read access to the packet filter (its software registers).
    pub fn filter(&self) -> &PacketFilter {
        &self.filter
    }

    /// The module IDs currently loaded.
    pub fn loaded_modules(&self) -> Vec<ModuleId> {
        let mut ids: Vec<_> = self.modules.keys().map(|&id| ModuleId::new(id)).collect();
        ids.sort();
        ids
    }

    /// The slot a module occupies, if loaded.
    pub fn module_slot(&self, module: ModuleId) -> Option<usize> {
        self.modules.get(&module.value()).map(|m| m.slot)
    }

    /// Traffic counters for a module.
    pub fn module_counters(&self, module: ModuleId) -> Option<ModuleCounters> {
        self.modules.get(&module.value()).map(|m| m.counters)
    }

    /// Number of free module slots.
    pub fn free_slots(&self) -> usize {
        self.slots.iter().filter(|s| s.is_none()).count()
    }

    /// The contiguous CAM range partitioned to `module` in `stage` at load
    /// time, if the module is loaded.
    pub fn module_cam_range(&self, module: ModuleId, stage: usize) -> Option<Allocation> {
        self.modules
            .get(&module.value())
            .and_then(|m| m.cam_ranges.get(stage))
            .copied()
    }

    /// The module ID that owns the CAM entry at `(stage, index)`, if occupied.
    pub fn cam_entry_owner(&self, stage: usize, index: usize) -> Option<u16> {
        self.stages
            .get(stage)?
            .hw
            .cam
            .entry(index)
            .map(|e| e.module_id)
    }

    /// True if the CAM address at `(stage, index)` lies inside the range
    /// space-partitioned to a module other than `module`.
    pub fn cam_index_reserved_for_other(
        &self,
        stage: usize,
        index: usize,
        module: ModuleId,
    ) -> bool {
        self.stages
            .get(stage)
            .map(|s| {
                s.cam_alloc
                    .allocations()
                    .any(|(owner, range)| owner != module && range.contains(index))
            })
            .unwrap_or(false)
    }

    /// Reads one word of a module's stateful memory in `stage`, through the
    /// module's segment translation (the software statistics path).
    pub fn read_stateful(&self, module: ModuleId, stage: usize, local_address: u32) -> Option<u64> {
        let runtime = self.modules.get(&module.value())?;
        let stage_ref = self.stages.get(stage)?;
        let physical = stage_ref.segment.translate(runtime.slot, local_address)?;
        stage_ref.hw.stateful.peek(physical)
    }

    /// Classifies a *loaded* module's stateful memory for shard replication
    /// by walking the VLIW actions actually installed in its CAM ranges —
    /// the same classification [`ModuleConfig::state_mergeability`] performs
    /// on a not-yet-loaded configuration. Returns `None` if the module is
    /// not loaded.
    ///
    /// This is what lets the sharded runtime vet an already-configured
    /// pipeline (e.g. a replication template) and not just incoming load
    /// requests.
    pub fn module_state_mergeability(&self, module: ModuleId) -> Option<StateMergeability> {
        let runtime = self.modules.get(&module.value())?;
        let mut touches_state = false;
        for (stage_index, range) in runtime.cam_ranges.iter().enumerate() {
            let Some(stage) = self.stages.get(stage_index) else {
                continue;
            };
            // A flat-table stage fills the module's partitioned range with
            // shared actions referenced by rule rather than by CAM entry, so
            // every action in the range is the module's and must be walked.
            let flat = stage
                .lpm
                .get(runtime.slot)
                .map(|t| t.is_some())
                .unwrap_or(false)
                || stage
                    .range
                    .get(runtime.slot)
                    .map(|t| t.is_some())
                    .unwrap_or(false);
            for index in range.start..range.end() {
                let owned = flat
                    || stage
                        .hw
                        .cam
                        .entry(index)
                        .map(|entry| entry.module_id == module.value())
                        .unwrap_or(false);
                if !owned {
                    continue;
                }
                let Some(action) = stage.hw.action(index) else {
                    continue;
                };
                if crate::module::action_overwrites_state(action) {
                    return Some(StateMergeability::NonMergeable {
                        stage: stage_index,
                        detail: format!(
                            "CAM entry {index} executes `store` (overwrites a stateful \
                             word); only additive state merges across shard replicas"
                        ),
                    });
                }
                touches_state |= crate::module::action_touches_state(action);
            }
        }
        Some(if touches_state {
            StateMergeability::Mergeable
        } else {
            StateMergeability::Stateless
        })
    }

    /// The digest recipe for a *loaded* module, built from the parser entry
    /// actually installed in its overlay slot. `None` if the module is not
    /// loaded or its parser extracts more fields than a digest can carry.
    pub fn module_digest_spec(&self, module: ModuleId) -> Option<DigestSpec> {
        let runtime = self.modules.get(&module.value())?;
        let parser = self.parser_table.read(runtime.slot)?;
        DigestSpec::from_parser(module.value(), parser)
    }

    /// Chooses how a *loaded* module executes across shard replicas — the
    /// installed-form counterpart of [`ModuleConfig::execution_mode`], driven
    /// by [`module_state_mergeability`](Self::module_state_mergeability) and
    /// the installed parser's digestibility. Returns `None` if the module is
    /// not loaded.
    pub fn module_execution_mode(&self, module: ModuleId) -> Option<ExecutionMode> {
        let mergeability = self.module_state_mergeability(module)?;
        Some(match mergeability {
            StateMergeability::Stateless | StateMergeability::Mergeable => ExecutionMode::Mergeable,
            StateMergeability::NonMergeable { .. } => {
                if self.module_digest_spec(module).is_none() {
                    ExecutionMode::Pinned
                } else {
                    ExecutionMode::Replicated
                }
            }
        })
    }

    // -----------------------------------------------------------------------
    // Module lifecycle
    // -----------------------------------------------------------------------

    /// Builds the sequence of reconfiguration commands that loads `config`
    /// given a slot assignment and per-stage allocations. Exposed so the
    /// software interface and the configuration-time model can count and
    /// replay exactly the packets the daisy chain would carry.
    fn build_load_commands(
        &self,
        config: &ModuleConfig,
        slot: usize,
        cam_ranges: &[Allocation],
        stateful_ranges: &[Allocation],
    ) -> Vec<ReconfigCommand> {
        let mut commands = Vec::new();
        commands.push(ReconfigCommand::write(
            ResourceKind::Parser,
            0,
            slot as u16,
            WritePayload::Parser(config.parser.clone()),
        ));
        commands.push(ReconfigCommand::write(
            ResourceKind::Deparser,
            0,
            slot as u16,
            WritePayload::Deparser(config.deparser.clone()),
        ));
        for (stage_idx, stage_cfg) in config.stages.iter().enumerate() {
            let stage = stage_idx as u8;
            if let Some(entry) = stage_cfg.key_extract {
                commands.push(ReconfigCommand::write(
                    ResourceKind::KeyExtractor,
                    stage,
                    slot as u16,
                    WritePayload::KeyExtract(entry),
                ));
            }
            if let Some(mask) = stage_cfg.key_mask {
                commands.push(ReconfigCommand::write(
                    ResourceKind::KeyMask,
                    stage,
                    slot as u16,
                    WritePayload::KeyMask(mask),
                ));
            }
            let cam_base = cam_ranges.get(stage_idx).map(|a| a.start).unwrap_or(0);
            for (i, rule) in stage_cfg.rules.iter().enumerate() {
                let index = (cam_base + i) as u16;
                commands.push(ReconfigCommand::write(
                    ResourceKind::MatchTable,
                    stage,
                    index,
                    WritePayload::MatchEntry {
                        key: rule.key,
                        module_id: config.module_id.value(),
                    },
                ));
                commands.push(ReconfigCommand::write(
                    ResourceKind::ActionTable,
                    stage,
                    index,
                    WritePayload::Action(rule.action.clone()),
                ));
            }
            // Flat-table stages: the shared actions land in the module's
            // partitioned action range (after the exact rules, if any); the
            // rules themselves are addressed by module slot and rebased onto
            // that range when applied.
            for (i, action) in stage_cfg.table_actions.iter().enumerate() {
                let index = (cam_base + stage_cfg.rules.len() + i) as u16;
                commands.push(ReconfigCommand::write(
                    ResourceKind::ActionTable,
                    stage,
                    index,
                    WritePayload::Action(action.clone()),
                ));
            }
            for rule in &stage_cfg.lpm_rules {
                commands.push(ReconfigCommand::write(
                    ResourceKind::LpmTable,
                    stage,
                    slot as u16,
                    WritePayload::LpmRule(*rule),
                ));
            }
            for rule in &stage_cfg.range_rules {
                commands.push(ReconfigCommand::write(
                    ResourceKind::RangeTable,
                    stage,
                    slot as u16,
                    WritePayload::RangeRule(*rule),
                ));
            }
            if stage_cfg.stateful_words > 0 {
                let range = stateful_ranges
                    .get(stage_idx)
                    .copied()
                    .unwrap_or(Allocation { start: 0, len: 0 });
                commands.push(ReconfigCommand::write(
                    ResourceKind::SegmentTable,
                    stage,
                    slot as u16,
                    WritePayload::Segment(SegmentEntry::new(range.start as u32, range.len as u32)),
                ));
            }
        }
        commands
    }

    /// Loads a compiled module onto the pipeline.
    ///
    /// This performs what the Menshen software does at load time: assign a
    /// module slot, carve out the module's share of each space-partitioned
    /// resource, mark the module as being reconfigured in the packet filter,
    /// stream the configuration in via the daisy chain, and finally clear the
    /// reconfiguration bit. Other modules' state is never touched.
    pub fn load_module(&mut self, config: &ModuleConfig) -> Result<LoadReport> {
        let module_id = config.module_id;
        if self.modules.contains_key(&module_id.value()) {
            return Err(CoreError::ModuleAlreadyLoaded {
                module_id: module_id.value(),
            });
        }
        if config.stages.len() > self.params.num_stages {
            return Err(CoreError::Rmt(
                menshen_rmt::RmtError::TableIndexOutOfRange {
                    table: "pipeline stages",
                    index: config.stages.len(),
                    depth: self.params.num_stages,
                },
            ));
        }
        for (stage_idx, stage_cfg) in config.stages.iter().enumerate() {
            Self::check_stage_config(stage_idx, stage_cfg)?;
        }
        let slot =
            self.slots
                .iter()
                .position(|s| s.is_none())
                .ok_or(CoreError::NoFreeModuleSlot {
                    capacity: self.slots.len(),
                })?;

        // Space partitioning: reserve CAM and stateful ranges in every stage
        // the module uses. A flat-table stage consumes one partitioned
        // action-table entry per shared action; its (up to 10^6) rules live
        // in the per-slot flat table, not the CAM. Roll back on failure so a
        // rejected module leaves no residue.
        let mut cam_ranges = Vec::new();
        let mut stateful_ranges = Vec::new();
        for (stage_idx, stage_cfg) in config.stages.iter().enumerate() {
            let stage = &mut self.stages[stage_idx];
            let entries = stage_cfg.rules.len() + stage_cfg.table_actions.len();
            let cam = match stage.cam_alloc.allocate(module_id, entries) {
                Ok(a) => a,
                Err(e) => {
                    self.rollback_allocations(module_id, stage_idx);
                    return Err(e);
                }
            };
            let stateful = match stage
                .stateful_alloc
                .allocate(module_id, stage_cfg.stateful_words)
            {
                Ok(a) => a,
                Err(e) => {
                    stage.cam_alloc.release(module_id);
                    self.rollback_allocations(module_id, stage_idx);
                    return Err(e);
                }
            };
            cam_ranges.push(cam);
            stateful_ranges.push(stateful);
        }

        // Stand up the per-slot flat tables before streaming so the rule
        // writes in the command stream find their target.
        for (stage_idx, stage_cfg) in config.stages.iter().enumerate() {
            let stage = &mut self.stages[stage_idx];
            match stage_cfg.match_kind {
                MatchKind::Exact => {}
                MatchKind::Lpm { key_offset } => {
                    stage.lpm[slot] = Some(LpmTable::new(
                        usize::from(key_offset),
                        Self::table_capacity(stage_cfg.table_capacity),
                    ));
                }
                MatchKind::Range {
                    key_offset,
                    key_width,
                } => {
                    stage.range[slot] = Some(RangeTable::new(
                        usize::from(key_offset),
                        usize::from(key_width),
                        Self::table_capacity(stage_cfg.table_capacity),
                    ));
                }
            }
        }

        let commands = self.build_load_commands(config, slot, &cam_ranges, &stateful_ranges);

        // Reconfiguration proper: mark the module, stream the packets, unmark.
        // The slot binding happens first so rule writes addressed by module
        // slot can resolve the owning module's action range.
        self.slots[slot] = Some(module_id.value());
        self.filter.bind_slot(slot, module_id.value());
        self.filter.mark_reconfiguring(slot);
        let mut applied = 0;
        for command in &commands {
            self.apply_command(command)?;
            applied += 1;
        }
        self.filter.clear_reconfiguring(slot);

        self.modules.insert(
            module_id.value(),
            ModuleRuntime {
                slot,
                name: config.name.clone(),
                cam_ranges,
                stateful_ranges,
                counters: ModuleCounters::default(),
            },
        );
        Ok(LoadReport {
            slot,
            reconfig_packets: applied,
        })
    }

    fn rollback_allocations(&mut self, module: ModuleId, up_to_stage: usize) {
        for stage in &mut self.stages[..up_to_stage] {
            stage.cam_alloc.release(module);
            stage.stateful_alloc.release(module);
        }
    }

    /// The effective capacity of a flat match table: the configured value, or
    /// the "million rules per table" default when left at zero.
    fn table_capacity(configured: usize) -> usize {
        if configured == 0 {
            MATCH_TABLE_CAPACITY
        } else {
            configured
        }
    }

    /// Static consistency checks between a stage's match kind and the rule
    /// lists it carries, performed before any resource is allocated.
    fn check_stage_config(
        stage_idx: usize,
        stage_cfg: &crate::module::StageModuleConfig,
    ) -> Result<()> {
        let fail = |detail: String| {
            Err(CoreError::CheckFailed(format!(
                "stage {stage_idx}: {detail}"
            )))
        };
        match stage_cfg.match_kind {
            MatchKind::Exact => {
                if !stage_cfg.lpm_rules.is_empty() || !stage_cfg.range_rules.is_empty() {
                    return fail("exact-match stage carries LPM or range rules".into());
                }
            }
            MatchKind::Lpm { .. } => {
                if !stage_cfg.rules.is_empty() || !stage_cfg.range_rules.is_empty() {
                    return fail("LPM stage carries exact or range rules".into());
                }
            }
            MatchKind::Range { .. } => {
                if !stage_cfg.rules.is_empty() || !stage_cfg.lpm_rules.is_empty() {
                    return fail("range stage carries exact or LPM rules".into());
                }
            }
        }
        let flat_rules = stage_cfg.lpm_rules.len() + stage_cfg.range_rules.len();
        if flat_rules > 0 && stage_cfg.table_actions.is_empty() {
            return fail("flat-table rules reference an empty action list".into());
        }
        let capacity = Self::table_capacity(stage_cfg.table_capacity);
        if flat_rules > capacity {
            return fail(format!(
                "{flat_rules} rules exceed the table capacity of {capacity}"
            ));
        }
        for rule in &stage_cfg.lpm_rules {
            if usize::from(rule.action) >= stage_cfg.table_actions.len() {
                return fail(format!(
                    "LPM rule references action {} of {}",
                    rule.action,
                    stage_cfg.table_actions.len()
                ));
            }
        }
        for rule in &stage_cfg.range_rules {
            if usize::from(rule.action) >= stage_cfg.table_actions.len() {
                return fail(format!(
                    "range rule references action {} of {}",
                    rule.action,
                    stage_cfg.table_actions.len()
                ));
            }
        }
        Ok(())
    }

    /// Updates an already-loaded module with a new configuration. The module's
    /// packets are dropped while the update streams in (the Figure 10
    /// experiment); other modules keep forwarding throughout.
    pub fn update_module(&mut self, config: &ModuleConfig) -> Result<LoadReport> {
        let module_id = config.module_id;
        if !self.modules.contains_key(&module_id.value()) {
            return Err(CoreError::UnknownModule {
                module_id: module_id.value(),
            });
        }
        // The prototype reconfigures by rewriting the module's entries; the
        // simplest faithful model is unload + load preserving the counters.
        let counters = self.modules[&module_id.value()].counters;
        self.unload_module(module_id)?;
        let report = self.load_module(config)?;
        if let Some(runtime) = self.modules.get_mut(&module_id.value()) {
            runtime.counters = counters;
        }
        Ok(report)
    }

    /// Unloads a module: clears its overlay entries, match entries, stateful
    /// memory range, and frees its slot.
    pub fn unload_module(&mut self, module: ModuleId) -> Result<()> {
        let runtime = self
            .modules
            .remove(&module.value())
            .ok_or(CoreError::UnknownModule {
                module_id: module.value(),
            })?;
        let slot = runtime.slot;
        self.parser_table.clear(slot)?;
        self.deparser_table.clear(slot)?;
        for (stage_idx, stage) in self.stages.iter_mut().enumerate() {
            stage.key_extract.clear(slot)?;
            stage.key_mask.clear(slot)?;
            let _ = stage.segment.clear(slot);
            stage.hw.cam.clear_module(module.value());
            stage.lpm[slot] = None;
            stage.range[slot] = None;
            stage.cam_alloc.release(module);
            if let Some(range) = runtime.stateful_ranges.get(stage_idx) {
                if range.len > 0 {
                    stage
                        .hw
                        .stateful
                        .clear_range(range.start as u32, range.len as u32)
                        .map_err(CoreError::Rmt)?;
                }
            }
            stage.stateful_alloc.release(module);
        }
        self.filter.unbind_slot(slot);
        self.slots[slot] = None;
        Ok(())
    }

    /// The human-readable name a module was loaded with.
    pub fn module_name(&self, module: ModuleId) -> Option<&str> {
        self.modules.get(&module.value()).map(|m| m.name.as_str())
    }

    // -----------------------------------------------------------------------
    // Reconfiguration (trusted path)
    // -----------------------------------------------------------------------

    /// Applies one reconfiguration command, as the daisy chain would when the
    /// corresponding reconfiguration packet passes the target element.
    pub fn apply_command(&mut self, command: &ReconfigCommand) -> Result<()> {
        let stage_idx = usize::from(command.stage);
        let index = usize::from(command.index);
        match (&command.payload, command.kind) {
            (WritePayload::Parser(entry), _) => self.parser_table.write(index, entry.clone())?,
            (WritePayload::Deparser(entry), _) => {
                self.deparser_table.write(index, entry.clone())?
            }
            (WritePayload::KeyExtract(entry), _) => self
                .stage_mut(stage_idx)?
                .key_extract
                .write(index, *entry)?,
            (WritePayload::KeyMask(mask), _) => {
                self.stage_mut(stage_idx)?.key_mask.write(index, *mask)?
            }
            (WritePayload::MatchEntry { key, module_id }, _) => {
                self.stage_mut(stage_idx)?
                    .hw
                    .cam
                    .install(
                        index,
                        MatchEntry {
                            key: *key,
                            module_id: *module_id,
                            action_index: index as u16,
                        },
                    )
                    .map_err(CoreError::Rmt)?;
            }
            (WritePayload::Action(action), _) => {
                self.stage_mut(stage_idx)?
                    .hw
                    .install_action(index, action.clone())
                    .map_err(CoreError::Rmt)?;
            }
            (WritePayload::Segment(entry), _) => {
                self.stage_mut(stage_idx)?.segment.write(index, *entry)?
            }
            (WritePayload::Clear, ResourceKind::MatchTable) => {
                self.stage_mut(stage_idx)?
                    .hw
                    .cam
                    .remove(index)
                    .map_err(CoreError::Rmt)?;
            }
            (WritePayload::Clear, ResourceKind::Parser) => self.parser_table.clear(index)?,
            (WritePayload::Clear, ResourceKind::Deparser) => self.deparser_table.clear(index)?,
            (WritePayload::Clear, ResourceKind::KeyExtractor) => {
                self.stage_mut(stage_idx)?.key_extract.clear(index)?
            }
            (WritePayload::Clear, ResourceKind::KeyMask) => {
                self.stage_mut(stage_idx)?.key_mask.clear(index)?
            }
            (WritePayload::Clear, ResourceKind::SegmentTable) => {
                self.stage_mut(stage_idx)?.segment.clear(index)?
            }
            (WritePayload::Clear, ResourceKind::ActionTable) => {
                self.stage_mut(stage_idx)?
                    .hw
                    .install_action(index, menshen_rmt::action::VliwAction::nop())
                    .map_err(CoreError::Rmt)?;
            }
            (WritePayload::LpmRule(rule), _) => self.install_lpm_rule(stage_idx, index, rule)?,
            (WritePayload::RangeRule(rule), _) => {
                self.install_range_rule(stage_idx, index, rule)?
            }
            (WritePayload::Clear, ResourceKind::LpmTable) => {
                let stage = self.stage_mut(stage_idx)?;
                if let Some(table) = stage.lpm.get_mut(index).and_then(|t| t.as_mut()) {
                    *table = LpmTable::new(table.key_offset(), table.capacity());
                }
            }
            (WritePayload::Clear, ResourceKind::RangeTable) => {
                let stage = self.stage_mut(stage_idx)?;
                if let Some(table) = stage.range.get_mut(index).and_then(|t| t.as_mut()) {
                    *table =
                        RangeTable::new(table.key_offset(), table.key_width(), table.capacity());
                }
            }
        }
        self.filter.count_reconfig_packet();
        Ok(())
    }

    /// Resolves the action range of the module bound to `slot` in `stage_idx`
    /// and rebases a module-local action index onto it, enforcing that the
    /// result stays inside the module's own partition.
    fn rebase_action(&mut self, stage_idx: usize, slot: usize, local: u16) -> Result<u32> {
        let module_id =
            self.slots
                .get(slot)
                .copied()
                .flatten()
                .ok_or(CoreError::BadReconfigPacket(
                    "flat-table rule addressed to an unbound module slot",
                ))?;
        let stage = self.stage_mut(stage_idx)?;
        let range = stage.cam_alloc.allocation(ModuleId::new(module_id)).ok_or(
            CoreError::BadReconfigPacket(
                "flat-table rule for a module with no action range in this stage",
            ),
        )?;
        if usize::from(local) >= range.len {
            return Err(CoreError::BadReconfigPacket(
                "flat-table rule action index outside the module's partitioned range",
            ));
        }
        Ok((range.start + usize::from(local)) as u32)
    }

    /// Installs one LPM rule into the table of the module bound to `slot`.
    /// This is the incremental (non-quiescing) rule-install primitive: it
    /// never rebuilds the trie from scratch and never touches other slots.
    fn install_lpm_rule(
        &mut self,
        stage_idx: usize,
        slot: usize,
        rule: &LpmMatchRule,
    ) -> Result<()> {
        let action = self.rebase_action(stage_idx, slot, rule.action)?;
        let table = self
            .stage_mut(stage_idx)?
            .lpm
            .get_mut(slot)
            .and_then(|t| t.as_mut())
            .ok_or(CoreError::BadReconfigPacket(
                "LPM rule for a module slot with no LPM table",
            ))?;
        table
            .insert(rule.prefix, rule.prefix_len, action)
            .map_err(CoreError::Rmt)
    }

    /// Installs one range rule into the table of the module bound to `slot`.
    /// Incremental: the rule lands in the table's delta buffer and is folded
    /// into the sorted interval layout in amortised batches.
    fn install_range_rule(
        &mut self,
        stage_idx: usize,
        slot: usize,
        rule: &RangeMatchRule,
    ) -> Result<()> {
        let action = self.rebase_action(stage_idx, slot, rule.action)?;
        let table = self
            .stage_mut(stage_idx)?
            .range
            .get_mut(slot)
            .and_then(|t| t.as_mut())
            .ok_or(CoreError::BadReconfigPacket(
                "range rule for a module slot with no range table",
            ))?;
        table
            .insert(RangeRule {
                lo: rule.lo,
                hi: rule.hi,
                priority: rule.priority,
                action,
            })
            .map_err(CoreError::Rmt)
    }

    /// Installs a batch of flat-table rules into a loaded module's stage —
    /// the typed control-plane entry point for incremental rule install.
    ///
    /// Each rule models one daisy-chain write (counted in the filter's
    /// reconfiguration statistics) but skips packet materialisation; the
    /// module is *not* marked as being reconfigured, so its traffic keeps
    /// flowing while rules stream in. Returns the number of rules installed;
    /// on error, rules before the failing one remain installed (exactly as
    /// if the daisy chain had carried them one packet at a time).
    pub fn install_rules(
        &mut self,
        module: ModuleId,
        stage: usize,
        rules: &[TableRule],
    ) -> Result<usize> {
        let slot = self.module_slot(module).ok_or(CoreError::UnknownModule {
            module_id: module.value(),
        })?;
        let mut installed = 0;
        for rule in rules {
            match rule {
                TableRule::Lpm(rule) => self.install_lpm_rule(stage, slot, rule)?,
                TableRule::Range(rule) => self.install_range_rule(stage, slot, rule)?,
            }
            self.filter.count_reconfig_packet();
            installed += 1;
        }
        Ok(installed)
    }

    /// Read access to a loaded module's LPM table in `stage`, if it has one.
    pub fn lpm_table(&self, module: ModuleId, stage: usize) -> Option<&LpmTable> {
        let slot = self.module_slot(module)?;
        self.stages.get(stage)?.lpm.get(slot)?.as_ref()
    }

    /// Read access to a loaded module's range table in `stage`, if it has one.
    pub fn range_table(&self, module: ModuleId, stage: usize) -> Option<&RangeTable> {
        let slot = self.module_slot(module)?;
        self.stages.get(stage)?.range.get(slot)?.as_ref()
    }

    /// Applies a reconfiguration *packet* arriving over the trusted path
    /// (PCIe → daisy chain). Untrusted (data-path) reconfiguration attempts
    /// must go through [`process`](Self::process), which drops them.
    pub fn apply_reconfiguration_packet(&mut self, packet: &Packet) -> Result<()> {
        let command = ReconfigCommand::from_packet(packet)?;
        self.apply_command(&command)
    }

    fn stage_mut(&mut self, stage: usize) -> Result<&mut MenshenStage> {
        let depth = self.stages.len();
        self.stages.get_mut(stage).ok_or(CoreError::Rmt(
            menshen_rmt::RmtError::TableIndexOutOfRange {
                table: "pipeline stages",
                index: stage,
                depth,
            },
        ))
    }

    // -----------------------------------------------------------------------
    // Data path
    // -----------------------------------------------------------------------

    /// Pushes one packet through the data path and returns the verdict: a
    /// burst of one through [`process_batch_into`](Self::process_batch_into).
    pub fn process(&mut self, packet: Packet) -> Verdict {
        let mut out = Vec::with_capacity(1);
        self.process_batch_into(std::slice::from_ref(&packet), &mut out);
        out.pop().expect("a burst of one yields one verdict")
    }

    /// Pushes a DPDK-style burst of packets through the data path, returning
    /// one verdict per packet in order.
    ///
    /// This is a convenience wrapper over
    /// [`process_batch_into`](Self::process_batch_into); hot paths that
    /// process many bursts (the testbed sweeps, the benches, the sharded
    /// runtime's workers) should call that directly with a reused verdict
    /// buffer.
    pub fn process_batch(&mut self, packets: Vec<Packet>) -> Vec<Verdict> {
        let mut verdicts = Vec::with_capacity(packets.len());
        self.process_batch_into(&packets, &mut verdicts);
        verdicts
    }

    /// Processes `packets` as one burst and writes one verdict per packet, in
    /// order, into `out` (which is cleared first). Callers that process many
    /// bursts — the testbed sweeps and the sharded runtime's workers — reuse
    /// one verdict buffer across bursts so the steady state performs no heap
    /// allocation at all for verdict storage.
    ///
    /// The per-packet overheads are amortised across the burst (see the
    /// module docs): per-module overlay configuration and trivially-masked
    /// CAM lookups resolve once per `(module, burst)`, one scratch PHV is
    /// reused throughout, and per-module counters flush once at the end.
    ///
    /// When the `profiling` cargo feature is on, one packet in N (see
    /// [`set_profile_interval`](Self::set_profile_interval)) is timed per
    /// stage into [`stage_profile`](Self::stage_profile); without the
    /// feature the hooks compile to nothing.
    pub fn process_batch_into(&mut self, packets: &[Packet], out: &mut Vec<Verdict>) {
        out.clear();
        out.reserve(packets.len());
        let mut scratch = std::mem::take(&mut self.batch);
        scratch.begin(self.params.overlay_depth);
        for packet in packets {
            // 1-in-N sampled stage profiling; without the `profiling`
            // feature both calls are empty inlined no-ops.
            let mut sample = self.profiler.begin();
            let verdict = self.process_one(packet, &mut scratch, &mut sample);
            self.profiler.commit(sample);
            out.push(verdict);
        }
        // Flush the per-module counter deltas accumulated during the burst.
        for &slot in &scratch.touched {
            let slot_scratch = &mut scratch.slots[slot];
            let delta = std::mem::take(&mut slot_scratch.counters);
            if let Some(runtime) = self.modules.get_mut(&slot_scratch.module_id) {
                runtime.counters.add(&delta);
            }
        }
        scratch.touched.clear();
        self.batch = scratch;
    }

    /// The accumulated hot-path stage profile: per-phase service-time
    /// histograms from 1-in-N sampling on the data path. Permanently
    /// empty unless the crate is built with the `profiling` feature and
    /// sampling is enabled.
    pub fn stage_profile(&self) -> StageProfile {
        self.profiler.profile()
    }

    /// Sets the hot-path sampling interval: one packet in `interval` is
    /// timed per stage (0 disables sampling). Accumulated histograms are
    /// kept. A no-op without the `profiling` feature.
    pub fn set_profile_interval(&mut self, interval: u64) {
        self.profiler.set_interval(interval);
    }

    /// One packet of a burst: filter, parse, system-module ingress, the
    /// stage walk, deparse, system-module egress. Per-module configuration
    /// comes out of the burst scratch and counters accumulate there. The
    /// packet is only cloned on the forwarding path (the deparser rewrites
    /// it); dropped packets touch no heap at all.
    fn process_one(
        &mut self,
        packet: &Packet,
        scratch: &mut BatchScratch,
        sample: &mut PacketSample,
    ) -> Verdict {
        self.cycle += 1;
        let decision = self.filter.classify(packet);
        let (module_id, buffer_tag) = match decision {
            FilterDecision::Reconfiguration => {
                // Data-path reconfiguration attempts are untrusted and dropped.
                sample.mark(Phase::Filter);
                return Verdict::Dropped {
                    reason: DropReason::UntrustedReconfiguration,
                    module_id: None,
                };
            }
            FilterDecision::DropNoVlan => {
                sample.mark(Phase::Filter);
                return Verdict::Dropped {
                    reason: DropReason::NoVlan,
                    module_id: None,
                };
            }
            FilterDecision::DropBeingReconfigured { module_id } => {
                if let Some(runtime) = self.modules.get_mut(&module_id) {
                    runtime.counters.packets_dropped += 1;
                }
                sample.mark(Phase::Filter);
                return Verdict::Dropped {
                    reason: DropReason::BeingReconfigured,
                    module_id: Some(module_id),
                };
            }
            FilterDecision::Data {
                module_id,
                buffer_tag,
            } => (module_id, buffer_tag),
        };

        let slot = match self.modules.get(&module_id).map(|m| m.slot) {
            Some(slot) => slot,
            None => {
                sample.mark(Phase::Filter);
                return Verdict::Dropped {
                    reason: DropReason::UnknownModule,
                    module_id: Some(module_id),
                };
            }
        };

        if scratch.slots[slot].epoch != scratch.epoch {
            self.resolve_slot(slot, module_id, scratch);
        }
        sample.mark(Phase::Filter);
        // Disjoint borrows of the scratch: slot state and the shared PHV.
        let slot_scratch = &mut scratch.slots[slot];
        let phv = &mut scratch.phv;

        let packet_len = packet.len();
        slot_scratch.counters.packets_in += 1;
        slot_scratch.counters.bytes_in += packet_len as u64;

        // Parse with the module's own parser entry, reusing the burst PHV.
        if parser::parse_into(phv, packet, &slot_scratch.parser, module_id).is_err() {
            slot_scratch.counters.packets_dropped += 1;
            sample.mark(Phase::Parse);
            return Verdict::Dropped {
                reason: DropReason::ModuleDiscard,
                module_id: Some(module_id),
            };
        }
        phv.metadata.buffer_tag = 1 << buffer_tag;
        sample.mark(Phase::Parse);

        // System-level module, first half.
        self.system.ingress(phv, packet_len, self.cycle);

        // Tenant stages with the burst-resolved overlay configuration.
        for (stage, resolved) in self.stages.iter_mut().zip(&slot_scratch.stages) {
            stage.step(slot, module_id, resolved, phv);
        }
        sample.mark(Phase::Match);

        if phv.metadata.discard {
            slot_scratch.counters.packets_dropped += 1;
            return Verdict::Dropped {
                reason: DropReason::ModuleDiscard,
                module_id: Some(module_id),
            };
        }

        // Deparse with the module's deparser entry.
        let mut packet = packet.clone();
        if deparser::deparse(&mut packet, phv, &slot_scratch.deparser).is_err() {
            slot_scratch.counters.packets_dropped += 1;
            sample.mark(Phase::Deparse);
            return Verdict::Dropped {
                reason: DropReason::ModuleDiscard,
                module_id: Some(module_id),
            };
        }
        sample.mark(Phase::Deparse);

        // System-level module, second half: routing / multicast.
        let dst_ip = packet.ipv4_dst().unwrap_or(Ipv4Address::new(0, 0, 0, 0));
        let ports = match self.system.egress(module_id, dst_ip, phv) {
            ForwardingDecision::Unicast(port) => vec![port],
            ForwardingDecision::Multicast(ports) => ports,
        };

        slot_scratch.counters.packets_out += 1;
        slot_scratch.counters.bytes_out += packet.len() as u64;

        let verdict = Verdict::Forwarded {
            packet,
            ports,
            phv: phv.clone(),
            module_id,
        };
        sample.mark(Phase::Egress);
        verdict
    }

    /// Resolves one module slot's overlay configuration into the burst
    /// scratch: parser/deparser entries (cloned once per burst, reusing the
    /// scratch buffers' capacity) and every stage's
    /// [`resolve`](MenshenStage::resolve)d configuration.
    fn resolve_slot(&self, slot: usize, module_id: u16, scratch: &mut BatchScratch) {
        let epoch = scratch.epoch;
        let slot_scratch = &mut scratch.slots[slot];
        slot_scratch.epoch = epoch;
        slot_scratch.module_id = module_id;
        slot_scratch.counters = ModuleCounters::default();
        match self.parser_table.read(slot) {
            Some(entry) => slot_scratch.parser.clone_from(entry),
            None => slot_scratch.parser = ParserEntry::default(),
        }
        match self.deparser_table.read(slot) {
            Some(entry) => slot_scratch.deparser.clone_from(entry),
            None => slot_scratch.deparser = ParserEntry::default(),
        }
        slot_scratch.stages.clear();
        slot_scratch.stages.extend(
            self.stages
                .iter()
                .map(|stage| stage.resolve(slot, module_id)),
        );
        scratch.touched.push(slot);
    }

    /// Replays one dispatcher-broadcast [`StateDigest`] — the receive half of
    /// State-Compute Replication. The digest's field values rebuild exactly
    /// the PHV the module's parser would have produced for the digested
    /// packet (every input the module's matching and ALUs can observe is a
    /// parser-filled container), and the module's match-action stages run
    /// over it so every stateful ALU op executes precisely as it did on the
    /// shard that owned the packet. The replica's state words therefore
    /// advance bit-identically, while everything packet-shaped is skipped:
    /// no verdict, no traffic counters, no deparsing, no system-module
    /// forwarding. Stateful accesses land in the replay tallies
    /// ([`menshen_rmt::StatefulMemory::set_replay`]) so real-traffic
    /// statistics stay clean.
    ///
    /// Digests for unknown modules or modules currently marked as being
    /// reconfigured are ignored: the owning shard drops those packets, so a
    /// replica must not advance state for them either.
    pub fn apply_state_digest(&mut self, digest: &StateDigest) {
        let module_id = digest.module();
        let Some(slot) = self.modules.get(&module_id).map(|m| m.slot) else {
            return;
        };
        if self.filter.bitmap() & (1 << slot) != 0 {
            return;
        }
        let mut phv = std::mem::take(&mut self.batch.phv);
        phv.reset();
        phv.module_id = module_id;
        for &(code, value) in digest.fields() {
            if let Ok(container) = ContainerRef::from_code(code) {
                phv.set(container, value);
            }
        }
        for stage in &mut self.stages {
            let resolved = stage.resolve(slot, module_id);
            stage.hw.stateful.set_replay(true);
            stage.step(slot, module_id, &resolved, &mut phv);
            stage.hw.stateful.set_replay(false);
        }
        self.batch.phv = phv;
    }

    /// Marks a module as being reconfigured (software register write); its
    /// packets are dropped until [`end_reconfiguration`](Self::end_reconfiguration).
    pub fn begin_reconfiguration(&mut self, module: ModuleId) -> Result<()> {
        let slot = self.module_slot(module).ok_or(CoreError::UnknownModule {
            module_id: module.value(),
        })?;
        self.filter.mark_reconfiguring(slot);
        Ok(())
    }

    /// Clears a module's reconfiguration mark.
    pub fn end_reconfiguration(&mut self, module: ModuleId) -> Result<()> {
        let slot = self.module_slot(module).ok_or(CoreError::UnknownModule {
            module_id: module.value(),
        })?;
        self.filter.clear_reconfiguring(slot);
        Ok(())
    }

    // -----------------------------------------------------------------------
    // Replication (sharded runtime support)
    // -----------------------------------------------------------------------

    /// Snapshots this pipeline's *configuration* into a fresh replica with
    /// cleared dynamic state: same loaded modules, overlay tables, CAM/action
    /// entries, space partitions, slot bindings and system-module routing
    /// state, but zeroed traffic counters, stateful memory, filter/CAM/
    /// stateful statistics, cycle counter and batch scratch.
    ///
    /// This is the replication hook the sharded runtime uses to stand up a
    /// new worker shard next to already-running ones (elastic scale-out):
    /// the replica forwards exactly like the original from the first packet,
    /// while per-shard counters and stateful ALU state start from zero so
    /// cross-shard aggregation (which sums) stays correct.
    pub fn config_replica(&self) -> MenshenPipeline {
        let mut replica = self.clone();
        replica.cycle = 0;
        replica.batch = BatchScratch::default();
        // Fresh profile, same sampling interval: replicas sum on snapshot.
        replica.profiler = HotPathProfiler::with_interval(self.profiler.interval());
        for runtime in replica.modules.values_mut() {
            runtime.counters = ModuleCounters::default();
        }
        replica.filter.reset_dynamic_state();
        replica.system.reset_stats();
        for stage in &mut replica.stages {
            let words = stage.hw.stateful.len() as u32;
            if words > 0 {
                stage
                    .hw
                    .stateful
                    .clear_range(0, words)
                    .expect("full-range clear is always in bounds");
            }
            stage.hw.stateful.reset_stats();
            stage.hw.cam.reset_stats();
            for table in stage.lpm.iter_mut().flatten() {
                table.reset_stats();
            }
            for table in stage.range.iter_mut().flatten() {
                table.reset_stats();
            }
        }
        replica
    }

    // -----------------------------------------------------------------------
    // State migration (live-resharding support)
    // -----------------------------------------------------------------------

    /// Snapshots one module's dynamic state — traffic counters plus the
    /// contents of its stateful segments — without modifying the pipeline.
    /// Returns `None` if the module is not loaded.
    pub fn export_module_state(&self, module: ModuleId) -> Option<ModuleState> {
        let runtime = self.modules.get(&module.value())?;
        let stages = self
            .stages
            .iter()
            .zip(runtime.stateful_ranges.iter())
            .map(|(stage, range)| {
                stage
                    .hw
                    .stateful
                    .snapshot_range(range.start as u32, range.len as u32)
                    .expect("load-time allocations are always in bounds")
            })
            .collect();
        Some(ModuleState {
            module_id: module.value(),
            counters: runtime.counters,
            stages,
        })
    }

    /// Extracts one module's dynamic state and clears it on this pipeline
    /// (counters zeroed, stateful segments zeroed) in one step — the "move"
    /// half of migration. After a take exactly one live copy of the state
    /// exists: the returned snapshot. Returns `None` if the module is not
    /// loaded.
    pub fn take_module_state(&mut self, module: ModuleId) -> Option<ModuleState> {
        let runtime = self.modules.get_mut(&module.value())?;
        let counters = std::mem::take(&mut runtime.counters);
        let ranges = runtime.stateful_ranges.clone();
        let stages = self
            .stages
            .iter_mut()
            .zip(ranges.iter())
            .map(|(stage, range)| {
                stage
                    .hw
                    .stateful
                    .take_range(range.start as u32, range.len as u32)
                    .expect("load-time allocations are always in bounds")
            })
            .collect();
        Some(ModuleState {
            module_id: module.value(),
            counters,
            stages,
        })
    }

    /// Replays an exported [`ModuleState`] into this pipeline by *addition*:
    /// counters sum and stateful words add element-wise (wrapping). For
    /// single-owner state the target segment is zero, so addition equals
    /// assignment; for replicated mergeable state addition is exactly the
    /// legal merge. The module must be loaded with the same per-stage
    /// segment shape the snapshot was taken from (configuration replicas
    /// always satisfy this), else [`CoreError::StateShapeMismatch`].
    pub fn import_module_state(&mut self, state: &ModuleState) -> Result<()> {
        let runtime = self
            .modules
            .get_mut(&state.module_id)
            .ok_or(CoreError::UnknownModule {
                module_id: state.module_id,
            })?;
        if state.stages.len() > runtime.stateful_ranges.len() {
            return Err(CoreError::StateShapeMismatch {
                module_id: state.module_id,
                detail: format!(
                    "snapshot spans {} stages, replica has {}",
                    state.stages.len(),
                    runtime.stateful_ranges.len()
                ),
            });
        }
        for (stage_index, (words, range)) in state
            .stages
            .iter()
            .zip(runtime.stateful_ranges.iter())
            .enumerate()
        {
            if words.len() > range.len {
                return Err(CoreError::StateShapeMismatch {
                    module_id: state.module_id,
                    detail: format!(
                        "stage {stage_index}: snapshot carries {} words, segment holds {}",
                        words.len(),
                        range.len
                    ),
                });
            }
        }
        runtime.counters.add(&state.counters);
        let ranges = runtime.stateful_ranges.clone();
        for ((stage, words), range) in self
            .stages
            .iter_mut()
            .zip(state.stages.iter())
            .zip(ranges.iter())
        {
            stage
                .hw
                .stateful
                .merge_range(range.start as u32, words)
                .expect("shape checked above");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{MatchRule, StageModuleConfig};
    use menshen_packet::PacketBuilder;
    use menshen_rmt::action::{AluInstruction, VliwAction};
    use menshen_rmt::config::ParseAction;
    use menshen_rmt::match_table::LookupKey;
    use menshen_rmt::phv::ContainerRef as C;
    use menshen_rmt::TABLE5;

    impl MenshenPipeline {
        /// The oracle the burst routine is checked against: the unamortised
        /// per-packet walk, obviously faithful to the hardware model. It
        /// re-reads every per-module overlay entry for every packet, parses
        /// into a fresh PHV, runs one `StageHardware::process` (key extract →
        /// CAM lookup → action) per exact-match stage and bumps the module's
        /// counters directly — sharing no code with `process_one` beyond the
        /// hardware model itself.
        fn reference_process(&mut self, packet: Packet) -> Verdict {
            self.cycle += 1;
            let decision = self.filter.classify(&packet);
            let (module_id, buffer_tag) = match decision {
                FilterDecision::Reconfiguration => {
                    // Data-path reconfiguration attempts are untrusted and dropped.
                    return Verdict::Dropped {
                        reason: DropReason::UntrustedReconfiguration,
                        module_id: None,
                    };
                }
                FilterDecision::DropNoVlan => {
                    return Verdict::Dropped {
                        reason: DropReason::NoVlan,
                        module_id: None,
                    }
                }
                FilterDecision::DropBeingReconfigured { module_id } => {
                    if let Some(runtime) = self.modules.get_mut(&module_id) {
                        runtime.counters.packets_dropped += 1;
                    }
                    return Verdict::Dropped {
                        reason: DropReason::BeingReconfigured,
                        module_id: Some(module_id),
                    };
                }
                FilterDecision::Data {
                    module_id,
                    buffer_tag,
                } => (module_id, buffer_tag),
            };

            let slot = match self.modules.get(&module_id).map(|m| m.slot) {
                Some(slot) => slot,
                None => {
                    return Verdict::Dropped {
                        reason: DropReason::UnknownModule,
                        module_id: Some(module_id),
                    }
                }
            };

            let packet_len = packet.len();
            if let Some(runtime) = self.modules.get_mut(&module_id) {
                runtime.counters.packets_in += 1;
                runtime.counters.bytes_in += packet_len as u64;
            }

            // Parse with the module's own parser entry.
            let parser_entry = self.parser_table.read(slot).cloned().unwrap_or_default();
            let mut phv = match parser::parse(&packet, &parser_entry, module_id) {
                Ok(phv) => phv,
                Err(_) => {
                    if let Some(runtime) = self.modules.get_mut(&module_id) {
                        runtime.counters.packets_dropped += 1;
                    }
                    return Verdict::Dropped {
                        reason: DropReason::ModuleDiscard,
                        module_id: Some(module_id),
                    };
                }
            };
            phv.metadata.buffer_tag = 1 << buffer_tag;

            // System-level module, first half.
            self.system.ingress(&mut phv, packet_len, self.cycle);

            // Tenant stages with per-module overlay configuration. A stage
            // where the module has a flat table (LPM/range) resolves the
            // action index through that table and executes it directly;
            // otherwise the exact CAM path runs.
            for stage in &mut self.stages {
                let config = StageConfig {
                    key_extract: stage.key_extract.read(slot).copied().unwrap_or_default(),
                    key_mask: stage.key_mask.read(slot).copied().unwrap_or_default(),
                };
                let translator = SegmentTranslator::new(stage.segment.read(slot));
                let MenshenStage { hw, lpm, range, .. } = stage;
                if let Some(table) = lpm.get(slot).and_then(|t| t.as_ref()) {
                    let key = extract_key(&phv, &config.key_extract, &config.key_mask);
                    if let Some(action) = table.lookup_key(&key) {
                        hw.execute_action(action as usize, &mut phv, &translator);
                    }
                } else if let Some(table) = range.get(slot).and_then(|t| t.as_ref()) {
                    let key = extract_key(&phv, &config.key_extract, &config.key_mask);
                    if let Some(action) = table.lookup_key(&key) {
                        hw.execute_action(action as usize, &mut phv, &translator);
                    }
                } else {
                    hw.process(&mut phv, &config, &translator);
                }
            }

            if phv.metadata.discard {
                if let Some(runtime) = self.modules.get_mut(&module_id) {
                    runtime.counters.packets_dropped += 1;
                }
                return Verdict::Dropped {
                    reason: DropReason::ModuleDiscard,
                    module_id: Some(module_id),
                };
            }

            // Deparse with the module's deparser entry.
            let mut packet = packet;
            let deparser_entry = self.deparser_table.read(slot).cloned().unwrap_or_default();
            if deparser::deparse(&mut packet, &phv, &deparser_entry).is_err() {
                if let Some(runtime) = self.modules.get_mut(&module_id) {
                    runtime.counters.packets_dropped += 1;
                }
                return Verdict::Dropped {
                    reason: DropReason::ModuleDiscard,
                    module_id: Some(module_id),
                };
            }

            // System-level module, second half: routing / multicast.
            let dst_ip = packet.ipv4_dst().unwrap_or(Ipv4Address::new(0, 0, 0, 0));
            let ports = match self.system.egress(module_id, dst_ip, &phv) {
                ForwardingDecision::Unicast(port) => vec![port],
                ForwardingDecision::Multicast(ports) => ports,
            };

            if let Some(runtime) = self.modules.get_mut(&module_id) {
                runtime.counters.packets_out += 1;
                runtime.counters.bytes_out += packet.len() as u64;
            }

            Verdict::Forwarded {
                packet,
                ports,
                phv,
                module_id,
            }
        }
    }

    /// A minimal module: match on dst IP (h4(1)), rewrite the UDP dst port to
    /// `rewrite_port` and count packets in stateful word 0.
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

    fn packet_for(module: u16, dst_last_octet: u8) -> Packet {
        PacketBuilder::udp_data(
            module,
            [10, 0, 0, 1],
            [10, 0, 0, dst_last_octet],
            5000,
            80,
            &[0u8; 8],
        )
    }

    #[test]
    fn load_and_process_single_module() {
        let mut pipeline = MenshenPipeline::new(TABLE5);
        let report = pipeline
            .load_module(&simple_module(7, 0x0a00_0002, 9999))
            .unwrap();
        assert_eq!(report.slot, 0);
        assert!(report.reconfig_packets >= 5);
        assert_eq!(pipeline.loaded_modules(), vec![ModuleId::new(7)]);
        assert_eq!(pipeline.module_name(ModuleId::new(7)), Some("m7"));

        let verdict = pipeline.process(packet_for(7, 2));
        match verdict {
            Verdict::Forwarded {
                packet, module_id, ..
            } => {
                assert_eq!(module_id, 7);
                assert_eq!(packet.udp_dst_port(), Some(9999));
            }
            other => panic!("expected forwarded, got {other:?}"),
        }
        // The per-module stateful counter incremented through the segment table.
        assert_eq!(pipeline.read_stateful(ModuleId::new(7), 0, 0), Some(1));
        let counters = pipeline.module_counters(ModuleId::new(7)).unwrap();
        assert_eq!(counters.packets_in, 1);
        assert_eq!(counters.packets_out, 1);
    }

    #[test]
    fn module_state_export_take_import_round_trip() {
        let mut source = MenshenPipeline::new(TABLE5);
        let config = simple_module(3, 0x0a00_0002, 4444);
        source.load_module(&config).unwrap();
        // Drive traffic so both counters and stateful word 0 advance.
        for _ in 0..5 {
            assert!(source.process(packet_for(3, 2)).is_forwarded());
        }
        let exported = source.export_module_state(ModuleId::new(3)).unwrap();
        assert_eq!(exported.module_id, 3);
        assert_eq!(exported.counters.packets_in, 5);
        assert_eq!(exported.stages[0][0], 5, "loadd counter travelled");
        assert!(!exported.is_zero());
        assert_eq!(exported.word_count(), 16); // one 16-word stage-0 segment
                                               // Export alone does not disturb the source.
        assert_eq!(source.read_stateful(ModuleId::new(3), 0, 0), Some(5));

        // Take moves: the source is cleared.
        let taken = source.take_module_state(ModuleId::new(3)).unwrap();
        assert_eq!(taken, exported);
        assert_eq!(source.read_stateful(ModuleId::new(3), 0, 0), Some(0));
        assert_eq!(
            source.module_counters(ModuleId::new(3)).unwrap(),
            ModuleCounters::default()
        );

        // Import replays into a configuration replica, and the replica is
        // indistinguishable from the original afterwards.
        let mut target = source.config_replica();
        target.import_module_state(&taken).unwrap();
        assert_eq!(target.read_stateful(ModuleId::new(3), 0, 0), Some(5));
        assert_eq!(
            target.module_counters(ModuleId::new(3)).unwrap(),
            taken.counters
        );
        assert!(target.process(packet_for(3, 2)).is_forwarded());
        assert_eq!(target.read_stateful(ModuleId::new(3), 0, 0), Some(6));

        // Merging two extracts sums counters and words.
        let mut merged = taken.clone();
        merged.merge(&taken);
        assert_eq!(merged.counters.packets_in, 10);
        assert_eq!(merged.stages[0][0], 10);

        // Unknown modules surface as errors / None.
        assert!(source.export_module_state(ModuleId::new(9)).is_none());
        assert!(source.take_module_state(ModuleId::new(9)).is_none());
        let orphan = ModuleState {
            module_id: 9,
            ..ModuleState::default()
        };
        assert!(matches!(
            target.import_module_state(&orphan),
            Err(CoreError::UnknownModule { module_id: 9 })
        ));
        // Shape mismatches are refused instead of corrupting memory.
        let mut fat = taken.clone();
        fat.stages[0] = vec![1; 4096];
        assert!(matches!(
            target.import_module_state(&fat),
            Err(CoreError::StateShapeMismatch { module_id: 3, .. })
        ));
    }

    #[test]
    fn loaded_module_state_mergeability_matches_the_config_classification() {
        let mut pipeline = MenshenPipeline::new(TABLE5);
        // `loadd` counter: mergeable in both views.
        let additive = simple_module(1, 0x0a00_0002, 1111);
        // Same shape but with a `store`: non-mergeable in both views.
        let mut overwriting = simple_module(2, 0x0a00_0002, 2222);
        overwriting.stages[0].rules[0].action = VliwAction::nop()
            .with(C::h2(0), AluInstruction::set(2222))
            .with(C::h4(7), AluInstruction::store(C::h4(1), 0));
        // Pure rewrite, no state.
        let mut stateless = simple_module(3, 0x0a00_0002, 3333);
        stateless.stages[0].rules[0].action =
            VliwAction::nop().with(C::h2(0), AluInstruction::set(3333));

        for config in [&additive, &overwriting, &stateless] {
            pipeline.load_module(config).unwrap();
            let loaded = pipeline
                .module_state_mergeability(config.module_id)
                .expect("module is loaded");
            let from_config = config.state_mergeability();
            assert_eq!(
                std::mem::discriminant(&loaded),
                std::mem::discriminant(&from_config),
                "module {}: loaded {loaded:?} vs config {from_config:?}",
                config.module_id
            );
        }
        assert!(pipeline
            .module_state_mergeability(ModuleId::new(99))
            .is_none());
    }

    /// `simple_module` with the loadd swapped for a `store` of the matched
    /// dst IP — the canonical non-mergeable (last-writer-wins) program.
    fn storing_module(module_id: u16, dst_ip: u32, rewrite_port: u16) -> ModuleConfig {
        let mut config = simple_module(module_id, dst_ip, rewrite_port);
        config.stages[0].rules[0].action = VliwAction::nop()
            .with(C::h2(0), AluInstruction::set(rewrite_port))
            .with(C::h4(7), AluInstruction::store(C::h4(1), 2));
        config
    }

    #[test]
    fn loaded_module_execution_mode_matches_the_config_classification() {
        let mut pipeline = MenshenPipeline::new(TABLE5);
        let additive = simple_module(1, 0x0a00_0002, 1111);
        let storing = storing_module(2, 0x0a00_0002, 2222);
        // A parser wider than a digest can carry cannot replicate; repeating
        // its last extraction changes nothing else about the program.
        let mut pinned = storing_module(3, 0x0a00_0002, 3333);
        let last = *pinned.parser.actions.last().unwrap();
        pinned
            .parser
            .actions
            .resize(crate::DIGEST_MAX_FIELDS + 1, last);
        for config in [&additive, &storing, &pinned] {
            pipeline.load_module(config).unwrap();
            assert_eq!(
                pipeline.module_execution_mode(config.module_id),
                Some(config.execution_mode()),
                "module {}",
                config.module_id
            );
        }
        assert_eq!(
            pipeline.module_execution_mode(ModuleId::new(2)),
            Some(ExecutionMode::Replicated)
        );
        assert_eq!(
            pipeline.module_execution_mode(ModuleId::new(3)),
            Some(ExecutionMode::Pinned),
            "an undigestible parser falls back to pinning"
        );
        assert!(pipeline.module_execution_mode(ModuleId::new(99)).is_none());
        let spec = pipeline.module_digest_spec(ModuleId::new(2)).unwrap();
        assert_eq!(spec.fields().len(), 2, "spec mirrors the installed parser");
    }

    #[test]
    fn digest_replay_advances_state_identically_to_processing() {
        let config = storing_module(7, 0x0a00_0002, 9999);
        let mut owner = MenshenPipeline::new(TABLE5);
        owner.load_module(&config).unwrap();
        let mut replica = owner.config_replica();
        let spec = owner.module_digest_spec(ModuleId::new(7)).unwrap();

        // The owner processes real packets; the replica sees only digests.
        for i in 0..5u8 {
            let packet = packet_for(7, 2);
            let digest = spec.extract(&packet, 0);
            assert!(owner.process(packet).is_forwarded());
            replica.apply_state_digest(&digest);
            assert_eq!(
                replica.read_stateful(ModuleId::new(7), 0, 2),
                owner.read_stateful(ModuleId::new(7), 0, 2),
                "replica word tracks the owner after packet {i}"
            );
        }
        // `store` wrote the matched dst IP into word 2 on both sides.
        assert_eq!(
            replica.read_stateful(ModuleId::new(7), 0, 2),
            Some(0x0a00_0002)
        );

        // Digests are bookkeeping: no counters, no verdicts, clean stats.
        assert_eq!(
            replica.module_counters(ModuleId::new(7)),
            Some(ModuleCounters::default())
        );

        // Non-matching packets replay as faithfully as matching ones (the
        // stage misses, so state is untouched on both sides).
        let miss = packet_for(7, 9);
        let digest = spec.extract(&miss, 0);
        assert!(owner.process(miss).is_forwarded());
        replica.apply_state_digest(&digest);
        assert_eq!(
            replica.read_stateful(ModuleId::new(7), 0, 2),
            owner.read_stateful(ModuleId::new(7), 0, 2)
        );

        // Digests for unknown or reconfiguring modules are ignored.
        let stray = spec.extract(&packet_for(7, 2), 0);
        replica.begin_reconfiguration(ModuleId::new(7)).unwrap();
        replica.apply_state_digest(&stray);
        replica.end_reconfiguration(ModuleId::new(7)).unwrap();
        assert_eq!(
            replica.read_stateful(ModuleId::new(7), 0, 2),
            Some(0x0a00_0002),
            "reconfiguring modules drop digests like they drop packets"
        );
        let mut empty = MenshenPipeline::new(TABLE5);
        empty.apply_state_digest(&spec.extract(&packet_for(7, 2), 1)); // unknown module: no-op, no panic
    }

    #[test]
    fn two_modules_same_key_do_not_interfere() {
        let mut pipeline = MenshenPipeline::new(TABLE5);
        pipeline
            .load_module(&simple_module(1, 0x0a00_0002, 1111))
            .unwrap();
        pipeline
            .load_module(&simple_module(2, 0x0a00_0002, 2222))
            .unwrap();

        let v1 = pipeline.process(packet_for(1, 2));
        let v2 = pipeline.process(packet_for(2, 2));
        assert_eq!(v1.packet().unwrap().udp_dst_port(), Some(1111));
        assert_eq!(v2.packet().unwrap().udp_dst_port(), Some(2222));
        // Stateful counters are independent despite both using local address 0.
        assert_eq!(pipeline.read_stateful(ModuleId::new(1), 0, 0), Some(1));
        assert_eq!(pipeline.read_stateful(ModuleId::new(2), 0, 0), Some(1));
    }

    #[test]
    fn unknown_and_untagged_packets_dropped() {
        let mut pipeline = MenshenPipeline::new(TABLE5);
        pipeline
            .load_module(&simple_module(1, 0x0a00_0002, 1111))
            .unwrap();
        match pipeline.process(packet_for(9, 2)) {
            Verdict::Dropped { reason, module_id } => {
                assert_eq!(reason, DropReason::UnknownModule);
                assert_eq!(module_id, Some(9));
            }
            other => panic!("unexpected {other:?}"),
        }
        let mut builder = PacketBuilder::new();
        builder.vlan = None;
        let untagged = builder.build_udp([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, &[]);
        assert!(matches!(
            pipeline.process(untagged),
            Verdict::Dropped {
                reason: DropReason::NoVlan,
                ..
            }
        ));
    }

    #[test]
    fn data_path_reconfiguration_is_rejected() {
        let mut pipeline = MenshenPipeline::new(TABLE5);
        pipeline
            .load_module(&simple_module(1, 0x0a00_0002, 1111))
            .unwrap();
        // A tenant crafts a reconfiguration packet and sends it on the data path.
        let malicious = ReconfigCommand::write(
            ResourceKind::KeyMask,
            0,
            0,
            WritePayload::KeyMask(KeyMask::default()),
        )
        .to_packet();
        let before = pipeline.filter().reconfig_counter();
        let verdict = pipeline.process(malicious);
        assert!(matches!(
            verdict,
            Verdict::Dropped {
                reason: DropReason::UntrustedReconfiguration,
                ..
            }
        ));
        assert_eq!(
            pipeline.filter().reconfig_counter(),
            before,
            "no configuration write happened"
        );
        // The module still works (its key mask was not zeroed).
        let v = pipeline.process(packet_for(1, 2));
        assert_eq!(v.packet().unwrap().udp_dst_port(), Some(1111));
    }

    #[test]
    fn trusted_reconfiguration_packet_applies() {
        let mut pipeline = MenshenPipeline::new(TABLE5);
        pipeline
            .load_module(&simple_module(1, 0x0a00_0002, 1111))
            .unwrap();
        let packet = ReconfigCommand::write(
            ResourceKind::SegmentTable,
            2,
            0,
            WritePayload::Segment(SegmentEntry::new(256, 32)),
        )
        .to_packet();
        pipeline.apply_reconfiguration_packet(&packet).unwrap();
        assert!(pipeline.filter().reconfig_counter() > 0);
    }

    #[test]
    fn module_packing_limited_by_overlay_depth_and_cam() {
        // With one match entry per stage per module, the CAM (16 entries)
        // limits packing to 16 modules (§5.2).
        let mut pipeline = MenshenPipeline::new(TABLE5);
        let mut loaded = 0;
        for id in 1..=40u16 {
            let config = simple_module(id, 0x0a00_0002, id);
            if pipeline.load_module(&config).is_ok() {
                loaded += 1;
            }
        }
        assert_eq!(loaded, 16);
        // With no match entries, packing is limited by the 32 overlay slots.
        let mut pipeline = MenshenPipeline::new(TABLE5);
        let mut loaded = 0;
        for id in 1..=40u16 {
            let config = ModuleConfig::empty(ModuleId::new(id), "tiny", 5);
            if pipeline.load_module(&config).is_ok() {
                loaded += 1;
            }
        }
        assert_eq!(loaded, 32);
        assert_eq!(pipeline.free_slots(), 0);
    }

    #[test]
    fn no_module_lands_in_a_slot_the_filter_cannot_mark() {
        // The being-reconfigured bitmap is 32 bits wide: a deeper overlay
        // table must not yield slots whose modules keep forwarding while
        // they are being rewritten.
        let mut pipeline = MenshenPipeline::new(TABLE5.with_overlay_depth(40));
        assert_eq!(pipeline.params().overlay_depth, 32);
        let tiny = |id: u16| ModuleConfig::empty(ModuleId::new(id), "tiny", 5);
        let refused = (1..=33)
            .filter(|&id| pipeline.load_module(&tiny(id)).is_err())
            .count();
        for module in pipeline.loaded_modules() {
            pipeline.begin_reconfiguration(module).unwrap();
            assert!(
                matches!(
                    pipeline.process(packet_for(module.value(), 2)),
                    Verdict::Dropped {
                        reason: DropReason::BeingReconfigured,
                        ..
                    }
                ),
                "{module} forwarded while being reconfigured"
            );
            pipeline.end_reconfiguration(module).unwrap();
            assert!(pipeline
                .process(packet_for(module.value(), 2))
                .is_forwarded());
        }
        assert_eq!(refused, 1, "the 33rd module has no markable slot");
        assert_eq!(pipeline.free_slots(), 0);
        assert!(matches!(
            pipeline.load_module(&tiny(33)),
            Err(CoreError::NoFreeModuleSlot { capacity: 32 })
        ));
    }

    #[test]
    fn unload_frees_resources_and_clears_state() {
        let mut pipeline = MenshenPipeline::new(TABLE5);
        pipeline
            .load_module(&simple_module(1, 0x0a00_0002, 1111))
            .unwrap();
        pipeline.process(packet_for(1, 2));
        assert_eq!(pipeline.read_stateful(ModuleId::new(1), 0, 0), Some(1));
        pipeline.unload_module(ModuleId::new(1)).unwrap();
        assert!(pipeline.loaded_modules().is_empty());
        assert!(pipeline.read_stateful(ModuleId::new(1), 0, 0).is_none());
        // A new module re-using the same slot and stateful range starts clean.
        pipeline
            .load_module(&simple_module(2, 0x0a00_0002, 2222))
            .unwrap();
        assert_eq!(pipeline.read_stateful(ModuleId::new(2), 0, 0), Some(0));
        // Unloading an unknown module errors.
        assert!(pipeline.unload_module(ModuleId::new(5)).is_err());
    }

    #[test]
    fn reconfiguration_drops_only_that_module() {
        let mut pipeline = MenshenPipeline::new(TABLE5);
        pipeline
            .load_module(&simple_module(1, 0x0a00_0002, 1111))
            .unwrap();
        pipeline
            .load_module(&simple_module(2, 0x0a00_0002, 2222))
            .unwrap();
        pipeline.begin_reconfiguration(ModuleId::new(1)).unwrap();
        assert!(matches!(
            pipeline.process(packet_for(1, 2)),
            Verdict::Dropped {
                reason: DropReason::BeingReconfigured,
                ..
            }
        ));
        assert!(pipeline.process(packet_for(2, 2)).is_forwarded());
        pipeline.end_reconfiguration(ModuleId::new(1)).unwrap();
        assert!(pipeline.process(packet_for(1, 2)).is_forwarded());
        assert!(pipeline.begin_reconfiguration(ModuleId::new(9)).is_err());
    }

    #[test]
    fn update_module_changes_behaviour_without_touching_others() {
        let mut pipeline = MenshenPipeline::new(TABLE5);
        pipeline
            .load_module(&simple_module(1, 0x0a00_0002, 1111))
            .unwrap();
        pipeline
            .load_module(&simple_module(2, 0x0a00_0002, 2222))
            .unwrap();
        pipeline.process(packet_for(2, 2));
        let before = pipeline.module_counters(ModuleId::new(2)).unwrap();

        pipeline
            .update_module(&simple_module(1, 0x0a00_0002, 7777))
            .unwrap();
        let v1 = pipeline.process(packet_for(1, 2));
        assert_eq!(v1.packet().unwrap().udp_dst_port(), Some(7777));
        let v2 = pipeline.process(packet_for(2, 2));
        assert_eq!(v2.packet().unwrap().udp_dst_port(), Some(2222));
        let after = pipeline.module_counters(ModuleId::new(2)).unwrap();
        assert_eq!(after.packets_in, before.packets_in + 1);
        // Updating an unloaded module errors.
        assert!(pipeline.update_module(&simple_module(9, 1, 1)).is_err());
    }

    fn verdicts_equivalent(a: &Verdict, b: &Verdict) -> bool {
        match (a, b) {
            (
                Verdict::Forwarded {
                    packet: pa,
                    ports: na,
                    phv: va,
                    module_id: ma,
                },
                Verdict::Forwarded {
                    packet: pb,
                    ports: nb,
                    phv: vb,
                    module_id: mb,
                },
            ) => pa.bytes() == pb.bytes() && na == nb && va == vb && ma == mb,
            (
                Verdict::Dropped {
                    reason: ra,
                    module_id: ma,
                },
                Verdict::Dropped {
                    reason: rb,
                    module_id: mb,
                },
            ) => ra == rb && ma == mb,
            _ => false,
        }
    }

    #[test]
    fn batch_matches_sequential_processing() {
        let mut sequential = MenshenPipeline::new(TABLE5);
        let mut batched = MenshenPipeline::new(TABLE5);
        for pipeline in [&mut sequential, &mut batched] {
            pipeline
                .load_module(&simple_module(1, 0x0a00_0002, 1111))
                .unwrap();
            pipeline
                .load_module(&simple_module(2, 0x0a00_0002, 2222))
                .unwrap();
        }

        // A mixed burst: both modules, an unknown module, an untagged packet,
        // and a data-path reconfiguration attempt.
        let mut burst = Vec::new();
        for i in 0..20u16 {
            burst.push(packet_for(1 + (i % 2), 2));
        }
        burst.push(packet_for(9, 2));
        let mut builder = PacketBuilder::new();
        builder.vlan = None;
        burst.push(builder.build_udp([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, &[]));
        burst.push(
            ReconfigCommand::write(
                ResourceKind::KeyMask,
                0,
                0,
                WritePayload::KeyMask(KeyMask::default()),
            )
            .to_packet(),
        );

        let sequential_verdicts: Vec<Verdict> = burst
            .iter()
            .map(|p| sequential.reference_process(p.clone()))
            .collect();
        let batched_verdicts = batched.process_batch(burst);

        assert_eq!(sequential_verdicts.len(), batched_verdicts.len());
        for (i, (a, b)) in sequential_verdicts
            .iter()
            .zip(&batched_verdicts)
            .enumerate()
        {
            assert!(
                verdicts_equivalent(a, b),
                "verdict {i} diverged: {a:?} vs {b:?}"
            );
        }
        for id in [1u16, 2] {
            assert_eq!(
                sequential.module_counters(ModuleId::new(id)),
                batched.module_counters(ModuleId::new(id)),
                "module {id} counters diverged"
            );
            // Stateful memory (per-packet loadd counters) advanced identically.
            assert_eq!(
                sequential.read_stateful(ModuleId::new(id), 0, 0),
                batched.read_stateful(ModuleId::new(id), 0, 0)
            );
        }
    }

    #[test]
    fn batch_sees_reconfiguration_between_bursts() {
        let mut pipeline = MenshenPipeline::new(TABLE5);
        pipeline
            .load_module(&simple_module(1, 0x0a00_0002, 1111))
            .unwrap();

        let verdicts = pipeline.process_batch(vec![packet_for(1, 2); 4]);
        assert!(verdicts.iter().all(Verdict::is_forwarded));
        assert_eq!(verdicts[0].packet().unwrap().udp_dst_port(), Some(1111));

        // Update the module between bursts; the next burst must re-resolve
        // the overlay configuration and see the new behaviour.
        pipeline
            .update_module(&simple_module(1, 0x0a00_0002, 7777))
            .unwrap();
        let verdicts = pipeline.process_batch(vec![packet_for(1, 2); 4]);
        assert_eq!(verdicts[0].packet().unwrap().udp_dst_port(), Some(7777));

        // And a module marked as being reconfigured drops its packets.
        pipeline.begin_reconfiguration(ModuleId::new(1)).unwrap();
        let verdicts = pipeline.process_batch(vec![packet_for(1, 2); 2]);
        assert!(verdicts.iter().all(|v| matches!(
            v,
            Verdict::Dropped {
                reason: DropReason::BeingReconfigured,
                ..
            }
        )));
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut pipeline = MenshenPipeline::new(TABLE5);
        pipeline
            .load_module(&simple_module(1, 0x0a00_0002, 1111))
            .unwrap();
        assert!(pipeline.process_batch(Vec::new()).is_empty());
        assert_eq!(
            pipeline.module_counters(ModuleId::new(1)),
            Some(ModuleCounters::default())
        );
    }

    #[test]
    fn system_module_routes_forwarded_packets() {
        let mut pipeline = MenshenPipeline::new(TABLE5);
        pipeline
            .system_mut()
            .add_route(Ipv4Address::new(10, 0, 0, 2), 42);
        pipeline.system_mut().set_default_port(1);
        let mut config = simple_module(3, 0x0a00_0002, 8080);
        // Remove the explicit port so the system module decides.
        config.stages[0].rules[0].action =
            VliwAction::nop().with(C::h2(0), AluInstruction::set(8080));
        pipeline.load_module(&config).unwrap();
        match pipeline.process(packet_for(3, 2)) {
            Verdict::Forwarded { ports, .. } => assert_eq!(ports, vec![42]),
            other => panic!("unexpected {other:?}"),
        }
        assert!(pipeline.system().stats().link_packets > 0);
    }

    /// An LPM firewall-style module: the longest matching dst-IP prefix
    /// selects which shared action rewrites the UDP dst port.
    fn lpm_module(module_id: u16, rules: Vec<LpmMatchRule>) -> ModuleConfig {
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
            // 4B slot 0 sits at key byte offset 12.
            match_kind: MatchKind::Lpm { key_offset: 12 },
            table_actions: vec![
                VliwAction::nop().with(C::h2(0), AluInstruction::set(1111)),
                VliwAction::nop().with(C::h2(0), AluInstruction::set(2222)),
            ],
            lpm_rules: rules,
            ..Default::default()
        };
        config
    }

    fn default_lpm_rules() -> Vec<LpmMatchRule> {
        vec![
            LpmMatchRule {
                prefix: 0x0a00_0000, // 10.0.0.0/8
                prefix_len: 8,
                action: 0,
            },
            LpmMatchRule {
                prefix: 0x0a00_0000, // 10.0.0.0/24
                prefix_len: 24,
                action: 1,
            },
        ]
    }

    fn packet_to(module: u16, dst: [u8; 4], dst_port: u16) -> Packet {
        PacketBuilder::udp_data(module, [10, 0, 0, 1], dst, 5000, dst_port, &[0u8; 8])
    }

    fn forwarded_port(verdict: &Verdict) -> Option<u16> {
        verdict.packet().and_then(|p| p.udp_dst_port())
    }

    #[test]
    fn lpm_module_longest_prefix_wins_end_to_end() {
        let mut pipeline = MenshenPipeline::new(TABLE5);
        let report = pipeline
            .load_module(&lpm_module(9, default_lpm_rules()))
            .unwrap();
        // parser + deparser + key extract + key mask + 2 actions + 2 rules
        assert_eq!(report.reconfig_packets, 8);

        // 10.0.0.5 matches both prefixes; /24 wins.
        let v = pipeline.process(packet_to(9, [10, 0, 0, 5], 80));
        assert_eq!(forwarded_port(&v), Some(2222));
        // 10.1.0.5 only matches /8.
        let v = pipeline.process(packet_to(9, [10, 1, 0, 5], 80));
        assert_eq!(forwarded_port(&v), Some(1111));
        // 11.0.0.1 misses: the packet passes through unchanged.
        let v = pipeline.process(packet_to(9, [11, 0, 0, 1], 80));
        assert_eq!(forwarded_port(&v), Some(80));

        let table = pipeline.lpm_table(ModuleId::new(9), 0).unwrap();
        assert_eq!(table.len(), 2);
        let (lookups, hits) = table.stats();
        assert_eq!(lookups, 3);
        assert_eq!(hits, 2);
    }

    /// Runs `packets` through the oracle one at a time and through the burst
    /// routine as one burst; verdicts and counters must agree.
    fn assert_burst_matches_reference(config: &ModuleConfig, packets: Vec<Packet>) {
        let mut sequential = MenshenPipeline::new(TABLE5);
        sequential.load_module(config).unwrap();
        let expected: Vec<Verdict> = packets
            .iter()
            .map(|p| sequential.reference_process(p.clone()))
            .collect();

        let mut batched = MenshenPipeline::new(TABLE5);
        batched.load_module(config).unwrap();
        let got = batched.process_batch(packets);

        assert_eq!(expected.len(), got.len());
        for (a, b) in expected.iter().zip(got.iter()) {
            assert!(verdicts_equivalent(a, b), "{a:?} vs {b:?}");
        }
        assert_eq!(
            sequential.module_counters(config.module_id),
            batched.module_counters(config.module_id),
        );
    }

    #[test]
    fn lpm_batch_path_matches_sequential() {
        let packets = [
            [10, 0, 0, 5],
            [10, 0, 1, 9],
            [10, 200, 0, 1],
            [11, 0, 0, 1],
            [10, 0, 0, 255],
        ]
        .iter()
        .map(|&dst| packet_to(9, dst, 80))
        .collect();
        assert_burst_matches_reference(&lpm_module(9, default_lpm_rules()), packets);
    }

    /// A range-match module: the UDP dst port (2B slot 0, key offset 20)
    /// selects an action by priority-ordered interval.
    fn range_module(module_id: u16, rules: Vec<RangeMatchRule>) -> ModuleConfig {
        let mut config =
            ModuleConfig::empty(ModuleId::new(module_id), format!("rng{module_id}"), 5);
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
                [false, false, false, false, true, false],
                false,
            )),
            match_kind: MatchKind::Range {
                key_offset: 20,
                key_width: 2,
            },
            table_actions: vec![
                VliwAction::nop().with(C::h2(0), AluInstruction::set(1111)),
                VliwAction::nop().with(C::h2(0), AluInstruction::set(2222)),
            ],
            range_rules: rules,
            ..Default::default()
        };
        config
    }

    #[test]
    fn range_module_priority_and_interval_semantics() {
        let mut pipeline = MenshenPipeline::new(TABLE5);
        pipeline
            .load_module(&range_module(
                11,
                vec![
                    RangeMatchRule {
                        lo: 0,
                        hi: 99,
                        priority: 1,
                        action: 0,
                    },
                    RangeMatchRule {
                        lo: 80,
                        hi: 80,
                        priority: 5,
                        action: 1,
                    },
                ],
            ))
            .unwrap();

        // Port 80 lies in both ranges; the higher-priority exact port wins.
        let v = pipeline.process(packet_to(11, [10, 0, 0, 2], 80));
        assert_eq!(forwarded_port(&v), Some(2222));
        // Port 90 only matches the wide range.
        let v = pipeline.process(packet_to(11, [10, 0, 0, 2], 90));
        assert_eq!(forwarded_port(&v), Some(1111));
        // Port 443 misses.
        let v = pipeline.process(packet_to(11, [10, 0, 0, 2], 443));
        assert_eq!(forwarded_port(&v), Some(443));
        assert!(pipeline.range_table(ModuleId::new(11), 0).is_some());
    }

    #[test]
    fn range_batch_path_matches_sequential() {
        let rules = vec![
            RangeMatchRule {
                lo: 0,
                hi: 99,
                priority: 1,
                action: 0,
            },
            RangeMatchRule {
                lo: 80,
                hi: 80,
                priority: 5,
                action: 1,
            },
        ];
        let packets = [80, 90, 443, 0, 99, 100]
            .iter()
            .map(|&port| packet_to(11, [10, 0, 0, 2], port))
            .collect();
        assert_burst_matches_reference(&range_module(11, rules), packets);
    }

    #[test]
    fn incremental_rule_install_keeps_module_live() {
        let mut pipeline = MenshenPipeline::new(TABLE5);
        // Start with an empty LPM table: everything passes through.
        pipeline.load_module(&lpm_module(9, Vec::new())).unwrap();
        let v = pipeline.process(packet_to(9, [10, 0, 0, 5], 80));
        assert_eq!(forwarded_port(&v), Some(80));

        // Stream rules in while the module keeps forwarding (no
        // begin/end_reconfiguration around the install).
        let before = pipeline.filter().reconfig_counter();
        let installed = pipeline
            .install_rules(
                ModuleId::new(9),
                0,
                &default_lpm_rules()
                    .into_iter()
                    .map(TableRule::Lpm)
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        assert_eq!(installed, 2);
        assert_eq!(pipeline.filter().reconfig_counter(), before + 2);

        let v = pipeline.process(packet_to(9, [10, 0, 0, 5], 80));
        assert_eq!(forwarded_port(&v), Some(2222));
        // Counters show uninterrupted forwarding: both packets went through.
        let counters = pipeline.module_counters(ModuleId::new(9)).unwrap();
        assert_eq!(counters.packets_in, 2);
        assert_eq!(counters.packets_out, 2);
    }

    #[test]
    fn daisy_chain_carries_flat_table_rules() {
        let mut pipeline = MenshenPipeline::new(TABLE5);
        let report = pipeline.load_module(&lpm_module(9, Vec::new())).unwrap();
        // A single LPM rule write addressed to the module's slot, carried by
        // a real reconfiguration packet over the trusted path.
        let packet = ReconfigCommand::write(
            ResourceKind::LpmTable,
            0,
            report.slot as u16,
            WritePayload::LpmRule(LpmMatchRule {
                prefix: 0x0a00_0000,
                prefix_len: 8,
                action: 0,
            }),
        )
        .to_packet();
        pipeline.apply_reconfiguration_packet(&packet).unwrap();
        let v = pipeline.process(packet_to(9, [10, 9, 9, 9], 80));
        assert_eq!(forwarded_port(&v), Some(1111));
    }

    #[test]
    fn flat_rule_action_indices_stay_inside_the_partition() {
        let mut pipeline = MenshenPipeline::new(TABLE5);
        pipeline.load_module(&lpm_module(9, Vec::new())).unwrap();
        // Action index 7 is outside the module's two-entry action range: the
        // write is rejected, so a module cannot execute another's actions.
        let err = pipeline
            .install_rules(
                ModuleId::new(9),
                0,
                &[TableRule::Lpm(LpmMatchRule {
                    prefix: 0,
                    prefix_len: 0,
                    action: 7,
                })],
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::BadReconfigPacket(_)), "{err:?}");
    }

    #[test]
    fn mismatched_match_kind_rules_rejected_at_load() {
        let mut config = lpm_module(9, default_lpm_rules());
        config.stages[0].rules.push(MatchRule {
            key: LookupKey::default(),
            action: VliwAction::nop(),
        });
        let mut pipeline = MenshenPipeline::new(TABLE5);
        let err = pipeline.load_module(&config).unwrap_err();
        assert!(matches!(err, CoreError::CheckFailed(_)), "{err:?}");
        // Nothing was allocated by the rejected load.
        assert_eq!(pipeline.free_slots(), TABLE5.overlay_depth);
        assert!(pipeline
            .load_module(&lpm_module(9, default_lpm_rules()))
            .is_ok());
    }

    #[test]
    fn lpm_and_exact_modules_coexist_without_interference() {
        let mut pipeline = MenshenPipeline::new(TABLE5);
        pipeline
            .load_module(&lpm_module(9, default_lpm_rules()))
            .unwrap();
        pipeline
            .load_module(&simple_module(7, 0x0a00_0002, 9999))
            .unwrap();

        // Same dst IP, different modules, different match engines.
        let v = pipeline.process(packet_to(9, [10, 0, 0, 2], 80));
        assert_eq!(forwarded_port(&v), Some(2222));
        let v = pipeline.process(packet_for(7, 2));
        assert_eq!(forwarded_port(&v), Some(9999));

        // Unloading the LPM module frees its flat table and leaves the
        // exact module untouched.
        pipeline.unload_module(ModuleId::new(9)).unwrap();
        assert!(pipeline.lpm_table(ModuleId::new(9), 0).is_none());
        let v = pipeline.process(packet_for(7, 2));
        assert_eq!(forwarded_port(&v), Some(9999));
    }

    #[test]
    fn config_replica_keeps_flat_tables_and_zeroes_their_stats() {
        let mut pipeline = MenshenPipeline::new(TABLE5);
        pipeline
            .load_module(&lpm_module(9, default_lpm_rules()))
            .unwrap();
        pipeline.process(packet_to(9, [10, 0, 0, 5], 80));
        let (lookups, _) = pipeline.lpm_table(ModuleId::new(9), 0).unwrap().stats();
        assert_eq!(lookups, 1);

        let mut replica = pipeline.config_replica();
        let (lookups, hits) = replica.lpm_table(ModuleId::new(9), 0).unwrap().stats();
        assert_eq!((lookups, hits), (0, 0));
        let v = replica.process(packet_to(9, [10, 0, 0, 5], 80));
        assert_eq!(forwarded_port(&v), Some(2222));
    }

    #[test]
    fn lpm_module_with_stateful_action_classifies_mergeable() {
        let mut config = lpm_module(9, default_lpm_rules());
        config.stages[0].table_actions[0] = VliwAction::nop()
            .with(C::h2(0), AluInstruction::set(1111))
            .with(C::h4(7), AluInstruction::loadd(0));
        config.stages[0].stateful_words = 16;
        assert_eq!(config.state_mergeability(), StateMergeability::Mergeable);

        let mut pipeline = MenshenPipeline::new(TABLE5);
        pipeline.load_module(&config).unwrap();
        assert_eq!(
            pipeline.module_state_mergeability(ModuleId::new(9)),
            Some(StateMergeability::Mergeable)
        );
        // The stateful counter really runs behind the LPM hit.
        pipeline.process(packet_to(9, [10, 1, 2, 3], 80));
        assert_eq!(pipeline.read_stateful(ModuleId::new(9), 0, 0), Some(1));
    }
}
